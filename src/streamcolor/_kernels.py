"""Hot stream kernels, vectorized over one edge chunk at a time.

The stream passes spend nearly all of their time here (the PRF that
draws the neighbor samples and the sketch check columns, field-sketch
accumulation, union-find).  Each kernel takes a whole chunk of edges and
leaves the same state the one-edge-at-a-time definition would.
"""

from __future__ import annotations

import numpy as np

# ---------------------------------------------------------------------------
# splitmix64 counter-mode PRF: all stream-side randomness that has to be
# replayable per (object, counter) pair without storing anything.
# ---------------------------------------------------------------------------

_M1 = np.uint64(0x9E3779B97F4A7C15)
_M2 = np.uint64(0xBF58476D1CE4E5B9)
_M3 = np.uint64(0x94D049BB133111EB)
_KA = np.uint64(0x9E3779B97F4A7C15)
_KB = np.uint64(0xC2B2AE3D27D4EB4F)
_KC = np.uint64(0x165667B19E3779F9)


def prf_u64(seed: int, a, b, c=0):
    """Vectorized splitmix64 of (seed, a, b, c); returns uint64 array/scalar."""
    with np.errstate(over="ignore"):  # wraparound mod 2^64 is the point
        x = (
            np.uint64(seed)
            + np.asarray(a, dtype=np.uint64) * _KA
            + np.asarray(b, dtype=np.uint64) * _KB
            + np.asarray(c, dtype=np.uint64) * _KC
        )
        z = x + _M1
        z = (z ^ (z >> np.uint64(30))) * _M2
        z = (z ^ (z >> np.uint64(27))) * _M3
        return z ^ (z >> np.uint64(31))


def prf_mod(seed: int, a, b, c, p: int):
    """PRF output reduced mod p (bias ~p/2^64, negligible for p < 2^32)."""
    return (prf_u64(seed, a, b, c) % np.uint64(p)).astype(np.int64)


def prf_uniform(seed: int, a, b, c=0):
    """PRF output as floats in [0, 1)."""
    return prf_u64(seed, a, b, c).astype(np.float64) / 2.0**64


# ---------------------------------------------------------------------------
# Field-sketch accumulation.  For each endpoint w of an incoming edge {o, w}:
# w's power-sum columns gain ((o+1)^k mod p for k < 2*r_max), and w's check
# block of each rate r gains the PRF-materialized random-matrix column of o
# at r.
# ---------------------------------------------------------------------------

_COLUMN_BLOCK = 16  # state columns built and gathered at a time; bounds the temporaries


def _endpoint_columns(ends, rates, alpha: int, p: int, zseed: int):
    """The state columns of the vertices ``ends``, in blocks of at most
    _COLUMN_BLOCK: yields (first column, block laid out (columns, |ends|)).

    Columns [0, 2*r_max) are the powers (v+1)^k mod p; then each rate's
    alpha check columns, PRF(zseed, r, v, row) mod p.
    """
    width = 2 * rates[-1]
    node = (ends + 1) % p
    acc = np.ones_like(node)
    for c0 in range(0, width, _COLUMN_BLOCK):
        block = np.empty((min(_COLUMN_BLOCK, width - c0), ends.size), dtype=np.int64)
        for k in range(block.shape[0]):
            block[k] = acc
            acc = acc * node
            acc -= acc // p * p  # acc % p; numpy's int64 // by a scalar is the faster op
        yield c0, block
    check = np.arange(len(rates) * alpha, dtype=np.int64)
    rate_of = np.asarray(rates, dtype=np.int64)[check // alpha]
    for c0 in range(0, check.size, _COLUMN_BLOCK):
        c = check[c0 : c0 + _COLUMN_BLOCK, None]
        yield width + c0, prf_mod(zseed, rate_of[c], ends[None, :], c % alpha, p)


def sketch_update(W: np.ndarray, us, vs, rates, alpha: int, p: int, zseed: int) -> None:
    """Add one chunk of edges to the sketch state ``W``.

    W has one row per vertex: 2*rates[-1] power-sum columns, then alpha
    check columns for each rate in turn, rates ascending (see
    `_endpoint_columns`).  Both directions of every edge are grouped by
    the receiving endpoint.  The chunk's sources are exactly its distinct
    endpoints, so their columns are built once per endpoint, gathered per
    incidence, summed per receiving endpoint and added to its row once.

    Nothing is reduced mod p here: every column entry is below p, so a
    vertex of degree deg < p sums to less than deg * p < p^2, which is
    exact in int64 for p <= `field.MAX_PRIME`, the largest p with
    p^2 < 2^63.
    """
    if us.size == 0:
        return
    dst = np.concatenate([vs, us])
    order = np.argsort(dst)  # any order within a group: the sums are exact
    dst = dst[order]
    src = np.concatenate([us, vs])[order]
    starts = np.flatnonzero(np.r_[True, dst[1:] != dst[:-1]])
    ends = dst[starts]
    idx = np.searchsorted(ends, src)
    for c0, block in _endpoint_columns(ends, rates, alpha, p, zseed):
        S = np.add.reduceat(np.take(block, idx, axis=1), starts, axis=1)
        W[ends, c0 : c0 + S.shape[0]] += S.T


# ---------------------------------------------------------------------------
# Union-find over the edge stream (component census).  Every hook puts the
# larger root under the smaller one, so each vertex's parent is at most
# itself and every root is its component's minimum vertex.
# ---------------------------------------------------------------------------


def _roots_of(parent, x):
    """Roots of the vertices x by pointer jumping; halves the paths walked."""
    r = parent[x]
    while True:
        up = parent[r]
        if np.array_equal(up, r):
            break
        gp = parent[up]
        parent[r] = gp
        r = gp
    parent[x] = r
    return r


def uf_union_batch(parent, us, vs) -> None:
    """Union the endpoints of every edge of one chunk (hook and jump)."""
    a, b = us, vs
    while a.size:
        ra, rb = _roots_of(parent, a), _roots_of(parent, b)
        split = ra != rb
        a, b = ra[split], rb[split]
        np.minimum.at(parent, np.maximum(a, b), np.minimum(a, b))


def uf_roots(parent: np.ndarray) -> np.ndarray:
    """Flatten a union-find parent array to root labels."""
    out = parent.copy()
    while True:
        up = out[out]
        if np.array_equal(up, out):
            return out
        out = up
