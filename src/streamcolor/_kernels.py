"""Hot stream kernels, vectorized over one edge chunk at a time.

The stream passes spend nearly all of their time here (the PRF that
draws the neighbor samples and the sketch check columns, field-sketch
accumulation, union-find).  Each kernel takes a whole chunk of edges and
leaves the same state the one-edge-at-a-time definition would.  A pass
reads chunks of O(n) edges (`stream.chunk_edges`); the chunk in flight is
the stream's read buffer, not state the algorithm keeps.
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
    """PRF output as floats in [0, 1): its top 53 bits, which a double holds
    exactly, so no output rounds up to 1."""
    return (prf_u64(seed, a, b, c) >> np.uint64(11)).astype(np.float64) * 2.0**-53


# ---------------------------------------------------------------------------
# Field-sketch accumulation.  For each endpoint w of an incoming edge {o, w}:
# w's power-sum columns gain ((o+1)^k mod p for k < 2*r_max), and w's check
# block of each rate r gains the PRF-materialized random-matrix column of o
# at r.
# ---------------------------------------------------------------------------

_GATHER_ENTRIES = 1 << 17  # entries of one gathered block (1 MiB); bounds the temporaries
_MAX_COLUMNS = 16          # columns per block when the chunk is short


def _endpoint_columns(ends, rates, alpha: int, p: int, zseed: int, step: int):
    """The state columns of the vertices ``ends``, in blocks of at most
    ``step``: yields (first column, block laid out (columns, |ends|)).

    Columns [0, 2*r_max) are the powers (v+1)^k mod p; then each rate's
    alpha check columns, PRF(zseed, r, v, row) mod p.
    """
    width = 2 * rates[-1]
    node = (ends + 1) % p
    acc = np.ones_like(node)
    for c0 in range(0, width, step):
        block = np.empty((min(step, width - c0), ends.size), dtype=np.int64)
        for k in range(block.shape[0]):
            block[k] = acc
            acc = acc * node
            acc -= acc // p * p  # acc % p; numpy's int64 // by a scalar is the faster op
        yield c0, block
    check = np.arange(len(rates) * alpha, dtype=np.int64)
    rate_of = np.asarray(rates, dtype=np.int64)[check // alpha]
    for c0 in range(0, check.size, step):
        c = check[c0 : c0 + step, None]
        yield width + c0, prf_mod(zseed, rate_of[c], ends[None, :], c % alpha, p)


def _incidences(us, vs, n: int):
    """Both directions of the edges (us, vs) over the vertices 0..n-1,
    grouped by receiving endpoint: the distinct receivers ascending, where
    each one's group starts, and each incidence's source as a position
    among the receivers, read from an n-length rank table.  The sort's
    temporaries are freed on return."""
    dst = np.concatenate([vs, us])
    order = np.argsort(dst)  # any order within a group: the sums are exact
    dst = dst[order]
    starts = np.flatnonzero(np.concatenate([[True], dst[1:] != dst[:-1]]))
    ends = dst[starts]
    rank = np.empty(n, dtype=np.int64)  # read only at receivers: every source is one
    rank[ends] = np.arange(ends.size)
    return ends, starts, rank[np.concatenate([us, vs])[order]]


def sketch_update(W: np.ndarray, us, vs, rates, alpha: int, p: int, zseed: int) -> None:
    """Add one chunk of edges to the sketch state ``W``.

    W has one row per vertex: 2*rates[-1] power-sum columns, then alpha
    check columns for each rate in turn, rates ascending (see
    `_endpoint_columns`).  Both directions of every edge are grouped by
    the receiving endpoint.  The chunk's sources are exactly its distinct
    endpoints, so their columns are built once per endpoint, gathered per
    incidence, summed per receiving endpoint and added to its row once.

    A pass reads chunks of O(n) edges (`stream.chunk_edges`), so each
    endpoint's columns serve many incidences.  The columns are gathered
    as many at a time as fit in `_GATHER_ENTRIES` entries (at least one,
    at most `_MAX_COLUMNS`), so the temporaries are O(chunk) index arrays,
    one such block and the n-length table that ranks the receivers
    (n = ``W.shape[0]``), whatever the chunk length.

    Nothing is reduced mod p here: every column entry is below p, so a
    vertex of degree deg < p sums to less than deg * p < p^2, which is
    exact in int64 for p <= `field.MAX_PRIME`, the largest p with
    p^2 < 2^63.
    """
    if us.size == 0:
        return
    ends, starts, idx = _incidences(us, vs, W.shape[0])
    step = min(_MAX_COLUMNS, max(1, _GATHER_ENTRIES // idx.size))
    for c0, block in _endpoint_columns(ends, rates, alpha, p, zseed, step):
        S = np.add.reduceat(np.take(block, idx, axis=1), starts, axis=1)
        W[ends, c0 : c0 + S.shape[0]] += S.T


# ---------------------------------------------------------------------------
# Union-find over the edge stream (component census).  Every hook puts the
# larger root under the smaller one, so each vertex's parent is at most
# itself and every root is its component's minimum vertex.
# ---------------------------------------------------------------------------


def _flatten(parent) -> None:
    """Point every vertex straight at its root, in place, by pointer jumping."""
    while True:
        up = parent[parent]
        if np.array_equal(up, parent):
            return
        parent[:] = up


def uf_union_batch(parent, us, vs) -> None:
    """Union the endpoints of every edge of one chunk (hook and jump).

    Each round flattens the whole forest, O(n) work that a chunk of at
    least n edges amortizes (`stream.chunk_edges` gives one up to
    n = 250,000); walking each endpoint to its root instead would repeat
    the walk for every incidence of a vertex in the chunk."""
    a, b = us, vs
    while a.size:
        _flatten(parent)
        a, b = parent[a], parent[b]
        split = a != b
        a, b = a[split], b[split]
        np.minimum.at(parent, np.maximum(a, b), np.minimum(a, b))


def uf_roots(parent: np.ndarray) -> np.ndarray:
    """Flatten a union-find parent array to root labels."""
    out = parent.copy()
    _flatten(out)
    return out
