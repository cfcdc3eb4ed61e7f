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
# Field-sketch accumulation.  For each stored endpoint w of an incoming edge
# {o, w} at rate r: y(w) += ((o+1)^k mod p for k < 2r), and
# z(w) += PRF-materialized random-matrix column of o, all mod p.
# ---------------------------------------------------------------------------

_POWER_BLOCK = 16  # power rows built at a time; bounds the temporaries


def sketch_update(Y: dict, Z: dict, pos: dict, us, vs, p: int, zseed: int) -> None:
    """Add one chunk of edges to the sketches of every rate.

    ``Y[r]``, ``Z[r]`` and ``pos[r]`` are rate r's (stored, 2r) and
    (stored, alpha) sums and its vertex -> row map (-1 = not stored).
    Both directions of every edge are grouped by the receiving endpoint,
    the powers up to the largest rate are summed per endpoint once, and
    each rate adds the first 2r of those sums at the endpoints it stores.
    Every partial sum stays below deg * p < 2^63, so the result is the
    exact sum mod p.
    """
    if us.size == 0:
        return
    dst = np.concatenate([vs, us])
    order = np.argsort(dst, kind="stable")
    dst = dst[order]
    src = np.concatenate([us, vs])[order]
    starts = np.flatnonzero(np.r_[True, dst[1:] != dst[:-1]])
    sizes = np.diff(np.r_[starts, dst.size])
    ends = dst[starts]

    stored = {}  # rate -> (mask of the groups it stores, their rows)
    for r, pos_r in pos.items():
        t = pos_r[ends]
        g = t >= 0
        if g.any():
            stored[r] = (g, t[g])
    if not stored:
        return

    col = (src + 1) % p
    acc = np.ones_like(col)
    rows = 2 * max(stored)
    for k0 in range(0, rows, _POWER_BLOCK):
        k1 = min(rows, k0 + _POWER_BLOCK)
        P = np.empty((k1 - k0, col.size), dtype=np.int64)
        for k in range(k1 - k0):
            P[k] = acc
            acc = acc * col
            acc -= acc // p * p  # acc % p; numpy's int64 // by a scalar is the faster op
        S = np.add.reduceat(P, starts, axis=1)
        for r, (g, t) in stored.items():
            hi = min(k1, 2 * r)
            if hi > k0:
                Y[r][t, k0:hi] = (Y[r][t, k0:hi] + S[: hi - k0, g].T) % p

    for r, (g, t) in stored.items():
        picked = src[np.repeat(g, sizes)]
        sub_starts = np.r_[0, np.cumsum(sizes[g])[:-1]]
        alpha_rows = np.arange(Z[r].shape[1], dtype=np.int64)
        C = prf_mod(zseed, r, picked[None, :], alpha_rows[:, None], p)
        Z[r][t] = (Z[r][t] + np.add.reduceat(C, sub_starts, axis=1).T) % p


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
