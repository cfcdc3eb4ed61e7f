"""Hot per-edge kernels: numba-jitted with a pure-numpy/python fallback.

The stream pass spends nearly all of its time here (field-sketch
accumulation, reservoir sampling, union-find).  The numba kernels are used
when numba imports (it is the optional ``numba`` extra); otherwise the
numpy fallbacks run.
"""

from __future__ import annotations

import numpy as np

try:
    from numba import njit

    HAVE_NUMBA = True
except ImportError:  # numba is an optional extra; the numpy fallbacks run
    HAVE_NUMBA = False


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


if HAVE_NUMBA:

    @njit(cache=True, inline="always")
    def _prf_u64_scalar(seed, a, b, c):
        x = np.uint64(seed) + np.uint64(a) * _KA + np.uint64(b) * _KB + np.uint64(c) * _KC
        z = x + _M1
        z = (z ^ (z >> np.uint64(30))) * _M2
        z = (z ^ (z >> np.uint64(27))) * _M3
        return z ^ (z >> np.uint64(31))


# ---------------------------------------------------------------------------
# Field-sketch accumulation.  For each stored endpoint w of an incoming edge
# {u, w}: y(w) += (powers of the other endpoint's column id) mod p, and
# z(w) += PRF-materialized random-matrix column mod p.
# ---------------------------------------------------------------------------


def _sketch_update_rate_numpy(Y, Z, pos, us, vs, p, zseed, ridx):
    two_r = Y.shape[1]
    alpha = Z.shape[1]
    rows = np.arange(alpha, dtype=np.uint64)
    for src, dst in ((us, vs), (vs, us)):
        hit = pos[dst] >= 0
        if not hit.any():
            continue
        t = pos[dst[hit]]
        col = (src[hit].astype(np.int64) + 1) % p
        P = np.empty((col.size, two_r), dtype=np.int64)
        P[:, 0] = 1
        for k in range(1, two_r):
            P[:, k] = P[:, k - 1] * col % p
        np.add.at(Y, t, P)
        C = prf_mod(zseed, ridx, src[hit][:, None], rows[None, :], p)
        np.add.at(Z, t, C)
    Y %= p
    Z %= p


if HAVE_NUMBA:

    @njit(cache=True)
    def _sketch_update_rate_numba(Y, Z, pos, us, vs, p, zseed, ridx):
        two_r = Y.shape[1]
        alpha = Z.shape[1]
        for i in range(us.shape[0]):
            for d in range(2):
                w = vs[i] if d == 0 else us[i]
                o = us[i] if d == 0 else vs[i]
                t = pos[w]
                if t < 0:
                    continue
                col = (o + 1) % p
                acc = 1
                for k in range(two_r):
                    Y[t, k] = (Y[t, k] + acc) % p
                    acc = acc * col % p
                for k in range(alpha):
                    Z[t, k] = (Z[t, k] + _prf_u64_scalar(zseed, ridx, o, k) % np.uint64(p)) % p

    sketch_update_rate = _sketch_update_rate_numba
else:
    sketch_update_rate = _sketch_update_rate_numpy


# ---------------------------------------------------------------------------
# Per-vertex neighbor reservoirs (uniform without replacement over arrivals).
# ---------------------------------------------------------------------------


def _reservoir_update_numpy(res, counts, us, vs, seed):
    size = res.shape[1]
    for i in range(us.shape[0]):
        for a, b in ((int(us[i]), int(vs[i])), (int(vs[i]), int(us[i]))):
            c = counts[a]
            if c < size:
                res[a, c] = b
            else:
                # reduce in uint64 as _reservoir_update_numba does: a Python int >= 2^63
                # mixed with np.int64 raises OverflowError under NumPy 2
                j = int(prf_u64(seed, a, c) % np.uint64(c + 1))
                if j < size:
                    res[a, j] = b
            counts[a] = c + 1


if HAVE_NUMBA:

    @njit(cache=True)
    def _reservoir_update_numba(res, counts, us, vs, seed):
        size = res.shape[1]
        for i in range(us.shape[0]):
            for d in range(2):
                a = us[i] if d == 0 else vs[i]
                b = vs[i] if d == 0 else us[i]
                c = counts[a]
                if c < size:
                    res[a, c] = b
                else:
                    j = int(_prf_u64_scalar(seed, a, c, 0) % np.uint64(c + 1))
                    if j < size:
                        res[a, j] = b
                counts[a] = c + 1

    reservoir_update = _reservoir_update_numba
else:
    reservoir_update = _reservoir_update_numpy


# ---------------------------------------------------------------------------
# Union-find over the edge stream (component census).
# ---------------------------------------------------------------------------


def _uf_find_py(parent, x):
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def _uf_union_batch_numpy(parent, us, vs):
    for i in range(us.shape[0]):
        a = _uf_find_py(parent, int(us[i]))
        b = _uf_find_py(parent, int(vs[i]))
        if a != b:
            if a < b:
                parent[b] = a
            else:
                parent[a] = b


if HAVE_NUMBA:

    @njit(cache=True)
    def _uf_union_batch_numba(parent, us, vs):
        for i in range(us.shape[0]):
            x = us[i]
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            y = vs[i]
            while parent[y] != y:
                parent[y] = parent[parent[y]]
                y = parent[y]
            if x != y:
                if x < y:
                    parent[y] = x
                else:
                    parent[x] = y

    uf_union_batch = _uf_union_batch_numba
else:
    uf_union_batch = _uf_union_batch_numpy


def uf_roots(parent: np.ndarray) -> np.ndarray:
    """Flatten a union-find parent array to root labels."""
    out = parent.copy()
    for v in range(out.shape[0]):
        out[v] = _uf_find_py(out, v)
    return out
