"""The counter-mode PRF and the union-find kernels.

The PRF draws the stream's randomness that must replay per (object,
counter) without being stored: the neighbor samples and the sketch check
columns.  Union-find takes whole edge chunks (the pre-pass's component
census, the decomposition's link components) and leaves the same roots
the one-edge-at-a-time definition would.  A pass reads chunks of O(n)
edges (`stream.chunk_edges`); the chunk in flight is the stream's read
buffer, not state the algorithm keeps.  The sketch columns are summed in
`field.add_columns`.
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
