"""One graph type: sorted adjacency lists in CSR form, and the two
common-neighbor counts that the decomposition and its verification read.

Row v of a `Graph` is ``indices[indptr[v]:indptr[v+1]]``, ascending and
without repeats.  The shadow, the conflict graph H, the recovery graph H+
and the neighbor samples are all graphs of this type, built in one
vectorized sort from an array of edges or (row, column) pairs.  A graph is
not changed once built, so what is derived from it is derived once: the
edge list `edges()`, the counts `common` and `triangles()` are computed on
first use and cached; they and the CSR arrays are read-only, so a caller
that writes into one raises instead of changing what later callers read.

Both counts give |row(u) & row(v)| for a set of edges, and with it t(v),
the number of triangles at v.  `packed_common` packs the rows into
bitsets, one column tile at a time, and ANDs and popcounts the two rows of
every edge: m * ceil(n/64) words.  `pair_counts` is an edge-iterator
triangle pass (Schank & Wagner 2005; Latapy 2008): it enumerates the pairs
inside every list and looks them up among the edges, one binary search per
pair, a sorted chunk of pairs at a time.  `packed_pays` picks between them from those two work counts, so the
pair pass runs only where n/Delta is large and the bitsets mostly zeros.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

PAIR_CHUNK = 1 << 14  # pairs looked up at a time; bounds the temporaries
PACK_CHUNK = 1 << 14  # row entries packed, and words gathered, at a time
TILE_BYTES = 1 << 24  # packed rows held at once: n rows of a column tile
# packed words that cost about one pair lookup: on a 2-core x86 VM with
# numpy 2.4 a word took 4-12 ns and a lookup 75-130 ns
WEDGE_WORDS = 10


def sorted_unique(a: np.ndarray) -> np.ndarray:
    """The distinct values of a, ascending, from one sort.  Without counts,
    np.unique in numpy 2.4 takes a hashing path that is one to two orders
    of magnitude slower than this on large int64 code arrays."""
    a = np.sort(a)
    return a[np.concatenate([[True], a[1:] != a[:-1]])] if a.size else a


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


class Graph:
    """Sorted adjacency lists over the vertices 0..n-1."""

    def __init__(self, n: int, edges):
        """Undirected graph from an (m, 2) edge array; repeated edges collapse."""
        e = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        self._fill(n, np.concatenate([e[:, 0], e[:, 1]]), np.concatenate([e[:, 1], e[:, 0]]))

    @classmethod
    def from_pairs(cls, n: int, rows, cols) -> "Graph":
        """Directed lists: row a holds every b of a pair (a, b)."""
        g = cls.__new__(cls)
        g._fill(n, np.asarray(rows, dtype=np.int64), np.asarray(cols, dtype=np.int64))
        return g

    def _fill(self, n: int, rows: np.ndarray, cols: np.ndarray) -> None:
        codes = sorted_unique(rows * n + cols)
        self.n = n
        self.indices = _read_only(codes % n)
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(codes // n, minlength=n), out=indptr[1:])
        self.indptr = _read_only(indptr)
        self.degrees = _read_only(np.diff(indptr))

    @property
    def m(self) -> int:
        """Edge count of an undirected graph (each edge sits in two rows)."""
        return self.indices.size // 2

    def stored_bits(self) -> int:
        """Every list entry at ceil(log2 n) bits: both directions of each
        undirected edge, each pair once in directed lists."""
        return self.indices.size * max(1, int(np.ceil(np.log2(max(2, self.n)))))

    def pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """(row, column) of every list entry, in row-major order."""
        return np.repeat(np.arange(self.n), self.degrees), self.indices

    def edges(self) -> np.ndarray:
        """(m, 2) array of the edges u < v, ascending; derived once, read-only."""
        return self._edges

    @cached_property
    def _edges(self) -> np.ndarray:
        rows, cols = self.pairs()
        up = rows < cols
        return _read_only(np.stack([rows[up], cols[up]], axis=1))

    def rows_of(self, verts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The rows of several vertices, concatenated: for every entry, the
        position of its vertex in verts, and the neighbor."""
        deg = self.degrees[verts]
        owner = np.repeat(np.arange(verts.size), deg)
        first = np.repeat(self.indptr[verts] - np.cumsum(deg) + deg, deg)
        return owner, self.indices[first + np.arange(owner.size)]

    @cached_property
    def common(self) -> np.ndarray:
        """Common-neighbor count of every edge, in edges() order.

        Packed rows where they pay.  Otherwise one pair_counts pass lists
        each triangle once, from its smallest vertex: the rows cut to their
        larger neighbors are looked up against the edges.  A hit counts for
        the pair it found and for the two row entries it came from; the
        entries of the cut rows are the edges themselves, in edges() order.
        """
        e = self.edges()
        if packed_pays(self.n, e.shape[0], np.bincount(e[:, 0], minlength=self.n)):
            return _read_only(packed_common(self, e))
        upper = Graph.from_pairs(self.n, e[:, 0], e[:, 1])
        per_code, per_entry = pair_counts(upper, e[:, 0] * self.n + e[:, 1])
        return _read_only(per_code + per_entry)

    def triangles(self) -> np.ndarray:
        """t(v), the number of edges among the neighbors of each vertex;
        derived once, read-only."""
        return self._triangles

    @cached_property
    def _triangles(self) -> np.ndarray:
        # half the sum of the common counts over v's edges
        e, common = self.edges(), self.common
        per_end = np.bincount(e[:, 0], weights=common, minlength=self.n)
        per_end += np.bincount(e[:, 1], weights=common, minlength=self.n)
        return _read_only(per_end.astype(np.int64) // 2)


def pair_counts(lists: Graph, edge_codes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Look up every pair u < v inside each list among sorted edge codes
    u*n + v.

    Returns (per_code, per_entry): for each code, the number of lists that
    hold both of its endpoints; for each list entry (a position of
    ``lists.indices``), the number of the pairs it forms in its list that
    are edges.  The pairs are enumerated with one ``np.triu_indices`` per
    list length, at most about PAIR_CHUNK at a time, and each chunk's codes
    are sorted before they are found by binary search, so that the search
    walks the edge codes in order; the counts do not depend on the order.
    """
    n, m = lists.n, edge_codes.size
    per_code = np.zeros(m, dtype=np.int64)
    per_entry = np.zeros(lists.indices.size, dtype=np.int64)
    if m == 0:
        return per_code, per_entry
    deg = lists.degrees
    for d in sorted_unique(deg[deg >= 2]).tolist():
        starts = lists.indptr[:-1][deg == d]
        ii, jj = np.triu_indices(d, 1)
        per = max(1, PAIR_CHUNK // ii.size)  # whole lists per chunk
        for s in range(0, starts.size, per):
            base = starts[s : s + per, None]
            for lo in range(0, ii.size, PAIR_CHUNK):  # one long list in parts
                pa = (base + ii[lo : lo + PAIR_CHUNK]).ravel()
                pb = (base + jj[lo : lo + PAIR_CHUNK]).ravel()
                q = lists.indices[pa] * n
                q += lists.indices[pb]
                order = np.argsort(q)  # sorted keys walk the table in order
                q = q[order]
                pos = np.searchsorted(edge_codes, q)
                np.minimum(pos, m - 1, out=pos)
                hit = edge_codes[pos] == q
                np.add.at(per_code, pos[hit], 1)
                np.add.at(per_entry, pa[order[hit]], 1)
                np.add.at(per_entry, pb[order[hit]], 1)
    return per_code, per_entry


def packed_pays(n: int, pairs: int, list_lengths: np.ndarray) -> bool:
    """Whether packed rows count `pairs` edges over n columns for less work
    than pair_counts spends on lists of the given lengths: pairs *
    ceil(n/64) words against WEDGE_WORDS words for every pair it looks up."""
    d = list_lengths.astype(np.int64)
    return pairs * -(-n // 64) <= WEDGE_WORDS * int((d * (d - 1) // 2).sum())


def packed_common(lists: Graph, edges: np.ndarray) -> np.ndarray:
    """|row(u) & row(v)| for every (u, v) of a (k, 2) array.

    Column tile by column tile, every row's entries in the tile are packed
    into the tile's uint64 words, at most TILE_BYTES for all n rows, and
    the two rows of every edge are ANDed and popcounted.  One tile is held
    at a time.
    """
    n = lists.n
    us, vs = edges[:, 0], edges[:, 1]
    counts = np.zeros(us.size, dtype=np.int64)
    if us.size == 0:
        return counts
    words = -(-n // 64)
    tile = max(1, min(words, TILE_BYTES // (8 * n)))  # words per column tile
    start = lists.indptr[:-1]
    for w0 in range(0, words, tile):
        end = _first_at_least(lists, 64 * (w0 + tile))
        _add_shared(_pack(lists, start, end, 64 * w0, tile), us, vs, counts)
        start = end
    return counts


def _add_shared(packed: np.ndarray, us: np.ndarray, vs: np.ndarray, counts: np.ndarray) -> None:
    """Add popcount(packed[u] & packed[v]) to the count of every edge,
    gathering about PACK_CHUNK words at a time."""
    tile = packed.shape[1]
    per = max(1, PACK_CHUNK // tile)  # edges gathered at a time
    # a packed row as one item, so that a row gather is a fast 1-D take
    bitrows = packed.view(np.dtype((np.void, 8 * tile))).reshape(-1)
    for s in range(0, us.size, per):
        both = np.take(bitrows, us[s : s + per]).view(np.uint64)
        both &= np.take(bitrows, vs[s : s + per]).view(np.uint64)
        shared = np.bitwise_count(both).reshape(-1, tile)
        counts[s : s + per] += shared.sum(axis=1, dtype=np.int64)


def _first_at_least(lists: Graph, col: int) -> np.ndarray:
    """For every row, the position of its first entry >= col (the row's
    end when there is none): one vectorized bisection over all rows."""
    lo, hi = lists.indptr[:-1].copy(), lists.indptr[1:].copy()
    if col >= lists.n:
        return hi
    open_ = np.flatnonzero(lo < hi)
    while open_.size:
        mid = (lo[open_] + hi[open_]) // 2
        below = lists.indices[mid] < col
        lo[open_[below]] = mid[below] + 1
        hi[open_[~below]] = mid[~below]
        open_ = open_[lo[open_] < hi[open_]]
    return lo


def _pack(lists: Graph, start: np.ndarray, end: np.ndarray, lo: int, tile: int) -> np.ndarray:
    """The entries start[v]..end[v] of every row v, all in columns lo..lo +
    64*tile, as bits of an (n, tile) uint64 array; about PACK_CHUNK entries
    at a time, whole rows each."""
    n = lists.n
    packed = np.zeros((n, tile), dtype=np.uint64)
    flat = packed.reshape(-1)
    inside = end - start
    ends = np.cumsum(inside)
    offset = ends - inside  # where each row's entries begin among the tile's
    cuts = np.searchsorted(ends, np.arange(PACK_CHUNK, ends[-1], PACK_CHUNK), "right")
    for v0, v1 in zip([0, *cuts.tolist()], [*cuts.tolist(), n]):
        cnt = inside[v0:v1]
        rows = np.repeat(np.arange(v0, v1), cnt)
        at = np.arange(offset[v0], offset[v0] + rows.size)
        cols = lists.indices[np.repeat(start[v0:v1] - offset[v0:v1], cnt) + at]
        cols -= lo
        slot = rows * tile + (cols >> 6)
        if slot.size:
            first = np.flatnonzero(np.concatenate([[True], slot[1:] != slot[:-1]]))
            bits = np.left_shift(np.uint64(1), (cols & 63).astype(np.uint64))
            flat[slot[first]] = np.bitwise_or.reduceat(bits, first)
    return packed
