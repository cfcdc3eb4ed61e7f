"""One graph type: sorted adjacency lists in CSR form, and the pair-count
pass that the decomposition and its verification read.

Row v of a `Graph` is ``indices[indptr[v]:indptr[v+1]]``, ascending and
without repeats.  The shadow, the conflict graph H, the recovery graph H+
and the decomposition samplers are all graphs of this type, built in one
vectorized sort from an array of edges or (row, column) pairs.

`pair_counts` is an edge-iterator triangle pass (Schank & Wagner 2005;
Latapy 2008): it enumerates the pairs inside every list and looks them up
among the edges, so a graph's lists against its own edges give every
edge's common-neighbor count, and t(v), the number of triangles at v.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

PAIR_CHUNK = 1 << 14  # pairs looked up at a time; bounds the temporaries


def sorted_unique(a: np.ndarray) -> np.ndarray:
    """The distinct values of a, ascending, from one sort.  Without counts,
    np.unique in numpy 2.4 takes a hashing path that is one to two orders
    of magnitude slower than this on large int64 code arrays."""
    a = np.sort(a)
    return a[np.r_[True, a[1:] != a[:-1]]] if a.size else a


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
        self.indices = codes % n
        self.indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(codes // n, minlength=n), out=self.indptr[1:])
        self.degrees = np.diff(self.indptr)

    @property
    def m(self) -> int:
        """Edge count of an undirected graph (each edge sits in two rows)."""
        return self.indices.size // 2

    def stored_bits(self) -> int:
        """Both directions of every edge at ceil(log2 n) bits each."""
        return self.m * 2 * max(1, int(np.ceil(np.log2(max(2, self.n)))))

    def row(self, v: int) -> np.ndarray:
        return self.indices[self.indptr[v] : self.indptr[v + 1]]

    def neighbors(self, v: int) -> set[int]:
        return set(self.row(v).tolist())

    def degree(self, v: int) -> int:
        return int(self.degrees[v])

    def has_edge(self, u: int, v: int) -> bool:
        r = self.row(u)
        i = int(np.searchsorted(r, v))
        return i < r.size and int(r[i]) == v

    def pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """(row, column) of every list entry, in row-major order."""
        return np.repeat(np.arange(self.n), self.degrees), self.indices

    def edges(self) -> np.ndarray:
        """(m, 2) array of the edges u < v, ascending."""
        rows, cols = self.pairs()
        up = rows < cols
        return np.stack([rows[up], cols[up]], axis=1)

    def rows_of(self, verts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The rows of several vertices, concatenated: for every entry, the
        position of its vertex in verts, and the neighbor."""
        deg = self.degrees[verts]
        owner = np.repeat(np.arange(verts.size), deg)
        first = np.repeat(self.indptr[verts] - np.cumsum(deg) + deg, deg)
        return owner, self.indices[first + np.arange(owner.size)]

    def within(self, verts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Adjacencies inside a vertex set: for sorted distinct verts, the
        positions (i, j) with verts[j] a neighbor of verts[i], i ascending."""
        if verts.size == 0:
            return verts, verts
        i, nbrs = self.rows_of(verts)
        j = np.minimum(np.searchsorted(verts, nbrs), verts.size - 1)
        hit = verts[j] == nbrs
        return i[hit], j[hit]

    @cached_property
    def common(self) -> np.ndarray:
        """Common-neighbor count of every edge, in edges() order.

        One pair_counts pass lists each triangle once, from its smallest
        vertex: the rows cut to their larger neighbors are looked up
        against the edges.  A hit counts for the pair it found and for the
        two row entries it came from; the entries of the cut rows are the
        edges themselves, in edges() order.
        """
        e = self.edges()
        upper = Graph.from_pairs(self.n, e[:, 0], e[:, 1])
        per_code, per_entry = pair_counts(upper, e[:, 0] * self.n + e[:, 1])
        return per_code + per_entry

    def triangles(self) -> np.ndarray:
        """t(v), the number of edges among the neighbors of each vertex:
        half the sum of the common counts over v's edges."""
        e, common = self.edges(), self.common
        per_end = np.bincount(e[:, 0], weights=common, minlength=self.n)
        per_end += np.bincount(e[:, 1], weights=common, minlength=self.n)
        return per_end.astype(np.int64) // 2


def pair_counts(lists: Graph, edge_codes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Look up every pair u < v inside each list among sorted edge codes
    u*n + v.

    Returns (per_code, per_entry): for each code, the number of lists that
    hold both of its endpoints; for each list entry (a position of
    ``lists.indices``), the number of the pairs it forms in its list that
    are edges.  The pairs are enumerated with one ``np.triu_indices`` per
    list length, at most about PAIR_CHUNK at a time, and found by binary
    search.
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
                pos = np.searchsorted(edge_codes, q)
                np.minimum(pos, m - 1, out=pos)
                hit = edge_codes[pos] == q
                np.add.at(per_code, pos[hit], 1)
                np.add.at(per_entry, pa[hit], 1)
                np.add.at(per_entry, pb[hit], 1)
    return per_code, per_entry
