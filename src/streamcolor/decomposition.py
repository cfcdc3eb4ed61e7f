"""Sparse-dense decomposition: the Bernoulli neighbor samples of the main
pass, a verified reference decomposer, and the friend/stranger and
friendly/lonely testers.

The decomposition splits vertices into locally sparse ones (many
non-edges among their neighbors) and disjoint almost-cliques.  The
reference decomposer reads the shadow adjacency (it stands in for an
external streaming construction and is excluded from the space budget);
its output is always verified, never trusted.  A heuristic over the
neighbor samples sits behind the same interface with no guarantees; the
friend/lonely test reads the same samples.  Both decomposers read
common-neighbor counts: ANDed bitset rows (`graph.packed_common`) where
they pay, else one `graph.pair_counts` pass, as `graph.packed_pays`
decides; and every check is a whole-array operation over the graph's
sorted adjacency lists.  The almost-clique checks of all clusters, and of
all cliques in the verification, are one `rows_of` over their members
read through a label array over the n vertices, not a search.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from streamcolor._kernels import prf_uniform, uf_roots, uf_union_batch
from streamcolor.graph import Graph, packed_common, packed_pays, pair_counts, sorted_unique
from streamcolor.params import ParamSet, child_seed

SMALL, CRITICAL, LARGE = "small", "critical", "large"
FRIEND, STRANGER = "Friend", "Stranger"
FRIENDLY, LONELY = "friendly", "lonely"


class DecompositionFailed(RuntimeError):
    """A decomposition that fails verification.  The decomposer names the
    dense cluster at fault; the verification gate passes an empty
    ``cluster``, and its message is ``why`` alone."""

    def __init__(self, cluster, why: str):
        self.cluster = sorted(cluster)
        super().__init__(f"dense cluster {self.cluster[:8]}... fails verification: {why}"
                         if self.cluster else why)


# ---------------------------------------------------------------------------
# Stream-side sample collection
# ---------------------------------------------------------------------------


class SampleCollector:
    """Chunk-at-a-time collector of the Bernoulli neighbor samples, sharing
    the main pass with the other stream consumers: v keeps its neighbor w
    when prf(seed, v, w) falls below the isample rate.

    While the rate is clamped to 1 every neighbor is kept, so no PRF is
    drawn and the sample is the whole graph.  The main pass then feeds the
    collector only the edges H drops, as it feeds the sketch bank, and
    hands H to `finalize`: the sample is H itself when no edge was fed,
    else one graph of H's edges and the fed ones.
    """

    def __init__(self, n: int, delta: int, params: ParamSet, seed: int):
        self.n = n
        self.rate = params.isample_rate(delta)
        self.clamped = self.rate >= 1
        self.seed = child_seed(seed, "isample")
        self._pairs: list[np.ndarray] = []

    def update_chunk(self, us: np.ndarray, vs: np.ndarray) -> None:
        if self.clamped:
            if us.size:
                self._pairs.append(np.stack([us, vs], axis=1))
            return
        for a, b in ((us, vs), (vs, us)):
            keep = prf_uniform(self.seed, a, b) < self.rate
            if keep.any():
                self._pairs.append(np.stack([a[keep], b[keep]], axis=1))

    def finalize(self, h: Graph | None = None) -> Graph:
        """The sample: row v holds v's sampled neighbors.  Below rate 1 it
        is the directed lists of the sampled pairs, and h is not read.  At
        rate 1 it is h when no edge was fed, else the graph of h's edges
        (none without h) and the fed ones."""
        parts = self._pairs
        if self.clamped and h is not None:
            if not parts:
                return h
            parts = [h.edges(), *parts]
        pairs = np.concatenate(parts) if parts else np.empty((0, 2), dtype=np.int64)
        if self.clamped:
            return Graph(self.n, pairs)
        return Graph.from_pairs(self.n, pairs[:, 0], pairs[:, 1])


# ---------------------------------------------------------------------------
# Decomposition structure
# ---------------------------------------------------------------------------


@dataclass
class AlmostClique:
    vertices: list[int]
    size_class: str = SMALL
    non_edges: int | None = None     # the number of rows of non_edge_pairs
    non_edge_pairs: np.ndarray | None = None
    holey: bool | None = None
    kind: str | None = None          # FRIENDLY or LONELY
    witness: int | None = None       # non-stranger witness for friendly cliques

    def __len__(self) -> int:
        return len(self.vertices)


@dataclass
class Decomposition:
    n: int
    v_sparse: list[int]
    cliques: list[AlmostClique]


def size_class_of(size: int, delta: int) -> str:
    if size <= delta:
        return SMALL
    if size == delta + 1:
        return CRITICAL
    return LARGE


def is_eps_sparse(oracle: Graph, eps: float, delta: int) -> np.ndarray:
    """Per vertex: at least eps^2*delta^2/2 non-edges among its neighbors,
    which number d(d-1)/2 - t(v)."""
    d = oracle.degrees
    non_edges = d * (d - 1) // 2 - oracle.triangles()
    threshold = eps * eps * delta * delta / 2
    # inclusive, with a relative guard for float noise in the threshold
    return (d >= 2) & (non_edges >= threshold * (1 - 1e-9))


# ---------------------------------------------------------------------------
# Reference decomposer (+ heuristic twin behind the same interface)
# ---------------------------------------------------------------------------


def _label_pass(graph: Graph, verts: np.ndarray, of: np.ndarray):
    """One `rows_of` over the clique members verts, verts[j] in clique
    of[j] and each (clique, vertex) listed once, read through a label
    array: for every row entry its owner (a position in verts), the
    neighbor, and whether the label puts the neighbor in the owner's
    clique.  A vertex listed in two cliques carries one of their labels."""
    label = np.full(graph.n, -1, dtype=np.int64)
    label[verts] = of
    owner, nbrs = graph.rows_of(verts)
    return owner, nbrs, label[nbrs] == of[owner]


def _violations(graph: Graph, verts: np.ndarray, of: np.ndarray, count: int,
                eps: float, delta: int) -> dict[int, str]:
    """For each failing cluster among 0..count-1, its first failed
    almost-clique check, from one label pass: its size, else its smallest
    member with too many non-neighbors inside or neighbors outside.
    verts[j] is in cluster of[j], of ascending and each cluster's members
    ascending."""
    sizes = np.bincount(of, minlength=count)
    owner, _, same = _label_pass(graph, verts, of)
    inside = np.bincount(owner[same], minlength=verts.size)
    non_nbrs = sizes[of] - 1 - inside
    outside = graph.degrees[verts] - inside
    slack = 10 * eps * delta
    ranged = ((1 - 5 * eps) * delta <= sizes) & (sizes <= (1 + 5 * eps) * delta)
    why = {c: f"size {sizes[c]} outside [(1-5e)D, (1+5e)D]"
           for c in np.flatnonzero((sizes > 0) & ~ranged).tolist()}
    bad = np.flatnonzero((non_nbrs > slack) | (outside > slack))
    first = bad[np.diff(of[bad], prepend=-1) != 0]  # each cluster's smallest
    for c, v, a, b in zip(of[first].tolist(), verts[first].tolist(),
                          non_nbrs[first].tolist(), outside[first].tolist()):
        why.setdefault(c, f"vertex {v} has {a} non-neighbors inside" if a > slack
                       else f"vertex {v} has {b} neighbors outside")
    return why


def _shed(graph: Graph, verts: np.ndarray, of: np.ndarray, sparse: np.ndarray,
          eps: float, delta: int) -> np.ndarray:
    """Which cluster members stay, as a mask over verts (grouped as for
    `_violations`).  Every cluster is checked at once; those that fail
    shed their eps-sparse members, and only the shed ones are checked
    again.  The earliest cluster that fails with nothing to shed, or fails
    again after shedding, raises DecompositionFailed with its members and
    its last failed check.  A cluster that sheds every member is gone."""
    count = int(of[-1]) + 1 if of.size else 0
    why = _violations(graph, verts, of, count, eps, delta)
    if not why:
        return np.ones(verts.size, dtype=bool)
    droppable = sparse[verts]
    sheds = np.zeros(count, dtype=bool)
    sheds[of[droppable]] = True
    failing = np.zeros(count, dtype=bool)
    failing[list(why)] = True
    keep = ~(droppable & failing[of])
    again = keep & (failing & sheds)[of]
    why_again = _violations(graph, verts[again], of[again], count, eps, delta)
    for c in sorted(why):
        if not sheds[c]:
            raise DecompositionFailed(verts[of == c].tolist(), why[c])
        if c in why_again:
            raise DecompositionFailed(verts[keep & (of == c)].tolist(), why_again[c])
    return keep


def sampled_common(isample: Graph, edges: np.ndarray, rate: float) -> np.ndarray:
    """|I(u) & I(v)| for each edge u < v of an ascending (k, 2) array,
    where I(u) is u's row of the neighbor sample.

    While the rate is 1 the sample is the whole graph, so the edges are
    among its own and `Graph.common` serves: packed rows, or a pair pass
    over upper rows that finds each triangle once.  When the edges are the
    sample's own (H is the sample) the counts are read as they are, else
    each edge's count is found by binary search.  Below 1 the rows are not
    symmetric: packed rows where they pay, else row w of ``holders`` is
    every vertex whose sample holds w, and the pairs of every such row are
    looked up, each triangle three times.
    """
    if rate >= 1 and edges is isample.edges():
        return isample.common
    n = isample.n
    codes = edges[:, 0] * n + edges[:, 1]
    if rate >= 1:
        own = isample.edges()
        return isample.common[np.searchsorted(own[:, 0] * n + own[:, 1], codes)]
    rows, cols = isample.pairs()
    if packed_pays(n, codes.size, np.bincount(cols, minlength=n)):
        return packed_common(isample, edges)
    return pair_counts(Graph.from_pairs(n, cols, rows), codes)[0]


def compute_decomposition(graph: Graph, params: ParamSet, delta: int,
                          isample: Graph | None = None) -> Decomposition:
    """Partition vertices into sparse ones and disjoint almost-cliques.

    Two adjacent vertices of ``graph`` are linked when they share at least
    (1-10*eps)*delta neighbors; a vertex is dense when it has that many
    link partners, and almost-cliques are the connected components of the
    link graph on dense vertices.  Without a neighbor sample the counts
    are read from ``graph`` (the shadow), and clusters that fail the
    almost-clique checks shed their locally-sparse members or fail
    loudly: one label pass checks every cluster, the failing ones shed at
    once, and a second pass checks only those (`_shed`).  With one, ``graph`` is H and each count is estimated from the
    sample, |I(u) & I(v)| / rate^2; this heuristic sheds nothing and
    carries no guarantees.
    """
    eps = params.eps
    cut = (1 - 10 * eps) * delta
    n = graph.n
    edges = graph.edges()
    if isample is None:
        linked = graph.common >= cut
    else:
        rate = params.isample_rate(delta)
        linked = sampled_common(isample, edges, rate) / (rate * rate) >= cut
    us, vs = edges[linked, 0], edges[linked, 1]
    dense = np.bincount(us, minlength=n) + np.bincount(vs, minlength=n) >= cut
    join = dense[us] & dense[vs]
    parent = np.arange(n, dtype=np.int64)
    uf_union_batch(parent, us[join], vs[join])
    roots = uf_roots(parent)

    # clusters in ascending root order (every root is its cluster's minimum)
    members = np.flatnonzero(dense)
    members = members[np.argsort(roots[members], kind="stable")]
    of = np.zeros(members.size, dtype=np.int64)  # each member's cluster
    np.cumsum(roots[members][1:] != roots[members][:-1], out=of[1:])
    if isample is None:
        keep = _shed(graph, members, of, is_eps_sparse(graph, eps, delta), eps, delta)
        members, of = members[keep], of[keep]
    cliques = [
        AlmostClique(vertices=K.tolist(), size_class=size_class_of(K.size, delta))
        for K in np.split(members, np.flatnonzero(np.diff(of)) + 1) if K.size
    ]
    cliques.sort(key=lambda k: k.vertices[0])

    in_clique = np.zeros(n, dtype=bool)
    in_clique[members] = True
    return Decomposition(n=n, v_sparse=np.flatnonzero(~in_clique).tolist(), cliques=cliques)


def annotate_cliques(dec: Decomposition, params: ParamSet, delta: int, graph: Graph) -> None:
    """Fill non-edge pairs, their counts and holey flags as judged from the
    graph: the shadow when there is one, the stored edges of H otherwise.
    Each clique's ``non_edge_pairs`` is a (k, 2) int64 array of pairs a < b,
    ascending, each once, none an edge of that graph, which holds H; phase
    4 reads it as it is.

    H stands in for a missing shadow soundly for phase 4: a G-edge that H
    lacks joins disjoint union lists, which no shared-color matching picks.

    One pass lists every clique's non-edges.  The clique vertices sit in
    one array, each clique's ascending and the cliques in order, and one
    `rows_of` over it, read through a label array, gives the ascending
    codes of the joined pairs inside each clique, as positions in that
    array.  The pairs a < b of all cliques of one size come from one
    `triu_indices`, and one `searchsorted` against the joined codes keeps
    those not joined.
    """
    thr = params.holey_threshold(delta)
    sizes = np.array([len(k) for k in dec.cliques], dtype=np.int64)
    label = np.repeat(np.arange(sizes.size), sizes)
    members = np.array([v for k in dec.cliques for v in k.vertices], dtype=np.int64)
    verts = np.sort(label * graph.n + members) % graph.n
    clique_of = np.full(graph.n, -1, dtype=np.int64)
    clique_of[verts] = label
    at = np.zeros(graph.n, dtype=np.int64)  # a clique vertex's position in verts
    at[verts] = np.arange(verts.size)
    owner, nbrs = graph.rows_of(verts)
    inside = clique_of[nbrs] == label[owner]
    # ascending: owners in order, each row's neighbors ascending; a sentinel caps the search
    joined = np.append(owner[inside] * verts.size + at[nbrs[inside]], verts.size ** 2)
    starts = np.cumsum(sizes) - sizes
    for size in sorted_unique(sizes).tolist():
        group = np.flatnonzero(sizes == size)
        ii, jj = np.triu_indices(size, 1)
        pa = (starts[group, None] + ii).ravel()
        pb = (starts[group, None] + jj).ravel()
        q = pa * verts.size + pb
        missing = joined[np.searchsorted(joined, q)] != q
        pairs = np.stack([verts[pa[missing]], verts[pb[missing]]], axis=1)
        ends = np.cumsum(missing.reshape(group.size, ii.size).sum(axis=1)).tolist()
        for i, lo, hi in zip(group.tolist(), [0, *ends], ends):
            k = dec.cliques[i]
            k.non_edge_pairs = pairs[lo:hi]
            k.non_edges = hi - lo
            k.holey = k.non_edges >= thr


# ---------------------------------------------------------------------------
# Verification (the decomposer's output is checked, never trusted)
# ---------------------------------------------------------------------------


def _find(table: np.ndarray, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Positions of keys in a sorted table, and whether each key is there."""
    pos = np.searchsorted(table, keys)
    found = pos < table.size
    found[found] = table[pos[found]] == keys[found]
    return pos, found


def verify_decomposition(
    dec: Decomposition, oracle: Graph, eps: float, delta: int
) -> list[str]:
    violations: list[str] = []
    n = oracle.n
    sizes = np.array([len(k) for k in dec.cliques], dtype=np.int64)
    label = np.repeat(np.arange(sizes.size), sizes)
    verts = np.array([v for k in dec.cliques for v in k.vertices], dtype=np.int64)
    # every listing of a vertex after its first, against the one before it
    order = np.argsort(verts, kind="stable")
    again = np.flatnonzero(verts[order][1:] == verts[order][:-1])
    before, later = order[again], order[again + 1]
    by = np.argsort(later)
    before, later = before[by], later[by]
    violations += [f"vertex {v} in cliques {i} and {j}" for v, i, j in zip(
        verts[later].tolist(), label[before].tolist(), label[later].tolist())]
    sparse_v = np.asarray(dec.v_sparse, dtype=np.int64)
    last = np.full(dec.n, -1, dtype=np.int64)  # the last clique that lists a vertex
    np.maximum.at(last, verts, label)
    both = sparse_v[last[sparse_v] >= 0]
    violations += [f"vertex {v} both sparse and in clique {i}"
                   for v, i in zip(both.tolist(), last[both].tolist())]
    if sparse_v.size + verts.size != dec.n:
        violations.append("partition does not cover all vertices")

    # one label pass over each (clique, member) once counts the neighbors inside
    member = sorted_unique(label * n + verts)
    owner, nbrs, same = _label_pass(oracle, member % n, member // n)
    codes = (member // n)[owner] * n + nbrs
    same[~same] = _find(member, codes[~same])[1]  # a neighbor listed in two cliques
    inside = np.bincount(owner[same], minlength=member.size)
    inside = inside[_find(member, label * n + verts)[0]]  # per listing
    # near[x] = i*n + u: u is outside clique i and adjacent to hits[x] of its members
    near, hits = np.unique(codes[~same], return_counts=True)

    slack = 10 * eps * delta
    non_nbrs = sizes[label] - 1 - inside
    outside = oracle.degrees[verts] - inside
    msgs: list[list[str]] = [[] for _ in dec.cliques]
    for j in np.flatnonzero((non_nbrs > slack) | (outside > slack)).tolist():
        i, v = int(label[j]), int(verts[j])
        if non_nbrs[j] > slack:
            msgs[i].append(f"clique {i}: {v} has {int(non_nbrs[j])} non-neighbors inside")
        if outside[j] > slack:
            msgs[i].append(f"clique {i}: {v} has {int(outside[j])} neighbors outside")
    # an outsider qualifies when size - hits < slack; one with no neighbor
    # inside qualifies only for a clique smaller than the slack
    outsiders = near[sizes[near // n] - hits < slack]
    for i, k in enumerate(dec.cliques):
        size = len(k)
        if not (1 - 5 * eps) * delta <= size <= (1 + 5 * eps) * delta:
            violations.append(f"clique {i}: size {size} out of range")
        violations += msgs[i]
        if size < slack:
            flagged = np.setdiff1d(np.arange(dec.n), k.vertices).tolist()
        else:
            flagged = (outsiders[outsiders // n == i] % n).tolist()
        violations += [
            f"clique {i}: outsider {u} has too few non-neighbors inside" for u in flagged
        ]
    dense = sparse_v[~is_eps_sparse(oracle, eps, delta)[sparse_v]]
    violations += [f"sparse vertex {v} is not eps-sparse" for v in dense.tolist()]
    return violations


# ---------------------------------------------------------------------------
# Friend/stranger and friendly/lonely testers
# ---------------------------------------------------------------------------


def friend_stranger_test(sampled_edges, params: ParamSet, delta: int):
    """Classify outside vertices from their sampled edge counts into K.

    Friends (>= 2*delta/beta true edges) land above the threshold with
    high probability, strangers (< delta/beta) below; ties go to
    Stranger.  No promise is made inside the gap.  Takes a count or an
    array of counts and answers alike.
    """
    return np.where(
        np.asarray(sampled_edges) > params.friend_test_threshold(delta), FRIEND, STRANGER
    )


def classify_friendly_lonely(
    dec: Decomposition, isample: Graph, params: ParamSet, delta: int
) -> None:
    """Assign each almost-clique to friendly (with a witness) or lonely.

    The friendly side contains every clique with a friend and no lonely
    clique lands there; social cliques may end up on either side.  The
    witness is the smallest outside vertex that the friend test accepts.
    """
    n = dec.n
    label = np.full(n, -1, dtype=np.int64)
    for i, k in enumerate(dec.cliques):
        label[k.vertices] = i
    # only the sample's entries that land in a clique count, so only
    # their holders are found: row v holds the hits in indptr[v]..indptr[v+1]
    hit = np.flatnonzero((label >= 0)[isample.indices])
    holder = np.repeat(np.arange(n), np.diff(np.searchsorted(hit, isample.indptr)))
    into = label[isample.indices[hit]]
    touch = label[holder] != into
    # one entry per (clique, outside vertex): its sampled edges into the clique
    codes, sampled = np.unique(into[touch] * n + holder[touch], return_counts=True)
    friend = friend_stranger_test(sampled, params, delta) == FRIEND
    cliques, first = np.unique(codes[friend] // n, return_index=True)
    witness = dict(zip(cliques.tolist(), (codes[friend][first] % n).tolist()))
    for i, k in enumerate(dec.cliques):
        k.witness = witness.get(i)
        k.kind = FRIENDLY if k.witness is not None else LONELY
