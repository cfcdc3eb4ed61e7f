"""Sparse-dense decomposition: stream samples, a verified reference
decomposer, and the friend/stranger and friendly/lonely testers.

The decomposition splits vertices into locally sparse ones (many
non-edges among their neighbors) and disjoint almost-cliques.  The
reference decomposer reads the shadow adjacency (it stands in for an
external streaming construction and is excluded from the space budget);
its output is always verified, never trusted.  A sample-based heuristic
sits behind the same interface with no guarantees.  Both read the
common-neighbor counts of one `graph.pair_counts` pass, and every check
is a whole-array operation over the graph's sorted adjacency lists.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from streamcolor._kernels import prf_uniform, reservoir_update, uf_roots, uf_union_batch
from streamcolor.graph import Graph, pair_counts, sorted_unique
from streamcolor.params import ParamSet, child_seed, rng_for

SMALL, CRITICAL, LARGE = "small", "critical", "large"
FRIEND, STRANGER = "Friend", "Stranger"
FRIENDLY, LONELY = "friendly", "lonely"


class DecompositionFailed(RuntimeError):
    def __init__(self, cluster, why: str):
        self.cluster = sorted(cluster)
        super().__init__(f"dense cluster {self.cluster[:8]}... fails verification: {why}")


# ---------------------------------------------------------------------------
# Stream-side sample collection
# ---------------------------------------------------------------------------


@dataclass
class DecompSamples:
    n: int
    delta: int
    sample_members: np.ndarray            # bool: vertices with full stored neighborhoods
    sample_adj: Graph                     # row v: v's neighborhood if v is a member
    reservoir: np.ndarray                 # (n, cap) uniform distinct neighbors
    reservoir_counts: np.ndarray
    isample: Graph                        # row v: v's Bernoulli sample of its neighbors
    isample_rate: float

    def nsample(self, v: int) -> list[int]:
        k = min(int(self.reservoir_counts[v]), self.reservoir.shape[1])
        return [int(x) for x in self.reservoir[v, :k]]

    def stored_bits(self) -> int:
        log_n = max(1, int(np.ceil(np.log2(max(2, self.n)))))
        total = self.sample_adj.indices.size
        total += int(np.minimum(self.reservoir_counts, self.reservoir.shape[1]).sum())
        total += self.isample.indices.size
        return total * log_n


class SampleCollector:
    """Chunk-at-a-time collector sharing the main pass with the other
    stream consumers."""

    def __init__(self, n: int, delta: int, params: ParamSet, seed: int):
        self.n = n
        self.delta = delta
        self.params = params
        rng = rng_for(seed, "sample")
        self.members = rng.random(n) < params.sample_rate(n, delta)
        cap = min(params.neighbor_reservoir_size(n), delta)
        self.reservoir = np.full((n, max(1, cap)), -1, dtype=np.int64)
        self.counts = np.zeros(n, dtype=np.int64)
        self.res_seed = child_seed(seed, "reservoir")
        self.isample_rate = params.isample_rate(delta)
        self.i_seed = child_seed(seed, "isample")
        self._sample_pairs: list[np.ndarray] = []
        self._ipairs: list[np.ndarray] = []

    def update_chunk(self, us: np.ndarray, vs: np.ndarray) -> None:
        reservoir_update(self.reservoir, self.counts, us, vs, self.res_seed)
        for a, b in ((us, vs), (vs, us)):
            hit = self.members[a]
            if hit.any():
                self._sample_pairs.append(np.stack([a[hit], b[hit]], axis=1))
            keep = prf_uniform(self.i_seed, a, b) < self.isample_rate
            if keep.any():
                self._ipairs.append(np.stack([a[keep], b[keep]], axis=1))

    def finalize(self) -> DecompSamples:
        return DecompSamples(
            n=self.n,
            delta=self.delta,
            sample_members=self.members,
            sample_adj=_lists_of(self.n, self._sample_pairs),
            reservoir=self.reservoir,
            reservoir_counts=self.counts,
            isample=_lists_of(self.n, self._ipairs),
            isample_rate=self.isample_rate,
        )


def _lists_of(n: int, blocks: list[np.ndarray]) -> Graph:
    pairs = np.concatenate(blocks) if blocks else np.empty((0, 2), dtype=np.int64)
    return Graph.from_pairs(n, pairs[:, 0], pairs[:, 1])


# ---------------------------------------------------------------------------
# Decomposition structure
# ---------------------------------------------------------------------------


@dataclass
class AlmostClique:
    vertices: list[int]
    size_class: str = SMALL
    non_edges: int | None = None
    holey: bool | None = None
    kind: str | None = None          # FRIENDLY or LONELY
    witness: int | None = None       # non-stranger witness for friendly cliques

    def __len__(self) -> int:
        return len(self.vertices)

    @property
    def vset(self) -> set[int]:
        return set(self.vertices)


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


def count_non_edges(K, graph: Graph) -> int:
    """Unordered pairs inside K that are not edges of the graph."""
    verts = np.asarray(sorted(K), dtype=np.int64)
    inside, _ = graph.within(verts)
    return verts.size * (verts.size - 1) // 2 - inside.size // 2


# ---------------------------------------------------------------------------
# Reference decomposer (+ heuristic twin behind the same interface)
# ---------------------------------------------------------------------------


def _cluster_violation(K: np.ndarray, oracle: Graph, eps: float, delta: int) -> str | None:
    """The first failed almost-clique check of the sorted cluster K, naming
    the smallest violating vertex."""
    size = K.size
    if not (1 - 5 * eps) * delta <= size <= (1 + 5 * eps) * delta:
        return f"size {size} outside [(1-5e)D, (1+5e)D]"
    i, _ = oracle.within(K)
    inside = np.bincount(i, minlength=size)
    non_nbrs = (size - 1 - inside).tolist()
    outside = (oracle.degrees[K] - inside).tolist()
    slack = 10 * eps * delta
    for v, a, b in zip(K.tolist(), non_nbrs, outside):
        if a > slack:
            return f"vertex {v} has {a} non-neighbors inside"
        if b > slack:
            return f"vertex {v} has {b} neighbors outside"
    return None


def compute_decomposition(
    oracle: Graph | None,
    params: ParamSet,
    delta: int,
    samples: DecompSamples | None = None,
    conflict: Graph | None = None,
) -> Decomposition:
    """Partition vertices into sparse ones and disjoint almost-cliques.

    Reference mode (oracle given): two adjacent vertices are linked when
    they share at least (1-10*eps)*delta neighbors; a vertex is dense
    when it has that many link partners, and almost-cliques are the
    connected components of the link graph on dense vertices.  Clusters
    that fail the almost-clique checks shed their locally-sparse members
    or fail loudly.  Heuristic mode estimates the same link counts on the
    edges of H from the neighbor samples, |I(u) & I(v)| / rate^2, and
    carries no guarantees.
    """
    eps = params.eps
    cut = (1 - 10 * eps) * delta
    if oracle is not None:
        n = oracle.n
        edges = oracle.edges()
        linked = oracle.common >= cut
    else:
        if samples is None or conflict is None:
            raise ValueError("heuristic mode needs samples and a conflict graph")
        n = conflict.n
        edges = conflict.edges()
        # row w: every vertex whose sample holds w, so pairs in a row count
        # the sampled neighbors two vertices share
        rows, cols = samples.isample.pairs()
        holders = Graph.from_pairs(n, cols, rows)
        rate = max(samples.isample_rate, 1e-9)
        common, _ = pair_counts(holders, edges[:, 0] * n + edges[:, 1])
        linked = common / (rate * rate) >= cut
    us, vs = edges[linked, 0], edges[linked, 1]
    dense = np.bincount(us, minlength=n) + np.bincount(vs, minlength=n) >= cut
    join = dense[us] & dense[vs]
    parent = np.arange(n, dtype=np.int64)
    uf_union_batch(parent, us[join], vs[join])
    roots = uf_roots(parent)

    # clusters in ascending root order (every root is its cluster's minimum)
    members = np.flatnonzero(dense)
    members = members[np.argsort(roots[members], kind="stable")]
    splits = np.flatnonzero(np.diff(roots[members])) + 1
    sparse = is_eps_sparse(oracle, eps, delta) if oracle is not None else None
    cliques: list[AlmostClique] = []
    for K in np.split(members, splits):
        if oracle is not None:
            while K.size:
                why = _cluster_violation(K, oracle, eps, delta)
                if why is None:
                    break
                droppable = sparse[K]
                if not droppable.any():
                    raise DecompositionFailed(K.tolist(), why)
                K = K[~droppable]
        if K.size:
            cliques.append(
                AlmostClique(vertices=K.tolist(), size_class=size_class_of(K.size, delta))
            )
    cliques.sort(key=lambda k: k.vertices[0])

    in_clique = np.zeros(n, dtype=bool)
    for k in cliques:
        in_clique[k.vertices] = True
    return Decomposition(n=n, v_sparse=np.flatnonzero(~in_clique).tolist(), cliques=cliques)


def annotate_cliques(dec: Decomposition, params: ParamSet, delta: int, graph: Graph) -> None:
    """Fill non-edge counts and holey flags as judged from the graph: the
    shadow when there is one, the stored edges of H otherwise."""
    thr = params.holey_threshold(delta)
    for k in dec.cliques:
        k.non_edges = count_non_edges(k.vertices, graph)
        k.holey = k.non_edges >= thr


# ---------------------------------------------------------------------------
# Verification (the decomposer's output is checked, never trusted)
# ---------------------------------------------------------------------------


@dataclass
class DecompReport:
    violations: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


def _find(table: np.ndarray, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Positions of keys in a sorted table, and whether each key is there."""
    pos = np.searchsorted(table, keys)
    found = pos < table.size
    found[found] = table[pos[found]] == keys[found]
    return pos, found


def verify_decomposition(
    dec: Decomposition, oracle: Graph, eps: float, delta: int
) -> DecompReport:
    report = DecompReport()
    seen: dict[int, int] = {}
    for i, k in enumerate(dec.cliques):
        for v in k.vertices:
            if v in seen:
                report.violations.append(f"vertex {v} in cliques {seen[v]} and {i}")
            seen[v] = i
    for v in dec.v_sparse:
        if v in seen:
            report.violations.append(f"vertex {v} both sparse and in clique {seen[v]}")
    if len(dec.v_sparse) + sum(len(k) for k in dec.cliques) != dec.n:
        report.violations.append("partition does not cover all vertices")

    # near[x] = i*n + u: u has hits[x] neighbors among the members of clique i
    n = oracle.n
    sizes = np.array([len(k) for k in dec.cliques], dtype=np.int64)
    label = np.repeat(np.arange(sizes.size), sizes)
    verts = np.array([v for k in dec.cliques for v in k.vertices], dtype=np.int64)
    member = sorted_unique(label * n + verts)
    owner, nbrs = oracle.rows_of(member % n)
    near, hits = np.unique((member // n)[owner] * n + nbrs, return_counts=True)

    slack = 10 * eps * delta
    pos, found = _find(near, label * n + verts)
    inside = np.zeros(verts.size, dtype=np.int64)
    inside[found] = hits[pos[found]]
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
    _, is_member = _find(member, near)
    outsiders = near[~is_member & (sizes[near // n] - hits < slack)]
    for i, k in enumerate(dec.cliques):
        size = len(k)
        if not (1 - 5 * eps) * delta <= size <= (1 + 5 * eps) * delta:
            report.violations.append(f"clique {i}: size {size} out of range")
        report.violations += msgs[i]
        if size < slack:
            flagged = sorted(set(range(dec.n)) - k.vset)
        else:
            flagged = (outsiders[outsiders // n == i] % n).tolist()
        report.violations += [
            f"clique {i}: outsider {u} has too few non-neighbors inside" for u in flagged
        ]
    sparse = is_eps_sparse(oracle, eps, delta)
    for v in dec.v_sparse:
        if not sparse[v]:
            report.violations.append(f"sparse vertex {v} is not eps-sparse")
    return report


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
    dec: Decomposition, samples: DecompSamples, params: ParamSet, delta: int
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
    holder, held = samples.isample.pairs()
    into = label[held]
    touch = (into >= 0) & (label[holder] != into)
    # one entry per (clique, outside vertex): its sampled edges into the clique
    codes, sampled = np.unique(into[touch] * n + holder[touch], return_counts=True)
    friend = friend_stranger_test(sampled, params, delta) == FRIEND
    cliques, first = np.unique(codes[friend] // n, return_index=True)
    witness = dict(zip(cliques.tolist(), (codes[friend][first] % n).tolist()))
    for i, k in enumerate(dec.cliques):
        k.witness = witness.get(i)
        k.kind = FRIENDLY if k.witness is not None else LONELY
