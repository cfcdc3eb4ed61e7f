"""Sparse-dense decomposition: stream samples, a verified reference
decomposer, and the friend/stranger and friendly/lonely testers.

The decomposition splits vertices into locally sparse ones (many
non-edges among their neighbors) and disjoint almost-cliques.  The
reference decomposer reads the shadow adjacency (it stands in for an
external streaming construction and is excluded from the space budget);
its output is always verified, never trusted.  A sample-based heuristic
sits behind the same interface with no guarantees.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from streamcolor._kernels import prf_uniform, reservoir_update
from streamcolor.params import ParamSet, child_seed, rng_for
from streamcolor.stream import AdjacencyOracle

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
    sample_adj: dict[int, set[int]]
    reservoir: np.ndarray                 # (n, cap) uniform distinct neighbors
    reservoir_counts: np.ndarray
    isample: list[set[int]]               # per-vertex Bernoulli neighbor samples
    isample_rate: float

    def nsample(self, v: int) -> list[int]:
        k = min(int(self.reservoir_counts[v]), self.reservoir.shape[1])
        return [int(x) for x in self.reservoir[v, :k]]

    def stored_bits(self) -> int:
        log_n = max(1, int(np.ceil(np.log2(max(2, self.n)))))
        total = sum(len(s) for s in self.sample_adj.values())
        total += int(np.minimum(self.reservoir_counts, self.reservoir.shape[1]).sum())
        total += sum(len(s) for s in self.isample)
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
        sample_adj: dict[int, set[int]] = {
            int(v): set() for v in np.flatnonzero(self.members)
        }
        for block in self._sample_pairs:
            for a, b in block.tolist():
                sample_adj[a].add(b)
        isample: list[set[int]] = [set() for _ in range(self.n)]
        for block in self._ipairs:
            for a, b in block.tolist():
                isample[a].add(b)
        return DecompSamples(
            n=self.n,
            delta=self.delta,
            sample_members=self.members,
            sample_adj=sample_adj,
            reservoir=self.reservoir,
            reservoir_counts=self.counts,
            isample=isample,
            isample_rate=self.isample_rate,
        )


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

    def clique_of(self) -> dict[int, int]:
        out = {}
        for i, k in enumerate(self.cliques):
            for v in k.vertices:
                out[v] = i
        return out


def size_class_of(size: int, delta: int) -> str:
    if size <= delta:
        return SMALL
    if size == delta + 1:
        return CRITICAL
    return LARGE


def is_eps_sparse(v: int, oracle: AdjacencyOracle, eps: float, delta: int) -> bool:
    """At least eps^2*delta^2/2 non-edges among the neighbors of v."""
    nbrs = oracle.neighbors(v)
    d = len(nbrs)
    if d < 2:
        return False
    mask = oracle.mask_of(nbrs)
    inside = sum(oracle.count_in(u, mask) for u in nbrs) // 2
    non_edges = d * (d - 1) // 2 - inside
    threshold = eps * eps * delta * delta / 2
    # inclusive, with a relative guard for float noise in the threshold
    return non_edges >= threshold * (1 - 1e-9)


def count_non_edges(K, oracle: AdjacencyOracle) -> int:
    """Unordered non-adjacent pairs inside K (test oracle)."""
    verts = sorted(K)
    mask = oracle.mask_of(verts)
    inside = sum(oracle.count_in(v, mask) for v in verts) // 2
    return len(verts) * (len(verts) - 1) // 2 - inside


def count_non_edges_stored(K, adjacency: list[set[int]]) -> int:
    """Non-edge count of K judged only from stored edges (budget mode)."""
    verts = sorted(K)
    inside = sum(len(adjacency[v] & set(verts)) for v in verts) // 2
    return len(verts) * (len(verts) - 1) // 2 - inside


# ---------------------------------------------------------------------------
# Reference decomposer (+ heuristic twin behind the same interface)
# ---------------------------------------------------------------------------


def _cluster_violation(K: set[int], oracle: AdjacencyOracle, eps: float, delta: int) -> str | None:
    size = len(K)
    if not (1 - 5 * eps) * delta <= size <= (1 + 5 * eps) * delta:
        return f"size {size} outside [(1-5e)D, (1+5e)D]"
    mask = oracle.mask_of(K)
    for v in K:
        inside = oracle.count_in(v, mask)
        if size - 1 - inside > 10 * eps * delta:
            return f"vertex {v} has {size - 1 - inside} non-neighbors inside"
        if oracle.degree(v) - inside > 10 * eps * delta:
            return f"vertex {v} has {oracle.degree(v) - inside} neighbors outside"
    return None


def compute_decomposition(
    oracle: AdjacencyOracle | None,
    params: ParamSet,
    delta: int,
    samples: DecompSamples | None = None,
    conflict=None,
) -> Decomposition:
    """Partition vertices into sparse ones and disjoint almost-cliques.

    Reference mode (oracle given): two adjacent vertices are linked when
    they share at least (1-10*eps)*delta neighbors; a vertex is dense
    when it has that many link partners, and almost-cliques are the
    connected components of the link graph on dense vertices.  Clusters
    that fail the almost-clique checks shed their locally-sparse members
    or fail loudly.  Heuristic mode estimates the same link counts from
    neighbor samples and carries no guarantees.
    """
    eps = params.eps
    if oracle is not None:
        n = oracle.n
        edge_iter = oracle.edges()

        def common(u, v):
            return oracle.common_count(u, v)

    else:
        if samples is None or conflict is None:
            raise ValueError("heuristic mode needs samples and a conflict graph")
        n = conflict.n
        edge_iter = (
            (u, v) for u in range(n) for v in conflict.neighbors(u) if u < v
        )
        rate = max(samples.isample_rate, 1e-9)

        def common(u, v):
            return len(samples.isample[u] & samples.isample[v]) / (rate * rate)

    cut = (1 - 10 * eps) * delta
    partners: list[list[int]] = [[] for _ in range(n)]
    for u, v in edge_iter:
        if common(u, v) >= cut:
            partners[u].append(v)
            partners[v].append(u)
    dense = np.array([len(partners[v]) >= cut for v in range(n)])

    parent = np.arange(n)

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u in range(n):
        if not dense[u]:
            continue
        for v in partners[u]:
            if dense[v]:
                a, b = find(u), find(v)
                if a != b:
                    parent[max(a, b)] = min(a, b)

    clusters: dict[int, set[int]] = {}
    for v in np.flatnonzero(dense):
        clusters.setdefault(find(int(v)), set()).add(int(v))

    cliques: list[AlmostClique] = []
    demoted: set[int] = set()
    for K in clusters.values():
        if oracle is not None:
            while K:
                why = _cluster_violation(K, oracle, eps, delta)
                if why is None:
                    break
                droppable = {v for v in K if is_eps_sparse(v, oracle, eps, delta)}
                if not droppable:
                    raise DecompositionFailed(K, why)
                K -= droppable
                demoted |= droppable
        if K:
            cliques.append(
                AlmostClique(
                    vertices=sorted(K),
                    size_class=size_class_of(len(K), delta),
                )
            )
    cliques.sort(key=lambda k: k.vertices[0])

    in_clique = set()
    for k in cliques:
        in_clique |= k.vset
    v_sparse = sorted(set(range(n)) - in_clique)
    return Decomposition(n=n, v_sparse=v_sparse, cliques=cliques)


def annotate_cliques(
    dec: Decomposition,
    params: ParamSet,
    delta: int,
    oracle: AdjacencyOracle | None = None,
    stored_adjacency: list[set[int]] | None = None,
) -> None:
    """Fill non-edge counts and holey flags, from the oracle when present
    or from stored edges otherwise."""
    thr = params.holey_threshold(delta)
    for k in dec.cliques:
        if oracle is not None:
            k.non_edges = count_non_edges(k.vertices, oracle)
        else:
            k.non_edges = count_non_edges_stored(k.vertices, stored_adjacency)
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


def verify_decomposition(
    dec: Decomposition, oracle: AdjacencyOracle, eps: float, delta: int
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

    slack = 10 * eps * delta
    for i, k in enumerate(dec.cliques):
        size = len(k)
        if not (1 - 5 * eps) * delta <= size <= (1 + 5 * eps) * delta:
            report.violations.append(f"clique {i}: size {size} out of range")
        mask = oracle.mask_of(k.vertices)
        for v in k.vertices:
            inside = oracle.count_in(v, mask)
            if size - 1 - inside > slack:
                report.violations.append(
                    f"clique {i}: {v} has {size - 1 - inside} non-neighbors inside"
                )
            if oracle.degree(v) - inside > slack:
                report.violations.append(
                    f"clique {i}: {v} has {oracle.degree(v) - inside} neighbors outside"
                )
        members = k.vset
        for u in range(dec.n):
            if u in members:
                continue
            if size - oracle.count_in(u, mask) < slack:
                report.violations.append(
                    f"clique {i}: outsider {u} has too few non-neighbors inside"
                )
    for v in dec.v_sparse:
        if not is_eps_sparse(v, oracle, eps, delta):
            report.violations.append(f"sparse vertex {v} is not eps-sparse")
    return report


# ---------------------------------------------------------------------------
# Friend/stranger and friendly/lonely testers
# ---------------------------------------------------------------------------


def friend_stranger_test(
    v: int, K, isample_v: set[int], params: ParamSet, delta: int
) -> str:
    """Classify an outside vertex from its sampled edge count into K.

    Friends (>= 2*delta/beta true edges) land above the threshold with
    high probability, strangers (< delta/beta) below; ties go to
    Stranger.  No promise is made inside the gap.
    """
    x = len(isample_v & set(K))
    return FRIEND if x > params.friend_test_threshold(delta) else STRANGER


def classify_friendly_lonely(
    dec: Decomposition, samples: DecompSamples, params: ParamSet, delta: int
) -> None:
    """Assign each almost-clique to friendly (with a witness) or lonely.

    The friendly side contains every clique with a friend and no lonely
    clique lands there; social cliques may end up on either side.
    """
    touches: dict[int, set[int]] = {}
    clique_idx = dec.clique_of()
    for u in range(dec.n):
        for w in samples.isample[u]:
            i = clique_idx.get(w)
            if i is not None and clique_idx.get(u) != i:
                touches.setdefault(i, set()).add(u)
    for i, k in enumerate(dec.cliques):
        k.kind = LONELY
        k.witness = None
        for u in sorted(touches.get(i, ())):
            if friend_stranger_test(u, k.vertices, samples.isample[u], params, delta) == FRIEND:
                k.kind = FRIENDLY
                k.witness = u
                break
