import numpy as np
import pytest

from streamcolor.decomposition import (
    AlmostClique,
    Decomposition,
    SampleCollector,
    compute_decomposition,
)
from streamcolor.generators import generate_instance
from streamcolor.palette import (
    ConflictGraph,
    colors_of,
    conflict_keep_chunk,
    sample_palettes,
    union_masks,
)
from streamcolor.params import ParamSet
from streamcolor.pipeline import _prepass
from streamcolor.graph import Graph
from streamcolor.stream import StreamSource


def oracle_from_edges(n, edges) -> Graph:
    return Graph(n, np.asarray(edges, dtype=np.int64).reshape(-1, 2))


def source_of(inst, seed=0) -> StreamSource:
    return StreamSource(inst.n, inst.edges, seed=seed)


def shadow_of(src) -> Graph:
    """The shadow the pipeline's pre-pass builds (one pass over src)."""
    return _prepass(src, want_shadow=True)[1]


def collect_samples(stream, params, seed: int, delta: int):
    """Consume one full pass into decomposition samples."""
    coll = SampleCollector(stream.meta.n, delta, params, seed)
    for block in stream.chunks():
        coll.update_chunk(
            np.ascontiguousarray(block[:, 0]), np.ascontiguousarray(block[:, 1])
        )
    return coll.finalize()


def build_conflict_graph(stream, palettes) -> Graph:
    """Filter one full pass into the conflict graph H."""
    h = ConflictGraph(stream.meta.n)
    for block in stream.chunks():
        keep = conflict_keep_chunk(block[:, 0], block[:, 1], palettes)
        h.add_chunk(block[keep, 0], block[keep, 1])
    return h.build()


def planted_mistakes():
    """Two wrong decompositions with their oracles, as (decomposition,
    oracle, params, delta): a clique member moved to the sparse side, and
    two disjoint blocks merged into one clique."""
    delta = 16
    inst = generate_instance("clique-minus-edge", delta, count=1, seed=2)
    oracle = oracle_from_edges(inst.n, inst.edges)
    params = ParamSet.desk(inst.n, delta)
    dec = compute_decomposition(oracle, params, delta)
    # one endpoint of the missing edge; its neighborhood is a clique
    K = dec.cliques[0].vertices
    endpoint = next(
        v for v in K if any(not oracle.has_edge(v, u) for u in K if u != v)
    )
    moved = Decomposition(
        n=dec.n,
        v_sparse=[endpoint],
        cliques=[AlmostClique(vertices=[v for v in K if v != endpoint])],
    )
    inst2 = generate_instance("clique-minus-edge", delta, count=2, seed=2)
    oracle2 = oracle_from_edges(inst2.n, inst2.edges)
    merged = Decomposition(
        n=inst2.n,
        v_sparse=[],
        cliques=[AlmostClique(vertices=list(range(inst2.n)))],
    )
    return [(moved, oracle, params, delta), (merged, oracle2, params, delta)]


def measure_gap(v: int, C, oracle, delta: int) -> int:
    """Available colors minus remaining uncolored degree (reads true
    adjacency)."""
    nbrs = oracle.neighbors(v)
    used = {int(C.colors[u]) for u in nbrs if C.colors[u]}
    avail = delta - len(used)
    colored = sum(1 for u in nbrs if C.colors[u])
    return avail - (len(nbrs) - colored)


def syndrome_of(x: np.ndarray, r: int, p: int) -> np.ndarray:
    """Independent measurement: sum of x_j * (j+1)^t, written directly."""
    out = np.zeros(2 * r, dtype=np.int64)
    for j in np.flatnonzero(x):
        acc = 1
        base = (int(j) + 1) % p
        for t in range(2 * r):
            out[t] = (out[t] + int(x[j]) * acc) % p
            acc = acc * base % p
    return out


def random_sparse_vector(rng, n: int, k: int, p: int) -> np.ndarray:
    x = np.zeros(n, dtype=np.int64)
    if k:
        supp = rng.choice(n, size=k, replace=False)
        x[supp] = rng.integers(1, p, size=k)
    return x


def palette_union(pal, v: int) -> set[int]:
    """Every color in any of v's sampled lists, read from the list rows."""
    out = {int(pal.l1[v])}
    for row in (pal.l2[v], pal.l3[v], pal.l4_star[v], pal.l5[v], *pal.l4[v], *pal.l6[v]):
        out |= set(colors_of(row))
    return out


def uniform_palettes(n, delta, lists, params=None):
    """Palettes whose every list per vertex equals lists[v] (tests only)."""
    params = params or ParamSet.desk(n, delta)
    pal = sample_palettes(n, delta, params, seed=0)
    for v, colors in enumerate(lists):
        row = np.zeros(delta, dtype=bool)
        row[[c - 1 for c in colors]] = True
        for lst in (pal.l2, pal.l3, pal.l4_star, pal.l5, pal.l4, pal.l6):
            lst[v] = row
        pal.l1[v] = min(colors)
    pal.masks = union_masks(pal)
    return pal


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
