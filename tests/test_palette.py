import itertools

import numpy as np
import pytest

from streamcolor.generators import generate_instance
from streamcolor.palette import (
    ConflictGraph,
    conflict_keep_chunk,
    palette_space_report,
    sample_palettes,
)
from streamcolor.params import ParamSet

from conftest import (
    build_conflict_graph,
    oracle_from_edges,
    palette_union,
    source_of,
    uniform_palettes,
)


def test_l1_is_a_single_color_in_range():
    params = ParamSet.desk(50, 10)
    pal = sample_palettes(50, 10, params, seed=1)
    assert pal.l1.shape == (50,)
    assert ((1 <= pal.l1) & (pal.l1 <= 10)).all()


def test_clamped_rate_gives_full_palette():
    # beta=8 at delta=6: the per-color rate beta/delta caps at 1
    params = ParamSet.desk(20, 6, beta=8)
    pal = sample_palettes(20, 6, params, seed=2)
    assert pal.l2.shape == (20, 6) and pal.l2.all()


@pytest.mark.parametrize("which, q_const", [("l2", 1.0), ("l4", 50.0)], ids=["l2", "l4"])
def test_list_size_concentration(which, q_const):
    # mean list size = delta * rate within 4 sigma; delta=100, beta=8.
    # q_const=50 puts the L4 rate near 0.0013, below 1/delta
    n, delta, beta = 1000, 100, 8
    params = ParamSet.desk(n, delta, beta=beta, eps=1 / 40, q_const=q_const)
    pal = sample_palettes(n, delta, params, seed=3)
    if which == "l2":
        rate = params.l2_rate(delta)
        sizes = pal.l2.sum(axis=1)
    else:
        rate = params.q_rate(delta)
        sizes = pal.l4.sum(axis=2).ravel()
    sigma_of_mean = np.sqrt(delta * rate * (1 - rate) / sizes.size)
    assert abs(sizes.mean() - delta * rate) <= 4 * sigma_of_mean


def test_paper_mode_clamps_with_warning():
    params = ParamSet.paper(30)
    with pytest.warns(UserWarning, match="clamped"):
        pal = sample_palettes(30, 8, params, seed=1)
    assert pal.l3[0].shape == (8,) and pal.l3[0].all()  # rate >= 1: the full palette


def test_membership_independence_across_colors():
    # empirical pairwise correlation of per-color membership indicators
    # stays within 4 sigma of zero across vertices (one draw per vertex)
    n, delta = 10_000, 40
    params = ParamSet.desk(n, delta, beta=8, eps=1 / 40)
    pal = sample_palettes(n, delta, params, seed=4)
    member = pal.l2.astype(np.int8)
    p_hat = member.mean()
    for a, b in ((0, 1), (3, 17), (20, 39)):
        corr = np.corrcoef(member[:, a], member[:, b])[0, 1]
        assert abs(corr) <= 4 / np.sqrt(n), (a, b, corr)
    assert abs(p_hat - 8 / 40) < 0.02


def _keeps(pal, edges) -> list[bool]:
    us, vs = np.asarray(edges, dtype=np.int64).reshape(-1, 2).T
    return conflict_keep_chunk(us, vs, pal).tolist()


def test_conflict_keep_basic():
    pal = uniform_palettes(2, 10, [{1, 2}, {2, 9}])
    assert _keeps(pal, [(0, 1)]) == [True]
    pal2 = uniform_palettes(2, 10, [{1, 2}, {3, 9}])
    assert _keeps(pal2, [(0, 1)]) == [False]


def test_conflict_keep_beyond_one_mask_word():
    # colors past 64 live in the second mask word
    pal = uniform_palettes(3, 100, [{70}, {70}, {1}])
    assert pal.masks.shape[1] == 2
    assert _keeps(pal, [(0, 1), (0, 2), (1, 2)]) == [True, False, False]


def test_possibly_monochromatic_edges_are_kept_exhaustively():
    # 5-vertex graph: for every assignment of colors from the vertices'
    # own lists, each edge that could go monochromatic is stored
    n, delta = 5, 4
    lists = [{1, 2}, {2, 3}, {3, 4}, {1, 4}, {2, 4}]
    pal = uniform_palettes(n, delta, lists)
    edges = [(u, v) for u in range(n) for v in range(u + 1, n)]
    kept = {e for e, keep in zip(edges, _keeps(pal, edges)) if keep}
    for assignment in itertools.product(*[sorted(s) for s in lists]):
        for u, v in edges:
            if assignment[u] == assignment[v]:
                assert (u, v) in kept


def test_conflict_graph_extremes():
    inst = generate_instance("clique-minus-edge", 3, count=1, seed=0)
    n = inst.n
    equal = uniform_palettes(n, 3, [{1}] * n)
    h = build_conflict_graph(source_of(inst).open(), equal)
    assert h.m == inst.edges.shape[0]  # everything shared: H = G

    disjoint = uniform_palettes(4, 8, [{1}, {2}, {3}, {4}])
    h2 = build_conflict_graph(source_of(inst).open(), disjoint)
    assert h2.m == 0


def test_h_subgraph_and_no_false_drops_exhaustive():
    # every stored edge is a real edge, and every real edge with
    # intersecting lists is stored; exhaustive on a 12-vertex instance
    inst = generate_instance("lonely-clique", 6, count=1, seed=9)
    params = ParamSet.desk(inst.n, 6)
    pal = sample_palettes(inst.n, 6, params, seed=9)
    h = build_conflict_graph(source_of(inst).open(), pal)
    oracle = oracle_from_edges(inst.n, inst.edges)
    for u in range(inst.n):
        for v in h.neighbors(u):
            assert oracle.has_edge(u, v)
    for u, v in inst.edges.tolist():
        if palette_union(pal, u) & palette_union(pal, v):
            assert v in h.neighbors(u)


def test_space_report_formula_exact():
    inst = generate_instance("clique-pairs", 8, count=1, seed=2)
    params = ParamSet.desk(inst.n, 8)
    pal = sample_palettes(inst.n, 8, params, seed=2)
    h = build_conflict_graph(source_of(inst).open(), pal)
    rep = palette_space_report(pal, h)
    log_delta = int(np.ceil(np.log2(8)))
    log_n = int(np.ceil(np.log2(inst.n)))
    want = pal.total_list_entries() * log_delta + h.m * 2 * log_n
    assert rep["bits"] == want
    assert rep["h_edges"] == h.m

    empty = ConflictGraph(4)
    rep0 = palette_space_report(uniform_palettes(4, 4, [{1}] * 4), empty)
    assert rep0["h_edges"] == 0


def test_space_growth_under_doubling():
    # doubling n at fixed delta roughly doubles the stored bits
    delta = 12
    bits = []
    for n in (300, 600, 1200):
        inst = generate_instance("random-regular", delta, seed=5, n=n)
        params = ParamSet.desk(n, delta)
        pal = sample_palettes(n, delta, params, seed=5)
        h = build_conflict_graph(source_of(inst).open(), pal)
        bits.append(palette_space_report(pal, h)["bits"])
    for small, big in zip(bits, bits[1:]):
        assert 1.5 <= big / small <= 3.0
