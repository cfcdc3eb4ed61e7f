import itertools
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from streamcolor.generators import generate_instance
from streamcolor.palette import (
    FAMILIES,
    ConflictGraph,
    PaletteSet,
    conflict_keep_chunk,
    pack_rows,
    palette_space_report,
    sample_palettes,
    unpack_rows,
)
from streamcolor.params import ParamSet

from conftest import (
    build_conflict_graph,
    has_edge,
    neighbors,
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
        sizes = np.bitwise_count(pal.l4).sum(axis=2).ravel()
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


def test_conflict_graph_over_a_base_is_the_base_less_the_dropped_edges():
    # a 5-cycle streamed in two chunks, some edges as (v, u)
    base = oracle_from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
    us, vs = np.array([1, 2, 3, 4, 0]), np.array([0, 1, 2, 3, 4])
    kept = ConflictGraph(5, base)
    for s in (slice(0, 2), slice(2, 5)):
        kept.add_chunk(us[s], vs[s], np.ones(us[s].size, dtype=bool))
    assert kept.build() is base
    h = ConflictGraph(5, base)
    h.add_chunk(us[:2], vs[:2], np.array([True, False]))
    h.add_chunk(us[2:], vs[2:], np.array([True, False, True]))
    assert h.build().edges().tolist() == [[0, 1], [0, 4], [2, 3]]
    plain = ConflictGraph(5)
    plain.add_chunk(us, vs, np.array([True, False, True, False, True]))
    assert plain.build().edges().tolist() == h.build().edges().tolist()


def test_h_subgraph_and_no_false_drops_exhaustive():
    # every stored edge is a real edge, and every real edge with
    # intersecting lists is stored; exhaustive on a 12-vertex instance
    inst = generate_instance("lonely-clique", 6, count=1, seed=9)
    params = ParamSet.desk(inst.n, 6)
    pal = sample_palettes(inst.n, 6, params, seed=9)
    h = build_conflict_graph(source_of(inst).open(), pal)
    oracle = oracle_from_edges(inst.n, inst.edges)
    for u in range(inst.n):
        for v in neighbors(h, u):
            assert has_edge(oracle, u, v)
    for u, v in inst.edges.tolist():
        if palette_union(pal, u) & palette_union(pal, v):
            assert v in neighbors(h, u)


def test_space_report_formula_exact():
    inst = generate_instance("clique-pairs", 8, count=1, seed=2)
    params = ParamSet.desk(inst.n, 8)
    pal = sample_palettes(inst.n, 8, params, seed=2)
    h = build_conflict_graph(source_of(inst).open(), pal)
    rep = palette_space_report(pal, h)
    log_delta = int(np.ceil(np.log2(8)))
    log_n = int(np.ceil(np.log2(inst.n)))
    assert rep["list_bits"] == pal.total_list_entries() * log_delta
    assert rep["h_bits"] == h.m * 2 * log_n
    assert rep["h_edges"] == h.m

    empty = ConflictGraph(4).build()
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
        rep = palette_space_report(pal, h)
        bits.append(rep["list_bits"] + rep["h_bits"])
    for small, big in zip(bits, bits[1:]):
        assert 1.5 <= big / small <= 3.0


# ---- full families and packed L4 --------------------------------------------


def _partial_palettes(rng, n, delta, beta):
    """Hand-built palettes at random densities, none of them full, with a
    few colors per union, so that some pairs of unions meet and some do
    not."""
    def draw(*shape):
        return rng.random(shape + (delta,)) < rng.uniform(0.002, 0.01)

    return PaletteSet(
        n=n, delta=delta, l1=rng.integers(1, delta + 1, size=n),
        l2=draw(n), l3=draw(n), l4_star=draw(n), l4=pack_rows(draw(n, beta)),
        l5=draw(n), l6=draw(n, 2 * beta),
    )


def _case(name):
    """(palettes, families expected full): desk palettes, where L3 and L6
    are the whole palette; hand-built partial ones; or a q_const small
    enough that the pair-lists L4 are full too."""
    if name == "desk":
        return sample_palettes(120, 70, ParamSet.desk(120, 70), seed=1), {"l3", "l6"}
    if name == "partial":
        return _partial_palettes(np.random.default_rng(11), 120, 70, 2), set()
    params = ParamSet.desk(120, 70, q_const=0.05)
    assert params.q_rate(70) == 1.0
    return sample_palettes(120, 70, params, seed=2), {"l3", "l4", "l6"}


CASES = ["desk", "partial", "l4-full"]


def _materialized(pal, name):
    lists = getattr(pal, name)
    return unpack_rows(lists, pal.delta) if name == "l4" else np.array(lists)


@pytest.mark.parametrize("case", CASES)
def test_union_masks_and_entries_equal_the_materialized_rows(case):
    pal, full = _case(case)
    assert pal.full == full
    for name in full:
        assert _materialized(pal, name).all()
    for v in range(pal.n):
        got = set((np.flatnonzero(unpack_rows(pal.masks[v], pal.delta)) + 1).tolist())
        assert got == palette_union(pal, v), v
    assert not (pal.masks & ~pack_rows(np.ones(pal.delta, dtype=bool))).any()
    want = pal.n + sum(int(_materialized(pal, name).sum()) for name in FAMILIES)
    assert pal.total_list_entries() == want


@pytest.mark.parametrize("case", CASES)
def test_filter_agrees_with_the_mask_and(case):
    pal, full = _case(case)
    us, vs = np.random.default_rng(5).integers(0, pal.n, size=(2, 500))
    keep = conflict_keep_chunk(us, vs, pal)
    assert keep.tolist() == (pal.masks[us] & pal.masks[vs]).any(axis=1).tolist()
    assert keep.all() if full else keep.any() and not keep.all()
    if not full:
        meet = [bool(palette_union(pal, u) & palette_union(pal, v)) for u, v in zip(us, vs)]
        assert keep.tolist() == meet


def test_a_full_family_cannot_be_written_or_go_stale():
    pal, full = _case("l4-full")
    for name in full:
        lists = getattr(pal, name)
        with pytest.raises(ValueError):
            lists[0] = 0
        with pytest.raises(ValueError):  # flagged full but given a writable array
            replace(pal, **{name: np.zeros_like(lists)})


def test_packed_rows_round_trip():
    rng = np.random.default_rng(3)
    for delta in (1, 63, 64, 65, 256):
        rows = rng.random((5, 3, delta)) < 0.4
        words = pack_rows(rows)
        assert words.shape == (5, 3, -(-delta // 64)) and words.dtype == np.uint64
        assert np.array_equal(unpack_rows(words, delta), rows)
        # bit c-1 of word (c-1) // 64 for color c, the layout of the masks
        top = np.zeros(delta, dtype=bool)
        top[-1] = True
        assert pack_rows(top)[-1] == np.uint64(1) << np.uint64((delta - 1) % 64)


def test_sample_palettes_memory_bound():
    """At n=4000, delta=256 L3 and L6 are full and hold nothing, and L4 is
    packed words: the sampled lists hold under 8 MiB (about 56 MB as bool
    arrays).  Drawing a block adds its 16-bit lanes (two bytes an entry)
    and the bool mask of its ties, and little else."""
    n, delta = 4000, 256
    params = ParamSet.desk(n, delta)
    tracemalloc.start()
    try:
        pal = sample_palettes(n, delta, params, seed=1)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert pal.full == {"l3", "l6"}
    assert held < 8 * 2**20, f"held {held / 2**20:.2f} MiB"
    bound = held + 4 * n * delta + 2**20
    assert peak < bound, f"peak {peak / 2**20:.2f} MiB, bound {bound / 2**20:.2f} MiB"
