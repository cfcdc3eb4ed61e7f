import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from streamcolor.coloring import (
    ColoringError,
    PartialColoring,
    RunFailure,
    color_cliques_by_matching,
    colorful_matchings,
    greedy_sparse,
    hopcroft_karp,
    l_perfect_matching,
    offline_brooks,
    one_shot,
    phase4_wave,
    phase5_critical,
    phase6_friendly,
    responsible_phase,
    strip_residue,
    waves,
)
from streamcolor.decomposition import AlmostClique, Decomposition
from streamcolor.helpers import CriticalHelper, FriendlyHelper, RecoveryGraph
from streamcolor.palette import pack_rows, unpack_rows
from streamcolor.params import ParamSet
from streamcolor.pipeline import RunConfig, color_run

from conftest import (
    brute_non_edges,
    build_conflict_graph,
    has_edge,
    measure_gap,
    oracle_from_edges,
    row,
    uniform_palettes,
)


def _conflict_from(n, edges):
    return oracle_from_edges(n, edges)


# ---- checked assignment -----------------------------------------------------


def _assign_case():
    """Path 0-1-2-3 and edge 4-5, delta 3, with 3 colored 1 in phase 2."""
    C = PartialColoring(6, 3, _conflict_from(6, [(0, 1), (1, 2), (2, 3), (4, 5)]))
    C.assign(3, 1, 2)
    return C


def test_assign_colors_a_batch_and_a_scalar():
    C = _assign_case()
    C.assign(np.array([0, 2, 4]), np.array([1, 2, 3]), 3)
    C.assign(1, 3, 4)
    assert C.colors.tolist() == [1, 3, 2, 1, 3, 0]
    assert C.provenance.tolist() == [3, 4, 3, 2, 3, 0]
    C.assign([], [], 5)  # an empty batch is a no-op
    assert C.colors.tolist() == [1, 3, 2, 1, 3, 0]


@pytest.mark.parametrize("verts, colors, message", [
    ([0, 4], [1, 4], "color 4 out of range 1..3"),
    ([0, 4], [0, 2], "color 0 out of range 1..3"),
    ([0, 3], [1, 2], "vertex 3 already colored"),
    ([0, 2], [2, 1], "conflict assigning 1 to 2 in phase 3"),  # 2 ~ 3, outside
    ([0, 4, 5], [2, 3, 3], "conflict assigning 3 to 4 in phase 3"),  # 4 ~ 5, inside
])
def test_assign_refuses_a_batch_and_leaves_the_state(verts, colors, message):
    C = _assign_case()
    before = C.colors.copy(), C.provenance.copy()
    with pytest.raises(ColoringError, match=message):
        C.assign(np.array(verts), np.array(colors), 3)
    assert np.array_equal(C.colors, before[0])
    assert np.array_equal(C.provenance, before[1])


def test_recolor_goes_through_the_checks():
    C = _assign_case()
    C.recolor(3, 2, 6)
    assert C.colors[3] == 2 and C.provenance[3] == 6 and C.recolored == [3]
    with pytest.raises(ColoringError, match="conflict assigning 2 to 2 in phase 6"):
        C.recolor(2, 2, 6)
    with pytest.raises(ColoringError, match="color 0 out of range"):
        C.recolor(3, 0, 6)
    assert C.recolored == [3]


# ---- matching ---------------------------------------------------------------


def test_complete_bipartite_has_perfect_matching():
    adj = [[0, 1, 2]] * 3
    m = l_perfect_matching(adj, 3)
    assert m is not None and sorted(m) == [0, 1, 2]


def test_isolated_left_node_fails():
    assert l_perfect_matching([[0], []], 2) is None


def _hall_ok(adj, n_right):
    # brute-force Hall condition over all left subsets
    masks = [0] * len(adj)
    for i, nbrs in enumerate(adj):
        for c in nbrs:
            masks[i] |= 1 << c
    for bits in range(1, 1 << len(adj)):
        picked = [i for i in range(len(adj)) if bits >> i & 1]
        nbhd = 0
        for i in picked:
            nbhd |= masks[i]
        if bin(nbhd).count("1") < len(picked):
            return False
    return True


def test_matching_agrees_with_hall_small(rng):
    for _ in range(400):
        nl = int(rng.integers(1, 9))
        nr = int(rng.integers(1, 11))
        p = rng.random() * 0.8 + 0.1
        adj = [list(np.flatnonzero(rng.random(nr) < p)) for _ in range(nl)]
        got = l_perfect_matching([list(map(int, a)) for a in adj], nr)
        assert (got is not None) == _hall_ok(adj, nr)
        if got is not None:
            assert len(set(got)) == nl  # vertex-disjoint
            for i, c in enumerate(got):
                assert c in adj[i]


def test_hopcroft_karp_equals_the_oracle(rng):
    # the greedy first round plus BFS/DFS phases gives the very matching
    # of Hopcroft-Karp run phase by phase, on graphs with and without an
    # L-perfect matching, in ascending and in shuffled adjacency order
    from conftest import oracle_hopcroft_karp

    seen = set()
    for trial in range(600):
        nl = int(rng.integers(0, 12))
        nr = int(rng.integers(1, 14))
        p = rng.random()
        adj = [np.flatnonzero(rng.random(nr) < p).tolist() for _ in range(nl)]
        if trial % 3 == 0:
            adj = [rng.permutation(a).tolist() for a in adj]
        want = oracle_hopcroft_karp(adj, nr)
        assert hopcroft_karp(adj, nr) == want
        taken = set()
        for a in adj:  # the greedy round alone
            taken.update(next(([c] for c in a if c not in taken), []))
        seen.add("L-perfect" if -1 not in want else "not L-perfect")
        if len(taken) < sum(c >= 0 for c in want):
            seen.add("augmenting paths")
    assert seen == {"L-perfect", "not L-perfect", "augmenting paths"}


def test_color_clique_trivial_cases():
    n, delta = 5, 5
    pal = uniform_palettes(n, delta, [{1, 2, 3, 4, 5}] * n)
    K = [0, 1, 2, 3, 4]
    h = _conflict_from(n, [(u, v) for u in K for v in K if u < v])
    C = PartialColoring(n, delta, h)
    # everyone already colored: nothing to do, still succeeds
    for v, c in zip(K, (1, 2, 3, 4, 5)):
        C.assign(v, c, 2)
    assert color_cliques_by_matching([K], C, pal.l2, phase=2)[0]
    # a full-palette K5 block at delta=5 gets 5 distinct colors
    C2 = PartialColoring(n, delta, h)
    assert color_cliques_by_matching([K], C2, pal.l2, phase=2)[0]
    assert sorted(int(C2.colors[v]) for v in K) == [1, 2, 3, 4, 5]


# ---- one-shot ---------------------------------------------------------------


def test_one_shot_nobody_activated():
    n, delta = 30, 5
    pal = uniform_palettes(n, delta, [{1, 2, 3, 4, 5}] * n)
    params = ParamSet.desk(n, delta, alpha=10**9)
    C = PartialColoring(n, delta, _conflict_from(n, []))
    one_shot(C, pal, params, seed=1)
    assert not C.colors.any()


def test_one_shot_conflicting_pair_both_drop():
    n, delta = 4, 3
    pal = uniform_palettes(n, delta, [{1}, {1}, {2}, {3}])
    params = ParamSet.desk(n, delta, alpha=1)  # everyone activates
    h = _conflict_from(n, [(0, 1), (2, 3)])
    C = PartialColoring(n, delta, h)
    one_shot(C, pal, params, seed=1)
    assert C.colors[0] == 0 and C.colors[1] == 0  # shared tentative color
    assert C.colors[2] == 2 and C.colors[3] == 3  # distinct: both retained


def test_one_shot_independent_set_retained():
    n, delta = 6, 4
    pal = uniform_palettes(n, delta, [{1}] * n)
    params = ParamSet.desk(n, delta, alpha=1)
    C = PartialColoring(n, delta, _conflict_from(n, []))  # no edges at all
    one_shot(C, pal, params, seed=2)
    assert (C.colors == 1).all()


def test_one_shot_proper_on_true_graph():
    from streamcolor.generators import generate_instance
    from streamcolor.palette import sample_palettes
    from conftest import source_of

    inst = generate_instance("mixed", 12, count=1, seed=7)
    params = ParamSet.desk(inst.n, 12)
    pal = sample_palettes(inst.n, 12, params, seed=7)
    h = build_conflict_graph(source_of(inst).open(), pal)
    C = PartialColoring(inst.n, 12, h)
    one_shot(C, pal, params, seed=7)
    oracle = oracle_from_edges(inst.n, inst.edges)
    for u, v in inst.edges.tolist():
        assert not (C.colors[u] and C.colors[u] == C.colors[v])


def test_one_shot_opens_gap_for_sparse_vertices():
    # planted locally-sparse vertices at delta=64: the mean slack between
    # available colors and remaining degree goes positive after one-shot
    from streamcolor.generators import generate_instance
    from streamcolor.palette import sample_palettes
    from conftest import source_of

    delta = 64
    gaps = []
    for seed in range(100):
        inst = generate_instance("random-regular", delta, n=130, seed=seed)
        params = ParamSet.desk(inst.n, delta)
        pal = sample_palettes(inst.n, delta, params, seed=seed)
        h = build_conflict_graph(source_of(inst).open(), pal)
        C = PartialColoring(inst.n, delta, h)
        one_shot(C, pal, params, seed=seed)
        oracle = oracle_from_edges(inst.n, inst.edges)
        gaps.append(np.mean([measure_gap(v, C, oracle, delta) for v in range(inst.n)]))
    assert np.mean(gaps) > 0


def test_measure_gap_cases():
    edges = [(0, 1), (0, 2), (1, 2), (0, 3)]
    oracle = oracle_from_edges(5, edges)
    delta = 3
    C = PartialColoring(5, delta, _conflict_from(5, edges))
    # empty coloring: slack = delta - deg
    assert measure_gap(0, C, oracle, delta) == delta - 3
    # two neighbors of 0 share a color: slack grows by one
    C.colors[1] = 1
    C.colors[2] = 1
    assert measure_gap(0, C, oracle, delta) == (delta - 1) - (3 - 2)


# ---- greedy + strip ---------------------------------------------------------


def test_greedy_sparse_picks_first_free_color():
    n, delta = 5, 4
    pal = uniform_palettes(n, delta, [{2, 3}] * n)
    C = PartialColoring(n, delta, _conflict_from(n, []))
    greedy_sparse(C, [0], pal)
    assert C.colors[0] == 2


def test_greedy_sparse_takes_last_remaining_color():
    n, delta = 5, 4
    pal = uniform_palettes(n, delta, [{1, 2, 3, 4}] * n)
    h = _conflict_from(n, [(0, 1), (0, 2), (0, 3)])
    C = PartialColoring(n, delta, h)
    for v, c in ((1, 1), (2, 2), (3, 3)):
        C.assign(v, c, 3)
    greedy_sparse(C, [0], pal)
    assert C.colors[0] == 4


def test_greedy_sparse_failure_surfaces():
    n, delta = 5, 3
    pal = uniform_palettes(n, delta, [{1}] * n)
    h = _conflict_from(n, [(0, 1)])
    C = PartialColoring(n, delta, h)
    C.assign(1, 1, 3)
    with pytest.raises(RunFailure):
        greedy_sparse(C, [0], pal)


def test_greedy_sparse_random_graphs_never_fail():
    from streamcolor.generators import generate_instance
    from streamcolor.palette import sample_palettes
    from conftest import source_of

    delta = 32
    for seed in range(30):
        inst = generate_instance("random-regular", delta, n=120, seed=seed)
        params = ParamSet.desk(inst.n, delta)
        pal = sample_palettes(inst.n, delta, params, seed=seed)
        h = build_conflict_graph(source_of(inst).open(), pal)
        C = PartialColoring(inst.n, delta, h)
        one_shot(C, pal, params, seed=seed)
        greedy_sparse(C, range(inst.n), pal)  # RunFailure would fail the test
        oracle = oracle_from_edges(inst.n, inst.edges)
        for u, v in inst.edges.tolist():
            assert C.colors[u] != C.colors[v]


def _phase3_case(rng, delta, n, degree, keep):
    """A random stored graph on n vertices whose last eighth is isolated,
    with about `degree` stored neighbors per vertex, L3 rows that keep each
    color with probability `keep`, and a proper pre-coloring of about a
    quarter of the vertices; as (C, palettes, sparse vertex list)."""
    from types import SimpleNamespace

    joined = n - n // 8
    e = rng.integers(0, joined, size=(int(degree * n) // 2, 2))
    C = PartialColoring(n, delta, _conflict_from(n, e[e[:, 0] != e[:, 1]]))
    for v in rng.permutation(n)[: n // 4].tolist():
        free = np.flatnonzero(~C.blocked(v)) + 1
        if free.size:
            C.assign(v, int(rng.choice(free)), 1)
    pal = SimpleNamespace(l3=rng.random((n, delta)) < keep)
    sparse = rng.permutation(n)[: int(rng.integers(0, n + 1))].tolist()
    return C, pal, sparse + sparse[:3]  # repeats and any order are allowed


def _phase3_outcome(run, C, pal, sparse):
    try:
        run(C, sparse, pal)
        return None
    except RunFailure as e:
        return e.phase, e.detail


@pytest.mark.parametrize("entries", [1, 7, 64])
@pytest.mark.parametrize("delta", [8, 63, 64, 65, 256])
def test_greedy_sparse_equals_one_at_a_time_oracle(rng, delta, entries, monkeypatch):
    """Batches of every size, palettes across the 64-bit word boundaries:
    the same colors, provenance and failure as the per-vertex loop, also
    on an empty graph, with pre-colored and isolated vertices and holes in
    L3."""
    import copy

    from streamcolor import coloring
    from conftest import oracle_greedy_sparse

    monkeypatch.setattr(coloring, "GREEDY_ENTRIES", entries)
    outcomes = set()
    for trial in range(8):
        n = int(rng.integers(1, 3 * delta))
        degree = 0 if trial == 0 else rng.uniform(0.2, 1.2) * delta
        keep = (1.0, 0.6, 4 / delta, 1 / delta)[trial % 4]
        C, pal, sparse = _phase3_case(rng, delta, n, degree, keep)
        want = copy.deepcopy(C)
        expected = _phase3_outcome(oracle_greedy_sparse, want, pal, sparse)
        assert _phase3_outcome(greedy_sparse, C, pal, sparse) == expected
        assert np.array_equal(C.colors, want.colors)
        assert np.array_equal(C.provenance, want.provenance)
        outcomes.add(expected is None)
    assert outcomes == {True, False}


@pytest.mark.parametrize("entries", [1, 7, 64, 1 << 14])
def test_greedy_sparse_fails_at_the_first_stuck_vertex(entries, monkeypatch):
    """Vertices 5, 9 and 12 would all fail: 5 after its batch neighbor 3
    takes its only color, 9 with an empty list, 12 against a pre-colored
    neighbor.  Both versions stop at 5, with 3 and the vertices before 5
    colored."""
    import copy

    from streamcolor import coloring
    from conftest import oracle_greedy_sparse

    monkeypatch.setattr(coloring, "GREEDY_ENTRIES", entries)
    n, delta = 16, 4
    lists = [{1, 2, 3, 4}] * n
    lists[3] = lists[5] = {1}
    lists[9], lists[12] = set(), {2}
    pal = uniform_palettes(n, delta, [c or {1} for c in lists])
    l3 = pal.l3.copy()
    l3[9] = False
    pal = replace(pal, l3=l3)
    C = PartialColoring(n, delta, _conflict_from(n, [(3, 5), (0, 5), (12, 15), (1, 2)]))
    C.assign(15, 2, 1)
    want = copy.deepcopy(C)
    expected = _phase3_outcome(oracle_greedy_sparse, want, pal, range(n))
    assert expected == ("phase3", "no free sampled color at sparse vertex 5")
    assert _phase3_outcome(greedy_sparse, C, pal, range(n)) == expected
    assert np.array_equal(C.colors, want.colors)
    assert C.colors[3] == 1 and not C.colors[5:15].any()


def test_greedy_sparse_temporaries_stay_bounded():
    """About 2^14 row entries at a time: beyond its result and a few
    arrays over the n sparse vertices, phase 3 holds the index arrays and
    color rows of one batch.  One batch for all 2^18 edges peaks near
    29 MiB, batches of 2^16 entries near 3.3 MiB; both fail."""
    from types import SimpleNamespace

    rng = np.random.default_rng(8)
    n, delta = 1 << 14, 96
    e = rng.integers(0, n, size=(1 << 18, 2))
    C = PartialColoring(n, delta, _conflict_from(n, e[e[:, 0] != e[:, 1]]))
    pal = SimpleNamespace(l3=np.ones((n, delta), dtype=bool))
    sparse = list(range(n))
    tracemalloc.start()
    try:
        greedy_sparse(C, sparse, pal)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert C.colors.all()
    # the sparse ids, sorted, uncolored and their cumulative row lengths;
    # one batch's index arrays, with its color rows (about 2^14 / 33
    # vertices of delta + 1 bytes) and Python ints far smaller
    bound = 8 * (6 * n + 12 * (1 << 14))
    assert peak < bound, f"peak {peak / 2**20:.2f} MiB, bound {bound / 2**20:.2f} MiB"


def test_strip_residue():
    C = PartialColoring(4, 3, _conflict_from(4, []))
    for v in range(4):
        C.assign(v, 1 + v % 3, 1)
    strip_residue(C, keep={0, 2})
    assert C.colors.tolist() == [1, 0, 3, 0]


# ---- colorful matching ------------------------------------------------------


def test_colorful_matching_empty_f():
    C = PartialColoring(4, 3, _conflict_from(4, []))
    pal = uniform_palettes(4, 3, [{1, 2, 3}] * 4)
    assert colorful_matchings(C, pal.l4, [[]])[0] == [[]] * pal.l4.shape[1]
    assert not C.colors.any()


def test_colorful_matching_single_pair():
    n, delta = 4, 3
    pal = uniform_palettes(n, delta, [{2}] * n)
    C = PartialColoring(n, delta, _conflict_from(n, []))
    assert colorful_matchings(C, pal.l4, [[(0, 3)]])[0] == [[(0, 3, 2)]] * pal.l4.shape[1]
    assert not C.colors.any()  # a computation: C is never written


def test_phase4_refuses_a_listed_stored_edge():
    # the listing is read as given: a stored edge whose ends can share a
    # color is matched, and the checked assignment refuses it
    n, delta = 4, 3
    pal = uniform_palettes(n, delta, [{2}] * n)
    C = PartialColoring(n, delta, _conflict_from(n, [(0, 3)]))
    C.assign(1, 1, 2)
    colors, provenance = C.colors.copy(), C.provenance.copy()
    with pytest.raises(ColoringError, match="conflict assigning 2"):
        phase4_wave([[0, 1, 2, 3]], C, pal, [[(0, 3)]])
    assert np.array_equal(C.colors, colors)
    assert np.array_equal(C.provenance, provenance)


def test_colorful_matching_is_a_non_edge_matching(rng):
    # per list: endpoints pairwise distinct, pairs non-adjacent in the true
    # graph, one pair per color, and the color in both endpoints' list
    from streamcolor.generators import generate_instance

    delta = 16
    inst = generate_instance("holey-clique", delta, count=1, seed=4)
    oracle = oracle_from_edges(inst.n, inst.edges)
    params = ParamSet.desk(inst.n, delta)
    from streamcolor.palette import sample_palettes

    pal = sample_palettes(inst.n, delta, params, seed=4)
    K = list(range(inst.n))
    F = [
        (a, b) for a in K for b in K if a < b and not has_edge(oracle, a, b)
    ]
    h = _conflict_from(inst.n, inst.edges.tolist())
    C = PartialColoring(inst.n, delta, h)
    trials = colorful_matchings(C, pal.l4, [F])[0]
    l4 = unpack_rows(pal.l4, delta)
    assert len(trials) == params.beta and any(trials)
    for i, matched in enumerate(trials):
        ends = [x for a, b, _ in matched for x in (a, b)]
        assert len(ends) == len(set(ends))
        assert len({c for _, _, c in matched}) == len(matched)
        for a, b, c in matched:
            assert not has_edge(oracle, a, b)
            assert l4[a, i, c - 1] and l4[b, i, c - 1]
    assert not C.colors.any()


def _holey_phase4_case(rng, delta, seed):
    """A holey clique K with 8 stored outside neighbors, as (K, C, pal, F):
    F lists K's non-edges as `annotate_cliques` does; the outside vertices
    and three of K are pre-colored."""
    from streamcolor.generators import generate_instance
    from streamcolor.graph import Graph
    from streamcolor.palette import sample_palettes

    # under (delta+1)/2 planted pairs leave some vertex at degree delta
    t = None if seed % 2 else int(rng.integers(1, delta // 2))
    inst = generate_instance("holey-clique", delta, count=1, seed=seed, t=t)
    k, extra = inst.n, 8
    n = k + extra
    K = list(range(k))
    F = brute_non_edges(K, oracle_from_edges(k, inst.edges))
    outside = np.stack([rng.integers(0, k, 4 * extra), rng.integers(k, n, 4 * extra)], axis=1)
    C = PartialColoring(n, delta, Graph(n, np.concatenate([inst.edges, outside])))
    pal = sample_palettes(n, delta, ParamSet.desk(n, delta), seed=seed)
    for v in list(range(k, n)) + rng.choice(k, size=3, replace=False).tolist():
        free = np.flatnonzero(~C.blocked(v)) + 1
        C.assign(v, int(rng.choice(free)), 2)
    return K, C, pal, F


@pytest.mark.parametrize("delta", [16, 32, 64, 256])
def test_colorful_matching_equals_trial_and_undo_oracle(rng, delta):
    import copy

    from conftest import oracle_phase4_matching

    matched_any = 0
    for seed in range(12):
        K, C, pal, F = _holey_phase4_case(rng, delta, seed)
        if seed == 5:
            pal = replace(pal, l4=np.zeros_like(pal.l4))  # every trial empty
        old = copy.deepcopy(C)
        want, best_i = oracle_phase4_matching(old, pal.l4, F)
        before = C.colors.copy()
        got = colorful_matchings(C, pal.l4, [F])[0]
        assert np.array_equal(C.colors, before)
        assert got == want
        best = max(got, key=len)
        assert best == ([] if best_i is None else want[best_i])
        for a, b, c in best:
            C.assign(a, c, 4)
            C.assign(b, c, 4)
        assert np.array_equal(C.colors, old.colors)
        assert np.array_equal(C.provenance, old.provenance)
        matched_any += bool(best)
    assert matched_any >= 8


def test_phase4_color_equals_trial_and_undo_oracle(rng):
    import copy

    from conftest import oracle_color_clique_by_matching, oracle_phase4_matching

    outcomes = set()
    for seed in range(12):
        K, C, pal, F = _holey_phase4_case(rng, 16, seed)
        if seed % 3 == 0:
            pal = replace(pal, l4_star=pal.l4_star & (rng.random(pal.l4_star.shape) < 0.5))
        old = copy.deepcopy(C)
        trials, best_i = oracle_phase4_matching(old, pal.l4, F)
        want = oracle_color_clique_by_matching(K, old, pal.l4_star, phase=4)
        if not want and best_i is not None:
            for a, b, _ in trials[best_i]:
                old.uncolor(a)
                old.uncolor(b)
        assert phase4_wave([K], C, pal, [F])[0] == want
        assert np.array_equal(C.colors, old.colors)
        assert np.array_equal(C.provenance, old.provenance)
        outcomes.add(want)
    assert outcomes == {True, False}


def _shared_vertex_case(rng, delta):
    """(C, l4, F) on 12 vertices: F lists every pair a random stored graph
    leaves out, as `annotate_cliques` does, so each vertex sits in several
    listed pairs.  Three vertices are pre-colored, and the pair-lists are
    drawn per list at random densities, packed as `PaletteSet.l4` holds
    them.

    A shared vertex is planted: uncolored x, y and z with (x, y) and (x, z)
    listed, and a color c that no vertex holds, so none blocks it, which
    list i gives only x and y and list j only x and z.  Neither y in list
    i nor z in list j holds a color below c, so each trial matches x."""
    from streamcolor.graph import Graph

    n = 12
    pairs = np.array([(a, b) for a in range(n) for b in range(a + 1, n)])
    stored = pairs[rng.random(len(pairs)) < rng.uniform(0.2, 0.7)]
    x, y, z = rng.choice(n, size=3, replace=False).tolist()
    planted = [min(x, w) * n + max(x, w) for w in (y, z)]
    C = PartialColoring(n, delta, Graph(n, stored[~np.isin(stored @ [n, 1], planted)]))
    for v in rng.choice(np.setdiff1d(np.arange(n), [x, y, z]), size=3, replace=False).tolist():
        free = np.flatnonzero(~C.blocked(v)) + 1
        C.assign(v, int(rng.choice(free)), 2)
    beta = int(rng.integers(2, 6))
    rows = rng.random((n, beta, delta)) < rng.uniform(0.05, 0.6, size=(1, beta, 1))
    c = min(set(range(1, delta + 1)) - set(C.colors.tolist()))
    for i, w in zip(rng.choice(beta, size=2, replace=False).tolist(), (y, z)):
        rows[:, i, c - 1] = False
        rows[[x, w], i, c - 1] = True
        rows[w, i, : c - 1] = False
    return C, pack_rows(rows), brute_non_edges(range(n), C.stored)


@pytest.mark.parametrize("delta", [8, 64])
def test_colorful_matching_with_shared_vertices_equals_oracle(rng, delta):
    import copy

    from conftest import oracle_phase4_matching

    for _ in range(20):
        C, l4, F = _shared_vertex_case(rng, delta)
        want, _ = oracle_phase4_matching(copy.deepcopy(C), l4, F)
        before = C.colors.copy()
        assert colorful_matchings(C, l4, [F])[0] == want
        assert np.array_equal(C.colors, before)
        ends = [x for trial in want for a, b, _ in trial for x in (a, b)]
        assert len(ends) > len(set(ends))  # the planted vertex matched in two lists


@pytest.mark.parametrize("F", [[], np.zeros((0, 2), dtype=np.int64)])
def test_phase4_color_without_listed_non_edges_equals_oracle(rng, F):
    import copy

    from conftest import oracle_color_clique_by_matching

    outcomes = set()
    for seed in range(8):
        K, C, pal, _ = _holey_phase4_case(rng, 16, seed)
        K = K[: 12 + seed % 6]  # at most delta vertices can fit without a pair
        if seed % 2:
            pal = replace(pal, l4_star=pal.l4_star & (rng.random(pal.l4_star.shape) < 0.5))
        old = copy.deepcopy(C)
        want = oracle_color_clique_by_matching(K, old, pal.l4_star, phase=4)
        assert phase4_wave([K], C, pal, [F])[0] == want
        assert np.array_equal(C.colors, old.colors)
        assert np.array_equal(C.provenance, old.provenance)
        outcomes.add(want)
    assert outcomes == {True, False}


def _palette_matching_case(rng, delta):
    """(K, C, lists, exclude) for `color_cliques_by_matching`: a clique K
    of 2..delta shuffled vertices among k + 6 with a few stored pairs of K
    dropped, 6 colored outside vertices joined to K, a random number of K
    pre-colored (all of them at times), random list densities, and an
    exclude of 0..2 members of K (at times every uncolored one)."""
    from streamcolor.graph import Graph

    k = int(rng.integers(2, delta + 1))
    n = k + 6
    inside = np.array([(a, b) for a in range(k) for b in range(a + 1, k)]).reshape(-1, 2)
    inside = inside[rng.random(len(inside)) < 0.9]
    outside = np.stack([rng.integers(0, k, 3 * k), rng.integers(k, n, 3 * k)], axis=1)
    C = PartialColoring(n, delta, Graph(n, np.concatenate([inside, outside])))
    pre = rng.choice(k, size=int(rng.integers(0, k + 1)), replace=False).tolist()
    for v in list(range(k, n)) + pre:
        free = np.flatnonzero(~C.blocked(v)) + 1
        if free.size:
            C.assign(v, int(rng.choice(free)), 2)
    lists = rng.random((n, delta)) < rng.uniform(0.02, 1.0)
    K = rng.permutation(k).tolist()
    uncolored = [v for v in K if not C.colors[v]]
    if uncolored and rng.random() < 0.1:
        exclude = tuple(uncolored)
    else:
        exclude = tuple(rng.choice(k, size=int(rng.integers(0, 3)), replace=False).tolist())
    return K, C, lists, exclude


@pytest.mark.parametrize("delta", [8, 32])
def test_color_clique_by_matching_equals_per_row_oracle(rng, delta):
    import copy

    from conftest import oracle_color_clique_by_matching

    seen = set()
    for _ in range(150):
        K, C, lists, exclude = _palette_matching_case(rng, delta)
        left = [v for v in K if not C.colors[v] and v not in exclude]
        held = C.colors[list(exclude)].copy()
        old = copy.deepcopy(C)
        want = oracle_color_clique_by_matching(K, old, lists, phase=2, exclude=exclude)
        assert color_cliques_by_matching([K], C, lists, phase=2, exclude=exclude)[0] == want
        assert np.array_equal(C.colors, old.colors)
        assert np.array_equal(C.provenance, old.provenance)
        assert np.array_equal(C.colors[list(exclude)], held)
        if not left:
            seen.add("no left vertex")
        elif not want:
            seen.add("Hall failure")
        elif any(not old.colors[v] for v in exclude):
            seen.add("excluded and colored around")
        if want and left and len(left) < len(K):
            seen.add("pre-colored members")
    assert seen == {"no left vertex", "Hall failure", "excluded and colored around",
                    "pre-colored members"}


# ---- waves: cliques that share no stored edge, colored together -------------


def test_waves_cut_before_the_first_clique_touching_one_inside():
    # K0..K4; K2 touches K0 and K3 touches K2, so waves start at 0, 2, 3;
    # K3 also touches K1 and K4 touches K0, both in earlier waves, and K1
    # touches vertex 9, which is in no clique
    Ks = [[1, 0], [3, 2], [5, 4], [7, 6], [8]]
    inside = [(0, 1), (2, 3), (4, 5), (6, 7)]
    h = _conflict_from(10, inside + [(1, 4), (5, 6), (7, 2), (8, 0), (3, 9)])
    assert waves(h, Ks) == [slice(0, 2), slice(2, 3), slice(3, 5)]
    assert waves(_conflict_from(10, inside), Ks) == [slice(0, 5)]
    assert waves(h, []) == []


def _phase2_neighbors_case():
    """Two lonely small cliques joined by the stored edge (2, 3), delta 4,
    and sparse vertex 6 next to 5.  Matched first, K0 takes 1, 2, 3; then
    3 must leave 3 to its neighbor 2 and takes 4, the other color of its
    list.  Matched together they would both take 3."""
    n, delta = 7, 4
    K0, K1 = [0, 1, 2], [3, 4, 5]
    edges = [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5), (2, 3), (5, 6)]
    lists = [{1, 2, 3, 4}] * n
    lists[3] = {3, 4}
    pal = uniform_palettes(n, delta, lists)
    cliques = [
        AlmostClique(vertices=K, size_class="small", kind="lonely", holey=False,
                     non_edges=0, non_edge_pairs=np.zeros((0, 2), dtype=np.int64))
        for K in (K0, K1)
    ]
    dec = Decomposition(n=n, v_sparse=[6], cliques=cliques)
    params = ParamSet.desk(n, delta, alpha=10**9)  # phase 1 colors nobody
    return _conflict_from(n, edges), pal, dec, params


def test_phase2_cliques_sharing_a_stored_edge_go_in_turn():
    from conftest import oracle_run_phases
    from streamcolor.coloring import run_phases

    h, pal, dec, params = _phase2_neighbors_case()
    assert waves(h, [k.vertices for k in dec.cliques]) == [slice(0, 1), slice(1, 2)]

    def find_helpers(critical, friendly):
        assert critical == friendly == []
        return {}, {}, RecoveryGraph(dec.n)

    got = run_phases(h, pal, dec, find_helpers, params, seed=1)
    colors, provenance, colored_by = oracle_run_phases(h, pal, dec, find_helpers, params, 1)
    assert got.colors.tolist() == colors.tolist() == [1, 2, 3, 4, 1, 2, 1]
    assert np.array_equal(got.provenance, provenance)
    assert got.colored_by == colored_by == {0: 2, 1: 2}


def _phase4_pair_case(fail):
    """Two 4-cliques, each missing one edge, delta 3, with no stored edge
    between them; each matches its non-edge to color 1 and must give 2 and
    3 to its other two vertices.  In the cliques of `fail` those two can
    take only color 2 from L4*, so the palette matching fails."""
    n, delta = 8, 3
    Ks = [[0, 1, 2, 3], [4, 5, 6, 7]]
    F = [np.array([[0, 1]]), np.array([[4, 5]])]
    edges = [(a, b) for K in Ks for a in K for b in K if a < b and [a, b] not in (
        [0, 1], [4, 5])]
    pal = uniform_palettes(n, delta, [{1, 2, 3}] * n)
    l4_star = pal.l4_star.copy()
    for i in fail:
        l4_star[Ks[i][2:]] = [False, True, False]
    return Ks, F, PartialColoring(n, delta, _conflict_from(n, edges)), replace(pal, l4_star=l4_star)


@pytest.mark.parametrize("order", [[0, 1], [1, 0]])
@pytest.mark.parametrize("fail", [(), (0,), (1,), (0, 1)])
def test_phase4_wave_defers_a_failing_clique_beside_one_that_succeeds(order, fail):
    import copy

    from conftest import oracle_color_clique_by_matching, oracle_phase4_matching

    Ks, F, C, pal = _phase4_pair_case(fail)
    assert waves(C.stored, Ks) == [slice(0, 2)]
    old = copy.deepcopy(C)
    want = []
    for i in order:  # one clique at a time
        trials, best_i = oracle_phase4_matching(old, pal.l4, F[i])
        want.append(oracle_color_clique_by_matching(Ks[i], old, pal.l4_star, phase=4))
        if not want[-1]:
            for a, b, _ in trials[best_i]:
                old.uncolor([a, b])
    got = phase4_wave([Ks[i] for i in order], C, pal, [F[i] for i in order])
    assert got.tolist() == want == [i not in fail for i in order]
    assert np.array_equal(C.colors, old.colors)
    assert np.array_equal(C.provenance, old.provenance)
    for i in range(2):
        colors = C.colors[Ks[i]].tolist()
        assert colors == ([0] * 4 if i in fail else [1, 1, 2, 3])


@pytest.mark.parametrize("no_shadow", [False, True])
def test_run_phases_on_touching_cliques_equals_the_per_clique_loop(no_shadow, monkeypatch):
    # clique-pairs joins cliques 0/1, 2/3, ...: the waves split there, and
    # the phases color as the old loop did, one clique at a time
    from streamcolor import coloring as col
    from conftest import oracle_run_phases

    runs, real = [], col.run_phases

    def both(conflict, palettes, dec, find_helpers, params, seed):
        got = real(conflict, palettes, dec, find_helpers, params, seed)
        want = oracle_run_phases(conflict, palettes, dec, find_helpers, params, seed)
        runs.append((waves(conflict, [k.vertices for k in dec.cliques]), got, want))
        return got

    monkeypatch.setattr(col, "run_phases", both)
    for seed in (1, 2):
        cfg = RunConfig(source=f"clique-pairs:delta=16,count=4,seed={seed}", seed=seed,
                        no_shadow=no_shadow)
        assert color_run(cfg).status == "success"
    assert len(runs) == 2
    for cut, got, (colors, provenance, colored_by) in runs:
        assert len(cut) > 1 and max(s.stop - s.start for s in cut) > 1
        assert np.array_equal(got.colors, colors)
        assert np.array_equal(got.provenance, provenance)
        assert got.colored_by == colored_by


# ---- phase 5 / phase 6 direct drives ---------------------------------------


def _k4_minus_edge_setup():
    delta = 3
    edges = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)]  # missing (2,3)
    h = _conflict_from(4, edges)
    C = PartialColoring(4, delta, h)
    C.store(RecoveryGraph(4, [(3, {0, 1})]))
    pal = uniform_palettes(4, delta, [{1, 2, 3}] * 4)
    helper = CriticalHelper(u=2, v=3, n_v={0, 1}, rate=2)
    return delta, h, C, pal, helper


def test_phase5_k4_minus_edge_pattern():
    delta, h, C, pal, helper = _k4_minus_edge_setup()
    phase5_critical([0, 1, 2, 3], helper, C, pal)
    assert C.colors[2] == C.colors[3]
    assert sorted([C.colors[0], C.colors[1], C.colors[2]]) == [1, 2, 3]


def test_phase5_statistical_on_clique_minus_edge():
    from streamcolor.generators import generate_instance
    from streamcolor.palette import sample_palettes
    from streamcolor.field import SketchBank
    from streamcolor.helpers import build_recovery_graph, find_critical_helper
    from conftest import source_of

    delta = 16
    ok = 0
    for seed in range(100):
        inst = generate_instance("clique-minus-edge", delta, count=1, seed=seed)
        params = ParamSet.desk(inst.n, delta)
        pal = sample_palettes(inst.n, delta, params, seed=seed)
        h = build_conflict_graph(source_of(inst).open(), pal)
        bank = SketchBank(inst.n, delta, params, seed)
        src = source_of(inst)
        for block in src.open().chunks():
            bank.update_chunk(np.ascontiguousarray(block[:, 0]), np.ascontiguousarray(block[:, 1]))
        [helper] = find_critical_helper([list(range(delta + 1))], bank)
        if helper is None:
            continue
        C = PartialColoring(inst.n, delta, h)
        C.store(build_recovery_graph(inst.n, {0: helper}, {}))
        try:
            phase5_critical(list(range(delta + 1)), helper, C, pal)
        except RunFailure:
            continue
        oracle = oracle_from_edges(inst.n, inst.edges)
        assert all(
            C.colors[u] != C.colors[v] for u, v in inst.edges.tolist()
        )
        ok += 1
    assert ok >= 95


def test_phase5_no_color_failure_path():
    delta, h, C, pal, helper = _k4_minus_edge_setup()
    # block every色 on the pair via an adversarial hand state: color the
    # common neighbors with all of 1..3 is impossible (only 2 of them), so
    # shrink the list instead
    l5 = pal.l5.copy()
    l5[2] = False
    pal = replace(pal, l5=l5)
    with pytest.raises(RunFailure):
        phase5_critical([0, 1, 2, 3], helper, C, pal)


def test_phase6_increments_witness_counter_and_colors_clique():
    # K = {0,1,2} triangle, delta=3; witness 3 adjacent to 0; non-edge (3,2)
    delta = 3
    edges = [(0, 1), (0, 2), (1, 2), (0, 3), (3, 4)]
    h = _conflict_from(5, edges)
    C = PartialColoring(5, delta, h)
    C.store(RecoveryGraph(5, [(0, {1, 2, 3}), (2, {0, 1})]))   # v = 0, w = 2
    pal = uniform_palettes(5, delta, [{1, 2, 3}] * 5)
    C.assign(3, 1, 3)  # witness already colored; phase 6 may overwrite
    C.assign(4, 2, 3)
    helper = FriendlyHelper(u=3, v=0, w=2, n_v={1, 2, 3}, n_w={0, 1})
    i_u = {}
    phase6_friendly([0, 1, 2], helper, C, pal, i_u, ParamSet.desk(5, delta))
    assert i_u[3] == 1
    assert C.colors[3] == C.colors[2]  # witness and non-neighbor share
    assert C.colors[3] != 2            # avoids its colored neighbor 4
    oracle = oracle_from_edges(5, edges)
    for a, b in edges:
        assert C.colors[a] != C.colors[b]
    assert C.recolored == [3]


def test_phase6_list_exhaustion():
    delta = 3
    h = _conflict_from(5, [(0, 1)])
    C = PartialColoring(5, delta, h)
    C.store(RecoveryGraph(5))
    pal = uniform_palettes(5, delta, [{1}] * 5)
    params = ParamSet.desk(5, delta)
    helper = FriendlyHelper(u=3, v=0, w=2, n_v=set(), n_w=set())
    with pytest.raises(RunFailure):
        phase6_friendly([0, 1, 2], helper, C, pal, {3: 2 * params.beta}, params)


# ---- responsibility routing -------------------------------------------------


def test_responsible_phase_table():
    def k(size_class, holey, kind):
        return AlmostClique(vertices=[], size_class=size_class, holey=holey, kind=kind)

    assert responsible_phase(k("small", False, "lonely")) == 2
    assert responsible_phase(k("small", True, "lonely")) == 2
    assert responsible_phase(k("small", False, "friendly")) == 6
    assert responsible_phase(k("small", True, "friendly")) == 4
    assert responsible_phase(k("critical", False, "lonely")) == 5
    assert responsible_phase(k("critical", True, "friendly")) == 4
    assert responsible_phase(k("large", True, "lonely")) == 4


# ---- extension discipline across phases --------------------------------------


def test_phase_extension_discipline(monkeypatch):
    from streamcolor import coloring as col

    # snapshots of the colors around the steps of run_phases, taken by
    # wrapping the names it calls: the phase-2 result is what phase 3 finds
    snaps = {}

    def spy(name, before=None, after=None, at=0):
        run = getattr(col, name)

        def wrapped(*args):
            if before:
                snaps.setdefault(before, args[at].colors.copy())
            out = run(*args)
            snaps[after] = args[at].colors.copy()
            return out

        monkeypatch.setattr(col, name, wrapped)

    spy("one_shot", after="phase1")
    spy("greedy_sparse", before="phase2", after="phase3")
    spy("strip_residue", after="strip")
    spy("phase4_wave", after="phase4", at=1)
    res = color_run(RunConfig(source="mixed:delta=16,seed=4", seed=4, retries=0))
    assert res.status == "success"
    assert snaps.keys() == {"phase1", "phase2", "phase3", "strip", "phase4"}

    # phases 2 and 3 extend what came before
    for before, after in (("phase1", "phase2"), ("phase2", "phase3")):
        prev, cur = snaps[before], snaps[after]
        changed = (prev != cur) & (prev != 0)
        assert not changed.any()
    # strip only removes colors
    prev, cur = snaps["phase3"], snaps["strip"]
    assert not ((prev != cur) & (cur != 0)).any()
    # phase 4 extends the strip
    prev, cur = snaps["strip"], snaps["phase4"]
    changed = (prev != cur) & (prev != 0)
    assert not changed.any()
    # and every snapshot, and the final coloring, is proper on the true graph
    for colors in [*snaps.values(), res.colors]:
        for u, v in res.shadow.edges():
            assert not (colors[u] and colors[u] == colors[v])


@pytest.mark.parametrize("no_shadow", [False, True])
def test_decompose_run_shows_the_decomposition_color_run_used(no_shadow, monkeypatch):
    from streamcolor import pipeline
    from streamcolor.pipeline import decompose_run

    spec, seed = "mixed:delta=16,seed=2", 2
    res = color_run(RunConfig(source=spec, seed=seed, retries=0, no_shadow=no_shadow))
    assert res.status == "success" and res.report["attempts"] == 1

    def no_bank(*args):
        raise AssertionError("decompose_run reads no sketch bank")

    monkeypatch.setattr(pipeline, "SketchBank", no_bank)
    dec, report = decompose_run(spec, seed=seed, no_shadow=no_shadow)
    assert (report is None) == no_shadow

    def fields(d):
        return [
            (k.vertices, k.size_class, k.non_edges, k.holey, k.kind, k.witness)
            for k in d.cliques
        ]

    assert dec.cliques and fields(dec) == fields(res.dec)
    assert dec.v_sparse == res.dec.v_sparse
    # each clique lists its non-edges over the graph it was judged from;
    # with a shadow, H is the shadow object
    assert (res.conflict is res.shadow) != no_shadow
    judged_on = res.conflict if no_shadow else res.shadow
    for k in res.dec.cliques:
        assert [tuple(p) for p in k.non_edge_pairs.tolist()] == brute_non_edges(
            k.vertices, judged_on)
        assert k.non_edges == len(k.non_edge_pairs)


@pytest.mark.parametrize("fault", ["range", "edge"])
def test_final_check_catches_a_bad_coloring(fault, monkeypatch):
    from streamcolor import coloring as col

    run_phases = col.run_phases

    def corrupted(*args, **kwargs):
        result = run_phases(*args, **kwargs)
        u, v = args[0].edges()[0].tolist()  # an edge of H, so of the shadow too
        result.colors[u] = args[1].delta + 1 if fault == "range" else result.colors[v]
        return result

    monkeypatch.setattr(col, "run_phases", corrupted)
    want = "color out of range at vertex" if fault == "range" else "monochromatic edge"
    with pytest.raises(col.ColoringError, match=f"final coloring: {want}"):
        color_run(RunConfig(source="mixed:delta=16,seed=2", seed=2, retries=0))


@pytest.mark.parametrize("no_shadow", [False, True])
def test_offline_route_checks_its_coloring(no_shadow, monkeypatch):
    from streamcolor import coloring as col

    offline_brooks = col.offline_brooks

    def corrupted(g, delta):
        colors = offline_brooks(g, delta)
        colors[0] = colors[min(row(g, 0))]
        return colors

    monkeypatch.setattr(col, "offline_brooks", corrupted)
    cfg = RunConfig(source="clique-minus-edge:delta=5,count=2,seed=1", no_shadow=no_shadow)
    with pytest.raises(col.ColoringError, match=r"final coloring: monochromatic edge \(0,"):
        color_run(cfg)


def test_shared_witness_is_recolored_twice():
    # two friendly delta-cliques hanging off one witness: phase 6 must
    # recolor the same outside vertex once per clique, burning one fresh
    # list each time, and still land on a proper coloring
    import numpy as np
    from streamcolor import coloring as col
    from streamcolor.decomposition import (
        annotate_cliques,
        classify_friendly_lonely,
        compute_decomposition,
    )
    from streamcolor.field import SketchBank
    from streamcolor.helpers import build_recovery_graph, find_friendly_helper
    from streamcolor.palette import sample_palettes
    from streamcolor.stream import StreamSource
    from conftest import collect_samples, shadow_of

    delta = 16
    K1, K2, w = list(range(delta)), list(range(delta, 2 * delta)), 2 * delta
    edges = [(a, b) for i, a in enumerate(K1) for b in K1[i + 1 :]]
    edges += [(a, b) for i, a in enumerate(K2) for b in K2[i + 1 :]]
    edges += [(v, w) for v in K1[: delta // 2]]
    edges += [(v, w) for v in K2[: delta // 2]]
    n = 2 * delta + 1
    src = StreamSource(n, np.array(edges))
    oracle = shadow_of(src)
    params = ParamSet.desk(n, delta)

    dec = compute_decomposition(oracle, params, delta)
    annotate_cliques(dec, params, delta, oracle)
    samples = collect_samples(src.open(), params, 3, delta)
    classify_friendly_lonely(dec, samples, params, delta)
    assert [k.witness for k in dec.cliques] == [w, w]

    pal = sample_palettes(n, delta, params, seed=3)
    # starve phase 4 so both cliques reach phase 6
    pal = replace(pal, l4=np.zeros_like(pal.l4), l4_star=np.zeros_like(pal.l4_star))
    h = build_conflict_graph(src.open(), pal)
    bank = SketchBank(n, delta, params, 3)
    for block in src.open().chunks():
        bank.update_chunk(
            np.ascontiguousarray(block[:, 0]), np.ascontiguousarray(block[:, 1])
        )
    friendly = dict(enumerate(find_friendly_helper(
        [(k.vertices, k.witness) for k in dec.cliques], bank)))
    assert all(friendly.values())
    rec = build_recovery_graph(n, {}, friendly)

    def find_helpers(critical, friendly_cliques):
        assert (critical, friendly_cliques) == ([], [0, 1])
        return {}, friendly, rec

    assert all(k.non_edges == 0 for k in dec.cliques)  # true cliques inside
    result = col.run_phases(h, pal, dec, find_helpers, params, 3)
    assert result.colored_by == {0: 6, 1: 6}
    assert result.recolored == [w, w]  # same witness, recolored per clique
    for a, b in edges:
        assert result.colors[a] != result.colors[b]
    assert 1 <= result.colors.min() and result.colors.max() <= delta


def test_degenerate_inputs_are_gated():
    from streamcolor.pipeline import RunConfig, color_run

    import numpy as np
    from streamcolor.stream import StreamSource

    # single vertex: a 1-clique at delta 0, correctly refused
    res = color_run(RunConfig(source=_write_graph("1\n"), retries=0))
    assert res.status == "not-colorable"
    # one edge: a 2-clique at delta 1, refused
    res = color_run(RunConfig(source=_write_graph("2\n0 1\n"), retries=0))
    assert res.status == "not-colorable"
    # two isolated vertices plus an edge pair elsewhere: still refused
    # because the K2 component cannot be 1-colored
    res = color_run(RunConfig(source=_write_graph("4\n0 1\n"), retries=0))
    assert res.status == "not-colorable"


def _write_graph(text):
    import tempfile

    f = tempfile.NamedTemporaryFile("w", suffix=".txt", delete=False)
    f.write(text)
    f.close()
    return f.name


# ---- offline fallback --------------------------------------------------------


def test_brooks_k4_minus_edge():
    g = oracle_from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])
    colors = offline_brooks(g, 3)
    for u in range(4):
        for v in row(g, u):
            assert colors[u] != colors[v]
    assert colors.max() <= 3 and colors.min() >= 1


def test_brooks_cut_vertex_as_dfs_root():
    # the 4-regular cut-k5-k5 graph of the golden offline runs, renumbered so
    # that the cut is vertex 0: the DFS starts at the cut, which is a cut
    # vertex because the root has two DFS children
    edges = [(a, b) for base in (0, 5) for a in range(base, base + 5)
             for b in range(a + 1, base + 5) if (a, b) != (base, base + 1)]
    edges += [(0, 10), (1, 10), (5, 10), (6, 10)]
    g = oracle_from_edges(11, [((u + 1) % 11, (v + 1) % 11) for u, v in edges])
    assert set(row(g, 0)) == {1, 2, 6, 7} and (g.degrees == 4).all()
    colors = offline_brooks(g, 4)
    for u in range(11):
        for v in row(g, u):
            assert colors[u] != colors[v]
    assert colors.min() >= 1 and colors.max() <= 4


def test_brooks_petersen():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    spokes = [(i, 5 + i) for i in range(5)]
    g = oracle_from_edges(10, outer + inner + spokes)
    colors = offline_brooks(g, 3)
    for u in range(10):
        for v in row(g, u):
            assert colors[u] != colors[v]
    assert set(np.unique(colors)) <= {1, 2, 3}


def test_brooks_even_cycle_and_path():
    g = oracle_from_edges(6, [(i, (i + 1) % 6) for i in range(6)])
    colors = offline_brooks(g, 2)
    assert set(np.unique(colors)) == {1, 2}
    g2 = oracle_from_edges(4, [(0, 1), (1, 2), (2, 3)])
    colors2 = offline_brooks(g2, 2)
    for u in range(4):
        for v in row(g2, u):
            assert colors2[u] != colors2[v]


@pytest.mark.parametrize(
    "n, edges, delta, message",
    [
        (5, [(0, 1), (0, 2), (0, 3), (0, 4)], 3, "degree exceeds delta"),
        (4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)], 3, "full clique"),
        (2, [(0, 1)], 1, "full clique"),  # used to come back colored [1, 2]
        (3, [(0, 1), (1, 2), (0, 2)], 2, "odd cycle"),
        (5, [(i, (i + 1) % 5) for i in range(5)], 2, "odd cycle"),
    ],
    ids=["star-K1,4", "K4", "K2", "K3", "C5"],
)
def test_brooks_refuses_inputs_without_a_delta_coloring(n, edges, delta, message):
    # beside a path, so the bad component is not the first one found
    g = oracle_from_edges(n + 2, edges + [(n, n + 1)])
    with pytest.raises(ColoringError, match=message):
        offline_brooks(g, delta)


def test_offline_fallback_scales_with_many_components(tmp_path):
    # 20k paths of 3 vertices (delta = 2): one BFS per component must not
    # rebuild a set of every unseen vertex, which took seconds at 24k
    import time

    from streamcolor.pipeline import verify_coloring

    n = 60_000
    heads = np.arange(0, n, 3)
    edges = np.concatenate([np.stack([heads, heads + 1], 1), np.stack([heads + 1, heads + 2], 1)])
    path = tmp_path / "paths.txt"
    path.write_text(f"{n}\n" + "".join(f"{u} {v}\n" for u, v in edges.tolist()))
    start = time.perf_counter()
    res = color_run(RunConfig(source=str(path), seed=1))
    elapsed = time.perf_counter() - start
    assert res.status == "success" and res.report["pipeline"] == "offline"
    assert verify_coloring(str(path), res.colors, 2) == (True, "ok")
    assert elapsed < 20.0, f"{elapsed:.1f} s for {n} vertices"


def _random_connected_graph(rng, n):
    while True:
        p = rng.random() * 0.7 + 0.15
        m = rng.random(size=(n, n)) < p
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if m[u, v]]
        g = oracle_from_edges(n, edges)
        seen = {0}
        stack = [0]
        while stack:
            x = stack.pop()
            for y in row(g, x).tolist():
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
        if len(seen) == n:
            return g, edges


def _is_clique(g, n):
    return bool((g.degrees == n - 1).all())


def _is_odd_cycle(g, n):
    return n % 2 == 1 and bool((g.degrees == 2).all())


def test_brooks_random_sweep(rng):
    for _ in range(800):
        n = int(rng.integers(4, 10))
        g, edges = _random_connected_graph(rng, n)
        if _is_clique(g, n) or _is_odd_cycle(g, n):
            continue
        delta = int(g.degrees.max())
        if delta < 3:
            continue
        colors = offline_brooks(g, delta)
        assert colors.min() >= 1 and colors.max() <= delta
        for u, v in edges:
            assert colors[u] != colors[v]
