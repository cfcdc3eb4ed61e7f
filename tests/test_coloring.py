import numpy as np
import pytest

from streamcolor.coloring import (
    PartialColoring,
    RunFailure,
    color_clique_by_matching,
    colorful_matching,
    greedy_sparse,
    l_perfect_matching,
    offline_brooks,
    one_shot,
    phase5_critical,
    phase6_friendly,
    responsible_phase,
    strip_residue,
)
from streamcolor.decomposition import AlmostClique
from streamcolor.helpers import CriticalHelper, FriendlyHelper, RecoveryGraph
from streamcolor.params import ParamSet
from streamcolor.pipeline import RunConfig, color_run

from conftest import build_conflict_graph, measure_gap, oracle_from_edges, uniform_palettes


def _conflict_from(n, edges):
    return oracle_from_edges(n, edges)


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


def test_color_clique_trivial_cases():
    n, delta = 5, 5
    pal = uniform_palettes(n, delta, [{1, 2, 3, 4, 5}] * n)
    K = [0, 1, 2, 3, 4]
    h = _conflict_from(n, [(u, v) for u in K for v in K if u < v])
    C = PartialColoring(n, delta, h)
    # everyone already colored: nothing to do, still succeeds
    for v, c in zip(K, (1, 2, 3, 4, 5)):
        C.assign(v, c, 2)
    assert color_clique_by_matching(K, C, lambda v: pal.l2[v], phase=2)
    # a full-palette K5 block at delta=5 gets 5 distinct colors
    C2 = PartialColoring(n, delta, h)
    assert color_clique_by_matching(K, C2, lambda v: pal.l2[v], phase=2)
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
    matched, assigned = colorful_matching([0, 1, 2, 3], C, lambda v: pal.l4[v][0], [])
    assert matched == [] and assigned == []


def test_colorful_matching_single_pair():
    n, delta = 4, 3
    pal = uniform_palettes(n, delta, [{2}] * n)
    C = PartialColoring(n, delta, _conflict_from(n, []))
    matched, assigned = colorful_matching(
        [0, 1, 2, 3], C, lambda v: pal.l4[v][0], [(0, 3)]
    )
    assert matched == [(0, 3)]
    assert C.colors[0] == C.colors[3] == 2


def test_colorful_matching_skips_true_edges():
    # a "non-edge" that is actually stored: live check rejects the pair
    n, delta = 4, 3
    pal = uniform_palettes(n, delta, [{2}] * n)
    C = PartialColoring(n, delta, _conflict_from(n, [(0, 3)]))
    matched, _ = colorful_matching([0, 1, 2, 3], C, lambda v: pal.l4[v][0], [(0, 3)])
    assert matched == []
    assert not C.colors.any()


def test_colorful_matching_is_a_non_edge_matching(rng):
    # endpoints pairwise distinct and pairs non-adjacent in the true graph
    from streamcolor.generators import generate_instance

    delta = 16
    inst = generate_instance("holey-clique", delta, count=1, seed=4)
    oracle = oracle_from_edges(inst.n, inst.edges)
    params = ParamSet.desk(inst.n, delta)
    from streamcolor.palette import sample_palettes

    pal = sample_palettes(inst.n, delta, params, seed=4)
    K = list(range(inst.n))
    F = [
        (a, b) for a in K for b in K if a < b and not oracle.has_edge(a, b)
    ]
    h = _conflict_from(inst.n, inst.edges.tolist())
    C = PartialColoring(inst.n, delta, h)
    matched, _ = colorful_matching(K, C, lambda v: pal.l4[v][0], F)
    ends = [x for f in matched for x in f]
    assert len(ends) == len(set(ends))
    for a, b in matched:
        assert not oracle.has_edge(a, b)
        assert C.colors[a] == C.colors[b]


# ---- phase 5 / phase 6 direct drives ---------------------------------------


def _k4_minus_edge_setup():
    delta = 3
    edges = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)]  # missing (2,3)
    h = _conflict_from(4, edges)
    rec = RecoveryGraph(4, [(3, {0, 1})])
    C = PartialColoring(4, delta, h, rec)
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
        h = build_conflict_graph(source_of(inst, seed=seed).open(), pal)
        bank = SketchBank(inst.n, delta, params, seed)
        src = source_of(inst, seed=seed)
        for block in src.open().chunks():
            bank.update_chunk(np.ascontiguousarray(block[:, 0]), np.ascontiguousarray(block[:, 1]))
        helper = find_critical_helper(list(range(delta + 1)), bank)
        if helper is None:
            continue
        rec = build_recovery_graph(inst.n, {0: helper}, {})
        C = PartialColoring(inst.n, delta, h, rec)
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
    pal.l5[2] = False
    with pytest.raises(RunFailure):
        phase5_critical([0, 1, 2, 3], helper, C, pal)


def test_phase6_increments_witness_counter_and_colors_clique():
    # K = {0,1,2} triangle, delta=3; witness 3 adjacent to 0; non-edge (3,2)
    delta = 3
    edges = [(0, 1), (0, 2), (1, 2), (0, 3), (3, 4)]
    h = _conflict_from(5, edges)
    rec = RecoveryGraph(5, [(0, {1, 2, 3}), (2, {0, 1})])   # v = 0, w = 2
    C = PartialColoring(5, delta, h, rec)
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
    C = PartialColoring(5, delta, h, RecoveryGraph(5))
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


def test_phase_extension_discipline():
    from streamcolor.pipeline import RunConfig, color_run

    snaps = {}
    # piggyback on the pipeline by re-running its phases with a hook
    from streamcolor import pipeline as pl
    from streamcolor import coloring as col

    cfg = RunConfig(source="mixed:delta=16,seed=4", seed=4, retries=0)
    res = color_run(cfg)
    assert res.status == "success"

    # re-run the phases with the attached artifacts and a snapshot hook
    non_edges_of = {
        i: [
            (a, b)
            for a in k.vertices
            for b in k.vertices
            if a < b and not res.shadow.has_edge(a, b)
        ]
        for i, k in enumerate(res.dec.cliques)
    }
    col.run_phases(
        res.conflict,
        res.recovery,
        res.palettes,
        res.dec,
        res.critical_helpers,
        res.friendly_helpers,
        non_edges_of,
        res.params,
        cfg.seed,
        res.delta,
        on_phase=lambda tag, colors: snaps.setdefault(tag, colors),
    )
    # phases 2 and 3 extend what came before
    for before, after in (("phase1", "phase2"), ("phase2", "phase3")):
        prev, cur = snaps[before], snaps[after]
        changed = (prev != cur) & (prev != 0)
        assert not changed.any()
    # strip only removes colors
    prev, cur = snaps["phase3"], snaps["strip"]
    assert not ((prev != cur) & (cur != 0)).any()
    # phase 4/5 extend the strip
    last = "phase4" if "phase4" in snaps else "strip"
    prev, cur = snaps["strip"], snaps[last]
    changed = (prev != cur) & (prev != 0)
    assert not changed.any()
    # and every snapshot is proper on the true graph
    for colors in snaps.values():
        for u, v in res.shadow.edges():
            assert not (colors[u] and colors[u] == colors[v])


@pytest.mark.parametrize("no_shadow", [False, True])
def test_decompose_run_shows_the_decomposition_color_run_used(no_shadow):
    from streamcolor.pipeline import decompose_run

    spec, seed = "mixed:delta=16,seed=2", 2
    res = color_run(RunConfig(source=spec, seed=seed, retries=0, no_shadow=no_shadow))
    assert res.status == "success" and res.report["attempts"] == 1
    dec, report = decompose_run(spec, seed=seed, no_shadow=no_shadow)
    assert (report is None) == no_shadow

    def fields(d):
        return [
            (k.vertices, k.size_class, k.non_edges, k.holey, k.kind, k.witness)
            for k in d.cliques
        ]

    assert dec.cliques and fields(dec) == fields(res.dec)
    assert dec.v_sparse == res.dec.v_sparse


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
    src = StreamSource(n, np.array(edges), seed=3)
    oracle = shadow_of(src)
    params = ParamSet.desk(n, delta)

    dec = compute_decomposition(oracle, params, delta)
    annotate_cliques(dec, params, delta, oracle)
    samples = collect_samples(src.open(), params, 3, delta)
    classify_friendly_lonely(dec, samples, params, delta)
    assert [k.witness for k in dec.cliques] == [w, w]

    pal = sample_palettes(n, delta, params, seed=3)
    for v in range(n):  # starve phase 4 so both cliques reach phase 6
        pal.l4[v] = False
        pal.l4_star[v] = False
    h = build_conflict_graph(src.open(), pal)
    bank = SketchBank(n, delta, params, 3)
    for block in src.open().chunks():
        bank.update_chunk(
            np.ascontiguousarray(block[:, 0]), np.ascontiguousarray(block[:, 1])
        )
    friendly = {
        i: find_friendly_helper(k.vertices, k.witness, bank)
        for i, k in enumerate(dec.cliques)
    }
    assert all(friendly.values())
    rec = build_recovery_graph(n, {}, friendly)
    non_edges = {i: [] for i in range(len(dec.cliques))}  # true cliques inside
    result = col.run_phases(
        h, rec, pal, dec, {}, friendly, non_edges, params, 3, delta
    )
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


def _adj(n, edges):
    out = [set() for _ in range(n)]
    for u, v in edges:
        out[u].add(v)
        out[v].add(u)
    return out


def test_brooks_k4_minus_edge():
    adj = _adj(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])
    colors = offline_brooks(adj, 3)
    for u in range(4):
        for v in adj[u]:
            assert colors[u] != colors[v]
    assert colors.max() <= 3 and colors.min() >= 1


def test_brooks_petersen():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    spokes = [(i, 5 + i) for i in range(5)]
    adj = _adj(10, outer + inner + spokes)
    colors = offline_brooks(adj, 3)
    for u in range(10):
        for v in adj[u]:
            assert colors[u] != colors[v]
    assert set(np.unique(colors)) <= {1, 2, 3}


def test_brooks_even_cycle_and_path():
    adj = _adj(6, [(i, (i + 1) % 6) for i in range(6)])
    colors = offline_brooks(adj, 2)
    assert set(np.unique(colors)) == {1, 2}
    adj2 = _adj(4, [(0, 1), (1, 2), (2, 3)])
    colors2 = offline_brooks(adj2, 2)
    for u in range(4):
        for v in adj2[u]:
            assert colors2[u] != colors2[v]


def _random_connected_graph(rng, n):
    while True:
        p = rng.random() * 0.7 + 0.15
        m = rng.random(size=(n, n)) < p
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if m[u, v]]
        adj = _adj(n, edges)
        seen = {0}
        stack = [0]
        while stack:
            x = stack.pop()
            for y in adj[x]:
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
        if len(seen) == n:
            return adj, edges


def _is_clique(adj, n):
    return all(len(adj[v]) == n - 1 for v in range(n))


def _is_odd_cycle(adj, n):
    return n % 2 == 1 and all(len(adj[v]) == 2 for v in range(n))


def test_brooks_random_sweep(rng):
    for _ in range(800):
        n = int(rng.integers(4, 10))
        adj, edges = _random_connected_graph(rng, n)
        if _is_clique(adj, n) or _is_odd_cycle(adj, n):
            continue
        delta = max(len(a) for a in adj)
        if delta < 3:
            continue
        colors = offline_brooks(adj, delta)
        assert colors.min() >= 1 and colors.max() <= delta
        for u, v in edges:
            assert colors[u] != colors[v]
