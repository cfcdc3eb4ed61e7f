import numpy as np
import pytest

from streamcolor import helpers, pipeline
from streamcolor.coloring import RunFailure
from streamcolor.decomposition import (
    FRIENDLY,
    classify_friendly_lonely,
    compute_decomposition,
)
from streamcolor.field import SketchBank
from streamcolor.generators import generate_instance
from streamcolor.helpers import (
    build_recovery_graph,
    find_critical_helper,
    find_friendly_helper,
)
from streamcolor.params import ParamSet
from streamcolor.stream import stream_source

from conftest import (
    collect_samples,
    decline_phase4,
    has_edge,
    neighbors,
    oracle_from_edges,
    shadow_of,
    source_of,
)


def _bank_from(inst, params, seed):
    bank = SketchBank(inst.n, inst.delta, params, seed)
    src = source_of(inst)
    for block in src.open().chunks():
        bank.update_chunk(
            np.ascontiguousarray(block[:, 0]), np.ascontiguousarray(block[:, 1])
        )
    return bank


def test_critical_helper_finds_the_missing_edge():
    delta = 16
    inst = generate_instance("clique-minus-edge", delta, count=1, seed=2)
    oracle = oracle_from_edges(inst.n, inst.edges)
    params = ParamSet.desk(inst.n, delta)
    bank = _bank_from(inst, params, seed=2)
    K = list(range(delta + 1))
    [h] = find_critical_helper([K], bank)
    assert h is not None
    # the recovered pair is exactly the removed edge
    assert not has_edge(oracle, h.u, h.v)
    assert {h.u, h.v} == {
        a for a in K for b in K if a != b and not has_edge(oracle, a, b)
    }
    assert h.n_v == neighbors(oracle, h.v)
    # cheapest useful level: within a factor 4 of twice the max non-edge degree
    assert h.rate <= 4 * 2 * 1


def test_critical_helper_on_true_clique_fails():
    delta = 8
    k = delta + 1
    edges = [(u, v) for u in range(k) for v in range(u + 1, k)]
    params = ParamSet.desk(k, delta)
    inst = type("I", (), {"n": k, "edges": np.array(edges), "delta": delta})
    bank = _bank_from(inst, params, seed=1)
    assert find_critical_helper([list(range(k))], bank) == [None]


def test_critical_helper_statistical():
    delta = 16
    found = 0
    for seed in range(100):
        inst = generate_instance("clique-minus-edge", delta, count=1, seed=seed)
        params = ParamSet.desk(inst.n, delta)
        bank = _bank_from(inst, params, seed=seed)
        oracle = oracle_from_edges(inst.n, inst.edges)
        [h] = find_critical_helper([list(range(delta + 1))], bank)
        if h is not None:
            assert not has_edge(oracle, h.u, h.v)
            assert h.n_v == neighbors(oracle, h.v)
            found += 1
    assert found >= 99


def test_batched_critical_search_equals_the_per_clique_one():
    # disjoint (delta+1)-cliques in one bank, missing: one edge; nothing (a
    # true clique, where no pair exists); a 4-cycle, so that every member
    # with a non-neighbor has two and decodes only at level 2; one edge
    delta = 16
    k = delta + 1
    removed = [{(0, 1)}, set(), {(0, 1), (1, 2), (2, 3), (0, 3)}, {(5, 9)}]
    edges = [(b * k + i, b * k + j) for b, gone in enumerate(removed)
             for i in range(k) for j in range(i + 1, k) if (i, j) not in gone]
    n = k * len(removed)
    inst = type("I", (), {"n": n, "edges": np.array(edges), "delta": delta})
    bank = _bank_from(inst, ParamSet.desk(n, delta), seed=4)
    oracle = oracle_from_edges(n, edges)
    cliques = [list(range(b * k, (b + 1) * k)) for b in range(len(removed))]

    got = find_critical_helper(cliques, bank)
    assert got == [find_critical_helper([K], bank)[0] for K in cliques]
    assert got[::-1] == find_critical_helper(cliques[::-1], bank)
    assert got[1] is None
    assert [h.rate for h in got if h is not None] == [1, 2, 1]
    for h in filter(None, got):
        assert not has_edge(oracle, h.u, h.v)
        assert h.n_v == neighbors(oracle, h.v)


@pytest.fixture(scope="module")
def mixed_attempt():
    # cliques 1 and 3 are critical, clique 2 friendly (0 is lonely)
    src = stream_source("mixed:delta=16,count=1,seed=1", seed=1)
    shadow = shadow_of(src)
    delta = int(shadow.degrees.max())
    args = (src, src.n, delta, ParamSet.desk(src.n, delta), 1, shadow)
    cliques = [k.vertices for k in pipeline._attempt(*args)["dec"].cliques]
    return args, cliques


@pytest.mark.parametrize("bad_critical,bad_friendly,detail", [
    ({1}, {2}, "no pair recovered for critical clique 1"),
    ({3}, {2}, "no witness triple for friendly clique 2"),
    ({3}, set(), "no pair recovered for critical clique 3"),
], ids=["critical-first", "friendly-first", "critical-only"])
def test_attempt_names_the_first_failing_clique(monkeypatch, mixed_attempt, bad_critical,
                                                bad_friendly, detail):
    args, cliques = mixed_attempt
    # phase 4 declines, so cliques 1..3 are deferred and need helpers
    decline_phase4(monkeypatch)
    searches, friendly = [], []

    def critical(Ks, bank):
        searches.append([cliques.index(K) for K in Ks])
        return [None if cliques.index(K) in bad_critical else h
                for K, h in zip(Ks, find_critical_helper(Ks, bank))]

    def friendly_helper(Ks, bank):
        friendly.append([cliques.index(K) for K, _ in Ks])
        return [None if cliques.index(K) in bad_friendly else h
                for (K, _), h in zip(Ks, find_friendly_helper(Ks, bank))]

    monkeypatch.setattr(pipeline, "find_critical_helper", critical)
    monkeypatch.setattr(pipeline, "find_friendly_helper", friendly_helper)
    with pytest.raises(RunFailure) as failure:
        pipeline._attempt(*args)
    assert failure.value.detail == detail
    # one search over every critical clique, one over every friendly one
    assert searches == [[1, 3]]
    assert friendly == [[2]]


@pytest.mark.parametrize("deferred", [False, True])
def test_helpers_are_recovered_only_for_deferred_cliques(monkeypatch, deferred):
    # no helper recovers; that fails a run only when phase 4 leaves a clique
    monkeypatch.setattr(pipeline, "find_critical_helper", lambda Ks, bank: [None] * len(Ks))
    monkeypatch.setattr(pipeline, "find_friendly_helper", lambda Ks, bank: [None] * len(Ks))
    if deferred:
        decline_phase4(monkeypatch)
    res = pipeline.color_run(pipeline.RunConfig(source="mixed:delta=16,count=1,seed=1", seed=1))
    if deferred:
        assert res.status == pipeline.PIPELINE_FAILED
        assert [f["detail"] for f in res.report["failures"]] == [
            "no pair recovered for critical clique 1"] * 3
        assert {f["phase"] for f in res.report["failures"]} == {"helpers"}
    else:
        assert res.status == pipeline.SUCCESS and res.report["attempts"] == 1
        pr = res.phase_result
        assert pr.critical_helpers == pr.friendly_helpers == {}
        assert not pr.recovery.known and pr.recovery.m == 0
        assert res.report["space"]["hplus_bits"] == 0


def _friendly_setup(seed, delta=16):
    inst = generate_instance("hard-phase6", delta, count=1, seed=seed)
    src = source_of(inst)
    oracle = shadow_of(src)
    params = ParamSet.desk(inst.n, delta)
    dec = compute_decomposition(oracle, params, delta)
    samples = collect_samples(src.open(), params, seed, delta)
    classify_friendly_lonely(dec, samples, params, delta)
    bank = _bank_from(inst, params, seed=seed)
    return inst, oracle, dec, bank


def test_friendly_helper_structure():
    inst, oracle, dec, bank = _friendly_setup(seed=5)
    k = dec.cliques[0]
    assert k.kind == FRIENDLY
    [h] = find_friendly_helper([(k.vertices, k.witness)], bank)
    assert h is not None
    assert h.u == k.witness and h.u not in k.vset
    assert h.v in k.vset and h.w in k.vset
    assert has_edge(oracle, h.u, h.v)
    assert not has_edge(oracle, h.u, h.w)
    assert has_edge(oracle, h.v, h.w)
    assert h.n_v == neighbors(oracle, h.v)
    assert h.n_w == neighbors(oracle, h.w)


def test_friendly_ladder_returns_the_top_level_helper(monkeypatch):
    inst, oracle, dec, bank = _friendly_setup(seed=5)
    k = dec.cliques[0]
    levels, real = [], helpers.safe_recover

    def spy(vec, *rest):
        levels.append(vec.shape[1] // 2)
        return real(vec, *rest)

    monkeypatch.setattr(helpers, "safe_recover", spy)
    [h] = find_friendly_helper([(k.vertices, k.witness)], bank)
    assert levels[0] == bank.rates[0]  # the ladder starts at the cheapest level
    assert max(levels) < bank.rates[-1]  # every member decoded relative to K

    # no member stored below the top: only chi(N(w)) itself recovers
    levels.clear()
    bank._member[:-1] = False
    [top] = find_friendly_helper([(k.vertices, k.witness)], bank)
    assert set(levels) == {bank.rates[-1]}
    assert top == h
    assert top.n_v == neighbors(oracle, top.v)
    assert top.n_w == neighbors(oracle, top.w)


@pytest.mark.parametrize("seed, triple", [
    (1, (16, 4, 0)), (2, (16, 2, 0)), (5, (16, 0, 3)), (7, (16, 0, 1)),
])
def test_friendly_search_recovers_one_block_per_level(monkeypatch, seed, triple):
    # every member is measured against K without itself, so one block at
    # the cheapest level resolves all of them; the triple is the one the
    # member-at-a-time search chose
    inst, oracle, dec, bank = _friendly_setup(seed=seed)
    k = dec.cliques[0]
    assert k.kind == FRIENDLY
    calls, real = [], helpers.safe_recover

    def spy(vec, *rest):
        calls.append((vec.shape[1] // 2, len(vec)))
        return real(vec, *rest)

    monkeypatch.setattr(helpers, "safe_recover", spy)
    [h] = find_friendly_helper([(k.vertices, k.witness)], bank)
    stored = np.intersect1d(k.vertices, bank.sampled(bank.rates[-1])).size
    assert stored == 16
    assert calls == [(bank.rates[0], stored)]
    assert (h.u, h.v, h.w) == triple
    assert h.n_v == neighbors(oracle, h.v) and h.n_w == neighbors(oracle, h.w)


def test_friendly_helper_all_adjacent_witness_fails():
    # witness adjacent to every member: no non-edge w exists, must fail
    delta = 8
    k = delta
    clique = list(range(k))
    edges = [(u, v) for u in range(k) for v in range(u + 1, k)]
    witness = k
    edges += [(u, witness) for u in clique]
    inst = type("I", (), {"n": k + 1, "edges": np.array(edges), "delta": delta})
    params = ParamSet.desk(k + 1, delta)
    bank = _bank_from(inst, params, seed=3)
    assert find_friendly_helper([(clique, witness)], bank) == [None]


def test_friendly_helper_statistical():
    hits = 0
    for seed in range(100):
        inst, oracle, dec, bank = _friendly_setup(seed=seed)
        k = dec.cliques[0]
        if k.kind != FRIENDLY:
            continue
        [h] = find_friendly_helper([(k.vertices, k.witness)], bank)
        if h is not None:
            assert h.n_v == neighbors(oracle, h.v)
            assert h.n_w == neighbors(oracle, h.w)
            hits += 1
    assert hits >= 95


def test_recovery_graph_contents():
    g = build_recovery_graph(5, {}, {})
    assert g.m == 0 and not g.known

    delta = 4
    inst = generate_instance("clique-minus-edge", delta, count=1, seed=1)
    oracle = oracle_from_edges(inst.n, inst.edges)
    params = ParamSet.desk(inst.n, delta)
    bank = _bank_from(inst, params, seed=1)
    [h] = find_critical_helper([list(range(delta + 1))], bank)
    g = build_recovery_graph(inst.n, {0: h}, {})
    # the star of the recovered vertex, nothing else
    assert g.known == {h.v}
    assert g.m == len(h.n_v) == oracle.degrees[h.v]
    for x in neighbors(g, h.v):
        assert has_edge(oracle, h.v, x)
