import numpy as np

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

from conftest import collect_samples, oracle_from_edges, shadow_of, source_of


def _bank_from(inst, params, seed):
    bank = SketchBank(inst.n, inst.delta, params, seed)
    src = source_of(inst, seed=seed)
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
    h = find_critical_helper(K, bank)
    assert h is not None
    # the recovered pair is exactly the removed edge
    assert not oracle.has_edge(h.u, h.v)
    assert {h.u, h.v} == {
        a for a in K for b in K if a != b and not oracle.has_edge(a, b)
    }
    assert h.n_v == oracle.neighbors(h.v)
    # cheapest useful level: within a factor 4 of twice the max non-edge degree
    assert h.rate <= 4 * 2 * 1


def test_critical_helper_on_true_clique_fails():
    delta = 8
    k = delta + 1
    edges = [(u, v) for u in range(k) for v in range(u + 1, k)]
    params = ParamSet.desk(k, delta)
    inst = type("I", (), {"n": k, "edges": np.array(edges), "delta": delta})
    bank = _bank_from(inst, params, seed=1)
    assert find_critical_helper(list(range(k)), bank) is None


def test_critical_helper_statistical():
    delta = 16
    found = 0
    for seed in range(100):
        inst = generate_instance("clique-minus-edge", delta, count=1, seed=seed)
        params = ParamSet.desk(inst.n, delta)
        bank = _bank_from(inst, params, seed=seed)
        oracle = oracle_from_edges(inst.n, inst.edges)
        h = find_critical_helper(list(range(delta + 1)), bank)
        if h is not None:
            assert not oracle.has_edge(h.u, h.v)
            assert h.n_v == oracle.neighbors(h.v)
            found += 1
    assert found >= 99


def _friendly_setup(seed, delta=16):
    inst = generate_instance("hard-phase6", delta, count=1, seed=seed)
    src = source_of(inst, seed=seed)
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
    h = find_friendly_helper(k.vertices, k.witness, bank)
    assert h is not None
    assert h.u == k.witness and h.u not in k.vset
    assert h.v in k.vset and h.w in k.vset
    assert oracle.has_edge(h.u, h.v)
    assert not oracle.has_edge(h.u, h.w)
    assert oracle.has_edge(h.v, h.w)
    assert h.n_v == oracle.neighbors(h.v)
    assert h.n_w == oracle.neighbors(h.w)


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
    assert find_friendly_helper(clique, witness, bank) is None


def test_friendly_helper_statistical():
    hits = 0
    for seed in range(100):
        inst, oracle, dec, bank = _friendly_setup(seed=seed)
        k = dec.cliques[0]
        if k.kind != FRIENDLY:
            continue
        h = find_friendly_helper(k.vertices, k.witness, bank)
        if h is not None:
            assert h.n_v == oracle.neighbors(h.v)
            assert h.n_w == oracle.neighbors(h.w)
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
    h = find_critical_helper(list(range(delta + 1)), bank)
    g = build_recovery_graph(inst.n, {0: h}, {})
    # the star of the recovered vertex, nothing else
    assert g.known == {h.v}
    assert g.m == len(h.n_v) == oracle.degree(h.v)
    for x in g.neighbors(h.v):
        assert oracle.has_edge(h.v, x)
