import numpy as np
import pytest

from streamcolor.generators import (
    GeneratorSpecError,
    generate_instance,
    parse_generator_spec,
)

from conftest import oracle_from_edges


def _degrees(inst):
    return np.bincount(inst.edges.ravel(), minlength=inst.n)


def test_spec_grammar():
    fam, params = parse_generator_spec("clique-pairs:Δ=4,pairs=2,seed=9")
    assert fam == "clique-pairs"
    assert params == {"delta": 4, "count": 2, "seed": 9}
    with pytest.raises(GeneratorSpecError):
        parse_generator_spec("nosuch:delta=4")
    with pytest.raises(GeneratorSpecError):
        parse_generator_spec("clique-pairs:delta")
    with pytest.raises(GeneratorSpecError):
        parse_generator_spec("clique-pairs:frob=1")


def test_clique_pairs_shape():
    inst = generate_instance("clique-pairs", 4, count=1, seed=7)
    assert inst.n == 10 and inst.edges.shape[0] == 20
    assert set(_degrees(inst).tolist()) == {4}
    oracle = oracle_from_edges(inst.n, inst.edges)
    left, right = set(range(5)), set(range(5, 10))
    cross = [(u, v) for u, v in inst.edges.tolist() if (u in left) != (v in left)]
    assert len(cross) == 2  # exactly the two switched edges
    # one non-edge inside each block, endpoints of the cross edges
    cross_ends = {x for e in cross for x in e}
    for block in (left, right):
        non = [
            (a, b)
            for a in sorted(block)
            for b in sorted(block)
            if a < b and not oracle.has_edge(a, b)
        ]
        assert len(non) == 1
        assert set(non[0]) <= cross_ends


def test_clique_minus_edge_shape():
    inst = generate_instance("clique-minus-edge", 3, count=1, seed=1)
    assert inst.n == 4 and inst.edges.shape[0] == 5
    assert _degrees(inst).max() == 3


def test_lonely_clique_shape():
    delta = 8
    inst = generate_instance("lonely-clique", delta, count=1, seed=5)
    oracle = oracle_from_edges(inst.n, inst.edges)
    core = set(inst.cores[0])
    assert len(core) == delta
    for v in core:
        outside = oracle.neighbors(v) - core
        assert len(outside) == 1  # exactly one edge to the external ring
    for v in set(range(inst.n)) - core:
        assert len(oracle.neighbors(v) & core) == 1
        assert oracle.degree(v) <= 5
        # ring neighborhoods carry non-edges: the stranger stays locally sparse
        nbrs = sorted(oracle.neighbors(v))
        non = sum(
            1 for i, a in enumerate(nbrs) for b in nbrs[i + 1 :]
            if not oracle.has_edge(a, b)
        )
        assert non >= 2


def test_lonely_clique_sparse_at_high_delta():
    # the sparsity threshold grows with delta; the scaffold must keep up
    from streamcolor.decomposition import compute_decomposition, is_eps_sparse, verify_decomposition
    from streamcolor.params import ParamSet

    for delta in (64, 100):
        inst = generate_instance("lonely-clique", delta, count=1, seed=0)
        oracle = oracle_from_edges(inst.n, inst.edges)
        params = ParamSet.desk(inst.n, delta)
        dec = compute_decomposition(oracle, params, delta)
        assert verify_decomposition(dec, oracle, params.eps, delta).ok
        assert [sorted(k.vertices) for k in dec.cliques] == [sorted(inst.cores[0])]
        assert is_eps_sparse(oracle, params.eps, delta)[dec.v_sparse].all()


def test_hard_phase6_shape():
    delta = 8
    inst = generate_instance("hard-phase6", delta, count=1, seed=5)
    oracle = oracle_from_edges(inst.n, inst.edges)
    core = set(inst.cores[0])
    outsiders = sorted(set(range(inst.n)) - core)
    assert len(outsiders) == 2
    slots = [len(oracle.neighbors(u) & core) for u in outsiders]
    assert sum(slots) == delta  # the outsiders share every free clique slot
    assert min(slots) >= delta // 2
    assert oracle.has_edge(*outsiders)
    for v in core:
        assert oracle.degree(v) == delta


def test_holey_clique_planted_non_edges():
    delta = 8
    inst = generate_instance("holey-clique", delta, count=1, seed=5)
    oracle = oracle_from_edges(inst.n, inst.edges)
    k = delta + 1
    missing = k * (k - 1) // 2 - inst.edges.shape[0]
    assert missing == k // 2  # perfect matching of non-edges
    inst_t = generate_instance("holey-clique", delta, count=1, seed=5, t=5)
    assert inst_t.edges.shape[0] == k * (k - 1) // 2 - 5


def test_reproducibility_and_seed_sensitivity():
    a = generate_instance("mixed", 8, count=2, seed=42)
    b = generate_instance("mixed", 8, count=2, seed=42)
    c = generate_instance("mixed", 8, count=2, seed=43)
    assert np.array_equal(a.edges, b.edges)
    assert not np.array_equal(a.edges, c.edges)


@pytest.mark.parametrize(
    "family", ["clique-minus-edge", "clique-pairs", "lonely-clique",
               "hard-phase6", "holey-clique", "mixed", "random-regular", "erdos-renyi"]
)
def test_max_degree_exact(family):
    inst = generate_instance(family, 8, count=1, seed=3, n=40)
    assert int(_degrees(inst).max()) == 8


def test_blocks_are_connected():
    for family in ("clique-minus-edge", "clique-pairs", "lonely-clique", "hard-phase6"):
        inst = generate_instance(family, 6, count=2, seed=1)
        oracle = oracle_from_edges(inst.n, inst.edges)
        for block in inst.blocks:
            seen = {block[0]}
            stack = [block[0]]
            while stack:
                x = stack.pop()
                for y in oracle.neighbors(x):
                    if y not in seen:
                        seen.add(y)
                        stack.append(y)
            assert set(block) <= seen


def test_erdos_renyi_min_degree():
    for seed in range(8):
        inst = generate_instance("erdos-renyi", 12, n=150, seed=seed)
        degs = _degrees(inst)
        assert degs.min() >= 2
        assert degs.max() == 12


def test_infeasible_specs():
    with pytest.raises(GeneratorSpecError):
        generate_instance("clique-pairs", 2, count=1)
    with pytest.raises(GeneratorSpecError):
        generate_instance("random-regular", 8, n=8)
    with pytest.raises(GeneratorSpecError):
        generate_instance("holey-clique", 4, t=100)
    with pytest.raises(GeneratorSpecError):
        generate_instance("clique-pairs", 8, count=0)
