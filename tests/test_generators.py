import hashlib

import numpy as np
import pytest

from streamcolor.generators import (
    GeneratorSpecError,
    generate_instance,
    instance_from_spec,
    parse_generator_spec,
)

from conftest import has_edge, neighbors, oracle_from_edges


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


def test_instance_from_spec():
    got = instance_from_spec("holey-clique:Δ=16,t=3,blocks=2", seed=5)
    want = generate_instance("holey-clique", 16, count=2, seed=5, t=3)
    assert np.array_equal(got.edges, want.edges) and got.n == want.n
    # a seed in the spec wins over the caller's
    got = instance_from_spec("random-regular:delta=6,n=50,seed=4", seed=5)
    assert np.array_equal(got.edges, generate_instance("random-regular", 6, n=50, seed=4).edges)
    with pytest.raises(GeneratorSpecError, match="must set delta"):
        instance_from_spec("mixed:count=2")


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
            if a < b and not has_edge(oracle, a, b)
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
        outside = neighbors(oracle, v) - core
        assert len(outside) == 1  # exactly one edge to the external ring
    for v in set(range(inst.n)) - core:
        assert len(neighbors(oracle, v) & core) == 1
        assert oracle.degrees[v] <= 5
        # ring neighborhoods carry non-edges: the stranger stays locally sparse
        nbrs = sorted(neighbors(oracle, v))
        non = sum(
            1 for i, a in enumerate(nbrs) for b in nbrs[i + 1 :]
            if not has_edge(oracle, a, b)
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
        assert verify_decomposition(dec, oracle, params.eps, delta) == []
        assert [sorted(k.vertices) for k in dec.cliques] == [sorted(inst.cores[0])]
        assert is_eps_sparse(oracle, params.eps, delta)[dec.v_sparse].all()


def test_hard_phase6_shape():
    delta = 8
    inst = generate_instance("hard-phase6", delta, count=1, seed=5)
    oracle = oracle_from_edges(inst.n, inst.edges)
    core = set(inst.cores[0])
    outsiders = sorted(set(range(inst.n)) - core)
    assert len(outsiders) == 2
    slots = [len(neighbors(oracle, u) & core) for u in outsiders]
    assert sum(slots) == delta  # the outsiders share every free clique slot
    assert min(slots) >= delta // 2
    assert has_edge(oracle, *outsiders)
    for v in core:
        assert oracle.degrees[v] == delta


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
                for y in neighbors(oracle, x):
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


# sha256 of inst.edges.tobytes(), pinned with the NetworkX 3.6 generators
# the in-package ones replace: same edges, same order, same dtype
GENERATOR_GOLDENS = [
    ("random-regular", 16, 2000, 1, "fb2c7bed9c5f95b046b5ccb29673257b53f7373e4c63d9d04227dc97963c1345"),
    ("random-regular", 16, 2000, 2, "a956b12f1aeacce9a584d660710aa44c8bbed964eb08873fcdca58e2f5dc32da"),
    ("random-regular", 16, 2000, 3, "2c46f9c9bab9c81a18952c672224c12c5e27e74bdfabe8b4e477f04fc34daa53"),
    ("random-regular", 64, 600, 1, "74d43198d5507891fcb1092f549723ce48d010619524018ff1170b9fb22f0e17"),
    ("random-regular", 64, 600, 2, "326a137af9f17fac0d53de01255d86c4c3cf955f2247a4b9c8381b2893b34a7e"),
    ("random-regular", 64, 600, 3, "9c7e6f89e601908e776b39960c8d52d62ca629e97bbaa4fea6870a04525dc746"),
    ("random-regular", 16, 400, 1, "918de56eaab2e0d0e36ea59348c8bb4eef22dbc8af050d6392b82dd2bf65aae7"),
    ("erdos-renyi", 12, 150, 0, "aeb4d5d8a2f324b97e6f21aec75a350fe67329cb7dcc204ea2f6746054f12aca"),
    ("erdos-renyi", 12, 150, 1, "1944344cc73f8b468c1693bf72485eec10e2071e8e158adcceaff7b537afcb74"),
    ("erdos-renyi", 12, 150, 2, "dd4f375896c72b072214d77b492a39a154fe1932443835ff794c4b0990f9eeb7"),
    ("erdos-renyi", 12, 150, 3, "afb6fe594cfbfa22ff45880a76dceeeb618d3f82d5ebbf2749acfc5cfea9fb6f"),
    ("erdos-renyi", 12, 150, 4, "a19aeff2e984c11c76cf7f7976c921f5a6ae79193da6023aa74e57d897b51b9d"),
    ("erdos-renyi", 12, 150, 5, "7f752c239d13aa8baac49256cf680fba585c1ba97883621b8eac14ac11c18baa"),
    ("erdos-renyi", 12, 150, 6, "cdf2a610e0a10e654a03ee9dd6bd7efb49fc6579a454758fd426445a1290bd40"),
    ("erdos-renyi", 12, 150, 7, "74c20c654201b830e9866f5ee7ef067339dc440a6c19b41d48f6e26c4c78b8c1"),
    ("erdos-renyi", 32, 1000, 5, "9e3f8055573163d2d72b78eb1018f1ac0e8c531ff2aeb6a2b7763124d55c27c6"),
]


@pytest.mark.parametrize("family,delta,n,seed,digest", GENERATOR_GOLDENS)
def test_random_instance_golden(family, delta, n, seed, digest):
    inst = generate_instance(family, delta, n=n, seed=seed)
    assert inst.edges.dtype == np.int64 and inst.edges.shape[1] == 2
    assert hashlib.sha256(inst.edges.tobytes()).hexdigest() == digest


def test_random_generators_never_import_networkx():
    import os
    import subprocess
    import sys
    from pathlib import Path

    import streamcolor

    code = (
        "import sys\n"
        "from streamcolor.generators import generate_instance\n"
        "generate_instance('random-regular', 6, n=40, seed=1)\n"
        "generate_instance('erdos-renyi', 8, n=40, seed=1)\n"
        "assert 'networkx' not in sys.modules, 'networkx was imported'\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(streamcolor.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
