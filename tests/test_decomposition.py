import numpy as np
import pytest

from streamcolor import _kernels
from streamcolor.decomposition import (
    CRITICAL,
    FRIEND,
    FRIENDLY,
    LARGE,
    LONELY,
    SMALL,
    STRANGER,
    AlmostClique,
    Decomposition,
    DecompositionFailed,
    SampleCollector,
    classify_friendly_lonely,
    compute_decomposition,
    count_non_edges,
    friend_stranger_test,
    is_eps_sparse,
    size_class_of,
    verify_decomposition,
)
from streamcolor.generators import generate_instance
from streamcolor.params import ParamSet
from streamcolor.stream import StreamSource

from conftest import collect_samples, oracle_from_edges, planted_mistakes, shadow_of, source_of


def _clique_edges(vertices):
    return [(u, v) for i, u in enumerate(vertices) for v in vertices[i + 1 :]]


# ---- eps-sparsity ----------------------------------------------------------


def test_eps_sparse_clique_member_false():
    delta = 6
    oracle = oracle_from_edges(delta + 1, _clique_edges(list(range(delta + 1))))
    assert not is_eps_sparse(oracle, 0.4, delta)[0]


def test_eps_sparse_star_center_true():
    # star center, delta=10, eps=0.4: C(10,2)=45 >= 8
    edges = [(0, v) for v in range(1, 11)]
    oracle = oracle_from_edges(11, edges)
    assert is_eps_sparse(oracle, 0.4, 10)[0]


def test_eps_sparse_threshold_inclusive():
    # exactly ceil(eps^2 delta^2 / 2) = 8 non-edges among neighbors: true
    eps, delta = 0.4, 10
    verts = list(range(1, 11))
    edges = [(0, v) for v in verts]
    inner = _clique_edges(verts)
    removed = inner[:8]
    edges += [e for e in inner if e not in removed]
    oracle = oracle_from_edges(11, edges)
    assert is_eps_sparse(oracle, eps, delta)[0]
    # one fewer non-edge: false
    edges2 = [(0, v) for v in verts] + [e for e in inner if e not in removed[:7]]
    oracle2 = oracle_from_edges(11, edges2)
    assert not is_eps_sparse(oracle2, eps, delta)[0]


# ---- sample collection -----------------------------------------------------


def test_reservoir_fills_small_degrees():
    params = ParamSet.desk(10, 5)
    inst_edges = np.array([(0, v) for v in range(1, 4)])
    src = StreamSource(10, inst_edges)
    samples = collect_samples(src.open(), params, seed=1, delta=5)
    assert sorted(samples.nsample(0)) == [1, 2, 3]


def test_reservoir_uniformity():
    # degree-20 vertex, reservoir of 5: inclusion frequency 0.25 +- 4 sigma
    n, deg, cap = 21, 20, 5
    edges = np.array([(0, v) for v in range(1, deg + 1)])
    params = ParamSet.desk(n, deg, reservoir_size=cap)
    hits = np.zeros(n, dtype=np.int64)
    trials = 10_000
    for s in range(trials):
        src = StreamSource(n, edges, seed=s)
        coll = SampleCollector(n, deg, params, seed=s)
        for block in src.open().chunks():
            coll.update_chunk(np.ascontiguousarray(block[:, 0]), np.ascontiguousarray(block[:, 1]))
        for x in coll.finalize().nsample(0):
            hits[x] += 1
    freq = hits[1:] / trials
    sigma = np.sqrt(0.25 * 0.75 / trials)
    assert (np.abs(freq - 0.25) <= 4 * sigma + 1e-12).all(), freq


def _over_capacity_input():
    # reservoir of 4; vertex 0 receives 24 arrivals, every neighbor one
    size, deg = 4, 24
    us = np.zeros(deg, dtype=np.int64)
    vs = np.arange(1, deg + 1, dtype=np.int64)
    return deg + 1, size, us, vs


def _reservoir_reference(n, size, us, vs, seed):
    """Algorithm R written with Python ints on both sides of the modulo."""
    res = [[-1] * size for _ in range(n)]
    counts = [0] * n
    draws = []
    for u, v in zip(us.tolist(), vs.tolist()):
        for a, b in ((u, v), (v, u)):
            c = counts[a]
            if c < size:
                res[a][c] = b
            else:
                r = int(_kernels.prf_u64(seed, a, c))
                draws.append(r)
                j = r % (c + 1)
                if j < size:
                    res[a][j] = b
            counts[a] = c + 1
    return np.array(res, dtype=np.int64), np.array(counts, dtype=np.int64), draws


def _run_kernel(kernel, n, size, us, vs, seed):
    res = np.full((n, size), -1, dtype=np.int64)
    counts = np.zeros(n, dtype=np.int64)
    kernel(res, counts, us, vs, seed)
    return res, counts


def test_reservoir_update_over_capacity():
    # past capacity the PRF draw is reduced mod (count + 1); draws >= 2^63
    # must not overflow and must pick the same slot exact arithmetic picks
    n, size, us, vs = _over_capacity_input()
    seed = 7
    want_res, want_counts, draws = _reservoir_reference(n, size, us, vs, seed)
    assert len(draws) == len(us) - size
    assert any(r >= 2**63 for r in draws)
    res, counts = _run_kernel(_kernels.reservoir_update, n, size, us, vs, seed)
    np.testing.assert_array_equal(counts, want_counts)
    np.testing.assert_array_equal(res, want_res)


def test_sample_rate_clamps_to_everyone():
    n, delta = 40, 3  # gamma*log2(n)/delta > 1
    params = ParamSet.desk(n, delta)
    coll = SampleCollector(n, delta, params, seed=2)
    assert coll.members.all()


# ---- the decomposition itself ----------------------------------------------


def test_single_block_is_one_clique():
    delta = 16
    inst = generate_instance("clique-minus-edge", delta, count=1, seed=2)
    oracle = oracle_from_edges(inst.n, inst.edges)
    params = ParamSet.desk(inst.n, delta)
    dec = compute_decomposition(oracle, params, delta)
    assert len(dec.cliques) == 1
    assert dec.cliques[0].vertices == list(range(delta + 1))
    assert dec.v_sparse == []
    assert verify_decomposition(dec, oracle, params.eps, delta).ok


def test_sparse_only_graph_has_no_cliques():
    delta = 12
    inst = generate_instance("random-regular", delta, n=120, seed=4)
    oracle = oracle_from_edges(inst.n, inst.edges)
    params = ParamSet.desk(inst.n, delta)
    dec = compute_decomposition(oracle, params, delta)
    assert dec.cliques == []
    assert is_eps_sparse(oracle, params.eps, delta)[dec.v_sparse].all()


@pytest.mark.parametrize("count", [1, 3])
def test_clique_pairs_yield_two_cliques_per_pair(count):
    delta = 16
    inst = generate_instance("clique-pairs", delta, count=count, seed=8)
    oracle = oracle_from_edges(inst.n, inst.edges)
    params = ParamSet.desk(inst.n, delta)
    dec = compute_decomposition(oracle, params, delta)
    assert len(dec.cliques) == 2 * count
    got = sorted(tuple(k.vertices) for k in dec.cliques)
    want = sorted(tuple(sorted(c)) for c in inst.cores)
    assert got == want
    assert verify_decomposition(dec, oracle, params.eps, delta).ok


def test_partition_totality_across_families():
    for fam in ("lonely-clique", "hard-phase6", "mixed"):
        inst = generate_instance(fam, 16, count=2, seed=6)
        oracle = oracle_from_edges(inst.n, inst.edges)
        params = ParamSet.desk(inst.n, 16)
        dec = compute_decomposition(oracle, params, 16)
        covered = set(dec.v_sparse)
        for k in dec.cliques:
            assert not (covered & k.vset)
            covered |= k.vset
        assert covered == set(range(inst.n))


def test_verify_catches_planted_mistakes():
    # the moved vertex's neighborhood is a clique, so the sparse-side check
    # must object; the merged blocks give inside-non-neighbor violations
    (moved, oracle, params, delta), (merged, oracle2, _, _) = planted_mistakes()
    rep = verify_decomposition(moved, oracle, params.eps, delta)
    assert any("not eps-sparse" in v for v in rep.violations)

    rep2 = verify_decomposition(merged, oracle2, params.eps, delta)
    assert any("non-neighbors inside" in v or "size" in v for v in rep2.violations)


def test_failed_cluster_names_its_smallest_violator():
    # a clique S joined to all of two disjoint cliques A and B: the cluster
    # sheds the sparse S, and then every vertex of A and B has 40
    # non-neighbors inside with nothing left to drop.  The ids spread so
    # that a hash-ordered scan would not meet 1000 first.
    S, A, B = list(range(61)), list(range(1000, 1040)), list(range(2040, 2080))
    edges = _clique_edges(S) + _clique_edges(A) + _clique_edges(B)
    edges += [(s, x) for s in S for x in A + B]
    oracle = oracle_from_edges(2100, edges)
    params = ParamSet.desk(2100, 80)
    with pytest.raises(DecompositionFailed, match="vertex 1000 has 40 non-neighbors inside"):
        compute_decomposition(oracle, params, 80)


def test_hand_built_valid_decomposition_passes():
    delta = 16
    inst = generate_instance("holey-clique", delta, count=1, seed=3)
    oracle = oracle_from_edges(inst.n, inst.edges)
    params = ParamSet.desk(inst.n, delta)
    dec = Decomposition(
        n=inst.n, v_sparse=[], cliques=[AlmostClique(vertices=list(range(inst.n)))]
    )
    assert verify_decomposition(dec, oracle, params.eps, delta).ok


# ---- non-edge counting and size classes -------------------------------------


def test_count_non_edges():
    delta = 8
    k = delta + 1
    oracle = oracle_from_edges(k, _clique_edges(list(range(k))))
    assert count_non_edges(range(k), oracle) == 0

    edges = _clique_edges(list(range(k)))[1:]
    oracle2 = oracle_from_edges(k, edges)
    assert count_non_edges(range(k), oracle2) == 1

    # a large almost-clique (delta+2 vertices at max degree delta) carries
    # at least (delta+2)/2 non-edges
    big = delta + 2
    matching = [(i, i + 1) for i in range(0, big, 2)]
    edges3 = [e for e in _clique_edges(list(range(big))) if e not in matching]
    oracle3 = oracle_from_edges(big, edges3)
    t = count_non_edges(range(big), oracle3)
    assert t >= (delta + 2) / 2
    assert size_class_of(big, delta) == LARGE


def test_size_classes():
    assert size_class_of(16, 16) == SMALL
    assert size_class_of(17, 16) == CRITICAL
    assert size_class_of(18, 16) == LARGE


# ---- testers ----------------------------------------------------------------


def test_friend_stranger_no_edges_is_stranger():
    params = ParamSet.desk(100, 16)
    assert friend_stranger_test(0, params, 16) == STRANGER


def test_friend_stranger_planted_rates(rng):
    # unclamped sampling: delta=400, beta=16 -> isample rate 0.64
    delta, beta = 400, 16
    params = ParamSet.desk(10_000, delta, beta=beta, eps=1 / 40)
    rate = params.isample_rate(delta)
    assert rate < 1
    K = list(range(1000, 1000 + delta))
    friend_edges = int(np.ceil(2 * delta / beta))
    stranger_edges = int(delta / (2 * beta))
    misses_f = misses_s = 0
    trials = 200
    for _ in range(trials):
        nbrs = rng.choice(K, size=friend_edges, replace=False)
        sample = {int(v) for v in nbrs[rng.random(friend_edges) < rate]}
        if friend_stranger_test(len(sample & set(K)), params, delta) != FRIEND:
            misses_f += 1
        nbrs = rng.choice(K, size=stranger_edges, replace=False)
        sample = {int(v) for v in nbrs[rng.random(stranger_edges) < rate]}
        if friend_stranger_test(len(sample & set(K)), params, delta) != STRANGER:
            misses_s += 1
    assert misses_f <= 10  # >= 95% right on each side
    assert misses_s <= 10


def test_tie_at_threshold_is_stranger():
    params = ParamSet.desk(100, 16, beta=8)
    cut = params.friend_test_threshold(16)
    assert cut == 3.0  # clamped sample rate 1 scales the classic 1.5*beta cut
    assert friend_stranger_test(3, params, 16) == STRANGER
    assert friend_stranger_test(4, params, 16) == FRIEND
    assert friend_stranger_test(np.array([3, 4]), params, 16).tolist() == [STRANGER, FRIEND]


def _classified(fam, delta, seed):
    inst = generate_instance(fam, delta, count=1, seed=seed)
    src = source_of(inst, seed=seed)
    oracle = shadow_of(src)
    params = ParamSet.desk(inst.n, delta)
    dec = compute_decomposition(oracle, params, delta)
    samples = collect_samples(src.open(), params, seed, delta)
    classify_friendly_lonely(dec, samples, params, delta)
    return inst, oracle, dec


def test_lonely_clique_classified_lonely():
    _, _, dec = _classified("lonely-clique", 16, 3)
    assert all(k.kind == LONELY for k in dec.cliques)


def test_hard_phase6_classified_friendly_with_witness():
    inst, oracle, dec = _classified("hard-phase6", 16, 3)
    k = dec.cliques[0]
    assert k.kind == FRIENDLY
    assert k.witness is not None and k.witness not in k.vset
    # the witness really is a non-stranger
    assert len(oracle.neighbors(k.witness) & k.vset) >= 16 / ParamSet.desk(inst.n, 16).beta


def test_isolated_block_classified_lonely():
    _, _, dec = _classified("holey-clique", 16, 3)
    assert all(k.kind == LONELY for k in dec.cliques)
