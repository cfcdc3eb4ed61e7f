import re

import numpy as np
import pytest

from streamcolor import decomposition, graph, pipeline
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
    annotate_cliques,
    classify_friendly_lonely,
    compute_decomposition,
    friend_stranger_test,
    is_eps_sparse,
    sampled_common,
    size_class_of,
    verify_decomposition,
)
from streamcolor.generators import generate_instance
from streamcolor.graph import Graph
from streamcolor.params import ParamSet
from streamcolor.pipeline import RunConfig, _main_pass, color_run
from streamcolor.stream import stream_source

from conftest import (
    brute_non_edges,
    collect_samples,
    dropping_palettes,
    has_edge,
    neighbors,
    oracle_from_edges,
    planted_mistakes,
    row,
    shadow_of,
    source_of,
)


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


def test_collector_keeps_neighbors_at_the_isample_rate():
    # unclamped sampling: delta=400, beta=16 -> isample rate 0.64
    n, delta = 2000, 400
    params = ParamSet.desk(n, delta, beta=16)
    rate = params.isample_rate(delta)
    assert rate == 0.64
    rng = np.random.default_rng(5)
    a, b = rng.integers(0, n, size=(2, 30_000))
    codes = np.unique(np.minimum(a, b) * n + np.maximum(a, b))
    codes = rng.permutation(codes[codes // n != codes % n])[:20_000]
    us, vs = codes // n, codes % n
    coll = SampleCollector(n, delta, params, seed=4)
    for lo in range(0, codes.size, 4096):
        coll.update_chunk(us[lo : lo + 4096], vs[lo : lo + 4096])
    isample = coll.finalize()
    rows, cols = isample.pairs()
    directed = np.concatenate([codes, vs * n + us])
    assert np.isin(rows * n + cols, directed).all()  # only true neighbors
    kept = rows.size / directed.size
    sigma = np.sqrt(rate * (1 - rate) / directed.size)
    assert abs(kept - rate) <= 4 * sigma, kept


def test_sample_bits_count_the_neighbor_samples():
    spec = "random-regular:delta=16,n=400,seed=1"
    res = color_run(RunConfig(source=spec, seed=1))
    assert res.report["attempts"] == 1
    src = stream_source(spec, seed=1)
    _, h, isample = _main_pass(src, src.n, 16, res.params, 1)
    assert isample.indices.size == 2 * res.report["m"]  # rate 1 keeps every neighbor
    assert isample is h  # and H keeps every edge, so the sample is H
    assert res.report["space"]["sample_bits"] == isample.stored_bits()


def test_rate_one_sample_is_every_edge_when_h_drops_some(monkeypatch):
    """With hand-built partial palettes at rate 1, H is a strict subgraph,
    while the sample is H plus the dropped edges: the whole graph."""
    spec = "random-regular:delta=16,n=400,seed=1"
    monkeypatch.setattr(pipeline, "sample_palettes", dropping_palettes)
    src = stream_source(spec, seed=1)
    params = ParamSet.desk(src.n, 16)
    _, h, isample = _main_pass(src, src.n, 16, params, 1)
    shadow = shadow_of(src)
    assert 0 < h.m < shadow.m
    assert isample is not h and isample is not shadow
    assert np.array_equal(isample.indptr, shadow.indptr)
    assert np.array_equal(isample.indices, shadow.indices)
    # without H the collector's sample is the graph of the edges it was fed
    assert np.array_equal(collect_samples(src.open(), params, 1, 16).indices, shadow.indices)


def _sample_of(spec: str, seed: int):
    src = stream_source(spec, seed=seed)
    shadow = shadow_of(src)
    delta = int(shadow.degrees.max())
    params = ParamSet.desk(src.n, delta)
    return shadow, params, delta, collect_samples(src.open(), params, seed, delta)


def _shared_sampled(isample, edges):
    """Oracle: |I(u) & I(v)| for every edge, from a dense sample matrix."""
    A = np.zeros((isample.n, isample.n))
    rows, cols = isample.pairs()
    A[rows, cols] = 1
    return (A @ A.T)[edges[:, 0], edges[:, 1]].astype(np.int64)  # exact below 2^53


def test_pair_count_from_upper_rows_at_rate_one():
    # at rate 1 the sample is G itself: the upper-row count (each triangle
    # once) equals the full-row count (each triangle three times)
    shadow, params, delta, isample = _sample_of("mixed:delta=16,count=2,seed=3", 3)
    assert params.isample_rate(delta) == 1
    edges = shadow.edges()[::3]  # a subset, as H is of G
    upper = sampled_common(isample, edges, 1.0)
    assert np.array_equal(upper, sampled_common(isample, edges, 0.5))  # full rows
    assert np.array_equal(upper, _shared_sampled(isample, edges))
    assert upper.any()


def test_pair_count_keeps_full_rows_below_rate_one():
    # delta = 256 with n below about 1800 is the one desk regime where the
    # sample is thinned; its rows are then not symmetric
    shadow, params, delta, isample = _sample_of("mixed:delta=256,count=1,seed=1", 1)
    rate = params.isample_rate(delta)
    assert delta == 256 and rate < 1
    rows, cols = isample.pairs()
    assert not np.isin(cols * isample.n + rows, rows * isample.n + cols).all()
    edges = shadow.edges()
    assert np.array_equal(sampled_common(isample, edges, rate), _shared_sampled(isample, edges))


# The benchmark's graphs (mixed-noshadow reads the mixed one through
# sampled_common at rate 1) lie on the packed side of the rule; a sparse
# graph with the n/delta of random-regular delta=16, n=32000 on the other.
COUNT_SHAPES = {
    "rr16-sparse": ("random-regular", 16, {"n": 2000}, "packed"),
    "rr64-sketch": ("random-regular", 64, {"n": 600}, "packed"),
    "mixed-cliques": ("mixed", 32, {"count": 6}, "packed"),
    "rr4-n8000": ("random-regular", 4, {"n": 8000}, "pairs"),
}


@pytest.mark.parametrize("shape", COUNT_SHAPES)
def test_one_rule_picks_the_common_count(shape, monkeypatch):
    """Graph.common, and sampled_common at rate 1 and below it, take the
    method the work-count rule names, and count |row(u) & row(v)| exactly."""
    family, delta, kw, want = COUNT_SHAPES[shape]
    inst = generate_instance(family, delta, seed=1, **kw)
    n = inst.n
    ran = []
    for module in (graph, decomposition):
        for name, method in (("packed_common", "packed"), ("pair_counts", "pairs")):
            def spy(*args, _run=getattr(module, name), _method=method):
                ran.append(_method)
                return _run(*args)
            monkeypatch.setattr(module, name, spy)

    def check(counts, rows, edges):
        assert ran == [want]
        ran.clear()
        held = [set(row(rows, v).tolist()) for v in range(n)]
        assert counts.tolist() == [len(held[u] & held[v]) for u, v in edges.tolist()]

    g = Graph(n, inst.edges)
    check(g.common, g, g.edges())
    assert sampled_common(g, g.edges(), 1.0) is g.common  # H is the sample
    rng = np.random.default_rng(4)
    edges = g.edges()[rng.random(g.m) < 0.4]  # a subgraph, as H is of G
    isample = Graph.from_pairs(n, *g.pairs())  # rate 1 keeps every neighbor
    check(sampled_common(isample, edges, 1.0), isample, edges)
    rows, cols = g.pairs()
    kept = rng.random(rows.size) < 0.6  # below 1 the rows are not symmetric
    isample = Graph.from_pairs(n, rows[kept], cols[kept])
    check(sampled_common(isample, edges, 0.6), isample, edges)


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
    assert verify_decomposition(dec, oracle, params.eps, delta) == []


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
    assert verify_decomposition(dec, oracle, params.eps, delta) == []


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
    assert any("not eps-sparse" in v for v in rep)

    rep2 = verify_decomposition(merged, oracle2, params.eps, delta)
    assert any("non-neighbors inside" in v or "size" in v for v in rep2)


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


# desk parameters at delta = 80: eps = 1/40, so a link needs 60 common
# neighbors, a cluster holds 70..90 vertices and a member at most 20
# non-neighbors inside and 20 neighbors outside; a vertex is eps-sparse
# once its neighborhood misses 2 edges
def _failure(n, edges, delta=80):
    oracle = oracle_from_edges(n, edges)
    with pytest.raises(DecompositionFailed) as caught:
        compute_decomposition(oracle, ParamSet.desk(n, delta), delta)
    return caught.value.cluster, str(caught.value)


def _glued_to(A, S, leaf_from):
    """The clique A joined to all of the clique S, every vertex of S with one
    pendant leaf: S is sparse, A is not."""
    edges = _clique_edges(A) + _clique_edges(S) + [(s, a) for s in S for a in A]
    return edges + [(s, leaf_from + i) for i, s in enumerate(S)]


def test_failed_cluster_of_the_wrong_size():
    cluster, msg = _failure(200, _clique_edges(list(range(100, 162))))
    assert cluster == list(range(100, 162))
    assert msg == ("dense cluster [100, 101, 102, 103, 104, 105, 106, 107]... fails "
                   "verification: size 62 outside [(1-5e)D, (1+5e)D]")


def test_failed_cluster_with_neighbors_outside():
    # S u A holds 91 vertices; shedding the sparse S leaves A, whose every
    # member has the 21 vertices of S outside
    S, A = list(range(21)), list(range(30, 100))
    cluster, msg = _failure(121, _glued_to(A, S, leaf_from=100))
    assert cluster == A
    assert msg == ("dense cluster [30, 31, 32, 33, 34, 35, 36, 37]... fails "
                   "verification: vertex 30 has 21 neighbors outside")


def test_cluster_that_sheds_to_nothing_is_dropped():
    # a 62-clique of sparse vertices (each has a leaf) is too small and sheds
    # every member; the 75-clique beside it passes as it is
    K, valid = list(range(62)), list(range(200, 275))
    edges = _clique_edges(K) + [(v, 62 + v) for v in K] + _clique_edges(valid)
    oracle = oracle_from_edges(300, edges)
    dec = compute_decomposition(oracle, ParamSet.desk(300, 80), 80)
    assert [k.vertices for k in dec.cliques] == [valid]
    assert dec.v_sparse == sorted(set(range(300)) - set(valid))


def test_earliest_failing_cluster_is_named_after_its_shedding():
    # the cluster rooted at 0 fails only once it has shed S; the one rooted
    # at 200 fails with nothing to shed, but comes later
    S, A = list(range(21)), list(range(30, 100))
    edges = _glued_to(A, S, leaf_from=100) + _clique_edges(list(range(200, 262)))
    cluster, msg = _failure(262, edges)
    assert cluster == A
    assert msg.endswith("vertex 30 has 21 neighbors outside")


def _reference_decomposition(graph, eps, delta):
    """compute_decomposition with the shadow, over Python sets, one cluster
    and one vertex at a time: (cliques, whether any cluster shed)."""
    n = graph.n
    nbrs = [neighbors(graph, v) for v in range(n)]
    cut = (1 - 10 * eps) * delta
    linked = [{u for u in nbrs[v] if len(nbrs[u] & nbrs[v]) >= cut} for v in range(n)]
    dense = {v for v in range(n) if len(linked[v]) >= cut}
    clusters, seen = [], set()
    for v in sorted(dense):  # clusters in order of their smallest vertex
        if v not in seen:
            comp, todo = {v}, [v]
            while todo:
                new = (linked[todo.pop()] & dense) - comp
                comp |= new
                todo += new
            seen |= comp
            clusters.append(sorted(comp))

    def sparse(v):
        d = len(nbrs[v])
        t = sum(len(nbrs[u] & nbrs[v]) for u in nbrs[v]) // 2
        return d >= 2 and d * (d - 1) // 2 - t >= eps * eps * delta * delta / 2 * (1 - 1e-9)

    slack = 10 * eps * delta

    def violation(K):
        size, inside_of = len(K), set(K)
        if not (1 - 5 * eps) * delta <= size <= (1 + 5 * eps) * delta:
            return f"size {size} outside [(1-5e)D, (1+5e)D]"
        for v in K:
            inside = len(nbrs[v] & inside_of)
            if size - 1 - inside > slack:
                return f"vertex {v} has {size - 1 - inside} non-neighbors inside"
            if len(nbrs[v]) - inside > slack:
                return f"vertex {v} has {len(nbrs[v]) - inside} neighbors outside"
        return None

    cliques, shed = [], False
    for K in clusters:
        while K and (why := violation(K)) is not None:
            if not any(sparse(v) for v in K):
                raise DecompositionFailed(K, why)
            K, shed = [v for v in K if not sparse(v)], True
        if K:
            cliques.append(K)
    return sorted(cliques), shed


def _glued_blocks(rng, delta):
    """Random blocks of about delta or delta/2 vertices, some exact cliques and some
    with holes, with clique-shaped hubs hung on them (their members with
    pendant leaves or not), bridges of small cliques joined to two blocks,
    and random edges between blocks; the ids shuffled."""
    edges, n, blocks = [], 0, []

    def fresh(k):
        nonlocal n
        n += k
        return list(range(n - k, n))

    for _ in range(int(rng.integers(1, 4))):
        part = 0.5 if rng.random() < 0.3 else 1  # halves that a bridge may merge
        K = fresh(int(rng.integers(int(0.9 * part * delta), int(1.1 * part * delta) + 1)))
        exact = rng.random() < 0.5
        hole = 0 if exact else rng.uniform(0, 0.12)
        edges += [e for e in _clique_edges(K) if rng.random() >= hole]
        blocks.append(K)
        if rng.random() < 0.5:
            H = fresh(int(rng.integers(1, delta // 2)))
            joined = 1 if exact else rng.uniform(0.5, 1)
            edges += _clique_edges(H) + [(a, h) for a in K for h in H if rng.random() < joined]
            for h in H:
                edges += [(h, leaf) for leaf in fresh(int(rng.integers(0, 3)))]
    if len(blocks) > 1:
        if rng.random() < 0.5:
            S = fresh(int(rng.integers(1, delta // 2)))
            i, j = rng.choice(len(blocks), 2, replace=False)
            joined = 1 if rng.random() < 0.5 else 0.95
            edges += _clique_edges(S)
            edges += [(s, a) for s in S for a in blocks[i] + blocks[j] if rng.random() < joined]
        for _ in range(int(rng.integers(0, 3))):
            i, j = rng.choice(len(blocks), 2, replace=False)
            p = rng.uniform(0, 0.15)
            edges += [(a, b) for a in blocks[i] for b in blocks[j] if rng.random() < p]
    return oracle_from_edges(n, rng.permutation(n)[np.array(edges)])


def test_decomposition_equals_the_set_oracle():
    """Per-member inside and outside counts, the shedding and the failure
    named, against sets on random glued blocks: clusters that pass, shed,
    shed to nothing or fail on each of the three checks."""
    seen = set()
    for seed in range(80):
        rng = np.random.default_rng(seed)
        delta = int(rng.integers(12, 41))
        graph = _glued_blocks(rng, delta)
        params = ParamSet.desk(graph.n, delta)
        try:
            want, shed = _reference_decomposition(graph, params.eps, delta)
        except DecompositionFailed as failed:
            with pytest.raises(DecompositionFailed) as caught:
                compute_decomposition(graph, params, delta)
            assert (caught.value.cluster, str(caught.value)) == (failed.cluster, str(failed))
            seen.add(str(failed).split(": ")[1].split()[-1])  # the check's last word
            continue
        dec = compute_decomposition(graph, params, delta)
        assert [k.vertices for k in dec.cliques] == want
        assert dec.v_sparse == sorted(set(range(graph.n)) - {v for K in want for v in K})
        seen.add(("shed" if shed else "clean", bool(want)))
    assert {"(1+5e)D]", "outside", "inside", ("shed", True), ("shed", False), ("clean", True)} <= seen


def _reference_violations(dec, graph, eps, delta):
    """verify_decomposition over Python sets, one vertex at a time."""
    n = graph.n
    nbrs = [neighbors(graph, v) for v in range(n)]
    out, seen = [], {}
    for i, k in enumerate(dec.cliques):
        for v in k.vertices:
            if v in seen:
                out.append(f"vertex {v} in cliques {seen[v]} and {i}")
            seen[v] = i
    out += [f"vertex {v} both sparse and in clique {seen[v]}" for v in dec.v_sparse if v in seen]
    if len(dec.v_sparse) + sum(len(k) for k in dec.cliques) != n:
        out.append("partition does not cover all vertices")
    slack = 10 * eps * delta
    for i, k in enumerate(dec.cliques):
        size, members = len(k), set(k.vertices)
        if not (1 - 5 * eps) * delta <= size <= (1 + 5 * eps) * delta:
            out.append(f"clique {i}: size {size} out of range")
        for v in k.vertices:
            inside = len(nbrs[v] & members)
            if size - 1 - inside > slack:
                out.append(f"clique {i}: {v} has {size - 1 - inside} non-neighbors inside")
            if len(nbrs[v]) - inside > slack:
                out.append(f"clique {i}: {v} has {len(nbrs[v]) - inside} neighbors outside")
        out += [f"clique {i}: outsider {u} has too few non-neighbors inside"
                for u in range(n) if u not in members and size - len(nbrs[u] & members) < slack]
    sparse = is_eps_sparse(graph, eps, delta)
    return out + [f"sparse vertex {v} is not eps-sparse" for v in dec.v_sparse if not sparse[v]]


def test_verify_counts_equal_the_set_oracle():
    """Random mixed instances under their own decomposition and under
    random wrong ones: vertices moved between cliques and the sparse side,
    listed twice in one clique, in two or on both sides, dropped, and
    cliques merged or cut below the slack."""
    kinds = set()
    for seed in range(24):
        rng = np.random.default_rng(seed)
        delta = int(rng.choice([16, 24, 32]))
        inst = generate_instance("mixed", delta, count=int(rng.integers(1, 3)), seed=seed)
        graph = oracle_from_edges(inst.n, inst.edges)
        params = ParamSet.desk(inst.n, delta)
        dec = compute_decomposition(graph, params, delta)
        cliques = [list(k.vertices) for k in dec.cliques]
        sparse = list(dec.v_sparse)
        if seed:
            for _ in range(int(rng.integers(1, 6))):
                op = int(rng.integers(7))
                i = int(rng.integers(len(cliques)))
                if op == 0 and sparse:  # a sparse vertex into a clique
                    cliques[i].append(sparse.pop(int(rng.integers(len(sparse)))))
                elif op == 1 and cliques[i]:  # a clique vertex to the sparse side
                    sparse.append(cliques[i].pop(int(rng.integers(len(cliques[i])))))
                elif op == 2 and cliques[i]:  # listed twice, in one clique or in two
                    cliques[int(rng.integers(len(cliques)))].append(int(rng.choice(cliques[i])))
                elif op == 3 and cliques[i]:  # dropped from the partition
                    cliques[i].pop()
                elif op == 4 and len(cliques) > 1:  # two cliques merged
                    cliques[i - 1] += cliques.pop(i)
                elif op == 5:  # cut below the slack
                    sparse += cliques[i][2:]
                    cliques[i] = cliques[i][:2]
                elif op == 6 and cliques[i]:  # listed on both sides
                    sparse.append(int(rng.choice(cliques[i])))
            for K in cliques:
                rng.shuffle(K)
        wrong = Decomposition(n=inst.n, v_sparse=sparse,
                              cliques=[AlmostClique(vertices=K) for K in cliques])
        got = verify_decomposition(wrong, graph, params.eps, delta)
        assert got == _reference_violations(wrong, graph, params.eps, delta)
        kinds |= {re.sub(r"\d+", "#", v) for v in got}
    assert {
        "vertex # in cliques # and #",
        "vertex # both sparse and in clique #",
        "partition does not cover all vertices",
        "clique #: size # out of range",
        "clique #: # has # non-neighbors inside",
        "clique #: # has # neighbors outside",
        "clique #: outsider # has too few non-neighbors inside",
        "sparse vertex # is not eps-sparse",
    } <= kinds


def test_hand_built_valid_decomposition_passes():
    delta = 16
    inst = generate_instance("holey-clique", delta, count=1, seed=3)
    oracle = oracle_from_edges(inst.n, inst.edges)
    params = ParamSet.desk(inst.n, delta)
    dec = Decomposition(
        n=inst.n, v_sparse=[], cliques=[AlmostClique(vertices=list(range(inst.n)))]
    )
    assert verify_decomposition(dec, oracle, params.eps, delta) == []


# ---- non-edge listing and size classes --------------------------------------


def _listed(K, graph):
    dec = Decomposition(n=graph.n, v_sparse=[], cliques=[AlmostClique(vertices=list(K))])
    annotate_cliques(dec, ParamSet.desk(graph.n, 8), 8, graph)
    pairs = dec.cliques[0].non_edge_pairs
    assert pairs.dtype == np.int64 and pairs.shape[1:] == (2,)
    assert [tuple(p) for p in pairs.tolist()] == brute_non_edges(K, graph)
    return pairs.tolist()


def test_non_edge_pairs():
    delta = 8
    k = delta + 1
    oracle = oracle_from_edges(k, _clique_edges(list(range(k))))
    assert _listed(range(k), oracle) == []

    edges = _clique_edges(list(range(k)))[1:]
    oracle2 = oracle_from_edges(k, edges)
    assert _listed(range(k), oracle2) == [[0, 1]]

    # a large almost-clique (delta+2 vertices at max degree delta) carries
    # at least (delta+2)/2 non-edges
    big = delta + 2
    matching = [(i, i + 1) for i in range(0, big, 2)]
    edges3 = [e for e in _clique_edges(list(range(big))) if e not in matching]
    oracle3 = oracle_from_edges(big, edges3)
    assert _listed(range(big), oracle3) == [list(e) for e in matching]
    assert len(matching) >= (delta + 2) / 2
    assert size_class_of(big, delta) == LARGE
    # any vertex order, any subset, and the empty set
    assert _listed([9, 3, 0, 1], oracle3) == [[0, 1]]
    assert _listed([], oracle3) == []


def test_annotate_cliques_lists_every_cliques_non_edges_in_one_pass(rng):
    # cliques of several sizes, some of one size, in shuffled vertex order
    # and joined to each other by random edges: a true clique, one made
    # only of non-edges, a lone vertex and random sets
    n, delta = 60, 8
    order = rng.permutation(n).tolist()
    sizes = [6, 4, 1, 6, 6, 3, 9, 2]
    Ks, at = [], 0
    for size in sizes:
        Ks.append(order[at : at + size])
        at += size
    pairs = np.array([(a, b) for a in range(n) for b in range(a + 1, n)])
    edges = pairs[rng.random(len(pairs)) < 0.6].tolist()
    clique, hollow = set(Ks[0]), set(Ks[1])
    edges = [e for e in edges if not set(e) <= hollow]
    edges += [(a, b) for a in clique for b in clique if a < b]
    graph = oracle_from_edges(n, edges)
    params = ParamSet.desk(n, delta)
    dec = Decomposition(n=n, v_sparse=order[at:], cliques=[AlmostClique(vertices=K) for K in Ks])
    annotate_cliques(dec, params, delta, graph)
    for k in dec.cliques:
        assert k.non_edge_pairs.dtype == np.int64 and k.non_edge_pairs.shape[1:] == (2,)
        assert [tuple(p) for p in k.non_edge_pairs.tolist()] == brute_non_edges(k.vertices, graph)
        assert k.non_edges == len(k.non_edge_pairs)
        assert k.holey == (k.non_edges >= params.holey_threshold(delta))
    counts = [k.non_edges for k in dec.cliques]
    assert counts[:3] == [0, 6, 0] and all(counts[3:])


@pytest.mark.parametrize("no_shadow", [False, True])
@pytest.mark.parametrize("spec", [
    "mixed:delta=16,count=3", "mixed:delta=32,count=2", "clique-pairs:delta=16,count=4",
    "hard-phase6:delta=24,count=2", "holey-clique:delta=32,count=3"])
def test_listed_non_edges_keep_the_form_phase4_reads(spec, no_shadow):
    # phase 4 reads each clique's listing as it is: pairs a < b, ascending,
    # each once, and none of them an edge of H
    res = color_run(RunConfig(source=f"{spec},seed=1", seed=1, no_shadow=no_shadow))
    assert res.status == "success" and res.dec.cliques
    n, h = res.report["n"], res.conflict
    for k in res.dec.cliques:
        a, b = k.non_edge_pairs.T
        assert (a < b).all()
        assert (np.diff(a * n + b) > 0).all()
        assert not any(has_edge(h, u, v) for u, v in zip(a.tolist(), b.tolist()))


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
    src = source_of(inst)
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
    assert len(neighbors(oracle, k.witness) & k.vset) >= 16 / ParamSet.desk(inst.n, 16).beta


def test_isolated_block_classified_lonely():
    _, _, dec = _classified("holey-clique", 16, 3)
    assert all(k.kind == LONELY for k in dec.cliques)
