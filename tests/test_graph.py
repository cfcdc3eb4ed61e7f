"""The CSR graph type and its pair-count pass, checked against plain
Python set intersections."""

import numpy as np
import pytest

from streamcolor.graph import PAIR_CHUNK, Graph, pair_counts


def _sets(n, edges):
    nbrs = [set() for _ in range(n)]
    for u, v in edges:
        nbrs[u].add(v)
        nbrs[v].add(u)
    return nbrs


def _codes(g):
    e = g.edges()
    return e[:, 0] * g.n + e[:, 1]


def _random_edges(rng, n, p):
    iu, ju = np.triu_indices(n, 1)
    keep = rng.random(iu.size) < p
    return np.stack([iu[keep], ju[keep]], axis=1)


def _check_against_sets(n, edges):
    g = Graph(n, edges)
    nbrs = _sets(n, edges.tolist())
    want_edges = sorted({(min(u, v), max(u, v)) for u, v in edges.tolist()})
    assert [tuple(e) for e in g.edges().tolist()] == want_edges
    assert [g.neighbors(v) for v in range(n)] == nbrs

    want_common = [len(nbrs[u] & nbrs[v]) for u, v in want_edges]
    assert g.common.tolist() == want_common
    # full rows: every list holding both ends of an edge is a common
    # neighbor, and an entry (w, a) pairs with every b in N(w) & N(a)
    per_code, per_entry = pair_counts(g, _codes(g))
    assert per_code.tolist() == want_common
    rows, cols = g.pairs()
    assert per_entry.tolist() == [
        len(nbrs[w] & nbrs[a]) for w, a in zip(rows.tolist(), cols.tolist())
    ]
    want_t = [
        sum(1 for a in nbrs[v] for b in nbrs[v] if a < b and b in nbrs[a]) for v in range(n)
    ]
    assert g.triangles().tolist() == want_t
    return g


@pytest.mark.parametrize("seed", range(30))
def test_pair_counts_match_set_intersections(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 60))
    edges = _random_edges(rng, n, rng.uniform(0.05, 0.7))
    isolated = int(rng.integers(0, 4))  # vertices no edge touches
    _check_against_sets(n + isolated, edges)


def test_pair_counts_without_edges():
    for n in (1, 5):
        g = _check_against_sets(n, np.empty((0, 2), dtype=np.int64))
        assert g.m == 0 and g.common.size == 0
        assert g.triangles().tolist() == [0] * n


def test_pair_counts_long_list_spans_chunks():
    # a hub of degree 420 forms more pairs than one chunk holds
    rng = np.random.default_rng(7)
    leaves = 420
    assert leaves * (leaves - 1) // 2 > PAIR_CHUNK
    hub = np.stack([np.zeros(leaves, dtype=np.int64), np.arange(1, leaves + 1)], axis=1)
    among = _random_edges(rng, leaves, 0.02) + 1
    g = _check_against_sets(leaves + 1, np.concatenate([hub, among]))
    assert g.degree(0) == leaves


@pytest.mark.parametrize("seed", range(5))
def test_pair_counts_of_a_sample_against_a_subgraph(seed):
    # the no-shadow estimator: each vertex keeps a one-sided sample I(a) of
    # its neighbors; the lists "every a whose sample holds w", looked up
    # against a subgraph H, count |I(u) & I(v)| for each edge (u, v) of H
    rng = np.random.default_rng(100 + seed)
    n = 40
    edges = _random_edges(rng, n, 0.3)
    both = np.concatenate([edges, edges[:, ::-1]])
    sampled = both[rng.random(both.shape[0]) < 0.6]
    isample = Graph.from_pairs(n, sampled[:, 0], sampled[:, 1])
    held = {(int(a), int(b)) for a, b in sampled.tolist()}
    assert any((b, a) not in held for a, b in held)  # not symmetric
    h = Graph(n, edges[rng.random(edges.shape[0]) < 0.7])

    rows, cols = isample.pairs()
    holders = Graph.from_pairs(n, cols, rows)
    per_code, _ = pair_counts(holders, _codes(h))
    sample_of = [isample.neighbors(v) for v in range(n)]
    assert per_code.tolist() == [len(sample_of[u] & sample_of[v]) for u, v in h.edges().tolist()]


def test_within_and_rows_of():
    g = Graph(6, np.array([(0, 1), (0, 2), (1, 2), (2, 5), (3, 4)]))
    owner, nbrs = g.rows_of(np.array([2, 4]))
    assert owner.tolist() == [0, 0, 0, 1] and nbrs.tolist() == [0, 1, 5, 3]
    i, j = g.within(np.array([0, 2, 5]))
    assert sorted(zip(i.tolist(), j.tolist())) == [(0, 1), (1, 0), (1, 2), (2, 1)]
    assert g.has_edge(5, 2) and not g.has_edge(0, 5)
    assert g.m == 5 and g.degrees.tolist() == [2, 2, 3, 1, 1, 1]
