"""The CSR graph type and its two common-neighbor counts, checked against
plain Python set intersections."""

import tracemalloc

import numpy as np
import pytest

from streamcolor import graph
from streamcolor.graph import PAIR_CHUNK, Graph, packed_common, pair_counts

from conftest import has_edge, neighbors


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
    assert [neighbors(g, v) for v in range(n)] == nbrs

    want_common = [len(nbrs[u] & nbrs[v]) for u, v in want_edges]
    assert g.common.tolist() == want_common
    assert packed_common(g, g.edges()).tolist() == want_common
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


def test_derived_arrays_are_cached_and_read_only():
    g = Graph(5, [(0, 1), (1, 2), (0, 2), (2, 3)])
    for get in (g.edges, g.triangles, lambda: g.common):
        first = get()
        assert get() is first  # derived once
        with pytest.raises(ValueError, match="read-only"):
            first[0] = 7
    assert g.triangles().tolist() == [1, 1, 1, 0, 0]


def test_csr_arrays_are_read_only():
    # H may be the shadow object, so a write would change the verifier's graph
    for g in (Graph(4, [(0, 1), (1, 2)]), Graph.from_pairs(4, [0, 2], [1, 3])):
        for a in (g.indices, g.indptr, g.degrees):
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 7


def test_pair_counts_long_list_spans_chunks():
    # a hub of degree 420 forms more pairs than one chunk holds
    rng = np.random.default_rng(7)
    leaves = 420
    assert leaves * (leaves - 1) // 2 > PAIR_CHUNK
    hub = np.stack([np.zeros(leaves, dtype=np.int64), np.arange(1, leaves + 1)], axis=1)
    among = _random_edges(rng, leaves, 0.02) + 1
    g = _check_against_sets(leaves + 1, np.concatenate([hub, among]))
    assert g.degrees[0] == leaves


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
    sample_of = [neighbors(isample, v) for v in range(n)]
    want = [len(sample_of[u] & sample_of[v]) for u, v in h.edges().tolist()]
    assert per_code.tolist() == want
    assert packed_common(isample, h.edges()).tolist() == want


@pytest.mark.parametrize("seed", range(4))
def test_packed_count_across_column_tiles(seed, monkeypatch):
    # one word per tile: 203 columns span four tiles, the last one partly;
    # the rows are packed, and the edges gathered, in many small chunks
    n = 203
    monkeypatch.setattr(graph, "TILE_BYTES", 8 * n)
    monkeypatch.setattr(graph, "PACK_CHUNK", 50)
    rng = np.random.default_rng(200 + seed)
    _check_against_sets(n, _random_edges(rng, n, rng.uniform(0.1, 0.4)))


def test_packed_count_temporaries_stay_bounded(monkeypatch):
    """Beyond its result and one packed column tile, the count holds a few
    arrays over the n rows and a few over about 2^14 list entries or
    gathered words.  Here the 63 words of a row span two tiles.  Packing
    all rows at once (as from whole pairs() arrays, 20 MiB more), 2^16
    entries at a time (2.7 MiB more), or holding both tiles at once (1 MiB
    more) fails."""
    monkeypatch.setattr(graph, "TILE_BYTES", 1 << 20)
    rng = np.random.default_rng(5)
    n = 4000
    ends = rng.integers(0, n, size=(220_000, 2))
    g = Graph(n, ends[ends[:, 0] != ends[:, 1]])
    edges = g.edges()
    tracemalloc.start()
    try:
        counts = packed_common(g, edges)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    bound = counts.nbytes + graph.TILE_BYTES + 8 * (16 * n + 8 * (1 << 14))
    assert peak < bound, f"peak {peak / 2**20:.2f} MiB, bound {bound / 2**20:.2f} MiB"


def test_stored_bits_count_every_list_entry():
    # ceil(log2 5) = 3 bits for each of the three entries of directed lists
    assert Graph.from_pairs(5, [0, 0, 1], [1, 2, 3]).stored_bits() == 9
    assert Graph(5, np.array([(0, 1), (1, 2), (3, 4)])).stored_bits() == 18


def test_within_and_rows_of():
    g = Graph(6, np.array([(0, 1), (0, 2), (1, 2), (2, 5), (3, 4)]))
    owner, nbrs = g.rows_of(np.array([2, 4]))
    assert owner.tolist() == [0, 0, 0, 1] and nbrs.tolist() == [0, 1, 5, 3]
    assert has_edge(g, 5, 2) and not has_edge(g, 0, 5)
    assert g.m == 5 and g.degrees.tolist() == [2, 2, 3, 1, 1, 1]
