"""Golden digests of the stream kernels' state.

The digests were taken from the per-edge reference kernels (a Python loop
over edges with ``np.add.at`` scatters per sketch rate, path-halving
union-find).  The chunk-vectorized kernels must leave the same state bit
for bit.
"""

import hashlib
import tracemalloc

import numpy as np
import pytest

from streamcolor import _kernels, pipeline, stream
from streamcolor._kernels import prf_mod, uf_roots, uf_union_batch
from streamcolor.field import MAX_PRIME, SketchBank, add_columns, canonical_prime, is_prime
from streamcolor.params import ParamSet
from streamcolor.pipeline import _main_pass, _prepass
from streamcolor.stream import chunk_edges, stream_source

from conftest import dropping_palettes

SPEC = "random-regular:delta=16,n=400,seed=3"
MIXED = "mixed:delta=32,count=2,seed=3"
GOLDEN = {
    "main_bank": "7fac1eb1d646e188797ac0c652af49e3e6b95b37f4f9e8b780f57fb4a1daefc6",
    "subset_bank": "eff038922fadd00b718b23ae059d49bba001c4e3c11849bb3c26ba44f73841c8",
    "uf_roots": "d02cdc21c6890cf61eceda3fc719c8ac0bfd7cf4b98b6e48549c094640504543",
}


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a, dtype=np.int64)
        h.update(repr(a.shape).encode())
        h.update(a.tobytes())
    return h.hexdigest()


def _bank_rows(bank) -> list[np.ndarray]:
    """y and z of every sampled vertex, rate by rate."""
    return [m for r in bank.rates for m in bank.raw(bank.sampled(r), r)]


def _bank_digest(bank) -> str:
    return _digest(*_bank_rows(bank))


def _fed_edges(monkeypatch) -> list[int]:
    """Spy on `SketchBank.update_chunk`: the edge count of every chunk any
    bank is fed, in order."""
    fed = []
    update = SketchBank.update_chunk

    def spy(bank, us, vs):
        fed.append(us.size)
        update(bank, us, vs)

    monkeypatch.setattr(SketchBank, "update_chunk", spy)
    return fed


def test_prf_uniform_stays_below_one(monkeypatch):
    top = np.array([2**64 - 1, 2**64 - 2**10, 0], dtype=np.uint64)
    monkeypatch.setattr(_kernels, "prf_u64", lambda *args: top)
    u = _kernels.prf_uniform(1, 0, 0)
    assert (u < 1).all() and u[2] == 0


def test_main_pass_sketch_bank_golden():
    src = stream_source(SPEC, seed=3)
    params = ParamSet.desk(src.n, 16)
    bank = SketchBank(src.n, 16, params, 3)
    _main_pass(src, src.n, 16, params, 3, bank)
    assert bank.rates == [1, 2, 4, 8, 16]
    assert _bank_digest(bank) == GOLDEN["main_bank"]


def _random_edges(rng, n: int, m: int) -> np.ndarray:
    codes = np.unique(rng.integers(0, n * n, size=3 * m))
    u, v = codes // n, codes % n
    keep = u < v
    edges = np.stack([u[keep], v[keep]], axis=1)[:m]
    return edges[rng.permutation(edges.shape[0])]


def test_sketch_bank_with_a_subsampled_rate_golden():
    n, delta = 300, 256
    bank = SketchBank(n, delta, ParamSet.desk(n, delta, beta=2), seed=5)
    sizes = [bank.sampled(r).size for r in bank.rates]
    assert sizes[:-1] == [n] * (len(sizes) - 1)
    assert 0 < sizes[-1] < n          # rate 256 stores a strict subset
    edges = _random_edges(np.random.default_rng(11), n, 9000)
    for lo in range(0, edges.shape[0], 1700):
        block = edges[lo : lo + 1700]
        bank.update_chunk(
            np.ascontiguousarray(block[:, 0]), np.ascontiguousarray(block[:, 1])
        )
    assert _bank_digest(bank) == GOLDEN["subset_bank"]


def _reference_sketches(bank, edges) -> dict:
    """The per-edge definition of the bank: for every edge {o, w} and every
    rate r that samples w, y(w) gains o's first 2r node powers and z(w)
    gains o's check column at r, all mod p.  Returns rate -> (Y, Z), one
    row per sampled vertex in `sampled` order."""
    p, alpha, top = bank.p, bank.alpha, bank.rates[-1]
    rows = np.arange(alpha, dtype=np.int64)
    out = {}
    for r in bank.rates:
        ids = bank.sampled(r)
        pos = np.full(bank.n, -1, dtype=np.int64)
        pos[ids] = np.arange(ids.size)
        out[r] = (np.zeros((ids.size, 2 * r), dtype=np.int64),
                  np.zeros((ids.size, alpha), dtype=np.int64))
    powers = np.ones((bank.n, 2 * top), dtype=np.int64)   # row o: (o+1)^k mod p
    for k in range(1, 2 * top):
        powers[:, k] = powers[:, k - 1] * (np.arange(1, bank.n + 1) % p) % p
    for u, v in edges.tolist():
        w = np.array([u, v])
        o = np.array([v, u])
        for r in bank.rates:
            Y, Z = out[r]
            at = np.isin(w, bank.sampled(r))
            i = np.searchsorted(bank.sampled(r), w[at])
            np.add.at(Y, i, powers[o[at], : 2 * r])
            np.add.at(Z, i, prf_mod(bank.zseed, r, o[at, None], rows[None, :], p))
    return {r: (Y % p, Z % p) for r, (Y, Z) in out.items()}


def _feed(bank, edges, sizes) -> None:
    lo = 0
    for size in sizes:
        block = edges[lo : lo + size]
        bank.update_chunk(np.ascontiguousarray(block[:, 0]), np.ascontiguousarray(block[:, 1]))
        lo += size
    assert lo == edges.shape[0]


def _star(n: int, leaves: int) -> np.ndarray:
    rng = np.random.default_rng(4)
    outer = rng.choice(np.arange(1, n), size=leaves, replace=False)
    hub = np.stack([np.zeros(leaves, dtype=np.int64), outer], axis=1)
    rim = np.stack([outer[:-1], outer[1:]], axis=1)     # a path through the leaves
    return np.concatenate([hub, np.sort(rim, axis=1)])


@pytest.mark.parametrize("n, delta, beta, edges, sizes", [
    # random stream in uneven chunks, one of them empty
    (150, 16, None, _random_edges(np.random.default_rng(2), 150, 900), [1, 7, 0, 350, 41, 501]),
    # the hub receives the whole second chunk
    (1500, 16, None, _star(1500, 1200), [5, 1195, 0, 1199]),
    # the top rate stores a strict subset of the vertices
    (300, 256, 2, _random_edges(np.random.default_rng(6), 300, 1500), [400, 400, 0, 700]),
])
def test_sketch_bank_matches_the_per_edge_definition(n, delta, beta, edges, sizes):
    params = ParamSet.desk(n, delta) if beta is None else ParamSet.desk(n, delta, beta=beta)
    bank = SketchBank(n, delta, params, seed=9)
    if beta is not None:
        assert 0 < bank.sampled(bank.rates[-1]).size < n
    _feed(bank, edges, sizes)
    want = _reference_sketches(bank, edges)
    for r in bank.rates:
        y, z = bank.raw(bank.sampled(r), r)
        assert np.array_equal(y, want[r][0]), r
        assert np.array_equal(z, want[r][1]), r


def _add_edges(W, us, vs, rates, alpha, p, zseed) -> None:
    """Both directions of the edges (us, vs), as `SketchBank.update_chunk`
    adds them."""
    add_columns(W, np.concatenate([us, vs]), np.concatenate([vs, us]), rates, alpha, p, zseed)


def test_sketch_update_is_exact_near_the_largest_prime():
    p = next(q for q in range(MAX_PRIME, 0, -1) if is_prime(q))
    rates, alpha, zseed, n = [1, 2, 4, 8], 8, 123, 1300
    leaves = np.arange(1, n, dtype=np.int64)        # vertex 0 has degree 1299
    W = np.zeros((n, 2 * rates[-1] + len(rates) * alpha), dtype=np.int64)
    for part in np.array_split(leaves, 3):
        _add_edges(W, np.zeros_like(part), part, rates, alpha, p, zseed)
    assert W.max() > p                               # the state holds unreduced sums
    nodes = [v + 1 for v in leaves.tolist()]
    want = [sum(pow(a, k, p) for a in nodes) % p for k in range(2 * rates[-1])]
    for r in rates:
        cols = prf_mod(zseed, r, leaves[:, None], np.arange(alpha)[None, :], p)
        want += [sum(c) % p for c in cols.T.tolist()]
    assert (W[0] % p).tolist() == want
    # each leaf received the hub's columns once
    assert np.array_equal(W[1:], np.broadcast_to(W[1], W[1:].shape))


def test_sketch_update_temporaries_stay_bounded():
    """One 2^18-edge chunk, a little over the default cap: the builder's
    peak is its incidence-length index arrays plus at most one gathered
    block of 2^17 entries (one column, when a column alone is longer) and
    its per-vertex blocks.  Gathering 16 columns per incidence whatever
    the chunk length peaks near 19 incidence arrays and fails."""
    n, m = 1 << 14, 1 << 18
    assert chunk_edges(n) < m
    rng = np.random.default_rng(12)
    us = rng.integers(0, n, size=m)
    vs = (us + rng.integers(1, n, size=m)) % n
    rates, alpha = [1, 2, 4, 8, 16], 8
    W = np.zeros((n, 2 * rates[-1] + len(rates) * alpha), dtype=np.int64, order="F")
    tracemalloc.start()
    try:
        _add_edges(W, us, vs, rates, alpha, canonical_prime(n), 7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    incidences = 2 * m
    # the two directions (each incidence's row and its vertex), the sort
    # key and the vertex ranks read into it are four incidence arrays at
    # once; the key is sorted in place, and after it the rows, then one
    # gathered block of at most max(2^17, incidences) entries, take the
    # ranks' place; a block's vertex columns, their sums and W's rows they
    # add to are at most 16 columns each over the n vertices, and so is
    # the rank table
    bound = 8 * (4 * incidences + (1 << 17) + 3 * 16 * n)
    assert peak < bound, f"peak {peak / 2**20:.1f} MiB, bound {bound / 2**20:.1f} MiB"


@pytest.mark.parametrize("spec, drop", [
    pytest.param(SPEC, False, id=SPEC),
    pytest.param(MIXED, False, id=MIXED),
    pytest.param(MIXED, True, id=MIXED + "-dropping"),
])
def test_pass_consumers_are_chunk_size_invariant(spec, drop, monkeypatch):
    """Both passes read at chunk sizes 1, 977, 4096, the default and m:
    the census, the shadow, the sketch rows of every sampled vertex, H and
    the neighbor samples come out the same, also with palettes that drop
    edges, so that the bank stores some.  H built as the shadow less the
    dropped edges equals H built from the kept edges, and is the shadow
    itself when none is dropped."""
    src = stream_source(spec, seed=3)
    n, m = src.n, len(src.edges)
    delta = int(_prepass(src, want_shadow=False)[0].max())
    params = ParamSet.desk(n, delta)
    if drop:
        monkeypatch.setattr(pipeline, "sample_palettes", dropping_palettes)
    fed = _fed_edges(monkeypatch)

    def passes(size):
        monkeypatch.setattr(stream, "chunk_edges", lambda _: size)
        degrees, roots, shadow, _ = _prepass(src, want_shadow=True)
        bank = SketchBank(n, delta, params, 3)
        fed.clear()
        _, h, samples = _main_pass(src, n, delta, params, 3, bank)
        assert (sum(fed) > 0) == drop
        over = _main_pass(src, n, delta, params, 3, shadow=shadow)[1]
        assert (over is shadow) != drop
        assert np.array_equal(over.indptr, h.indptr) and np.array_equal(over.indices, h.indices)
        return [roots, degrees, *_bank_rows(bank),
                *(a for g in (shadow, h, samples) for a in (g.indptr, g.indices))]

    want = passes(chunk_edges(n))
    for size in (1, 977, 4096, m):
        got = passes(size)
        assert all(np.array_equal(a, b) for a, b in zip(got, want)), size


def test_shadow_main_pass_holds_no_second_edge_set():
    """With the shadow given and desk palettes, H, the bank's H and the
    neighbor sample are the shadow object, so the main pass's traced peak
    (the bank built before tracing) stays below four times the 16 bytes
    per edge of one (m, 2) int64 edge array: the palettes and one chunk's
    temporaries.  Sorting the kept edges into a graph of their own, as H
    is built without a shadow, peaks at about 9 x 16m bytes here."""
    src = stream_source("random-regular:delta=32,n=4000", seed=1)
    degrees, _, shadow, m = _prepass(src, want_shadow=True)
    delta = int(degrees.max())
    params = ParamSet.desk(src.n, delta)
    bank = SketchBank(src.n, delta, params, 1)
    tracemalloc.start()
    try:
        _, h, samples = _main_pass(src, src.n, delta, params, 1, bank, shadow)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert h is shadow and bank.h is h and samples is h
    assert peak < 4 * 16 * m, f"peak {peak / (16 * m):.2f} x 16m bytes"


@pytest.mark.parametrize("drop", [False, True], ids=["desk", "dropping"])
def test_main_pass_feeds_the_bank_only_the_edges_h_drops(drop, monkeypatch):
    src = stream_source(SPEC, seed=3)
    params = ParamSet.desk(src.n, 16)
    if drop:
        monkeypatch.setattr(pipeline, "sample_palettes", dropping_palettes)
    bank = SketchBank(src.n, 16, params, 3)
    fed = _fed_edges(monkeypatch)
    _, h, _ = _main_pass(src, src.n, 16, params, 3, bank)
    m = len(src.edges)
    assert bank.h is h
    assert sum(fed) == m - h.m
    if drop:
        assert 0 < sum(fed) < m
    else:
        assert sum(fed) == 0      # at desk sizes H keeps every edge


@pytest.mark.parametrize("no_shadow", [False, True], ids=["shadow", "no-shadow"])
def test_bank_rows_are_all_edges_rows_when_h_drops_edges(no_shadow, monkeypatch):
    """With palettes that drop edges, the bank of every attempt reads, for
    every rate r and every sampled v, the rows of a bank fed every edge:
    its stored part (the dropped edges) plus H's part."""
    banks = []

    class RecordingBank(SketchBank):
        def __init__(self, *args):
            super().__init__(*args)
            banks.append((self, args))

    monkeypatch.setattr(pipeline, "SketchBank", RecordingBank)
    monkeypatch.setattr(pipeline, "sample_palettes", dropping_palettes)
    src = stream_source(SPEC, seed=3)
    pipeline.color_run(pipeline.RunConfig(SPEC, seed=3, no_shadow=no_shadow))
    assert banks
    for bank, args in banks:
        assert 0 < bank.h.m < len(src.edges)
        full = SketchBank(*args)
        full.update_chunk(np.ascontiguousarray(src.edges[:, 0]),
                          np.ascontiguousarray(src.edges[:, 1]))
        for r in bank.rates:
            vs = bank.sampled(r)
            rows = bank.raw(vs, r)
            assert all(np.array_equal(a, b) for a, b in zip(rows, full.raw(vs, r))), r
            for i in range(vs.size):  # a one-vertex block reads its row of the whole block
                y, z = bank.raw(vs[i : i + 1], r)
                assert np.array_equal(y[0], rows[0][i]) and np.array_equal(z[0], rows[1][i]), (r, i)


def test_sketch_bank_refuses_a_prime_past_int64():
    n = MAX_PRIME + 1          # refused before any row is allocated
    with pytest.raises(ValueError, match="above"):
        SketchBank(n, 16, ParamSet.desk(1000, 16), seed=1)


def test_union_find_roots_golden():
    # ~1.7k components: random edges inside blocks of 1..6 vertices, with
    # the edges shuffled across blocks and fed in uneven chunks
    rng = np.random.default_rng(17)
    sizes = rng.integers(1, 7, size=1700)
    n = int(sizes.sum())
    perm = rng.permutation(n)
    edges = []
    start = 0
    for s in sizes.tolist():
        block = perm[start : start + s]
        for i in range(1, s):
            edges.append((block[rng.integers(0, i)], block[i]))
            if i > 1:
                edges.append((block[rng.integers(0, i)], block[i]))
        start += s
    edges = np.array(edges, dtype=np.int64)[rng.permutation(len(edges))]
    parent = np.arange(n, dtype=np.int64)
    lo = 0
    for step in (1, 7, 500, 1000, 10000):
        block = edges[lo : lo + step]
        uf_union_batch(
            parent, np.ascontiguousarray(block[:, 0]), np.ascontiguousarray(block[:, 1])
        )
        lo += step
    assert lo >= edges.shape[0]
    roots = uf_roots(parent)
    assert _digest(roots) == GOLDEN["uf_roots"]
    # every root is its component's minimum vertex
    start = 0
    for s in sizes.tolist():
        block = perm[start : start + s]
        assert (roots[block] == block.min()).all()
        start += s
