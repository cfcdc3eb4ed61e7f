"""Golden digests of the stream kernels' state.

The digests were taken from the per-edge reference kernels (a Python loop
over edges with ``np.add.at`` scatters per sketch rate, path-halving
union-find).  The chunk-vectorized kernels must leave the same state bit
for bit.
"""

import hashlib

import numpy as np

from streamcolor._kernels import uf_roots, uf_union_batch
from streamcolor.field import SketchBank
from streamcolor.params import ParamSet
from streamcolor.pipeline import _main_pass
from streamcolor.stream import stream_source

SPEC = "random-regular:delta=16,n=400,seed=3"
GOLDEN = {
    "main_bank": "7fac1eb1d646e188797ac0c652af49e3e6b95b37f4f9e8b780f57fb4a1daefc6",
    "subset_bank": "aee28d9813ddbfff9728c6ab9d7ac218e1d8623721bfdafa4f01cfc6da8a240a",
    "uf_roots": "d02cdc21c6890cf61eceda3fc719c8ac0bfd7cf4b98b6e48549c094640504543",
}


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a, dtype=np.int64)
        h.update(repr(a.shape).encode())
        h.update(a.tobytes())
    return h.hexdigest()


def _bank_digest(bank) -> str:
    return _digest(*(m for r in bank.rates for m in (bank._Y[r], bank._Z[r])))


def test_main_pass_sketch_bank_golden():
    src = stream_source(SPEC, seed=3)
    params = ParamSet.desk(src.n, 16)
    bank = _main_pass(src, src.n, 16, params, 3)[3]
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
