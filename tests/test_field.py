import tracemalloc
from itertools import combinations
from math import comb

import numpy as np
import pytest

from streamcolor._kernels import prf_mod
from streamcolor.field import (
    MAX_PRIME,
    SketchBank,
    _recurrences,
    canonical_prime,
    check_prime,
    column_sums,
    decode_rows,
    is_prime,
    next_prime,
    safe_recover,
)
from streamcolor.generators import instance_from_spec
from streamcolor.graph import Graph
from streamcolor.params import ParamSet, sketch_rates

from conftest import (
    berlekamp_massey,
    brute_force_decode,
    dense,
    random_sparse_vector,
    syndrome_of,
)


def _decode_one(meas, r, p, n):
    """Unverified decode of one syndrome, as a dense vector or None."""
    return dense(decode_rows(np.reshape(meas, (1, -1)), r, p, n)[0], n)


def _measure(x, r, p, zseed, alpha) -> tuple[np.ndarray, np.ndarray]:
    """One-row (vec, check) measurement of x from the library's column sums."""
    supp = np.flatnonzero(x)
    vec, check = column_sums(p, zseed, alpha, r, np.zeros_like(supp), supp, 1, x[supp])
    return vec % p, check % p


def test_prime_selection():
    assert canonical_prime(8) == 101
    assert canonical_prime(101) == 101
    assert canonical_prime(150) == 151
    assert canonical_prime(4000) == 4001
    for n in (2, 64, 1000, 5000):
        p = canonical_prime(n)
        assert is_prime(p) and p >= n and p >= 101


def test_vandermonde_column_values():
    # the sketch of {u} is u's power column: entry i is (u+1)^i mod p
    def column(r, p, u):
        return column_sums(p, 0, 1, r, np.zeros(1, dtype=np.int64), np.array([u]), 1)[0][0] % p

    assert column(2, 11, 2).tolist() == [1, 3, 9, 5]
    assert column(1, 11, 9).tolist() == [1, 10]
    assert column(3, 101, 0).tolist() == [1] * 6


def test_recover_named_example():
    # x = e3 + 10*e7 over F_11, n=8, r=2
    p, n, r = 11, 8, 2
    x = np.zeros(n, dtype=np.int64)
    x[2], x[6] = 1, 10
    meas = syndrome_of(x, r, p)
    assert np.array_equal(_decode_one(meas, r, p, n), x)
    assert np.array_equal(brute_force_decode(meas, r, p, n), x)


def test_recover_zero_measurement():
    p = canonical_prime(16)
    assert np.array_equal(_decode_one(np.zeros(4, dtype=np.int64), 2, p, 16), np.zeros(16))


@pytest.mark.parametrize("n,k", [(8, 1), (8, 3), (16, 2), (32, 5), (64, 8)])
def test_roundtrip_random(n, k, rng):
    p = canonical_prime(n)
    for _ in range(50):
        x = random_sparse_vector(rng, n, k, p)
        got = _decode_one(syndrome_of(x, k, p), k, p, n)
        assert got is not None and np.array_equal(got, x)


def test_brute_force_agreement(rng):
    n = 16
    p = canonical_prime(n)
    for k in (1, 2, 3):
        for _ in range(60):
            x = random_sparse_vector(rng, n, k, p)
            meas = syndrome_of(x, k, p)
            fast = _decode_one(meas, k, p, n)
            slow = brute_force_decode(meas, k, p, n)
            assert np.array_equal(fast, slow)


def _first_solution_by_enumeration(meas, r, p, n):
    """brute_force_decode's contract in plain Python: for e = 1..r and each
    support of size e in combinations order, solve the first e syndrome
    equations by Gauss-Jordan mod p; return the first solution with no
    zero value that matches all 2r syndromes."""
    s = [int(x) % p for x in meas]
    if not any(s):
        return [0] * n
    for e in range(1, r + 1):
        for supp in combinations(range(n), e):
            xs = [(j + 1) % p for j in supp]
            m = [[pow(x, t, p) for x in xs] + [s[t]] for t in range(e)]
            for c in range(e):
                piv = next((i for i in range(c, e) if m[i][c]), None)
                if piv is None:
                    break
                m[c], m[piv] = m[piv], m[c]
                inv = pow(m[c][c], p - 2, p)
                m[c] = [v * inv % p for v in m[c]]
                for i in range(e):
                    if i != c:
                        f = m[i][c]
                        m[i] = [(a - f * b) % p for a, b in zip(m[i], m[c])]
            else:
                a = [row[e] for row in m]
                if all(a) and all(
                    sum(ai * pow(x, t, p) for ai, x in zip(a, xs)) % p == s[t]
                    for t in range(2 * r)
                ):
                    out = [0] * n
                    for j, ai in zip(supp, a):
                        out[j] = ai
                    return out
    return None


@pytest.mark.parametrize("n,p", [(5, 101), (8, 11), (12, 13), (12, 101)])
def test_brute_force_matches_plain_enumeration(n, p):
    rng = np.random.default_rng(n * p)
    for r in (1, 2, 3):
        for i in range(40):
            if i % 2:
                meas = rng.integers(0, p, size=2 * r)
            else:
                meas = syndrome_of(random_sparse_vector(rng, n, int(rng.integers(0, r + 2)), p), r, p)
            got = brute_force_decode(meas, r, p, n)
            want = _first_solution_by_enumeration(meas, r, p, n)
            assert (got is None) == (want is None)
            assert got is None or got.tolist() == want


def test_oversparse_rejected_by_oracle(rng):
    # a 3-sparse x measured at bound r=2: the decoder must not return a
    # 2-sparse impostor that the oracle rules out
    n, r = 12, 2
    p = canonical_prime(n)
    for _ in range(40):
        x = random_sparse_vector(rng, n, 3, p)
        if np.count_nonzero(x) != 3:
            continue
        meas = syndrome_of(x, r, p, )[: 2 * r]
        cand = _decode_one(meas, r, p, n)
        oracle = brute_force_decode(meas, r, p, n)
        if oracle is None:
            assert cand is None or not np.array_equal(cand, x)
        else:
            # a 2-sparse preimage exists; decoder must find exactly it
            assert cand is not None and np.array_equal(cand, oracle)


def test_random_check_rejects_a_wrong_candidate(rng):
    n, r, alpha = 32, 3, 8
    p = canonical_prime(n)
    zseed = 99

    def passes(check, y):
        return np.array_equal(_measure(y, r, p, zseed, alpha)[1][0], check % p)

    x = random_sparse_vector(rng, n, 3, p)
    # the zero candidate meets the zero check
    assert passes(np.zeros(alpha, dtype=np.int64), np.zeros(n, dtype=np.int64))
    # perturbed candidate: false except with probability ~p^-alpha
    wrong = 0
    for _ in range(300):
        check = _measure(x, r, p, zseed, alpha)[1][0]
        y = x.copy()
        y[0] = (y[0] + 1) % p
        if passes(check, y):
            wrong += 1
        zseed += 1
    assert wrong == 0


def test_safe_recover_paths(rng):
    n, alpha = 24, 8
    p = canonical_prime(n)
    zseed = 7
    # true 2-sparse: recovered
    x = random_sparse_vector(rng, n, 2, p)
    vec, check = _measure(x, 2, p, zseed, alpha)
    assert np.array_equal(vec[0], syndrome_of(x, 2, p))
    [got] = safe_recover(vec, check, p, n, zseed, alpha)
    assert np.array_equal(dense(got, n), x)
    # zero vector
    [got] = safe_recover(np.zeros((1, 4), dtype=np.int64), np.zeros((1, alpha), dtype=np.int64),
                         p, n, zseed, alpha)
    assert np.array_equal(dense(got, n), np.zeros(n))
    # 3-sparse at bound 2: fail, never a wrong vector
    wrongs = 0
    fails = 0
    for _ in range(500):
        x = random_sparse_vector(rng, n, 3, p)
        [got] = safe_recover(*_measure(x, 2, p, zseed, alpha), p, n, zseed, alpha)
        if got is None:
            fails += 1
        elif not np.array_equal(dense(got, n), x):
            wrongs += 1
    assert wrongs == 0
    assert fails >= 490  # a 3-sparse x rarely has a consistent sparser twin


def _check_of(x, r, p, zseed, alpha) -> np.ndarray:
    """Independent random check of x: the PRF's columns, summed on Python ints."""
    supp = np.flatnonzero(x)
    cols = prf_mod(zseed, r, supp[:, None], np.arange(alpha)[None, :], p)
    return np.array([sum(int(c) * int(x[j]) for c, j in zip(cols[:, t], supp)) % p
                     for t in range(alpha)], dtype=np.int64)


def _measure_rows(xs, r, p, zseed, alpha) -> tuple[np.ndarray, np.ndarray]:
    """(vec, check) blocks of the vectors xs, one row each, from the oracles."""
    return (np.array([syndrome_of(x, r, p) for x in xs]).reshape(-1, 2 * r),
            np.array([_check_of(x, r, p, zseed, alpha) for x in xs]).reshape(-1, alpha))


def _same(a, b) -> bool:
    return (a is None and b is None) or (
        a is not None and b is not None and np.array_equal(a, b))


@pytest.mark.parametrize("p", [2**31 - 1, 3037000493])
def test_roundtrip_at_large_prime(p, rng):
    # products of two residues fill most of int64 here; every sum must
    # reduce them first
    n, alpha, zseed = 64, 8, 21
    for k in range(1, 9):
        xs = [random_sparse_vector(rng, n, k, p) for _ in range(12)]
        meas = _measure_rows(xs, k, p, zseed, alpha)
        batch = safe_recover(*meas, p, n, zseed, alpha)
        for x, got, vec, check in zip(xs, batch, *meas):
            assert np.array_equal(_measure(x, k, p, zseed, alpha)[1][0], check)
            assert np.array_equal(dense(got, n), x)
            [one] = safe_recover(vec[None], check[None], p, n, zseed, alpha)
            assert one is not None and np.array_equal(dense(one, n), x)


@pytest.mark.parametrize("n", [64, 101, 1009])
def test_batch_matches_single_and_brute_force(n):
    # p = n for the primes 101 and 1009, so vertex n-1 has node 0; some
    # nonzero rows move an entry there.  Each block mixes zero rows, rows
    # with 1..r nonzeros and rows with more than r, so L varies in a block.
    p = canonical_prime(n)
    rng = np.random.default_rng(n)
    alpha, zseed = 8, 11
    for r in (1, 2, 3, 5):
        xs = []
        for i in range(24):
            k = (0, 1 + i % r, 1 + (i + 1) % r, r + 1 + i % 3)[i % 4]
            x = random_sparse_vector(rng, n, k, p)
            if k and i % 3 == 0 and not x[n - 1]:
                j = np.flatnonzero(x)[0]
                x[n - 1], x[j] = x[j], 0
            xs.append(x)
        meas = _measure_rows(xs, r, p, zseed, alpha)
        batch = safe_recover(*meas, p, n, zseed, alpha)
        assert len(batch) == len(xs)
        # the brute-force oracle enumerates all C(n, r) supports
        oracle = r <= 3 and comb(n, r) <= 200_000
        for x, got, vec, check in zip(xs, batch, *meas):
            [one] = safe_recover(vec[None], check[None], p, n, zseed, alpha)
            one = dense(one, n)
            assert _same(dense(got, n), one)
            assert _same(one, x if np.count_nonzero(x) <= r else None)
            if oracle:
                assert _same(_decode_one(vec, r, p, n), brute_force_decode(vec, r, p, n))


@pytest.mark.parametrize("n,p", [(101, 101), (64, 101), (1009, 1009), (600, 1009)])
def test_degree_one_locators_against_brute_force(n, p):
    # rows (s0, s0*a, s0*a^2, ...): a one-term recurrence with root a, whose
    # vertex is a - 1 mod p.  Node 0 is vertex p - 1, a vertex only when
    # p = n; at p > n every root whose vertex is n or more is refused.
    rng = np.random.default_rng(n + p)
    alpha, zseed = 8, 5
    nodes = [0, 1, n % p, (n + 1) % p, p - 1, *rng.integers(0, p, 8).tolist()]
    # the oracle enumerates all C(n, r) supports
    for r in [r for r in (1, 2, 3) if comb(n, r) <= 200_000]:
        S = np.array([[v * pow(a, t, p) % p for t in range(2 * r)]
                      for a in nodes for v in (1, p - 1, int(rng.integers(1, p)))])
        assert all(berlekamp_massey(row, p)[0] == 1 for row in S)
        xs = [brute_force_decode(row, r, p, n) for row in S]
        for row, a, x in zip(S, np.repeat(nodes, 3), xs):
            vertex = (a - 1) % p
            if vertex < n:
                assert np.flatnonzero(x).tolist() == [vertex] and x[vertex] == row[0]
            else:
                assert x is None
            assert _same(_decode_one(row, r, p, n), x)
        check = np.array([_check_of(x if x is not None else np.zeros(n, dtype=np.int64),
                                    r, p, zseed, alpha) for x in xs])
        batch = safe_recover(S, check, p, n, zseed, alpha)
        assert all(_same(dense(got, n), x) for got, x in zip(batch, xs))


def test_root_search_memory_is_bounded():
    # 33 rows over n = 131072 nodes: one rows x n int64 array would be 34 MB
    n, r, alpha, zseed = 131072, 2, 8, 3
    p = canonical_prime(n)
    rng = np.random.default_rng(9)
    xs = [random_sparse_vector(rng, n, 1 + i % 4, p) for i in range(33)]
    meas = _measure_rows(xs, r, p, zseed, alpha)
    tracemalloc.start()
    try:
        got = safe_recover(*meas, p, n, zseed, alpha)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20
    for x, row in zip(xs, got):
        assert _same(dense(row, n), x if np.count_nonzero(x) <= r else None)


def test_check_prime_bounds():
    check_prime(101, 101)
    check_prime(2**31 - 1, 64)
    for p, n in ((15, 16), (101, 200), (next_prime(MAX_PRIME + 1), 16)):
        with pytest.raises(ValueError):
            check_prime(p, n)
    assert MAX_PRIME**2 < 2**63 <= (MAX_PRIME + 1) ** 2


def test_berlekamp_massey_linearity_degree():
    p = 101
    # single geometric sequence => recurrence of length 1 with root j
    s = [pow(7, t, p) for t in range(8)]
    L, C = berlekamp_massey(np.array(s), p)
    assert L == 1 and C[0] == 1 and (-C[1]) % p == 7


@pytest.mark.parametrize("p", [11, 101, 2**31 - 1])
def test_recurrences_match_berlekamp_massey(p):
    # the vectorized, inversion-free recurrences against the Python-int
    # oracle, on one-row and multi-row blocks: the same L, and the same
    # connection polynomial up to a nonzero scale
    rng = np.random.default_rng(p)
    n = min(p, 64)
    for T in (0, 1, 2, 4, 7, 10):
        rows = [rng.integers(0, p, T), np.zeros(T, dtype=np.int64)]
        rows += [syndrome_of(random_sparse_vector(rng, n, k, p), 8, p)[:T]
                 for k in range(6) for _ in range(3)]
        S = np.array(rows, dtype=np.int64)
        for block in [S[i : i + 1] for i in range(len(S))] + [S, S[:3]]:
            L, C = _recurrences(block, p)
            assert C.shape == (len(block), T + 1)
            for row, ell, c in zip(block, L.tolist(), C):
                want_L, want_C = berlekamp_massey(row, p)
                assert ell == want_L
                assert c[0] % p and not c[ell + 1 :].any()
                inv = pow(int(c[0]), p - 2, p)
                assert [int(x) * inv % p for x in c[: ell + 1]] == want_C


def _bank_for(edges, n, delta, seed=5, beta=6):
    params = ParamSet.desk(n, delta, beta=beta)
    bank = SketchBank(n, delta, params, seed)
    arr = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    bank.update_chunk(np.ascontiguousarray(arr[:, 0]), np.ascontiguousarray(arr[:, 1]))
    return bank


def test_sketch_is_linear_and_order_invariant():
    n, delta = 12, 4
    edges = [(0, 1), (0, 2), (0, 3), (1, 2), (4, 5)]
    bank_a = _bank_for(edges, n, delta)
    bank_b = _bank_for(edges[::-1], n, delta)
    for r in bank_a.rates:
        for v in bank_a.sampled(r):
            ya, za = bank_a.raw(v, r)
            yb, zb = bank_b.raw(v, r)
            assert np.array_equal(ya, yb) and np.array_equal(za, zb)
    # split-stream additivity over F_p
    bank_c = _bank_for(edges[:2], n, delta)
    bank_d = _bank_for(edges[2:], n, delta)
    for r in bank_a.rates:
        for v in bank_a.sampled(r):
            ya, za = bank_a.raw(v, r)
            yc, zc = bank_c.raw(v, r)
            yd, zd = bank_d.raw(v, r)
            assert np.array_equal(ya, (yc + yd) % bank_a.p)
            assert np.array_equal(za, (zc + zd) % bank_a.p)


def test_sketch_no_edges_is_zero():
    bank = _bank_for(np.empty((0, 2)), 8, 3)
    for r in bank.rates:
        for v in bank.sampled(r):
            y, z = bank.raw(v, r)
            assert not y.any() and not z.any()


@pytest.mark.parametrize("mode", ["desk", "paper"])
def test_every_vertex_is_sketched_at_every_level(mode):
    # beta/(eps*r) and L3's rate clamp to 1 over the whole desk range, so
    # the bank stores every vertex at every level and L3 is every color
    least = np.inf
    for delta in range(8, 257):
        for n in (delta + 1, delta + 2, 2 * delta, 10 * delta, 10**4, 10**6):
            params = ParamSet.make(mode, n, delta)
            assert params.l3_rate(n, delta) == 1
            for r in sketch_rates(delta):
                assert params.vr_rate(r) == 1
                least = min(least, params.beta / (params.eps * r))
    if mode == "desk":
        assert least == 1.5625  # beta 10, eps 1/40 at delta=129, n=130, r=256


def _set_sketch(bank, r, s) -> tuple[np.ndarray, np.ndarray]:
    """Level-r (y, z) of the indicator of the vertex set s: what a vertex
    whose neighborhood is exactly s would store."""
    vs = np.asarray(sorted(s), dtype=np.int64)
    y, z = column_sums(bank.p, bank.zseed, bank.alpha, r, np.zeros_like(vs), vs, 1)
    return y[0] % bank.p, z[0] % bank.p


def _relative(bank, v, r, s) -> tuple[np.ndarray, np.ndarray]:
    """Level-r (y, z) of chi(N(v)) - chi(s): v's bank row less the set's
    column sums, mod p."""
    (y, z), (sy, sz) = bank.raw(v, r), _set_sketch(bank, r, s)
    return (y - sy) % bank.p, (z - sz) % bank.p


def test_sketch_matches_neighborhood_indicator():
    # after edges to {1, 2}: y(v) equals the sketch of that indicator
    n, delta = 10, 3
    bank = _bank_for([(0, 1), (0, 2)], n, delta)
    r = bank.rates[0]
    if 0 in bank.sampled(r):
        y, _ = bank.raw(0, r)
        assert np.array_equal(y, _set_sketch(bank, r, [1, 2])[0])


def test_bank_read_through_h_temporaries_stay_bounded():
    """A bank whose H holds every edge reads all 1028 core members of two
    mixed Δ=128 blocks at r=128: the rows a bank fed every edge stores.
    Summing H's share per column block keeps the temporaries to a few
    entry-length arrays and the (members, 2r + alpha) row blocks; a full
    (entries, 2r) column table per read peaks near 520 MiB and fails."""
    inst = instance_from_spec("mixed:delta=128,count=2", seed=1)
    delta = r = 128
    bank = SketchBank(inst.n, delta, ParamSet.desk(inst.n, delta), 1)
    bank.h = Graph(inst.n, inst.edges)
    vs = np.array(sorted(v for core in inst.cores for v in core), dtype=np.int64)
    assert vs.size == 1028 and np.isin(vs, bank.sampled(r)).all()
    tracemalloc.start()
    try:
        y, z = bank.raw(vs, r)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    full = SketchBank(inst.n, delta, bank.params, 1)
    full.update_chunk(np.ascontiguousarray(inst.edges[:, 0]), np.ascontiguousarray(inst.edges[:, 1]))
    want = full.raw(vs, r)
    assert np.array_equal(y, want[0]) and np.array_equal(z, want[1])
    entries, k = int(bank.h.degrees[vs].sum()), vs.size
    # `rows_of` and the column sums hold at most four entry-length arrays
    # at once, then one gathered block of at most max(2^17, entries)
    # entries; a block's vertex columns, their sums and the rows they add
    # to are at most 16 columns over the n vertices; and the read holds at
    # most four row blocks: the stored rows, H's sums, their total and its
    # residues mod p
    bound = 8 * (4 * entries + (1 << 17) + 3 * 16 * inst.n + 4 * k * (2 * r + bank.alpha))
    assert peak < bound, f"peak {peak / 2**20:.1f} MiB, bound {bound / 2**20:.1f} MiB"


def test_measure_relative_cases():
    n, delta = 10, 4
    edges = [(0, 1), (0, 2), (0, 3), (0, 4)]
    bank = _bank_for(edges, n, delta)
    r = bank.rates[-1]
    y_exact, z_exact = _relative(bank, 0, r, {1, 2, 3, 4})
    assert not y_exact.any() and not z_exact.any()
    y_empty, _ = _relative(bank, 0, r, set())
    assert np.array_equal(y_empty, _set_sketch(bank, r, {1, 2, 3, 4})[0])


def test_measure_relative_unsampled_vertex_errors():
    # at delta=256 the top sampling level keeps only a fraction of vertices
    n, delta = 40, 256
    params = ParamSet.desk(n, delta, beta=2)
    bank = SketchBank(n, delta, params, seed=11)
    r = bank.rates[-1]
    unsampled = [v for v in range(n) if v not in bank.sampled(r)]
    with pytest.raises(KeyError):
        _relative(bank, unsampled[0], r, set())
    # a block read names its first unsampled vertex, not the whole block
    block = np.concatenate([bank.sampled(r), unsampled[1:]])
    with pytest.raises(KeyError, match=rf"^'vertex {unsampled[1]} not sampled at rate {r}'$"):
        bank.raw(block, r)


def test_measure_relative_clique_minus_edge_signs():
    # v in a K5 minus edge (a,b), reference = K: entries are 1 on
    # neighbors outside K (none) and p-1 on K-members missing from N(v)
    n, delta = 5, 4
    edges = [(u, v) for u in range(5) for v in range(u + 1, 5) if (u, v) != (0, 1)]
    bank = _bank_for(edges, n, delta, seed=3)
    r = bank.rates[-1]
    y, _ = _relative(bank, 0, r, range(5))
    x = _decode_one(y, r, bank.p, n)
    assert x is not None
    # x = chi(N(0)) - chi(K): -1 at 0 itself (not its own neighbor) and at 1
    expect = np.zeros(n, dtype=np.int64)
    expect[0] = bank.p - 1
    expect[1] = bank.p - 1
    assert np.array_equal(x, expect)
    assert set(np.unique(x)) <= {0, 1, bank.p - 1}
