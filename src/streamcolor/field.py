"""Prime-field measurement sketches and exact k-sparse recovery.

Every stored vertex w keeps two running sums over F_p: ``y(w)``, the
first 2r power-sum syndromes of the indicator vector of its neighbors
(a Vandermonde sketch with column j = vertex id + 1), and ``z(w)``, an
alpha-row random-matrix sketch used to verify recovered candidates.
A vector with at most r nonzero entries is reconstructed from y alone
(minimal linear recurrence + root location + a small Vandermonde
solve); the z check makes recovery safe to attempt on vectors that are
not actually sparse.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

import numpy as np

from streamcolor._kernels import prf_mod, sketch_update
from streamcolor.params import ParamSet, child_seed, rng_for, sketch_rates

# ---------------------------------------------------------------------------
# Primes
# ---------------------------------------------------------------------------

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(m: int) -> bool:
    if m < 2:
        return False
    for q in _MR_BASES:
        if m % q == 0:
            return m == q
    d, s = m - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, m)
        if x in (1, m - 1):
            continue
        for _ in range(s - 1):
            x = x * x % m
            if x == m - 1:
                break
        else:
            return False
    return True


def next_prime(m: int) -> int:
    while not is_prime(m):
        m += 1
    return m


def canonical_prime(n: int) -> int:
    """Smallest prime >= max(n, 101); the floor keeps verification strong
    even for tiny vertex counts."""
    return next_prime(max(n, 101))


# ---------------------------------------------------------------------------
# Measurement matrices
# ---------------------------------------------------------------------------


def vandermonde_sum(r: int, p: int, vertices) -> np.ndarray:
    """Sum of columns for a vertex set, i.e. the sketch of its indicator."""
    vs = np.asarray(sorted(vertices), dtype=np.int64)
    if vs.size == 0:
        return np.zeros(2 * r, dtype=np.int64)
    P = np.empty((vs.size, 2 * r), dtype=np.int64)
    P[:, 0] = 1
    cols = (vs + 1) % p
    for i in range(1, 2 * r):
        P[:, i] = P[:, i - 1] * cols % p
    return P.sum(axis=0) % p


def random_check_sum(zseed: int, r: int, vertices, alpha: int, p: int) -> np.ndarray:
    """Sum of the vertices' columns of the alpha x n random check matrix for
    sketch level r; columns are materialized from a counter-mode PRF
    instead of being stored."""
    vs = np.asarray(sorted(vertices), dtype=np.int64)
    if vs.size == 0:
        return np.zeros(alpha, dtype=np.int64)
    rows = np.arange(alpha, dtype=np.int64)
    C = prf_mod(zseed, r, vs[:, None], rows[None, :], p)
    return C.sum(axis=0) % p


def random_check_apply(zseed: int, r: int, x: np.ndarray, alpha: int, p: int) -> np.ndarray:
    """Random check matrix applied to a (typically sparse) vector x."""
    supp = np.flatnonzero(x)
    if supp.size == 0:
        return np.zeros(alpha, dtype=np.int64)
    rows = np.arange(alpha, dtype=np.int64)
    C = prf_mod(zseed, r, supp[:, None], rows[None, :], p)
    return (C * np.asarray(x, dtype=np.int64)[supp][:, None]).sum(axis=0) % p


# ---------------------------------------------------------------------------
# Streaming sketch bank
# ---------------------------------------------------------------------------


@dataclass
class Measurement:
    """A 2r-entry syndrome plus its alpha-entry verification companion."""

    r: int
    vec: np.ndarray
    check: np.ndarray


class SketchBank:
    """Per-rate sampled vertex sets with running y/z sketches.

    Rates are powers of two up to just past the max degree; each vertex
    joins level r independently with probability min(1, beta/(eps*r)).
    """

    def __init__(self, n: int, delta: int, params: ParamSet, seed: int):
        self.n = n
        self.delta = delta
        self.params = params
        self.seed = seed
        self.p = canonical_prime(n)
        self.alpha = params.alpha
        self.rates = sketch_rates(delta)
        self.zseed = child_seed(seed, "phir")
        self._pos: dict[int, np.ndarray] = {}
        self._ids: dict[int, np.ndarray] = {}
        self._Y: dict[int, np.ndarray] = {}
        self._Z: dict[int, np.ndarray] = {}
        for r in self.rates:
            rng = rng_for(seed, "vr", extra=r)
            member = rng.random(n) < params.vr_rate(r)
            ids = np.flatnonzero(member).astype(np.int64)
            pos = np.full(n, -1, dtype=np.int64)
            pos[ids] = np.arange(ids.size)
            self._ids[r] = ids
            self._pos[r] = pos
            self._Y[r] = np.zeros((ids.size, 2 * r), dtype=np.int64)
            self._Z[r] = np.zeros((ids.size, self.alpha), dtype=np.int64)

    def sampled(self, r: int) -> np.ndarray:
        return self._ids[r]

    def in_rate(self, v: int, r: int) -> bool:
        return self._pos[r][v] >= 0

    def update_chunk(self, us: np.ndarray, vs: np.ndarray) -> None:
        sketch_update(self._Y, self._Z, self._pos, us, vs, self.p, self.zseed)

    def raw(self, v: int, r: int) -> tuple[np.ndarray, np.ndarray]:
        i = self._pos[r][v]
        if i < 0:
            raise KeyError(f"vertex {v} not sampled at rate {r}")
        return self._Y[r][i], self._Z[r][i]

    def stored_bits(self) -> int:
        logp = int(np.ceil(np.log2(self.p)))
        total = 0
        for r in self.rates:
            total += self._Y[r].shape[0] * (2 * r + self.alpha) * logp
        return total


def measure_relative(bank: SketchBank, v: int, r: int, ref: set[int]) -> Measurement:
    """Measurement of x = chi(N(v)) - chi(ref) over F_p.

    Entries of x are 1 on N(v) \\ ref, p-1 on ref \\ N(v), 0 elsewhere, so
    x is sparse whenever v's neighborhood nearly matches the reference set.
    """
    y, z = bank.raw(v, r)
    vec = (y - vandermonde_sum(r, bank.p, ref)) % bank.p
    check = (z - random_check_sum(bank.zseed, r, ref, bank.alpha, bank.p)) % bank.p
    return Measurement(r=r, vec=vec, check=check)


# ---------------------------------------------------------------------------
# Recovery
# ---------------------------------------------------------------------------


def berlekamp_massey(s: np.ndarray, p: int) -> tuple[int, list[int]]:
    """Minimal linear recurrence of s over F_p.

    Returns (L, C) with C[0] = 1 and sum_i C[i]*s[t-i] = 0 for t >= L.
    """
    s = [int(x) % p for x in s]
    C = [1]
    B = [1]
    L, m, b = 0, 1, 1
    for i, si in enumerate(s):
        d = si
        for j in range(1, L + 1):
            d = (d + C[j] * s[i - j]) % p
        if d == 0:
            m += 1
            continue
        coef = d * pow(b, p - 2, p) % p
        if 2 * L <= i:
            T = C[:]
            if len(C) < len(B) + m:
                C = C + [0] * (len(B) + m - len(C))
            for j, bj in enumerate(B):
                C[j + m] = (C[j + m] - coef * bj) % p
            L = i + 1 - L
            B = T
            b = d
            m = 1
        else:
            if len(C) < len(B) + m:
                C = C + [0] * (len(B) + m - len(C))
            for j, bj in enumerate(B):
                C[j + m] = (C[j + m] - coef * bj) % p
            m += 1
    return L, [c % p for c in C[: L + 1]]


def _char_roots(C: list[int], n: int, p: int) -> np.ndarray:
    """Roots of the characteristic polynomial sum C[i]*a^(L-i) among 1..n."""
    js = np.arange(1, n + 1, dtype=np.int64)
    acc = np.full(n, C[0], dtype=np.int64)
    for c in C[1:]:
        acc = (acc * js + c) % p
    return js[acc == 0]


def _solve_vandermonde(roots: np.ndarray, s: np.ndarray, p: int) -> np.ndarray | None:
    """Solve sum_e a_e * roots_e^t = s_t for t = 0..L-1 by elimination mod p."""
    L = roots.size
    M = np.empty((L, L + 1), dtype=np.int64)
    row = np.ones(L, dtype=np.int64)
    for t in range(L):
        M[t, :L] = row
        M[t, L] = s[t] % p
        row = row * roots % p
    for col in range(L):
        piv = None
        for rr in range(col, L):
            if M[rr, col] % p:
                piv = rr
                break
        if piv is None:
            return None
        if piv != col:
            M[[col, piv]] = M[[piv, col]]
        inv = pow(int(M[col, col]), p - 2, p)
        M[col] = M[col] * inv % p
        for rr in range(L):
            if rr != col and M[rr, col]:
                M[rr] = (M[rr] - M[rr, col] * M[col]) % p
    return M[:, L] % p


def _syndromes_of(support: np.ndarray, coeffs: np.ndarray, count: int, p: int) -> np.ndarray:
    cols = (support + 1) % p
    out = np.empty(count, dtype=np.int64)
    row = np.ones(support.size, dtype=np.int64)
    for t in range(count):
        out[t] = int((coeffs * row).sum() % p)
        row = row * cols % p
    return out


def recover_sparse(meas: np.ndarray, r: int, p: int, n: int) -> np.ndarray | None:
    """Recover the unique vector with at most r nonzeros matching a
    2r-entry syndrome, or None when no such vector exists.

    None is a value (the input was not r-sparse), not a fault.
    """
    s = np.asarray(meas, dtype=np.int64) % p
    if s.shape[0] != 2 * r:
        raise ValueError(f"measurement must have length {2 * r}")
    x = np.zeros(n, dtype=np.int64)
    if not s.any():
        return x
    L, C = berlekamp_massey(s, p)
    if L == 0 or L > r:
        return None
    roots = _char_roots(C, n, p)
    if roots.size != L:
        return None
    coeffs = _solve_vandermonde(roots, s, p)
    if coeffs is None or (coeffs == 0).any():
        return None
    if not np.array_equal(_syndromes_of(roots - 1, coeffs, 2 * r, p), s):
        return None
    x[roots - 1] = coeffs
    return x


def verify_candidate(check: np.ndarray, zseed: int, r: int, x: np.ndarray,
                     alpha: int, p: int) -> bool:
    """True iff the random check matrix maps x onto the companion vector.

    A wrong candidate slips through with probability p^-alpha.
    """
    got = random_check_apply(zseed, r, x, alpha, p)
    return np.array_equal(got % p, np.asarray(check, dtype=np.int64) % p)


def safe_recover(meas: Measurement, p: int, n: int, zseed: int,
                 alpha: int) -> np.ndarray | None:
    """Recover then verify; None means 'fail' (refused, not wrong).

    When the measured vector really is r-sparse this never fails and
    never returns a wrong vector; otherwise a wrong vector survives with
    probability at most p^-alpha.
    """
    x = recover_sparse(meas.vec, meas.r, p, n)
    if x is None:
        return None
    if not verify_candidate(meas.check, zseed, meas.r, x, alpha, p):
        return None
    return x


# ---------------------------------------------------------------------------
# Brute-force decoder: independent oracle for small sparsity bounds.
# ---------------------------------------------------------------------------


@lru_cache(maxsize=32)
def _supports(n: int, e: int) -> np.ndarray:
    return np.array(list(combinations(range(n), e)), dtype=np.int64)


def _modpow_vec(base: np.ndarray, exp: int, p: int) -> np.ndarray:
    out = np.ones_like(base)
    b = base % p
    while exp:
        if exp & 1:
            out = out * b % p
        b = b * b % p
        exp >>= 1
    return out


def _det3(A: np.ndarray, p: int) -> np.ndarray:
    return (
        A[:, 0, 0] * (A[:, 1, 1] * A[:, 2, 2] - A[:, 1, 2] * A[:, 2, 1])
        - A[:, 0, 1] * (A[:, 1, 0] * A[:, 2, 2] - A[:, 1, 2] * A[:, 2, 0])
        + A[:, 0, 2] * (A[:, 1, 0] * A[:, 2, 1] - A[:, 1, 1] * A[:, 2, 0])
    ) % p


def brute_force_decode(meas: np.ndarray, r: int, p: int, n: int) -> np.ndarray | None:
    """Enumerate all supports of size <= r (r <= 3 only) and return the
    unique exact solution, or None.  Cross-check oracle for recover_sparse."""
    if r > 3:
        raise ValueError("brute-force decoder supports r <= 3")
    s = np.asarray(meas, dtype=np.int64) % p
    if not s.any():
        return np.zeros(n, dtype=np.int64)
    for e in range(1, r + 1):
        supp = _supports(n, e)
        cols = (supp + 1) % p
        if e == 1:
            a = np.tile(s[0], (supp.shape[0], 1)) % p
        elif e == 2:
            d = (cols[:, 1] - cols[:, 0]) % p
            inv = _modpow_vec(d, p - 2, p)
            a1 = (cols[:, 1] * s[0] - s[1]) % p * inv % p
            a2 = (s[1] - cols[:, 0] * s[0]) % p * inv % p
            a = np.stack([a1, a2], axis=1)
        else:
            M = np.empty((supp.shape[0], 3, 3), dtype=np.int64)
            row = np.ones_like(cols)
            for t in range(3):
                M[:, t, :] = row
                row = row * cols % p
            det = _det3(M, p)
            inv = _modpow_vec(det, p - 2, p)
            a = np.empty((supp.shape[0], 3), dtype=np.int64)
            for i in range(3):
                Mi = M.copy()
                Mi[:, :, i] = s[:3][None, :]
                a[:, i] = _det3(Mi, p) * inv % p
        ok = (a != 0).all(axis=1)
        row = np.ones_like(cols)
        for t in range(2 * r):
            syn = (a * row).sum(axis=1) % p
            ok &= syn == s[t]
            row = row * cols % p
        hits = np.flatnonzero(ok)
        if hits.size:
            x = np.zeros(n, dtype=np.int64)
            x[supp[hits[0]]] = a[hits[0]]
            return x
    return None
