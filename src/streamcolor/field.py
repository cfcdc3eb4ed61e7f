"""Prime-field measurement sketches and verified sparse recovery.

Every stored vertex w keeps two running sums over F_p: ``y(w)``, the
first 2r power-sum syndromes s_t = sum_j x_j * a_j^t of the indicator
vector x of its neighbors, where vertex j has node a_j = (j + 1) mod p (a
Vandermonde sketch), and ``z(w)``, an alpha-row random-matrix sketch that
verifies whatever the syndromes decode to.  The bank stores the sums over
the edges H drops and adds H's share when a row is read (`SketchBank`).
`add_columns` sums columns into rows for the bank's stream update and,
through `column_sums`, for H's share of a bank row, the helper search's
clique sums and any sparse vector.  `safe_recover` sums only its
candidates' alpha check columns, by `_check_terms`, since the builder
would also build 2r power columns per entry.

Recovery takes a block of syndrome rows at one sketch level, the way the
helper search measures every member it still needs at that level.
`decode_rows` is the unverified decode and `safe_recover` the verified
one.  Each row yields the unique vector with at most r nonzeros that
matches its 2r syndromes, as (support, values), or is refused:

1. Berlekamp–Massey gives the shortest linear recurrence, of length L,
   inversion-free and vectorized over the rows.
2. The support is the set of vertices whose node is a root of the
   recurrence's polynomial.  A degree-1 polynomial C0*a + C1 has the one
   root a = -C1/C0, the node of vertex (a - 1) mod p, kept only below n
   (node 0 is vertex p - 1, a vertex only when p = n).  One Horner pass
   over fixed-size blocks of nodes evaluates the polynomials of all
   longer rows.
3. Forney's formula gives the values, O(L^2) per row and batched over the
   rows with equal L; at L = 1 the value is s_0.  Its inverses are one
   vectorized power.
4. A row stands only if 1 <= L <= r, it has exactly L roots, every value
   is nonzero and the values reproduce all 2r syndromes.
5. The random check matrix, materialized by one PRF call for the supports
   of all candidates, must map each candidate onto its z.  A wrong
   candidate survives with probability p^-alpha, so recovery is safe to
   attempt on vectors that are not actually sparse.

All arithmetic is int64: every product of two residues is reduced mod p
before it is summed, which is exact for p up to MAX_PRIME.
"""

from __future__ import annotations

import math

import numpy as np

from streamcolor._kernels import prf_mod
from streamcolor.graph import Graph
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


MAX_PRIME = math.isqrt(2**63 - 1)  # largest p with p*p in int64


def check_prime(p: int, n: int) -> None:
    """Raise ValueError unless p is a prime that gives n vertices distinct
    nodes and whose products fit in int64."""
    if not is_prime(p):
        raise ValueError(f"p={p} is not prime")
    if p < n:
        raise ValueError(f"p={p} is below n={n}, so two vertices would share a node")
    if p > MAX_PRIME:
        raise ValueError(f"p={p} is above {MAX_PRIME}, the largest p whose products fit in int64")


def canonical_prime(n: int) -> int:
    """Smallest prime >= max(n, 101); the floor keeps verification strong
    even for tiny vertex counts."""
    return next_prime(max(n, 101))


# ---------------------------------------------------------------------------
# Sketch columns
# ---------------------------------------------------------------------------


def _powers(x: np.ndarray, count: int, p: int) -> np.ndarray:
    """x^t mod p for t < count, in a new last axis, by doubling."""
    P = np.empty(x.shape + (count,), dtype=np.int64)
    P[..., :1] = 1  # count may be 0
    step, xs = 1, x % p
    while step < count:
        m = min(step, count - step)
        P[..., step : step + m] = P[..., :m] * xs[..., None] % p
        xs = xs * xs % p
        step += m
    return P


def _check_terms(zseed: int, r: int, support: np.ndarray, values: np.ndarray,
                 alpha: int, p: int) -> np.ndarray:
    """Each entry's column of the alpha x n random check matrix for sketch
    level r times its value, mod p; columns are materialized from a
    counter-mode PRF instead of being stored."""
    rows = np.arange(alpha, dtype=np.int64)
    C = prf_mod(zseed, r, support[:, None], rows[None, :], p)
    return C * (np.asarray(values, dtype=np.int64)[:, None] % p) % p


_GATHER_ENTRIES = 1 << 17  # entries of one gathered block (1 MiB); bounds the temporaries
_MAX_COLUMNS = 16          # columns per block when there are few entries


def add_columns(W: np.ndarray, owner: np.ndarray, vs: np.ndarray, rates, alpha: int, p: int,
                zseed: int, values: np.ndarray | None = None) -> None:
    """Add the columns of vs[j], times values[j] (1 when None), to row
    owner[j] of the int64 array W, unreduced.

    A vertex v's columns are W's layout: the 2*rates[-1] node powers
    (v+1)^k mod p, then alpha check columns PRF(zseed, r, v, row) mod p
    for each rate r in turn.  Each distinct vertex's columns are built
    once, in blocks of as many columns as fit in `_GATHER_ENTRIES`
    gathered entries (at least one, at most `_MAX_COLUMNS`); a block is
    gathered per entry, summed per row with one reduceat and added to W.
    The entries are grouped by one key, the row times the number of
    distinct vertices plus the vertex's rank, sorted in place when there
    are no values, so the temporaries are a few entry-length index arrays,
    one gathered block and blocks over the distinct vertices and the rows.

    Each product is reduced mod p before it is summed, so a row of fewer
    than p entries stays below p^2, exact in int64 for p <= MAX_PRIME.
    """
    if vs.size == 0:
        return
    seen = np.zeros(int(vs.max()) + 1, dtype=bool)
    seen[vs] = True
    verts = np.flatnonzero(seen)
    key = np.multiply(owner, verts.size, dtype=np.int64)
    key += (np.cumsum(seen) - 1)[vs]
    if values is None:
        key.sort()  # any order within a row: the sums are exact
    else:
        order = np.argsort(key)
        key, values = key[order], np.asarray(values, dtype=np.int64)[order] % p
    rows = key // verts.size
    key %= verts.size  # each entry's vertex, as a position in verts
    starts = np.flatnonzero(np.concatenate(([True], rows[1:] != rows[:-1])))
    rows = rows[starts]
    width = 2 * rates[-1]
    rate_of = np.repeat(np.asarray(rates, dtype=np.int64), alpha)
    total = width + rate_of.size
    step = min(_MAX_COLUMNS, max(1, _GATHER_ENTRIES // key.size))
    node, acc = (verts + 1) % p, np.ones_like(verts)
    for c0 in range(0, total, step):
        block = np.empty((min(step, total - c0), verts.size), dtype=np.int64)
        for i, c in enumerate(range(c0, c0 + block.shape[0])):
            if c < width:
                block[i] = acc
                acc = acc * node
                acc -= acc // p * p  # acc % p; numpy's int64 // by a scalar is the faster op
            else:
                block[i] = prf_mod(zseed, rate_of[c - width], verts, (c - width) % alpha, p)
        G = np.take(block, key, axis=1)
        if values is not None:
            G *= values
            G %= p
        W[rows, c0 : c0 + block.shape[0]] += np.add.reduceat(G, starts, axis=1).T


def column_sums(p: int, zseed: int, alpha: int, r: int, owner: np.ndarray, vs: np.ndarray,
                k: int, values: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Level-r power and check columns of the vertices vs, times their
    values (1 when None), summed into k rows, vs[j] into row owner[j],
    unreduced: `add_columns` into a (k, 2r + alpha) block."""
    W = np.zeros((k, 2 * r + alpha), dtype=np.int64, order="F")
    add_columns(W, owner, vs, [r], alpha, p, zseed, values)
    return W[:, : 2 * r], W[:, 2 * r :]


# ---------------------------------------------------------------------------
# Streaming sketch bank
# ---------------------------------------------------------------------------


class SketchBank:
    """Per-rate sampled vertex sets with running y/z sketches.

    Rates are powers of two up to just past the max degree; each vertex
    joins level r independently with probability min(1, beta/(eps*r)).
    That is 1 at every level for n > delta >= 8 in both modes (least
    unclamped value 1.5625), so the bank stores every vertex at every level.

    One int64 state matrix holds every sketch, one row per vertex: the
    2*r_max power sums of the top rate, then alpha check columns for each
    rate.  Rate r's y(w) is the first 2r power sums of w's row, since the
    power sums of every rate are those of one neighborhood, and its z(w) is
    r's own check block, since the check matrix is keyed by r.  Rate r
    reads only the rows it samples.

    The bank may be fed only part of the edges and be given a graph ``h``
    that holds the rest (the pipeline feeds the edges the palette filter
    drops and hands over the conflict graph H).  Since the sketches are
    linear over F_p, the invariant is: stored row of v plus the columns
    summed over v's row of ``h`` equals v's row in a bank fed every edge.
    `raw` adds ``h``'s share when a row is read; a bank never given ``h``
    reads its stored rows alone.

    The sums are kept unreduced and reduced mod p when read.  Stored part
    and ``h``'s part together sum fewer than deg(v) < n <= p residues, so
    a row stays below p^2, which int64 holds for p <= MAX_PRIME; a bank
    whose prime is above it is refused.
    """

    def __init__(self, n: int, delta: int, params: ParamSet, seed: int):
        self.n = n
        self.delta = delta
        self.params = params
        self.seed = seed
        self.p = canonical_prime(n)
        check_prime(self.p, n)
        self.alpha = params.alpha
        self.rates = sketch_rates(delta)
        self.zseed = child_seed(seed, "phir")
        self._member = np.stack([
            rng_for(seed, "vr", extra=r).random(n) < params.vr_rate(r) for r in self.rates
        ])
        # column-major: a chunk adds each column at its endpoints
        self._W = np.zeros((n, 2 * self.rates[-1] + len(self.rates) * self.alpha),
                           dtype=np.int64, order="F")
        self.h: Graph | None = None  # the edges kept out of the stored rows
        self.edges_received = 0      # edges fed through update_chunk

    def sampled(self, r: int) -> np.ndarray:
        return np.flatnonzero(self._member[self.rates.index(r)])

    def update_chunk(self, us: np.ndarray, vs: np.ndarray) -> None:
        self.edges_received += us.size
        add_columns(self._W, np.concatenate([us, vs]), np.concatenate([vs, us]),
                    self.rates, self.alpha, self.p, self.zseed)

    def raw(self, v, r: int) -> tuple[np.ndarray, np.ndarray]:
        """y and z of vertex v, or their rows for an array of vertices.

        The stored row plus the columns summed over v's row of ``h`` is
        v's row over every edge; the sum is still fewer than deg(v) < p
        residues, below p^2, and is reduced mod p once."""
        i = self.rates.index(r)
        verts = np.atleast_1d(v)
        missed = verts[~self._member[i, verts]]
        if missed.size:
            raise KeyError(f"vertex {missed[0]} not sampled at rate {r}")
        c = 2 * self.rates[-1] + i * self.alpha  # rate r's check block
        y, z = self._W[v, : 2 * r], self._W[v, c : c + self.alpha]
        if self.h is not None:
            owner, nbrs = self.h.rows_of(verts)
            hy, hz = column_sums(self.p, self.zseed, self.alpha, r, owner, nbrs, verts.size)
            y, z = y + hy.reshape(y.shape), z + hz.reshape(z.shape)
        return y % self.p, z % self.p

    def stored_bits(self) -> int:
        logp = int(np.ceil(np.log2(self.p)))
        stored = self._member.sum(axis=1).tolist()
        return sum(s * (2 * r + self.alpha) * logp for s, r in zip(stored, self.rates))


# ---------------------------------------------------------------------------
# Recovery
# ---------------------------------------------------------------------------

Sparse = tuple[np.ndarray, np.ndarray]  # (sorted support, nonzero values)

_ROOT_BLOCK = 1 << 14  # nodes per Horner block of the root search
_EMPTY = np.zeros(0, dtype=np.int64)  # support and values of the zero vector
_EMPTY.flags.writeable = False


def _recurrences(S: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    """Berlekamp–Massey for every row of S: linear complexities L (k,) and
    connection polynomials C (k, T+1), each row a nonzero multiple of the
    monic one (C[:, 0] != 0, zero past column L).

    It runs the inversion-free form vectorized over the rows: C gets
    gamma*C - d*x^m*B instead of C - (d/gamma)*x^m*B.
    """
    k, T = S.shape
    C = np.zeros((k, T + 1), dtype=np.int64)
    C[:, 0] = 1
    # x^m * B lives in a window of buf that moves one column left per step,
    # so multiplying by x is free; columns left of the window stay zero.
    buf = np.zeros((k, 2 * T + 1), dtype=np.int64)
    buf[:, T + 1 : T + 2] = 1  # empty at T = 0
    gamma = np.ones(k, dtype=np.int64)
    L = np.zeros(k, dtype=np.int64)
    R = S[:, ::-1]
    for i in range(T):
        B = buf[:, T - i : 2 * T + 1 - i]
        d = (C[:, : i + 1] * R[:, T - 1 - i :] % p).sum(axis=1) % p
        swap = (d != 0) & (2 * L <= i)
        nxt = (gamma[:, None] * C - d[:, None] * B) % p
        np.copyto(B, C, where=swap[:, None])
        gamma = np.where(swap, d, gamma)
        L = np.where(swap, i + 1 - L, L)
        C = nxt
    return L, C


def _roots(C: np.ndarray, L: np.ndarray, n: int, p: int) -> tuple[np.ndarray, np.ndarray]:
    """(row, vertex) pairs, sorted, where the node of the vertex is a root
    of the row's polynomial sum_i C[i]*a^(L-i).

    A degree-1 row C[0]*a + C[1] has the one root a = -C[1]/C[0], the node
    of vertex (a - 1) mod p, which stands only below n (node 0 is vertex
    p - 1).  One Horner pass evaluates all longer rows over blocks of
    _ROOT_BLOCK nodes, so the work array is rows x block, never rows x n.
    """
    codes = []
    one = np.flatnonzero(L == 1)
    if one.size:
        a = -C[one, 1] % p * _inverse(C[one, 0], p) % p
        vert = (a - 1) % p
        codes.append(one[vert < n] * n + vert[vert < n])
    many = np.flatnonzero(L > 1)
    if many.size:
        C, L = C[many], L[many]
        top = int(L.max())
        # descending coefficients, left-padded with zeros to degree `top`
        col = np.arange(top + 1) - (top - L)[:, None]
        D = np.where(col >= 0, C[np.arange(many.size)[:, None], col], 0)
        for lo in range(0, n, _ROOT_BLOCK):
            # node j+1 unreduced: at j+1 = p, multiplying by p acts as by 0
            x = np.arange(lo + 1, min(n, lo + _ROOT_BLOCK) + 1, dtype=np.int64)
            a = np.repeat(D[:, :1], x.size, axis=1)
            for t in range(1, top + 1):
                a *= x
                a += D[:, t : t + 1]
                a -= a // p * p  # a % p; numpy's int64 // by a scalar is the faster op
            row, col = np.divmod(np.flatnonzero(a == 0), x.size)
            codes.append(many[row] * n + lo + col)
    return np.divmod(np.sort(np.concatenate(codes)), n)


def _inverse(a: np.ndarray, p: int) -> np.ndarray:
    """Elementwise a^(p-2) mod p, by square and multiply over the whole
    array: the inverse of a nonzero a, 0 for 0."""
    out = np.ones_like(a)
    b, e = a % p, p - 2
    while e:
        if e & 1:
            out = out * b % p
        b = b * b % p
        e >>= 1
    return out


def _forney(S: np.ndarray, C: np.ndarray, P: np.ndarray, p: int) -> np.ndarray:
    """Values at the L known roots of every row, by Forney's formula.

    With Omega = S(z)*C(z) mod z^L, the value at root a_e is
    rev(Omega)(a_e) / char'(a_e), where char(a) = sum_i C[i]*a^(L-i) and
    rev(Omega)(a) = a^(L-1)*Omega(1/a).  Both carry C's scale factor, and
    no node is inverted, so node 0 (vertex n-1 when p = n) needs no special
    case.  S is (g, 2r), C (g, L+1), P the roots' powers (g, L, >= L).
    """
    ell = C.shape[1] - 1
    i = np.arange(ell)
    lag = i[:, None] - i[None, :]
    omega = (C[:, None, :ell] * S[:, np.maximum(lag, 0)] % p * (lag >= 0)).sum(axis=2) % p
    # coefficients of a^0..a^(L-1) in rev(Omega) and in char'
    coef = np.stack([omega[:, ::-1], (i + 1) % p * C[:, ell - 1 :: -1] % p], axis=1)
    num, den = (coef[:, :, None, :] * P[:, None, :, :ell] % p).sum(axis=3).transpose(1, 0, 2) % p
    return num * _inverse(den, p) % p


def decode_rows(S: np.ndarray, r: int, p: int, n: int) -> list[Sparse | None]:
    """Unverified decode of every row of a (k, 2r) syndrome block: the
    unique vector with at most r nonzeros matching the row, as (support,
    values), or None when the checks refuse the row."""
    S = np.asarray(S, dtype=np.int64) % p
    if S.ndim != 2 or S.shape[1] != 2 * r:
        raise ValueError(f"measurement rows must have length {2 * r}")
    L, C = _recurrences(S, p)
    lengths = L.tolist()
    # L = 0 exactly for an all-zero row, the syndrome of the zero vector
    out: list[Sparse | None] = [(_EMPTY, _EMPTY) if ell == 0 else None for ell in lengths]
    live = [i for i, ell in enumerate(lengths) if 1 <= ell <= r]
    if not live:
        return out
    S, L, C = S[live], L[live], C[live]
    rows, verts = _roots(C, L, n, p)
    found = np.bincount(rows, minlength=len(live))
    split = found == L  # exactly L roots: the locator splits over the nodes
    if not split.any():
        return out
    first = np.cumsum(found) - found
    for ell in sorted(set(L[split].tolist())):
        sel = np.flatnonzero(split & (L == ell))
        supp = verts[first[sel, None] + np.arange(ell)]
        S_sel, P = S[sel], _powers(supp + 1, 2 * r, p)
        # one nonzero: s_0 is its value
        vals = S_sel[:, :1] if ell == 1 else _forney(S_sel, C[sel, : ell + 1], P, p)
        synd = (vals[:, :, None] * P % p).sum(axis=1) % p
        good = (vals != 0).all(axis=1) & (synd == S_sel).all(axis=1)
        for j in np.flatnonzero(good).tolist():
            out[live[sel[j]]] = (supp[j], vals[j])
    return out


def safe_recover(vec: np.ndarray, check: np.ndarray, p: int, n: int, zseed: int,
                 alpha: int) -> list[Sparse | None]:
    """Verified recovery of every row of a measurement block at one sketch
    level r: ``vec`` is the (k, 2r) syndrome block, ``check`` the (k, alpha)
    check block, so r is half vec's width.

    Row i gives (support, values) of the recovered vector, or None when it
    is refused (not sparse enough, or the check disagrees), never a wrong
    vector except with probability p^-alpha.  Every candidate must pass the
    random check; one PRF call materializes the check columns of all
    candidates' supports.
    """
    r = np.shape(vec)[-1] // 2
    out = decode_rows(vec, r, p, n)
    cand = [i for i, got in enumerate(out) if got is not None]
    if not cand:
        return out
    owner = np.repeat(np.arange(len(cand)), [out[i][0].size for i in cand])
    terms = _check_terms(zseed, r,
                         np.concatenate([out[i][0] for i in cand]),
                         np.concatenate([out[i][1] for i in cand]), alpha, p)
    got = np.zeros((len(cand), alpha), dtype=np.int64)
    np.add.at(got, owner, terms)
    want = np.asarray(check, dtype=np.int64)[cand]
    for j in np.flatnonzero((got % p != want % p).any(axis=1)).tolist():
        out[cand[j]] = None
    return out
