from collections import deque
from functools import lru_cache
from itertools import combinations

import numpy as np
import pytest

from streamcolor import coloring
from streamcolor.coloring import RunFailure, first_color, l_perfect_matching
from streamcolor.decomposition import (
    CRITICAL,
    AlmostClique,
    Decomposition,
    SampleCollector,
    compute_decomposition,
)
from streamcolor.generators import generate_instance
from streamcolor.palette import (
    ConflictGraph,
    PaletteSet,
    conflict_keep_chunk,
    pack_rows,
    unpack_rows,
)
from streamcolor.params import ParamSet
from streamcolor.pipeline import _prepass
from streamcolor.graph import Graph
from streamcolor.stream import ParseError, StreamSource


def oracle_from_edges(n, edges) -> Graph:
    return Graph(n, np.asarray(edges, dtype=np.int64).reshape(-1, 2))


def row(graph, v) -> np.ndarray:
    """Row v of the graph: v's neighbours, ascending."""
    return graph.indices[graph.indptr[v] : graph.indptr[v + 1]]


def has_edge(graph, u, v) -> bool:
    """Whether v is in row u of the graph."""
    return bool((row(graph, u) == v).any())


def neighbors(graph, v) -> set[int]:
    """Row v of the graph, as a set."""
    return set(row(graph, v).tolist())


def brute_non_edges(vertices, graph) -> list[tuple[int, int]]:
    """The pairs a < b of the vertices that the graph does not join,
    ascending, listed one `has_edge` call at a time."""
    verts = sorted(vertices)
    return [(a, b) for i, a in enumerate(verts) for b in verts[i + 1 :]
            if not has_edge(graph, a, b)]


def reference_edge_list(path) -> tuple[int, np.ndarray]:
    """The line-by-line edge-list reader that `StreamSource.from_file`
    replaced, kept as its oracle: (n, edges as (min, max) in file order)."""
    n = None
    edges: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if n is None:
                try:
                    n = int(line)
                except ValueError:
                    raise ParseError(f"expected vertex count, got {line!r}", lineno)
                if n < 1:
                    raise ParseError("vertex count must be >= 1", lineno)
                continue
            parts = line.split()
            if len(parts) != 2:
                raise ParseError(f"expected 'u v', got {line!r}", lineno)
            try:
                u, v = int(parts[0]), int(parts[1])
            except ValueError:
                raise ParseError(f"non-integer endpoint in {line!r}", lineno)
            if u == v:
                raise ParseError(f"self-loop {u}", lineno)
            if not (0 <= u < n and 0 <= v < n):
                raise ParseError(f"endpoint out of range in {line!r}", lineno)
            key = (min(u, v), max(u, v))
            if key in seen:
                raise ParseError(f"duplicate edge {key}", lineno)
            seen.add(key)
            edges.append(key)
    if n is None:
        raise ParseError("empty input: missing vertex-count header")
    return n, np.asarray(edges, dtype=np.int64).reshape(-1, 2)


def source_of(inst) -> StreamSource:
    return StreamSource(inst.n, inst.edges)


def shadow_of(src) -> Graph:
    """The shadow the pipeline's pre-pass builds (one pass over src)."""
    return _prepass(src, want_shadow=True)[2]


def collect_samples(stream, params, seed: int, delta: int):
    """Consume one full pass into the Bernoulli neighbor samples, as a
    Graph whose row v holds v's sampled neighbors."""
    coll = SampleCollector(stream.n, delta, params, seed)
    for block in stream.chunks():
        coll.update_chunk(
            np.ascontiguousarray(block[:, 0]), np.ascontiguousarray(block[:, 1])
        )
    return coll.finalize()


def build_conflict_graph(stream, palettes) -> Graph:
    """Filter one full pass into the conflict graph H."""
    h = ConflictGraph(stream.n)
    for block in stream.chunks():
        us, vs = block[:, 0], block[:, 1]
        h.add_chunk(us, vs, conflict_keep_chunk(us, vs, palettes))
    return h.build()


def planted_mistakes():
    """Two wrong decompositions with their oracles, as (decomposition,
    oracle, params, delta): a clique member moved to the sparse side, and
    two disjoint blocks merged into one clique."""
    delta = 16
    inst = generate_instance("clique-minus-edge", delta, count=1, seed=2)
    oracle = oracle_from_edges(inst.n, inst.edges)
    params = ParamSet.desk(inst.n, delta)
    dec = compute_decomposition(oracle, params, delta)
    # one endpoint of the missing edge; its neighborhood is a clique
    K = dec.cliques[0].vertices
    endpoint = next(
        v for v in K if any(not has_edge(oracle, v, u) for u in K if u != v)
    )
    moved = Decomposition(
        n=dec.n,
        v_sparse=[endpoint],
        cliques=[AlmostClique(vertices=[v for v in K if v != endpoint])],
    )
    inst2 = generate_instance("clique-minus-edge", delta, count=2, seed=2)
    oracle2 = oracle_from_edges(inst2.n, inst2.edges)
    merged = Decomposition(
        n=inst2.n,
        v_sparse=[],
        cliques=[AlmostClique(vertices=list(range(inst2.n)))],
    )
    return [(moved, oracle, params, delta), (merged, oracle2, params, delta)]


def measure_gap(v: int, C, oracle, delta: int) -> int:
    """Available colors minus remaining uncolored degree (reads true
    adjacency)."""
    nbrs = neighbors(oracle, v)
    used = {int(C.colors[u]) for u in nbrs if C.colors[u]}
    avail = delta - len(used)
    colored = sum(1 for u in nbrs if C.colors[u])
    return avail - (len(nbrs) - colored)


def syndrome_of(x: np.ndarray, r: int, p: int) -> np.ndarray:
    """Independent measurement: sum of x_j * (j+1)^t, written directly."""
    out = np.zeros(2 * r, dtype=np.int64)
    for j in np.flatnonzero(x):
        acc = 1
        base = (int(j) + 1) % p
        for t in range(2 * r):
            out[t] = (out[t] + int(x[j]) * acc) % p
            acc = acc * base % p
    return out


def dense(got, n: int) -> np.ndarray | None:
    """A recovered (support, values) pair as a length-n vector; None stays."""
    if got is None:
        return None
    x = np.zeros(n, dtype=np.int64)
    x[got[0]] = got[1]
    return x


def berlekamp_massey(s: np.ndarray, p: int) -> tuple[int, list[int]]:
    """Minimal linear recurrence of s over F_p, on Python ints: the oracle
    of `field._recurrences`.

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


def random_sparse_vector(rng, n: int, k: int, p: int) -> np.ndarray:
    x = np.zeros(n, dtype=np.int64)
    if k:
        supp = rng.choice(n, size=k, replace=False)
        x[supp] = rng.integers(1, p, size=k)
    return x


def palette_union(pal, v: int) -> set[int]:
    """Every color in any of v's sampled lists, read from the list rows."""
    out = {int(pal.l1[v])}
    l4 = unpack_rows(pal.l4[v], pal.delta)
    for row in (pal.l2[v], pal.l3[v], pal.l4_star[v], pal.l5[v], *l4, *pal.l6[v]):
        out |= set((np.flatnonzero(row) + 1).tolist())
    return out


def oracle_colorful_matching(C, list_of, non_edges) -> list[tuple[int, int, int]]:
    """The trial-and-undo shared-color matching that
    `coloring.colorful_matchings` replaced, kept as its oracle.

    It writes each candidate pair into C as it goes: colors ascending,
    the first alive pair whose endpoints are uncolored and both hold the
    color in `list_of`, unless a stored neighbor of a holds it, or of b
    (a itself, when the "non-edge" is a stored edge, which is rolled back).
    Returns the matched (a, b, color) triples; C keeps them.
    """

    def try_assign(v, c):
        if (C.colors[row(C.stored, v)] == c).any():
            return False
        C.colors[v] = c
        C.provenance[v] = 4
        return True

    alive = sorted({tuple(sorted(f)) for f in non_edges})
    matched = []
    for c in range(1, C.delta + 1):
        for a, b in alive:
            if C.colors[a] or C.colors[b]:
                continue
            if not (list_of(a)[c - 1] and list_of(b)[c - 1]):
                continue
            if not try_assign(a, c):
                continue
            if not try_assign(b, c):
                C.uncolor(a)
                continue
            matched.append((a, b, c))
            alive = [f for f in alive if a not in f and b not in f]
            break
    return matched


def oracle_phase4_matching(C, l4, non_edges):
    """Phase 4's old best-of-beta selection over the packed (n, beta,
    words) pair-lists, read as bool rows: each trial is written into C and
    undone, then the first largest is run again and left in C.  Returns
    every trial's triples and the chosen index (None when every trial is
    empty)."""
    l4 = unpack_rows(l4, C.delta)
    trials, best_i, best_size = [], None, 0
    for i in range(l4.shape[1]):
        matched = oracle_colorful_matching(C, lambda v, i=i: l4[v][i], non_edges)
        for a, b, _ in matched:
            C.uncolor(a)
            C.uncolor(b)
        trials.append(matched)
        if len(matched) > best_size:
            best_i, best_size = i, len(matched)
    if best_i is not None:
        oracle_colorful_matching(C, lambda v: l4[v][best_i], non_edges)
    return trials, best_i


def oracle_color_clique_by_matching(K, C, lists, phase, exclude=()) -> bool:
    """The per-row palette-graph build that
    `coloring.color_cliques_by_matching` replaced, kept as its oracle: one
    `flatnonzero` per uncolored vertex of K (bar `exclude`) over its free,
    unblocked listed colors, renumbered to right nodes through a cumsum,
    then the same L-perfect matching and one `assign`."""
    K = np.sort(np.asarray(K, dtype=np.int64))
    left = K[(C.colors[K] == 0) & ~np.isin(K, exclude)]
    if not left.size:
        return True
    free = np.ones(C.delta + 1, dtype=bool)
    free[C.colors[K]] = False
    free = free[1:]
    right = np.flatnonzero(free)               # right node -> color - 1
    index = np.cumsum(free) - 1                # color - 1 -> right node
    avail = lists[left] & free & ~C.blocked_rows(left)
    adj = [index[np.flatnonzero(row)].tolist() for row in avail]
    match = l_perfect_matching(adj, right.size)
    if match is None:
        return False
    C.assign(left, right[match] + 1, phase)
    return True


def oracle_hopcroft_karp(adj: list[list[int]], n_right: int) -> list[int]:
    """Hopcroft-Karp with its first phase run as BFS and DFS like every
    other, kept as the oracle of `coloring.hopcroft_karp`: for each left
    node its right match, or -1."""
    n_left = len(adj)
    match_l = [-1] * n_left
    match_r = [-1] * n_right
    INF = n_left + n_right + 1
    dist = [0] * n_left

    def bfs() -> bool:
        dq = deque()
        for u in range(n_left):
            if match_l[u] == -1:
                dist[u] = 0
                dq.append(u)
            else:
                dist[u] = INF
        found = False
        while dq:
            u = dq.popleft()
            for c in adj[u]:
                w = match_r[c]
                if w == -1:
                    found = True
                elif dist[w] == INF:
                    dist[w] = dist[u] + 1
                    dq.append(w)
        return found

    def dfs(u: int) -> bool:
        for c in adj[u]:
            w = match_r[c]
            if w == -1 or (dist[w] == dist[u] + 1 and dfs(w)):
                match_l[u] = c
                match_r[c] = u
                return True
        dist[u] = INF
        return False

    while bfs():
        for u in range(n_left):
            if match_l[u] == -1:
                dfs(u)
    return match_l


def oracle_run_phases(conflict, palettes, dec, find_helpers, params, seed):
    """`coloring.run_phases` with phases 2 and 4 one clique at a time, in
    index order, as they ran before waves: each clique through the per-row
    palette matching and the trial-and-undo shared-color matching above.
    The other phases are the library's.  Returns (colors, provenance,
    colored_by)."""
    C = coloring.PartialColoring(dec.n, palettes.delta, conflict)
    colored_by = {}
    coloring.one_shot(C, palettes, params, seed)
    for i, k in enumerate(dec.cliques):
        if coloring.responsible_phase(k) == 2:
            if not oracle_color_clique_by_matching(k.vertices, C, palettes.l2, 2):
                raise RunFailure("phase2", f"matching failed on clique {i}")
            colored_by[i] = 2
    coloring.greedy_sparse(C, dec.v_sparse, palettes)
    keep = list(dec.v_sparse)
    for i in colored_by:
        keep += dec.cliques[i].vertices
    coloring.strip_residue(C, keep)
    deferred = []
    for i, k in enumerate(dec.cliques):
        if i in colored_by:
            continue
        trials, best_i = oracle_phase4_matching(C, palettes.l4, k.non_edge_pairs.tolist())
        if oracle_color_clique_by_matching(k.vertices, C, palettes.l4_star, 4):
            colored_by[i] = 4
            continue
        for a, b, _ in trials[best_i] if best_i is not None else []:
            C.uncolor([a, b])
        deferred.append(i)
    critical = [i for i in deferred if dec.cliques[i].size_class == CRITICAL]
    friendly = [i for i in deferred if i not in critical]
    critical_helpers, friendly_helpers, recovery = find_helpers(critical, friendly)
    C.store(recovery)
    i_u = {}
    for i in deferred:
        K = dec.cliques[i].vertices
        if i in critical_helpers:
            coloring.phase5_critical(K, critical_helpers[i], C, palettes)
            colored_by[i] = 5
        else:
            coloring.phase6_friendly(K, friendly_helpers[i], C, palettes, i_u, params)
            colored_by[i] = 6
    return C.colors, C.provenance, colored_by


def decline_phase4(monkeypatch) -> None:
    """Make phase 4 decline every clique and leave the coloring as it is,
    so each clique it attempts goes on to phase 5 or 6."""
    monkeypatch.setattr(
        coloring, "phase4_wave", lambda Ks, *args: np.zeros(len(Ks), dtype=bool))


def oracle_greedy_sparse(C, v_sparse, palettes) -> None:
    """The one-vertex-at-a-time phase 3 that `coloring.greedy_sparse`
    replaced, kept as its oracle: the sparse vertices in id order, each
    given the smallest color of its L3 row that no stored neighbor holds,
    with one `blocked` row and one `assign` per vertex."""
    for v in sorted(v_sparse):
        if C.colors[v]:
            continue
        c = first_color(palettes.l3[v] & ~C.blocked(v))
        if c is None:
            raise RunFailure("phase3", f"no free sampled color at sparse vertex {v}")
        C.assign(v, c, 3)


def uniform_palettes(n, delta, lists, params=None):
    """Palettes whose every list per vertex equals lists[v], each family
    its own writable array and none flagged full (tests only)."""
    beta = (params or ParamSet.desk(n, delta)).beta
    rows = np.zeros((n, delta), dtype=bool)
    for v, colors in enumerate(lists):
        rows[v, [c - 1 for c in colors]] = True
    return PaletteSet(
        n=n, delta=delta, beta=beta,
        l1=np.array([min(colors) for colors in lists], dtype=np.int64),
        l2=rows.copy(), l3=rows.copy(), l4_star=rows.copy(),
        l4=np.repeat(pack_rows(rows)[:, None], beta, axis=1),
        l5=rows.copy(), l6=np.repeat(rows[:, None], 2 * beta, axis=1),
    )


def dropping_palettes(n, delta, params, seed):
    """Uniform palettes of three random colors per vertex, drawn from seed,
    with `sample_palettes`'s signature: the filter keeps an edge only when
    its endpoints share a color, so H drops many edges, as it does only
    far above desk sizes (tests only)."""
    rng = np.random.default_rng(seed)
    lists = [rng.choice(delta, size=3, replace=False) + 1 for _ in range(n)]
    return uniform_palettes(n, delta, lists, params)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


# The brute-force decoder: an independent oracle for small sparsity bounds.


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


@lru_cache(maxsize=32)
def _support_systems(n: int, e: int, p: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every support of size e <= 3 in combinations order, with its node
    powers x^t for t < 6, as (6, e, rows), and the inverse of its e x e
    Vandermonde system, as (e, e, rows): a_i = sum_t inverse[t, i] s_t
    solves sum_i a_i x_i^t = s_t for t < e.

    Closed form: with L_i(z) = prod_{k != i} (z - x_k) = sum_t c_it z^t,
    sum_t c_it s_t = a_i L_i(x_i); all the L_i(x_i) are inverted in one
    batched power (a zero one, at nodes equal mod p, inverts to 0)."""
    supp = _supports(n, e)
    cols = (supp.T + 1) % p
    powers = [np.ones_like(cols)]
    for _ in range(5):
        powers.append(powers[-1] * cols % p)
    coef = np.zeros((e, e, supp.shape[0]), dtype=np.int64)
    den = np.ones_like(cols)
    for i in range(e):
        c = [np.ones_like(cols[i])]                 # L_i, lowest degree first
        for k in range(e):
            if k != i:
                c = [(prev - cols[k] * cur) % p for prev, cur in zip([0] + c, c + [0])]
                den[i] = den[i] * ((cols[i] - cols[k]) % p) % p
        coef[:, i] = c
    return supp, np.stack(powers), coef * _modpow_vec(den, p - 2, p) % p


def brute_force_decode(meas: np.ndarray, r: int, p: int, n: int) -> np.ndarray | None:
    """Enumerate all supports of size <= r (r <= 3 only) and return the
    first exact solution in support order, or None.  Cross-check oracle for
    `field.decode_rows`; it shares no code with the Berlekamp-Massey path."""
    if r > 3:
        raise ValueError("brute-force decoder supports r <= 3")
    s = np.asarray(meas, dtype=np.int64) % p
    if not s.any():
        return np.zeros(n, dtype=np.int64)
    for e in range(1, r + 1):
        supp, powers, inverse = _support_systems(n, e, p)
        a = sum(inverse[t] * s[t] for t in range(e)) % p
        # the first e syndromes hold by construction: check the rest where
        # no value is zero, dropping a row at its first mismatch
        ok = (a != 0).all(axis=0) & ((a * powers[e]).sum(axis=0) % p == s[e])
        rows = np.flatnonzero(ok)
        for t in range(e + 1, 2 * r):
            rows = rows[(a[:, rows] * powers[t][:, rows]).sum(axis=0) % p == s[t]]
        if rows.size:
            x = np.zeros(n, dtype=np.int64)
            x[supp[rows[0]]] = a[:, rows[0]]
            return x
    return None
