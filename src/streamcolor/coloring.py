"""The six-phase coloring engine and the offline fallback.

Post-processing never touches the input graph again: every conflict
check runs against the stored conflict graph H and recovery graph H+.
That is sound because a vertex colored from its own sampled lists can
only collide across an H edge, and a vertex colored outside its lists
always has its complete neighborhood in H+.  Phases 1-4 color from the
lists alone, so H guards them; H+ is recovered only for the cliques
phase 4 leaves, and joins the stored edges before phase 5.

Phase order matters: one-shot coloring, then the loosely-connected
small almost-cliques (while the outside coloring is still lightly
random), then the sparse vertices, then a residue strip, then the
non-edge-rich almost-cliques, then the out-of-palette moves for
critical and for friendly small almost-cliques (the latter recolors one
outside witness).

A set of colors has one form throughout: a bool row over the palette
whose column c-1 is set when color c is in it.  The sampled lists, the
colors a vertex's stored neighbors hold (`PartialColoring.blocked`) and
the colors still free inside a clique are all such rows, and a phase
picks a color as the first set column of their combination.  The one
stored exception is the L4 pair-lists, held packed as uint64 words
(`palette`); phase 4 unpacks the rows it reads.  Phase 3 goes in vertex
batches: it packs each free row into a Python int and takes the lowest
bit left after the picks of the vertex's neighbors earlier in the batch,
which one gather from a position table over the phase's vertices finds.

Phases 2 and 4 go by waves.  A clique reads only the colors of its own
vertices and of their stored neighbors, and writes only its own, so a run
of consecutive cliques (in index order) with no stored edge between any
two of them colors as it would one clique at a time.  `waves` cuts the
cliques into maximal such runs with one `rows_of` and a label array, and
each wave takes a fixed number of numpy calls: one `blocked_rows`, one
free-color mask and one `nonzero` build every palette graph, and one
(pairs, beta, delta) tensor marks the colors both ends of every listed
non-edge can take in each pair-list.  Plain loops then run one
Hopcroft-Karp per clique and walk the tensor's nonzeros clique by clique,
and one `assign` colors the whole wave.

Every color write goes through `PartialColoring.assign`, which takes a
whole batch and checks it with one gather of the stored rows.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from streamcolor.decomposition import (
    CRITICAL,
    FRIENDLY,
    LARGE,
    LONELY,
    SMALL,
    Decomposition,
)
from streamcolor.graph import Graph, sorted_unique
from streamcolor.palette import PaletteSet, pack_rows, unpack_rows
from streamcolor.params import ParamSet, rng_for


class ColoringError(RuntimeError):
    """Invariant breach: indicates a bug upstream, not bad luck."""


class RunFailure(Exception):
    """A phase gave up; the run can be retried with a fresh seed."""

    def __init__(self, phase: str, detail: str):
        self.phase = phase
        self.detail = detail
        super().__init__(f"{phase}: {detail}")


UNCOLORED = 0
GREEDY_ENTRIES = 1 << 14  # stored-row entries per phase-3 batch; bounds the temporaries


class PartialColoring:
    """Vertex -> color in 1..delta (0 = uncolored), proper on the stored
    edges at all times, with per-phase provenance."""

    def __init__(self, n: int, delta: int, conflict: Graph):
        self.n = n
        self.delta = delta
        self.stored = conflict  # every stored edge: H, then H + H+
        self.colors = np.zeros(n, dtype=np.int64)
        self.provenance = np.zeros(n, dtype=np.int8)
        self.recolored: list[int] = []

    def store(self, recovery: Graph) -> None:
        """Add H+ (the recovered neighborhood stars) to the stored edges."""
        if recovery.m:
            self.stored = Graph(self.n, np.concatenate([self.stored.edges(), recovery.edges()]))

    def blocked(self, v: int) -> np.ndarray:
        """(delta,) bool: column c-1 is set when a stored neighbor of v
        holds color c."""
        return self.blocked_rows(np.array([v], dtype=np.int64))[0]

    def blocked_rows(self, verts: np.ndarray) -> np.ndarray:
        """(len(verts), delta) bool: `blocked` of several vertices."""
        owner, nbrs = self.stored.rows_of(verts)
        rows = np.zeros((verts.size, self.delta + 1), dtype=bool)
        rows[owner, self.colors[nbrs]] = True
        return rows[:, 1:]

    def assign(self, v, c, phase: int) -> None:
        """Color the vertices v with the colors c (arrays of one length,
        or scalars).

        One `rows_of` checks the whole batch: each color is in 1..delta,
        each vertex is uncolored, and no stored neighbor holds the same
        color, inside the batch or outside it.  On a fault the state is
        left as it was and the first fault found is raised."""
        v, c = np.broadcast_arrays(np.asarray(v, dtype=np.int64).reshape(-1),
                                   np.asarray(c, dtype=np.int64))
        out = np.flatnonzero((c < 1) | (c > self.delta))
        if out.size:
            raise ColoringError(f"color {c[out[0]]} out of range 1..{self.delta}")
        held = np.flatnonzero(self.colors[v])
        if held.size:
            raise ColoringError(f"vertex {v[held[0]]} already colored")
        self.colors[v] = c
        owner, nbrs = self.stored.rows_of(v)
        clash = np.flatnonzero(self.colors[nbrs] == c[owner])
        if clash.size:
            self.colors[v] = UNCOLORED
            i = owner[clash[0]]
            raise ColoringError(f"conflict assigning {c[i]} to {v[i]} in phase {phase}")
        self.provenance[v] = phase

    def uncolor(self, v) -> None:
        self.colors[v] = UNCOLORED
        self.provenance[v] = 0

    def recolor(self, v: int, c: int, phase: int) -> None:
        """Assign possibly overwriting v's color (phase-6 witness move),
        through the checks of `assign`; on a fault v is left uncolored."""
        was = self.colors[v]
        self.uncolor(v)
        self.assign(v, c, phase)
        if was:
            self.recolored.append(v)


def first_color(row: np.ndarray) -> int | None:
    """The smallest color of a bool row, or None when it is empty."""
    hits = np.flatnonzero(row)
    return int(hits[0]) + 1 if hits.size else None


# ---------------------------------------------------------------------------
# Bipartite matching on palette graphs
# ---------------------------------------------------------------------------


def hopcroft_karp(adj: list[list[int]], n_right: int) -> list[int]:
    """Maximum matching; returns for each left node its right match or -1.

    The first phase finds every left node free, so its BFS puts each at
    distance 0 and its DFS round lets each take its first free right node
    in turn: that round runs as a plain loop.  A phase after it runs only
    while some left node is unmatched, since with none its BFS finds no
    path."""
    n_left = len(adj)
    match_l = [-1] * n_left
    match_r = [-1] * n_right
    for u, nbrs in enumerate(adj):
        for c in nbrs:
            if match_r[c] == -1:
                match_l[u] = c
                match_r[c] = u
                break
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

    while -1 in match_l and bfs():
        for u in range(n_left):
            if match_l[u] == -1:
                dfs(u)
    return match_l


def l_perfect_matching(adj: list[list[int]], n_right: int) -> list[int] | None:
    """L-perfect matching or None when the maximum matching misses some
    left node (Hall's condition fails)."""
    match_l = hopcroft_karp(adj, n_right)
    return None if -1 in match_l else match_l


def waves(stored: Graph, Ks) -> list[slice]:
    """Cut the cliques Ks, in order, into maximal runs of consecutive ones
    with no stored edge between any two of them, as slices of Ks.

    One `rows_of` over the clique vertices, read through a label array,
    gives each clique the last earlier clique it touches; a wave ends
    before the first clique that touches one inside it."""
    if not len(Ks):
        return []
    verts = np.concatenate([np.asarray(K, dtype=np.int64) for K in Ks])
    of = np.repeat(np.arange(len(Ks)), [len(K) for K in Ks])
    label = np.full(stored.n, -1, dtype=np.int64)
    label[verts] = of
    owner, nbrs = stored.rows_of(verts)
    mine, theirs = of[owner], label[nbrs]
    back = np.full(len(Ks), -1, dtype=np.int64)
    earlier = (theirs >= 0) & (theirs < mine)
    np.maximum.at(back, mine[earlier], theirs[earlier])
    starts = [0]
    for j, touched in enumerate(back.tolist()):
        if touched >= starts[-1]:
            starts.append(j)
    return [slice(lo, hi) for lo, hi in zip(starts, starts[1:] + [len(Ks)])]


def color_cliques_by_matching(
    Ks, C: PartialColoring, lists: np.ndarray, phase: int, exclude=()
) -> np.ndarray:
    """Extend C to every uncolored vertex of each clique of Ks via an
    L-perfect matching of its palette graph.  Returns, per clique, whether
    one exists; a clique with none is left untouched.

    The palette graph of K joins each uncolored vertex of K (bar
    `exclude`), in ascending order, to the colors of its row of the (n,
    delta) `lists` that no vertex of K holds and no stored neighbor of it
    holds.  The cliques share no stored edge (they are one wave), so one
    `blocked_rows`, one (cliques, delta + 1) free mask and one `nonzero`
    build every palette graph.  Each clique then gets one Hopcroft-Karp
    over its own left nodes, with color - 1 as the right node, and one
    `assign` colors every clique that matched.
    """
    ok = np.ones(len(Ks), dtype=bool)
    label = np.repeat(np.arange(len(Ks)), [len(K) for K in Ks])
    # each clique's vertices ascending, the cliques in order
    verts = np.concatenate([np.asarray(K, dtype=np.int64) for K in Ks])
    verts = np.sort(label * C.n + verts) % C.n
    free = np.ones((len(Ks), C.delta + 1), dtype=bool)
    free[label, C.colors[verts]] = False
    todo = C.colors[verts] == UNCOLORED
    if len(exclude):
        todo &= ~np.isin(verts, exclude)
    left, owner = verts[todo], label[todo]
    rows, nodes = np.nonzero(lists[left] & ~C.blocked_rows(left) & free[owner, 1:])
    nodes, ends = nodes.tolist(), np.searchsorted(rows, np.arange(left.size + 1)).tolist()
    adj = [nodes[lo:hi] for lo, hi in zip(ends[:-1], ends[1:])]
    bounds = np.searchsorted(owner, np.arange(len(Ks) + 1)).tolist()
    match = np.zeros(left.size, dtype=np.int64)
    for j, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:])):
        found = l_perfect_matching(adj[lo:hi], C.delta)
        if found is None:
            ok[j] = False
        else:
            match[lo:hi] = found
    take = ok[owner]
    C.assign(left[take], match[take] + 1, phase)
    return ok


# ---------------------------------------------------------------------------
# Phase 1: one-shot coloring
# ---------------------------------------------------------------------------


def one_shot(C: PartialColoring, palettes: PaletteSet, params: ParamSet, seed: int) -> None:
    """Activate each vertex with probability 1/alpha and keep its single
    sampled color iff no stored neighbor tentatively picked the same one
    (both sides of a collision drop out)."""
    rng = rng_for(seed, "oneshot")
    active = rng.random(C.n) < params.activation_rate()
    x = np.where(active, palettes.l1, 0)
    e = C.stored.edges()
    clash = e[(x[e[:, 0]] == x[e[:, 1]]) & (x[e[:, 0]] != 0)]
    keep = x != 0
    keep[clash.ravel()] = False
    C.assign(np.flatnonzero(keep), x[keep], 1)


# ---------------------------------------------------------------------------
# Phase 3 greedy + residue strip
# ---------------------------------------------------------------------------


def greedy_sparse(C: PartialColoring, v_sparse, palettes: PaletteSet) -> None:
    """Color the sparse vertices in id order, each with the smallest color
    of its own large list that its stored neighbors do not hold.

    The uncolored ones go in ascending batches of about GREEDY_ENTRIES
    stored-row entries, each vertex counting its row and itself.  One
    `rows_of` per batch gives every vertex the colors its neighbors held
    before the batch, and, read through one n-entry table of positions
    among the uncolored sparse vertices, its neighbors earlier in the
    batch.  Its free
    colors, bit c-1 for color c, are packed into uint64 words and read
    into a Python int, one `tolist` per word column for the batch; a plain
    loop then removes the picks of those earlier neighbors and takes the
    lowest bit left.  A vertex depends only on smaller ids, so the batches
    color, and fail, exactly as one vertex at a time would.
    """
    todo = sorted_unique(np.fromiter(v_sparse, dtype=np.int64))
    todo = todo[C.colors[todo] == UNCOLORED]
    if not todo.size:
        return
    at = np.full(C.n, -1, dtype=np.int64)  # a vertex's position in todo
    at[todo] = np.arange(todo.size)
    ends = np.cumsum(C.stored.degrees[todo] + 1)
    cuts = np.searchsorted(ends, np.arange(GREEDY_ENTRIES, ends[-1], GREEDY_ENTRIES), "right")
    bounds = sorted_unique(np.concatenate([[0], cuts, [todo.size]])).tolist()
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        verts = todo[lo:hi]
        colors = _greedy_batch(C, verts, at, lo, palettes.l3)
        C.assign(verts[: len(colors)], colors, 3)
        if len(colors) < verts.size:
            raise RunFailure(
                "phase3", f"no free sampled color at sparse vertex {verts[len(colors)]}")


def _greedy_batch(C: PartialColoring, verts: np.ndarray, at: np.ndarray, lo: int,
                  l3: np.ndarray) -> list[int]:
    """The greedy colors of the ascending uncolored vertices verts, up to
    the first vertex that has none left; C is left untouched.  verts are
    the phase's vertices from position lo on, and at[v] is the position of
    v among them (-1 for a vertex not in the phase)."""
    owner, nbrs = C.stored.rows_of(verts)
    # each vertex's neighbors earlier in the batch, as batch positions
    pos = at[nbrs] - lo
    prior = (pos >= 0) & (pos < owner)
    first = np.zeros(verts.size + 1, dtype=np.int64)
    np.cumsum(np.bincount(owner[prior], minlength=verts.size), out=first[1:])
    first = first.tolist()
    prior = pos[prior].tolist()
    held = np.zeros((verts.size, C.delta + 1), dtype=bool)
    held[owner, C.colors[nbrs]] = True
    words = pack_rows(l3[verts] & ~held[:, 1:])
    free = words[:, 0].tolist()
    for k in range(1, words.shape[1]):
        free = [f | w << 64 * k for f, w in zip(free, words[:, k].tolist())]
    picks: list[int] = []
    for i, f in enumerate(free):
        for j in prior[first[i] : first[i + 1]]:
            f &= ~picks[j]
        if not f:
            break
        picks.append(f & -f)
    return [p.bit_length() for p in picks]


def strip_residue(C: PartialColoring, keep) -> None:
    """Drop every color outside the kept vertices (one-shot leftovers
    inside almost-cliques that later phases will recolor from scratch)."""
    drop = np.ones(C.n, dtype=bool)
    drop[np.fromiter(keep, dtype=np.int64)] = False
    C.colors[drop] = UNCOLORED
    C.provenance[drop] = 0


# ---------------------------------------------------------------------------
# Phase 4: shared-color non-edge matching + palette matching
# ---------------------------------------------------------------------------


def colorful_matchings(
    C: PartialColoring, lists: np.ndarray, non_edges
) -> list[list[list[tuple[int, int, int]]]]:
    """For each clique's listed non-edges (one pair array per clique, the
    cliques sharing no stored edge) and every list index i of the packed
    (n, beta, words) pair-lists (`PaletteSet.l4`), the greedy shared-color
    matching of the clique's non-edges under list i, as (a, b, color)
    triples; C is left untouched.

    Each listing is read unchecked, as `annotate_cliques` leaves it: pairs
    a < b, ascending, each once, none a stored edge (phase 4 runs before H+
    is stored); a listed stored edge would reach `PartialColoring.assign`,
    which raises `ColoringError` and leaves C as it was.  Colors go in
    ascending order.  Each goes to the first listed pair whose endpoints
    are uncolored, both hold the color in list i, and have no stored
    neighbor holding it; the endpoints of a matched pair leave every later
    pair.

    One (pairs, beta, delta) hit tensor covers the pairs of every clique.
    Its nonzeros, in (list, color, pair) order and stably sorted by
    clique, are walked by a plain loop clique by clique, list by list, by
    color and then by pair; only the rows of the listed pairs' endpoints
    are unpacked.
    """
    beta = lists.shape[1]
    flat: list[list[tuple[int, int, int]]] = [[] for _ in range(len(non_edges) * beta)]
    trials = [flat[j * beta : (j + 1) * beta] for j in range(len(non_edges))]
    f = [np.asarray(F, dtype=np.int64).reshape(-1, 2) for F in non_edges]
    owner = np.repeat(np.arange(len(f)), [len(F) for F in f])
    a, b = np.concatenate(f).T
    alive = (C.colors[a] == UNCOLORED) & (C.colors[b] == UNCOLORED)
    a, b, owner = a[alive], b[alive], owner[alive]
    if not a.size:
        return trials
    verts = sorted_unique(np.concatenate([a, b]))
    at = np.zeros(C.n, dtype=np.int64)  # a listed vertex's position in verts
    at[verts] = np.arange(verts.size)
    la, lb = at[a], at[b]
    # usable[x, i, c - 1]: color c is in list i of verts[x], unblocked there
    usable = unpack_rows(lists[verts], C.delta) & ~C.blocked_rows(verts)[:, None, :]
    hit = usable[la] & usable[lb]  # hit[p, i, c - 1]: both ends of pair p can take c
    lst, color, pair = np.nonzero(hit.transpose(1, 2, 0))
    walk = np.argsort(owner[pair], kind="stable")
    lst, color, pair = lst[walk], color[walk] + 1, pair[walk]
    ends = np.searchsorted(owner[pair] * beta + lst, np.arange(len(flat) + 1)).tolist()
    color, u, v = color.tolist(), a[pair].tolist(), b[pair].tolist()
    for trial, lo, hi in zip(flat, ends[:-1], ends[1:]):
        matched, last = set(), 0
        for k in range(lo, hi):
            if color[k] != last and u[k] not in matched and v[k] not in matched:
                matched.update((u[k], v[k]))
                trial.append((u[k], v[k], color[k]))
                last = color[k]
    return trials


def phase4_wave(Ks, C: PartialColoring, palettes: PaletteSet, non_edges) -> np.ndarray:
    """Phase 4 on a wave of cliques with their listed non-edges: assign
    each clique's largest of its beta shared-color matchings (the first
    among equals), then palette-match the rest of every clique from L4*.
    Returns, per clique, whether it is colored; the matched pairs of a
    clique that fails are uncolored again, and the clique is deferred."""
    best = [max(trials, key=len) for trials in colorful_matchings(C, palettes.l4, non_edges)]
    owner = np.repeat(np.arange(len(Ks)), [len(t) for t in best])
    triples = np.array([x for t in best for x in t], dtype=np.int64).reshape(-1, 3)
    C.assign(triples[:, :2].ravel(), np.repeat(triples[:, 2], 2), 4)
    ok = color_cliques_by_matching(Ks, C, palettes.l4_star, phase=4)
    C.uncolor(triples[~ok[owner], :2].ravel())
    return ok


# ---------------------------------------------------------------------------
# Phase 5: critical almost-cliques (out-of-palette pair coloring)
# ---------------------------------------------------------------------------


def phase5_critical(
    K, helper, C: PartialColoring, palettes: PaletteSet
) -> None:
    """Color the helper's non-adjacent pair with one shared color from the
    partner's list (legal for the recovered vertex because its whole
    neighborhood is stored), then finish K by palette matching."""
    u, v = helper.u, helper.v
    shared = first_color(palettes.l5[u] & ~C.blocked(u) & ~C.blocked(v))
    if shared is None:
        raise RunFailure("phase5", f"no free pair color for non-edge ({u},{v})")
    C.assign([u, v], shared, 5)
    if not color_cliques_by_matching([K], C, palettes.l5, phase=5)[0]:
        raise RunFailure("phase5", f"palette matching failed on clique of {K[0]}")


# ---------------------------------------------------------------------------
# Phase 6: friendly small almost-cliques (recoloring move)
# ---------------------------------------------------------------------------


def phase6_friendly(
    K, helper, C: PartialColoring, palettes: PaletteSet, i_u: dict[int, int],
    params: ParamSet,
) -> None:
    """Recolor the outside witness u and the non-adjacent clique vertex w
    to a fresh shared color, palette-match the rest of K, and color the
    common neighbor v last (two of its neighbors now share a color, so
    something is always free for it)."""
    u, v, w = helper.u, helper.v, helper.w
    count = i_u.get(u, 0)
    if count >= 2 * params.beta:
        raise RunFailure("phase6", f"recolor lists exhausted at witness {u}")
    shared = first_color(palettes.l6[u, count] & ~C.blocked(u) & ~C.blocked(w))
    if shared is None:
        raise RunFailure("phase6", f"no recolor color for witness {u}")
    C.recolor(u, shared, 6)
    i_u[u] = count + 1
    C.assign(w, shared, 6)
    last = 2 * params.beta - 1
    if not color_cliques_by_matching([K], C, palettes.l6[:, last], phase=6, exclude=(v,))[0]:
        raise RunFailure("phase6", f"palette matching failed on clique of {K[0]}")
    final = first_color(~C.blocked(v))
    if final is None:
        raise ColoringError(f"no color left for held-back vertex {v}")
    C.assign(v, final, 6)


# ---------------------------------------------------------------------------
# Phase driver
# ---------------------------------------------------------------------------


def responsible_phase(k) -> int:
    """Which phase a clique of this classification belongs to."""
    if k.size_class == CRITICAL:
        return 4 if k.holey else 5
    if k.size_class == LARGE:
        return 4
    if k.kind == LONELY:
        return 2
    return 4 if k.holey else 6


@dataclass
class PhaseResult:
    colors: np.ndarray
    provenance: np.ndarray
    colored_by: dict[int, int]       # clique index -> phase that colored it
    responsible: dict[int, int]      # clique index -> phase per classification
    recolored: list[int]
    critical_helpers: dict[int, object]  # clique index -> helper phase 5 used
    friendly_helpers: dict[int, object]  # clique index -> helper phase 6 used
    recovery: Graph                      # H+, the stars of those helpers


def run_phases(
    conflict: Graph,
    palettes: PaletteSet,
    dec: Decomposition,
    find_helpers,
    params: ParamSet,
    seed: int,
) -> PhaseResult:
    """Run phases 1..6 in order and return a total coloring.

    Routing: phase 2 takes the small cliques on the lonely side, phase 4
    attempts every clique still uncolored, phase 5 takes critical
    leftovers, phase 6 the rest, which must be small, unholey, and
    friendly-routed or the decomposition was wrong.  Phases 2 and 4 go
    wave by wave (`waves`), and phase 4 reads each clique's
    ``non_edge_pairs``.  Only the cliques phase 4 leaves get helpers:
    ``find_helpers(critical, friendly)`` maps each index list to helpers
    and returns (critical helpers, friendly helpers, H+ of their stars).
    """
    C = PartialColoring(dec.n, palettes.delta, conflict)
    colored_by: dict[int, int] = {}
    responsible = {i: responsible_phase(k) for i, k in enumerate(dec.cliques)}

    one_shot(C, palettes, params, seed)

    def by_wave(indices: list[int]):
        Ks = [dec.cliques[i].vertices for i in indices]
        for wave in waves(C.stored, Ks):
            yield indices[wave], Ks[wave]

    for idx, Ks in by_wave([i for i, p in responsible.items() if p == 2]):
        ok = color_cliques_by_matching(Ks, C, palettes.l2, phase=2)
        if not ok.all():
            raise RunFailure("phase2", f"matching failed on clique {idx[int(np.argmin(ok))]}")
        colored_by.update(dict.fromkeys(idx, 2))

    greedy_sparse(C, dec.v_sparse, palettes)

    keep = list(dec.v_sparse)
    for i in colored_by:
        keep += dec.cliques[i].vertices
    strip_residue(C, keep)

    deferred: list[int] = []
    for idx, Ks in by_wave([i for i in responsible if i not in colored_by]):
        ok = phase4_wave(Ks, C, palettes, [dec.cliques[i].non_edge_pairs for i in idx])
        for i, colored in zip(idx, ok.tolist()):
            if colored:
                colored_by[i] = 4
            else:
                deferred.append(i)

    critical: list[int] = []
    friendly: list[int] = []
    for i in deferred:
        k = dec.cliques[i]
        if k.size_class == CRITICAL:
            critical.append(i)
        elif k.size_class == SMALL and not k.holey and k.kind == FRIENDLY:
            friendly.append(i)
        else:
            raise ColoringError(
                f"clique {i} ({k.size_class}, holey={k.holey}, {k.kind}) "
                "fell through every phase; decomposition is wrong"
            )
    critical_helpers, friendly_helpers, recovery = find_helpers(critical, friendly)
    C.store(recovery)

    i_u: dict[int, int] = {}
    for i in deferred:
        k = dec.cliques[i]
        if i in critical_helpers:
            phase5_critical(k.vertices, critical_helpers[i], C, palettes)
            colored_by[i] = 5
        else:
            phase6_friendly(k.vertices, friendly_helpers[i], C, palettes, i_u, params)
            colored_by[i] = 6

    missing = np.flatnonzero(C.colors == UNCOLORED)
    if missing.size:
        raise ColoringError(f"vertices left uncolored: {missing[:8].tolist()}")

    return PhaseResult(
        colors=C.colors,
        provenance=C.provenance,
        colored_by=colored_by,
        responsible=responsible,
        recolored=C.recolored,
        critical_helpers=critical_helpers,
        friendly_helpers=friendly_helpers,
        recovery=recovery,
    )


# ---------------------------------------------------------------------------
# Offline fallback: classical max-degree coloring for stored graphs
# ---------------------------------------------------------------------------


def _bfs_order(adj, start, allowed) -> list[int]:
    seen = {start}
    order = [start]
    dq = deque([start])
    while dq:
        for y in adj[dq.popleft()]:
            if y in allowed and y not in seen:
                seen.add(y)
                order.append(y)
                dq.append(y)
    return order


def _greedy(adj, colors, order, delta) -> None:
    """Give each vertex of order in turn the smallest color its neighbors
    do not hold."""
    for v in order:
        used = {colors[u] for u in adj[v]}
        for c in range(1, delta + 1):
            if c not in used:
                colors[v] = c
                break
        else:
            raise ColoringError(f"greedy ran out of colors at {v}")


def _articulation_point(adj, comp, index, low) -> int | None:
    """The smallest cut vertex of the component comp, or None (Tarjan's
    low-link DFS, iterative).  index and low are vertex-indexed lists
    shared by every component; only comp's own entries are reset."""
    if len(comp) < 3:
        return None
    for v in comp:
        index[v] = -1
    root = min(comp)
    index[root] = low[root] = 0
    counter, root_children, ap = 1, 0, set()
    stack = [(root, -1, iter(adj[root]))]
    while stack:
        v, parent, it = stack[-1]
        for w in it:
            iw = index[w]
            if iw < 0:
                index[w] = low[w] = counter
                counter += 1
                stack.append((w, v, iter(adj[w])))
                break
            if w != parent and iw < low[v]:
                low[v] = iw
        else:
            stack.pop()
            if stack:
                pv = stack[-1][0]
                if low[v] < low[pv]:
                    low[pv] = low[v]
                if pv == root:
                    root_children += 1
                elif low[v] >= index[pv]:
                    ap.add(pv)
    if root_children > 1:
        ap.add(root)
    return min(ap) if ap else None


def _color_component(adj, degrees, colors, comp, delta, index, low) -> None:
    """Lovasz's proof of Brooks' theorem on one connected component with
    maximum degree at least 3 that is not a (delta+1)-clique; index and
    low are `_articulation_point`'s working lists."""
    deficient = min((v for v in comp if degrees[v] < delta), default=None)
    if deficient is not None:
        _greedy(adj, colors, reversed(_bfs_order(adj, deficient, range(len(adj)))), delta)
        return

    comp_set = set(comp)
    cut = _articulation_point(adj, comp, index, low)
    if cut is not None:
        # In a piece plus the cut only the cut has fewer than delta
        # neighbors: color the piece greedily toward the cut, then swap two
        # colors inside it so that the cut keeps the first piece's color.
        rest = comp_set - {cut}
        target = None
        while rest:
            piece = set(_bfs_order(adj, min(rest), rest))
            rest -= piece
            piece.add(cut)
            sub = [0] * len(adj)
            _greedy(adj, sub, reversed(_bfs_order(adj, cut, piece)), delta)
            if target is None:
                target = sub[cut]
            swap = {sub[cut]: target, target: sub[cut]}
            for v in piece:
                colors[v] = swap.get(sub[v], sub[v])
        return

    # 2-connected delta-regular non-complete: pick v with two non-adjacent
    # neighbors u, w whose removal keeps the component connected, pre-color
    # u, w the same, then greedy toward v.
    for v in sorted(comp):
        nbrs = adj[v]
        for i, u in enumerate(nbrs):
            for w in nbrs[i + 1 :]:
                if w in adj[u]:
                    continue
                order = _bfs_order(adj, v, comp_set - {u, w})
                if len(order) < len(comp) - 2:
                    continue
                colors[u] = colors[w] = 1
                _greedy(adj, colors, reversed(order), delta)
                return
    raise ColoringError("no valid split pair found; input violates preconditions")


def offline_brooks(g: Graph, delta: int) -> np.ndarray:
    """Proper coloring with exactly max-degree many colors for any stored
    graph whose components are neither (delta+1)-cliques nor odd cycles.

    Callers gate those two exceptional shapes beforehand; a component that
    has either, or a degree above delta, raises before it is colored.
    """
    n = g.n
    ptr, indices = g.indptr.tolist(), g.indices.tolist()
    adj = [indices[a:b] for a, b in zip(ptr, ptr[1:])]  # rows ascending
    degrees = g.degrees.tolist()
    colors, index, low = [0] * n, [0] * n, [0] * n
    for v0 in range(n):
        if colors[v0]:  # its component is colored
            continue
        comp = _bfs_order(adj, v0, range(n))
        comp_degrees = [degrees[v] for v in comp]
        if max(comp_degrees) > delta:
            raise ColoringError("degree exceeds delta")
        if delta == 2 and len(comp) % 2 and min(comp_degrees) == 2:
            raise ColoringError("component is an odd cycle; caller must gate it")
        if len(comp) == delta + 1 and min(comp_degrees) == delta:
            raise ColoringError("component is a full clique; caller must gate it")
        if delta <= 2:
            # a path or an even cycle: every earlier neighbor of a vertex in
            # BFS order is one level up, so greedy alternates by level
            _greedy(adj, colors, comp, delta)
        else:
            _color_component(adj, degrees, colors, comp, delta, index, low)
    return np.array(colors, dtype=np.int64)
