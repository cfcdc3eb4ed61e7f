"""The six-phase coloring engine and the offline fallback.

Post-processing never touches the input graph again: every conflict
check runs against the stored conflict graph H and recovery graph H+.
That is sound because a vertex colored from its own sampled lists can
only collide across an H edge, and a vertex colored outside its lists
always has its complete neighborhood in H+.

Phase order matters: one-shot coloring, then the loosely-connected
small almost-cliques (while the outside coloring is still lightly
random), then the sparse vertices, then a residue strip, then the
non-edge-rich almost-cliques, then the out-of-palette moves for
critical and for friendly small almost-cliques (the latter recolors one
outside witness).
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
from streamcolor.palette import ConflictGraph, PaletteSet, colors_of
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


class PartialColoring:
    """Vertex -> color in 1..delta (0 = uncolored), proper on H + H+ at
    all times, with per-phase provenance."""

    def __init__(self, n: int, delta: int, conflict: ConflictGraph, recovery=None):
        self.n = n
        self.delta = delta
        self.conflict = conflict
        self.recovery = recovery
        self.colors = np.zeros(n, dtype=np.int64)
        self.provenance = np.zeros(n, dtype=np.int8)
        self.recolored: list[int] = []

    def color(self, v: int) -> int:
        return int(self.colors[v])

    def stored_neighbors(self, v: int):
        if self.recovery is None:
            return self.conflict.adj[v]
        return self.conflict.adj[v] | self.recovery.adj[v]

    def used_nearby(self, v: int) -> set[int]:
        return {
            int(self.colors[u]) for u in self.stored_neighbors(v) if self.colors[u]
        }

    def try_assign(self, v: int, c: int, phase: int) -> bool:
        """Assign if no stored neighbor holds c; False on conflict."""
        if not 1 <= c <= self.delta:
            raise ColoringError(f"color {c} out of range 1..{self.delta}")
        if self.colors[v]:
            raise ColoringError(f"vertex {v} already colored")
        if c in self.used_nearby(v):
            return False
        self.colors[v] = c
        self.provenance[v] = phase
        return True

    def assign(self, v: int, c: int, phase: int) -> None:
        if not self.try_assign(v, c, phase):
            raise ColoringError(f"conflict assigning {c} to {v} in phase {phase}")

    def uncolor(self, v: int) -> None:
        self.colors[v] = UNCOLORED
        self.provenance[v] = 0

    def recolor(self, v: int, c: int, phase: int) -> None:
        """Assign possibly overwriting v's color (phase-6 witness move)."""
        if c in self.used_nearby(v):
            raise ColoringError(f"recolor conflict at {v}")
        if self.colors[v]:
            self.recolored.append(v)
        self.colors[v] = c
        self.provenance[v] = phase


# ---------------------------------------------------------------------------
# Bipartite matching on palette graphs
# ---------------------------------------------------------------------------


def hopcroft_karp(adj: list[list[int]], n_right: int) -> list[int]:
    """Maximum matching; returns for each left node its right match or -1."""
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


def l_perfect_matching(adj: list[list[int]], n_right: int) -> list[int] | None:
    """L-perfect matching or None when the maximum matching misses some
    left node (Hall's condition fails)."""
    match_l = hopcroft_karp(adj, n_right)
    if any(m == -1 for m in match_l):
        return None
    return match_l


@dataclass
class PaletteGraph:
    """Bipartite graph between uncolored clique vertices and the colors
    unused inside the clique; edges respect the sampled lists and the
    stored-neighbor availability of each vertex."""

    left: list[int]
    right: list[int]
    adj: list[list[int]]


def build_palette_graph(
    K, C: PartialColoring, lists, exclude=frozenset()
) -> PaletteGraph:
    left = [v for v in sorted(K) if not C.colors[v] and v not in exclude]
    used_in_k = {int(C.colors[v]) for v in K if C.colors[v]}
    right = [c for c in range(1, C.delta + 1) if c not in used_in_k]
    rindex = {c: j for j, c in enumerate(right)}
    adj = []
    for v in left:
        blocked = C.used_nearby(v)
        adj.append(
            [rindex[c] for c in colors_of(lists(v)) if c in rindex and c not in blocked]
        )
    return PaletteGraph(left=left, right=right, adj=adj)


def color_clique_by_matching(
    K, C: PartialColoring, lists, phase: int, exclude=frozenset()
) -> bool:
    """Extend C to every uncolored vertex of K via an L-perfect matching
    of the palette graph; False (and C untouched) when none exists."""
    g = build_palette_graph(K, C, lists, exclude=exclude)
    if not g.left:
        return True
    match = l_perfect_matching(g.adj, len(g.right))
    if match is None:
        return False
    for v, j in zip(g.left, match):
        C.assign(v, g.right[j], phase)
    return True


# ---------------------------------------------------------------------------
# Phase 1: one-shot coloring
# ---------------------------------------------------------------------------


def one_shot(C: PartialColoring, palettes: PaletteSet, params: ParamSet, seed: int) -> None:
    """Activate each vertex with probability 1/alpha and keep its single
    sampled color iff no stored neighbor tentatively picked the same one
    (both sides of a collision drop out)."""
    n = C.n
    rng = rng_for(seed, "oneshot")
    active = rng.random(n) < params.activation_rate()
    x = np.where(active, palettes.l1, 0)
    keep = []
    for v in np.flatnonzero(x):
        if all(x[u] != x[v] for u in C.conflict.adj[v]):
            keep.append(int(v))
    for v in keep:
        C.colors[v] = x[v]
        C.provenance[v] = 1


# ---------------------------------------------------------------------------
# Phase 3 greedy + residue strip
# ---------------------------------------------------------------------------


def greedy_sparse(C: PartialColoring, v_sparse, palettes: PaletteSet) -> None:
    """Color the sparse vertices in id order, each from its own large
    list, skipping colors its stored neighbors hold."""
    for v in sorted(v_sparse):
        if C.colors[v]:
            continue
        blocked = C.used_nearby(v)
        for c in colors_of(palettes.l3[v]):
            if c not in blocked:
                C.assign(v, c, 3)
                break
        else:
            raise RunFailure("phase3", f"no free sampled color at sparse vertex {v}")


def strip_residue(C: PartialColoring, keep) -> None:
    """Drop every color outside the kept set (one-shot leftovers inside
    almost-cliques that later phases will recolor from scratch)."""
    keep = set(keep)
    for v in range(C.n):
        if C.colors[v] and v not in keep:
            C.uncolor(v)


# ---------------------------------------------------------------------------
# Phase 4: shared-color non-edge matching + palette matching
# ---------------------------------------------------------------------------


def colorful_matching(
    K, C: PartialColoring, list_of, non_edges
) -> tuple[list[tuple[int, int]], list[int]]:
    """Greedily give both endpoints of stored non-edges a shared sampled
    color, colors in ascending order, one non-edge per color.

    A pair that is secretly an edge cannot slip through: a shared sampled
    color means the edge would sit in H, so the live properness check
    rejects it and the pair is skipped.
    """
    alive = [tuple(sorted(f)) for f in non_edges]
    alive = sorted(set(alive))
    matched: list[tuple[int, int]] = []
    assigned: list[int] = []
    for c in range(1, C.delta + 1):
        for a, b in alive:
            if C.colors[a] or C.colors[b]:
                continue
            if not (list_of(a)[c - 1] and list_of(b)[c - 1]):
                continue
            if not C.try_assign(a, c, 4):
                continue
            if not C.try_assign(b, c, 4):
                C.uncolor(a)
                continue
            matched.append((a, b))
            assigned += [a, b]
            alive = [f for f in alive if a not in f and b not in f]
            break
    return matched, assigned


def phase4_color(
    K, C: PartialColoring, palettes: PaletteSet, non_edges, params: ParamSet
) -> bool:
    """Best-of-beta shared-color matchings, then palette matching for the
    rest of K; on failure C is rolled back and the clique is deferred."""
    best_i, best_size = None, 0
    for i in range(params.beta):
        matched, assigned = colorful_matching(
            K, C, lambda v, i=i: palettes.l4[v][i], non_edges
        )
        for v in assigned:
            C.uncolor(v)
        if len(matched) > best_size:
            best_i, best_size = i, len(matched)
    assigned = []
    if best_i is not None:
        _, assigned = colorful_matching(
            K, C, lambda v, i=best_i: palettes.l4[v][i], non_edges
        )
    if color_clique_by_matching(K, C, lambda v: palettes.l4_star[v], phase=4):
        return True
    for v in assigned:
        C.uncolor(v)
    return False


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
    blocked = C.used_nearby(u) | C.used_nearby(v)
    shared = next((c for c in colors_of(palettes.l5[u]) if c not in blocked), None)
    if shared is None:
        raise RunFailure("phase5", f"no free pair color for non-edge ({u},{v})")
    C.assign(u, shared, 5)
    C.assign(v, shared, 5)
    if not color_clique_by_matching(K, C, lambda w: palettes.l5[w], phase=5):
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
    lst = palettes.l6[u][count]
    blocked = C.used_nearby(u) | C.used_nearby(w)
    shared = next((c for c in colors_of(lst) if c not in blocked), None)
    if shared is None:
        raise RunFailure("phase6", f"no recolor color for witness {u}")
    C.recolor(u, shared, 6)
    i_u[u] = count + 1
    C.assign(w, shared, 6)
    last = 2 * params.beta - 1
    if not color_clique_by_matching(
        K, C, lambda x: palettes.l6[x][last], phase=6, exclude={v}
    ):
        raise RunFailure("phase6", f"palette matching failed on clique of {K[0]}")
    blocked_v = C.used_nearby(v)
    final = next((c for c in range(1, C.delta + 1) if c not in blocked_v), None)
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


def run_phases(
    conflict: ConflictGraph,
    recovery,
    palettes: PaletteSet,
    dec: Decomposition,
    critical_helpers: dict[int, object],
    friendly_helpers: dict[int, object],
    non_edges_of: dict[int, list[tuple[int, int]]],
    params: ParamSet,
    seed: int,
    delta: int,
    on_phase=None,
) -> PhaseResult:
    """Run phases 1..6 in order and return a total coloring.

    Routing: phase 2 takes the small cliques on the lonely side, phase 4
    attempts every clique still uncolored, phase 5 takes critical
    leftovers (their helper structures), phase 6 the rest, which must be
    small, unholey, and friendly-routed or the decomposition was wrong.
    """
    C = PartialColoring(dec.n, delta, conflict, recovery)
    colored_by: dict[int, int] = {}
    responsible = {i: responsible_phase(k) for i, k in enumerate(dec.cliques)}

    def snap(tag: str):
        if on_phase is not None:
            on_phase(tag, C.colors.copy())

    one_shot(C, palettes, params, seed)
    snap("phase1")

    for i, k in enumerate(dec.cliques):
        if k.size_class == SMALL and k.kind == LONELY:
            if not color_clique_by_matching(
                k.vertices, C, lambda v: palettes.l2[v], phase=2
            ):
                raise RunFailure("phase2", f"matching failed on clique {i}")
            colored_by[i] = 2
    snap("phase2")

    greedy_sparse(C, dec.v_sparse, palettes)
    snap("phase3")

    keep = set(dec.v_sparse)
    for i in colored_by:
        keep |= dec.cliques[i].vset
    strip_residue(C, keep)
    snap("strip")

    deferred: list[int] = []
    for i, k in enumerate(dec.cliques):
        if i in colored_by:
            continue
        if phase4_color(k.vertices, C, palettes, non_edges_of[i], params):
            colored_by[i] = 4
        else:
            deferred.append(i)
    snap("phase4")

    i_u: dict[int, int] = {}
    for i in deferred:
        k = dec.cliques[i]
        if k.size_class == CRITICAL:
            helper = critical_helpers.get(i)
            if helper is None:
                raise RunFailure("phase5", f"no helper recovered for clique {i}")
            phase5_critical(k.vertices, helper, C, palettes)
            colored_by[i] = 5
            snap("phase5")
        elif k.size_class == SMALL and not k.holey and k.kind == FRIENDLY:
            helper = friendly_helpers.get(i)
            if helper is None:
                raise RunFailure("phase6", f"no helper recovered for clique {i}")
            phase6_friendly(k.vertices, helper, C, palettes, i_u, params)
            colored_by[i] = 6
            snap("phase6")
        else:
            raise ColoringError(
                f"clique {i} ({k.size_class}, holey={k.holey}, {k.kind}) "
                "fell through every phase; decomposition is wrong"
            )

    missing = np.flatnonzero(C.colors == UNCOLORED)
    if missing.size:
        raise ColoringError(f"vertices left uncolored: {missing[:8].tolist()}")

    return PhaseResult(
        colors=C.colors,
        provenance=C.provenance,
        colored_by=colored_by,
        responsible=responsible,
        recolored=C.recolored,
    )


# ---------------------------------------------------------------------------
# Offline fallback: classical max-degree coloring for stored graphs
# ---------------------------------------------------------------------------


def _bfs_order(adj, start, allowed) -> list[int]:
    seen = {start}
    order = [start]
    dq = deque([start])
    while dq:
        x = dq.popleft()
        for y in sorted(adj[x]):
            if y in allowed and y not in seen:
                seen.add(y)
                order.append(y)
                dq.append(y)
    return order


def _greedy_reverse_bfs(adj, colors, comp, root, delta) -> None:
    order = _bfs_order(adj, root, comp)
    for v in reversed(order):
        if colors[v]:
            continue
        used = {colors[u] for u in adj[v] if colors[u]}
        for c in range(1, delta + 1):
            if c not in used:
                colors[v] = c
                break
        else:
            raise ColoringError(f"greedy ran out of colors at {v}")


def _articulation_point(adj, comp) -> int | None:
    comp = sorted(comp)
    if len(comp) < 3:
        return None
    index = {}
    low = {}
    counter = [0]
    root = comp[0]
    ap: set[int] = set()

    def dfs(start):
        stack = [(start, None, iter(sorted(adj[start])))]
        index[start] = low[start] = counter[0]
        counter[0] += 1
        children = {start: 0}
        while stack:
            v, parent, it = stack[-1]
            advanced = False
            for w in it:
                if w not in index:
                    children[v] = children.get(v, 0) + 1
                    index[w] = low[w] = counter[0]
                    counter[0] += 1
                    stack.append((w, v, iter(sorted(adj[w]))))
                    advanced = True
                    break
                elif w != parent:
                    low[v] = min(low[v], index[w])
            if not advanced:
                stack.pop()
                if stack:
                    pv = stack[-1][0]
                    low[pv] = min(low[pv], low[v])
                    if pv != start and low[v] >= index[pv]:
                        ap.add(pv)
        if children.get(start, 0) > 1:
            ap.add(start)

    dfs(root)
    return min(ap) if ap else None


def _connected_without(adj, comp, removed) -> bool:
    remaining = [v for v in comp if v not in removed]
    if not remaining:
        return True
    seen = {remaining[0]}
    dq = deque(seen)
    while dq:
        x = dq.popleft()
        for y in adj[x]:
            if y in removed or y not in comp:
                continue
            if y not in seen:
                seen.add(y)
                dq.append(y)
    return len(seen) == len(remaining)


def _color_component(adj, colors, comp, delta) -> None:
    comp_set = set(comp)
    deficient = next(
        (v for v in sorted(comp) if sum(1 for u in adj[v] if u in comp_set) < delta),
        None,
    )
    if deficient is not None:
        _greedy_reverse_bfs(adj, colors, comp_set, deficient, delta)
        return

    cut = _articulation_point(adj, comp)
    if cut is not None:
        pieces = []
        rest = comp_set - {cut}
        while rest:
            start = min(rest)
            piece = set(_bfs_order(adj, start, rest))
            rest -= piece
            pieces.append(piece | {cut})
        target = None
        for piece in pieces:
            sub = np.zeros_like(colors)
            _color_component(adj, sub, piece, delta)
            if target is None:
                target = int(sub[cut])
            else:
                have = int(sub[cut])
                if have != target:
                    for v in piece:  # transpose the two colors inside the piece
                        if sub[v] == have:
                            sub[v] = target
                        elif sub[v] == target:
                            sub[v] = have
            for v in piece:
                colors[v] = sub[v]
        return

    # 2-connected delta-regular non-complete: pick v with two non-adjacent
    # neighbors u, w whose removal keeps the component connected, pre-color
    # u, w the same, then greedy toward v.
    for v in sorted(comp):
        nbrs = sorted(u for u in adj[v] if u in comp_set)
        for ai in range(len(nbrs)):
            for bi in range(ai + 1, len(nbrs)):
                u, w = nbrs[ai], nbrs[bi]
                if w in adj[u]:
                    continue
                if not _connected_without(adj, comp_set, {u, w}):
                    continue
                colors[u] = colors[w] = 1
                remaining = comp_set - {u, w}
                _greedy_reverse_bfs(adj, colors, remaining, v, delta)
                return
    raise ColoringError("no valid split pair found; input violates preconditions")


def offline_brooks(adj: list[set[int]], delta: int) -> np.ndarray:
    """Proper coloring with exactly max-degree many colors for any stored
    graph whose components are neither (delta+1)-cliques nor odd cycles.

    Callers gate those two exceptional shapes beforehand.
    """
    n = len(adj)
    colors = np.zeros(n, dtype=np.int64)
    seen: set[int] = set()
    for v0 in range(n):
        if v0 in seen:
            continue
        comp = _bfs_order(adj, v0, set(range(n)) - seen)
        seen |= set(comp)
        if len(comp) == 1:
            colors[v0] = 1
            continue
        if delta <= 2:
            # paths and even cycles: alternate two colors by BFS parity
            for v in comp:
                if colors[v]:
                    continue
                colors[v] = 1
                dq = deque([v])
                while dq:
                    x = dq.popleft()
                    for y in adj[x]:
                        if not colors[y]:
                            colors[y] = 3 - colors[x]
                            dq.append(y)
            if any(colors[u] == colors[v] for u in comp for v in adj[u]):
                raise ColoringError("component is an odd cycle; caller must gate it")
            continue
        local_max = max(len(adj[v]) for v in comp)
        if local_max > delta:
            raise ColoringError("degree exceeds delta")
        if len(comp) == delta + 1 and all(len(adj[v] & set(comp)) == delta for v in comp):
            raise ColoringError("component is a full clique; caller must gate it")
        _color_component(adj, colors, comp, delta)
    return colors
