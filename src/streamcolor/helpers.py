"""Helper-structure extraction from the sketch bank.

For an almost-clique K whose coloring needs out-of-palette moves, the
bank yields either a critical helper (a non-adjacent pair u, v inside K
together with v's full neighborhood) or a friendly helper (an outside
non-stranger u, an edge u-v, a non-edge u-w with v, w in K adjacent,
plus both full neighborhoods).  Helpers are searched only for the
cliques that phase 4 could not color from their lists; `run_phases`
routes those to phase 5 or 6 and asks the pipeline for their helpers.

Neighborhoods come from verified sparse recovery (`streamcolor.field`).
Both searches run one level-by-level block search (`_resolve`) over all
their cliques: at each sketch level, one `safe_recover` call covers every
unresolved stored member of every clique still searching.  Every level
reads member w's bank row, chi(N(w)).  Below the top level the search
subtracts chi(K \\ {w}) from it, the clique's column sums less w's own
column: chi(N(w)) - chi(K \\ {w}) has one entry per non-neighbor inside K
and one per neighbor outside, so it is sparse for a near-clique member.
At the top level the search recovers chi(N(w)) itself, which always
decodes because deg(w) <= delta <= r_top.  A recovered vector is exact
whenever the verifier accepts it, and `_decode_neighborhood` refuses any
that cannot be a neighborhood indicator.  A critical clique stops at the
first level where `_critical_choice` names a pair; a friendly clique
stops once every member stored at the top level is resolved, and
`_friendly_choice` picks its triple from those exact sets.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from streamcolor.field import SketchBank, column_sums, safe_recover
from streamcolor.graph import Graph


@dataclass
class CriticalHelper:
    u: int               # partner inside K, non-adjacent to v
    v: int               # member whose whole neighborhood was recovered
    n_v: set[int]
    rate: int            # sketch level that produced the recovery


@dataclass
class FriendlyHelper:
    u: int               # outside witness, not a stranger to K
    v: int               # in K, adjacent to both u and w
    w: int               # in K, non-adjacent to u
    n_v: set[int]
    n_w: set[int]


class RecoveryGraph(Graph):
    """Union of the recovered neighborhood stars, given as (center,
    neighborhood) pairs; the vertices in ``known`` have their complete
    adjacency stored here."""

    def __init__(self, n: int, stars=()):
        stars = list(stars)
        self.known: set[int] = {center for center, _ in stars}
        edges = [(center, x) for center, nbhd in stars for x in nbhd]
        super().__init__(n, np.array(edges, dtype=np.int64).reshape(-1, 2))


def _decode_neighborhood(
    support: np.ndarray, values: np.ndarray, ref: set[int], center: int, p: int, delta: int
) -> set[int] | None:
    """Turn a recovered x = chi(N) - chi(ref), given by its support and
    values, back into N, rejecting any vector that cannot be a neighborhood
    indicator: x must be p-1 (a non-neighbor) or 0 on ref and 1 (a
    neighbor) or 0 elsewhere."""
    nbrs = set(ref)
    for j, a in zip(support.tolist(), values.tolist()):
        if j in ref and a == p - 1:
            nbrs.discard(j)
        elif j not in ref and a == 1:
            nbrs.add(j)
        else:
            return None
    if center in nbrs or len(nbrs) > delta:
        return None
    return nbrs


def _resolve(bank: SketchBank, verts: list[list[int]], members: list[list[int]],
             choose) -> list:
    """Recover member neighborhoods of many cliques level by level.

    ``verts[c]`` is clique c's sorted vertex list and ``members[c]`` the
    members whose neighborhoods its search may read.  The decoded sets are
    exact, so a resolved member is not measured again.  Clique c stops at
    the first level r where ``choose(c, resolved, r)`` is not None, with
    ``resolved`` its recovered neighborhoods so far, or once it has no
    member left to recover; its entry is that choice, or None.
    """
    top = bank.rates[-1]
    ksets = [set(vs) for vs in verts]
    resolved: list[dict[int, set[int]]] = [{} for _ in verts]
    found: list = [None] * len(verts)
    searching = list(range(len(verts)))
    for r in bank.rates:
        if not searching:
            break
        stored, todo = np.zeros(bank.n, dtype=bool), {}
        stored[bank.sampled(r)] = True
        for c in searching:
            ws = np.array([w for w in members[c] if w not in resolved[c]], dtype=np.int64)
            ws = ws[stored[ws]]
            if ws.size:
                todo[c] = ws
        if todo:
            ws = np.concatenate(list(todo.values()))
            vec, check = bank.raw(ws, r)
            if r < top:
                # less chi(K \ {w}): the clique's columns, less w's own column;
                # a clique's row sums at most n <= p residues, below p^2
                kv = [verts[c] for c in todo]
                ky, kz = column_sums(bank.p, bank.zseed, bank.alpha, r,
                                     np.repeat(np.arange(len(kv)), [len(vs) for vs in kv]),
                                     np.concatenate(kv), len(kv))
                own = np.repeat(np.arange(len(kv)), [a.size for a in todo.values()])
                wy, wz = column_sums(bank.p, bank.zseed, bank.alpha, r,
                                     np.arange(ws.size), ws, ws.size)
                vec, check = vec - ky[own] + wy, check - kz[own] + wz
            got = iter(safe_recover(vec % bank.p, check % bank.p, bank.p, bank.n,
                                    bank.zseed, bank.alpha))
            for c, cws in todo.items():
                for w, sv in zip(cws.tolist(), got):
                    ref_set = ksets[c] - {w} if r < top else set()
                    nbhd = None if sv is None else _decode_neighborhood(
                        *sv, ref_set, w, bank.p, bank.delta)
                    if nbhd is not None:
                        resolved[c][w] = nbhd
        for c in searching:
            found[c] = choose(c, resolved[c], r)
        searching = [c for c in searching
                     if found[c] is None and len(resolved[c]) < len(members[c])]
    return found


def _critical_choice(verts: list[int], resolved: dict[int, set[int]],
                     r: int) -> CriticalHelper | None:
    """The first member, in vertex order, whose recovered neighborhood
    misses another member, paired with the missed member that the most
    recovered neighborhoods miss (the smallest such on a tie)."""
    kset = set(verts)
    candidates = {w: kset - nbhd - {w} for w, nbhd in resolved.items()}
    incident: dict[int, int] = {}
    for partners in candidates.values():
        for x in partners:
            incident[x] = incident.get(x, 0) + 1
    for w in verts:
        partners = candidates.get(w)
        if partners:
            u = max(sorted(partners), key=lambda x: incident.get(x, 0))
            return CriticalHelper(u=u, v=w, n_v=resolved[w], rate=r)
    return None


def find_critical_helper(cliques, bank: SketchBank) -> list[CriticalHelper | None]:
    """For each clique, search sketch levels in increasing order for a
    member whose neighborhood recovers and that has a non-neighbor inside
    the clique.

    Cheapest recoveries come first, so near-clique members decode already
    at tiny levels.  An entry is None only when no member of that clique
    recovers (the caller may retry with a fresh seed).
    """
    verts = [sorted(K) for K in cliques]
    return _resolve(bank, verts, verts,
                    lambda c, resolved, r: _critical_choice(verts[c], resolved, r))


def _friendly_choice(verts: list[int], witness: int,
                     known: dict[int, set[int]]) -> FriendlyHelper | None:
    """The first w in K non-adjacent to the witness, then the first common
    neighbor v of both, among the members with a recovered neighborhood.
    Adjacency is judged from the recovered (exact) sets, so a returned
    helper is sound."""
    kset = set(verts)
    for w in verts:
        n_w = known.get(w)
        if n_w is None or witness in n_w:
            continue
        for v in sorted(n_w & kset):
            n_v = known.get(v)
            if n_v is not None and witness in n_v and w in n_v:
                return FriendlyHelper(u=witness, v=v, w=w, n_v=n_v, n_w=n_w)
    return None


def find_friendly_helper(cliques, bank: SketchBank) -> list[FriendlyHelper | None]:
    """For each (clique, witness) pair, a friendly triple read from the
    recovered neighborhoods of the members stored at the top sketch level,
    or None when there is none.

    The search resolves those members level by level, as the critical
    search does, and a clique stops once all of them are resolved; the
    top level always decodes them.
    """
    verts = [sorted(K) for K, _ in cliques]
    top = bank.sampled(bank.rates[-1])
    members = [np.intersect1d(vs, top).tolist() for vs in verts]

    def choose(c, resolved, r):
        if len(resolved) < len(members[c]):
            return None
        return _friendly_choice(verts[c], cliques[c][1], resolved)

    return _resolve(bank, verts, members, choose)


def build_recovery_graph(
    n: int,
    critical: dict[int, CriticalHelper],
    friendly: dict[int, FriendlyHelper],
) -> RecoveryGraph:
    """Union of all recovered neighborhood stars."""
    stars = [(h.v, h.n_v) for h in critical.values()]
    for h in friendly.values():
        stars += [(h.v, h.n_v), (h.w, h.n_w)]
    return RecoveryGraph(n, stars)
