"""Helper-structure extraction from the sketch bank.

For an almost-clique K whose coloring needs out-of-palette moves, the
bank yields either a critical helper (a non-adjacent pair u, v inside K
together with v's full neighborhood) or a friendly helper (an outside
non-stranger u, an edge u-v, a non-edge u-w with v, w in K adjacent,
plus both full neighborhoods).  Helpers are searched only for the
cliques that phase 4 could not color from their lists; `run_phases`
routes those to phase 5 or 6 and asks the pipeline for their helpers.

Neighborhoods come from verified sparse recovery (`streamcolor.field`).
For a clique member w, chi(N(w)) - chi(K) has one entry per non-neighbor
inside K and one per neighbor outside, so it is sparse; at the top
sketch level chi(N(w)) itself is.  A recovered vector is exact whenever
the verifier accepts it, and `_decode_neighborhood` refuses any that
cannot be a neighborhood indicator.

The critical search takes every deferred critical clique at once and
climbs the sketch levels: at each level, one relative measurement and one
`recover_batch` cover every unresolved member of every clique still
searching, and a clique drops out at the first level that yields a
candidate pair.  The friendly search stops at its first triple, so it
recovers one member at a time, lazily, through `safe_recover`: each
member climbs the levels that store it below the top relative to K, and
recovers chi(N(w)) at the top level only when none of them decodes.  K's
sketch at a level is computed once per clique and serves all its members.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from streamcolor.field import (
    Measurement,
    SketchBank,
    measure_relative,
    recover_batch,
    safe_recover,
    sketch_of,
)
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


def _critical_choice(verts: list[int], kset: set[int], resolved: dict[int, set[int]],
                     r: int) -> CriticalHelper | None:
    """The first member, in vertex order, whose recovered neighborhood
    misses another member, paired with the missed member that the most
    recovered neighborhoods miss (the smallest such on a tie)."""
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

    Cheapest recoveries come first: a member's relative vector has one
    entry per non-neighbor inside K plus one per neighbor outside, so
    near-clique members decode already at tiny levels.  Each level
    measures every unresolved member of every clique still searching
    against its own clique and recovers them all in one batch; a clique
    stops at the first level that yields a candidate.  An entry is None
    only when no member of that clique recovers (the caller may retry
    with a fresh seed).
    """
    verts = [sorted(K) for K in cliques]
    ksets = [set(vs) for vs in verts]
    # the decoded vectors are exact, so a resolved member is not retried
    resolved: list[dict[int, set[int]]] = [{} for _ in verts]
    found: list[CriticalHelper | None] = [None] * len(verts)
    searching = list(range(len(verts)))
    for r in bank.rates:
        if not searching:
            break
        stored, todo = np.zeros(bank.n, dtype=bool), {}
        stored[bank.sampled(r)] = True
        for c in searching:
            ws = np.array([w for w in verts[c] if w not in resolved[c]], dtype=np.int64)
            ws = ws[stored[ws]]
            if ws.size:
                todo[c] = ws
        if todo:
            ref = sketch_of(bank, r, [verts[c] for c in todo])
            own = np.repeat(np.arange(len(todo)), [ws.size for ws in todo.values()])
            meas = measure_relative(bank, np.concatenate(list(todo.values())), r,
                                    Measurement(r=r, vec=ref.vec[own], check=ref.check[own]))
            got = iter(recover_batch(meas, bank.p, bank.n, bank.zseed, bank.alpha))
            for c, ws in todo.items():
                for w, sv in zip(ws.tolist(), got):
                    nbhd = None if sv is None else _decode_neighborhood(
                        *sv, ksets[c], w, bank.p, bank.delta)
                    if nbhd is not None:
                        resolved[c][w] = nbhd
        for c in searching:
            found[c] = _critical_choice(verts[c], ksets[c], resolved[c], r)
        searching = [c for c in searching if found[c] is None]
    return found


def find_friendly_helper(K, witness: int, bank: SketchBank) -> FriendlyHelper | None:
    """Find w in K non-adjacent to the witness with a recovered
    neighborhood, then a common neighbor v of both with a recovered
    neighborhood.  Adjacency to the witness is judged from the recovered
    (exact) sets, so a returned helper is sound.

    Only members stored at the top sketch level are tried, lazily, one at
    a time.  A member climbs the levels that store it below the top,
    recovering chi(N(w)) - chi(K), which is sparse for a near-clique
    member; the last step recovers chi(N(w)) itself at the top level,
    which always decodes because deg(w) <= delta <= r_top.
    """
    top = bank.rates[-1]
    verts = sorted(K)
    kset = set(verts)
    refs: dict[int, Measurement] = {}  # level -> the sketch of chi(K)
    known: dict[int, set[int] | None] = {}

    def recover(meas: Measurement, ref: set[int], w: int) -> set[int] | None:
        x = safe_recover(meas, bank.p, bank.n, bank.zseed, bank.alpha)
        if x is None:
            return None
        supp = np.flatnonzero(x)
        return _decode_neighborhood(supp, x[supp], ref, w, bank.p, bank.delta)

    def neighborhood(w: int) -> set[int] | None:
        if w not in known:
            known[w] = None
            if bank.in_rate(w, top):
                for r in bank.rates[:-1]:
                    if bank.in_rate(w, r):
                        if r not in refs:
                            refs[r] = sketch_of(bank, r, [verts])
                        known[w] = recover(measure_relative(bank, w, r, refs[r]), kset, w)
                        if known[w] is not None:
                            break
                else:
                    y, z = bank.raw(w, top)
                    known[w] = recover(Measurement(r=top, vec=y, check=z), set(), w)
        return known[w]

    for w in verts:
        n_w = neighborhood(w)
        if n_w is None or witness in n_w:
            continue
        for v in sorted(n_w & kset):
            n_v = neighborhood(v)
            if n_v is None:
                continue
            if witness in n_v and w in n_v:
                return FriendlyHelper(u=witness, v=v, w=w, n_v=n_v, n_w=n_w)
    return None


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
