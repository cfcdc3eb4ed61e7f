"""Helper-structure extraction from the sketch bank.

For an almost-clique K whose coloring needs out-of-palette moves, the
bank yields either a critical helper (a non-adjacent pair u, v inside K
together with v's full neighborhood) or a friendly helper (an outside
non-stranger u, an edge u-v, a non-edge u-w with v, w in K adjacent,
plus both full neighborhoods).

Neighborhoods come from verified sparse recovery (`streamcolor.field`).
For a clique member w, chi(N(w)) - chi(K) has one entry per non-neighbor
inside K and one per neighbor outside, so it is sparse; at the top
sketch level chi(N(w)) itself is.  A recovered vector is exact whenever
the verifier accepts it, and `_decode_neighborhood` refuses any that
cannot be a neighborhood indicator.

The critical search recovers all unresolved members stored at a level
as one batch, level by level.  The friendly search stops at its first
triple, so it recovers one member at a time, lazily, through
`safe_recover`.
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


def find_critical_helper(K, bank: SketchBank) -> CriticalHelper | None:
    """Search sketch levels in increasing order for a clique member whose
    neighborhood recovers and that has a non-neighbor inside K.

    Cheapest recoveries come first: a member's relative vector has one
    entry per non-neighbor inside K plus one per neighbor outside, so
    near-clique members decode already at tiny levels.  Returns None
    only when no member recovers (caller may retry with a fresh seed).
    """
    verts = sorted(K)
    kset = set(verts)
    resolved: dict[int, set[int]] = {}
    for r in bank.rates:
        # the decoded vectors are exact, so a resolved member is not retried
        todo = [w for w in verts if w not in resolved and bank.in_rate(w, r)]
        if todo:
            meas = measure_relative(bank, np.array(todo), r, verts)
            got = recover_batch(meas, bank.p, bank.n, bank.zseed, bank.alpha)
            for w, sv in zip(todo, got):
                nbhd = None if sv is None else _decode_neighborhood(
                    *sv, kset, w, bank.p, bank.delta)
                if nbhd is not None:
                    resolved[w] = nbhd
        candidates = {w: kset - nbhd - {w} for w, nbhd in resolved.items()}
        incident: dict[int, int] = {}
        for w, partners in candidates.items():
            for x in partners:
                incident[x] = incident.get(x, 0) + 1
        for w in verts:
            partners = candidates.get(w)
            if partners:
                u = max(sorted(partners), key=lambda x: incident.get(x, 0))
                return CriticalHelper(u=u, v=w, n_v=resolved[w], rate=r)
    return None


def find_friendly_helper(K, witness: int, bank: SketchBank) -> FriendlyHelper | None:
    """At the top sketch level, find w in K non-adjacent to the witness
    with a recovered neighborhood, then a common neighbor v of both with
    a recovered neighborhood.  Adjacency to the witness is judged from
    the recovered (exact) sets, so a returned helper is sound."""
    r = bank.rates[-1]
    verts = sorted(K)
    kset = set(verts)
    known: dict[int, set[int] | None] = {}

    def neighborhood(w: int) -> set[int] | None:
        if w not in known:
            known[w] = None
            if bank.in_rate(w, r):
                y, z = bank.raw(w, r)  # chi(N(w)) itself is sparse at the top level
                x = safe_recover(Measurement(r=r, vec=y, check=z), bank.p, bank.n,
                                 bank.zseed, bank.alpha)
                if x is not None:
                    supp = np.flatnonzero(x)
                    known[w] = _decode_neighborhood(supp, x[supp], set(), w, bank.p, bank.delta)
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
