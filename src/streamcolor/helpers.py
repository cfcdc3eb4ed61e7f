"""Helper-structure extraction from the sketch bank.

For an almost-clique K whose coloring needs out-of-palette moves, the
bank yields either a critical helper (a non-adjacent pair u, v inside K
together with v's full neighborhood) or a friendly helper (an outside
non-stranger u, an edge u-v, a non-edge u-w with v, w in K adjacent,
plus both full neighborhoods).  Neighborhoods come from verified sparse
recovery: chi(N(w)) - chi(K) is sparse for clique members, and at the
top sampling level chi(N(w)) itself is, so a recovered vector is exact
whenever the verifier accepts it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from streamcolor.field import (
    Measurement,
    SketchBank,
    random_check_sum,
    safe_recover,
    vandermonde_sum,
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
    x: np.ndarray, ref: list[int], center: int, p: int, delta: int
) -> set[int] | None:
    """Turn a recovered x = chi(N) - chi(ref) back into N, rejecting any
    vector that cannot be a neighborhood indicator."""
    full = x.copy()
    if ref:
        full[ref] = (full[ref] + 1) % p
    on = full == 1
    if not (on | (full == 0)).all():
        return None
    if full[center] != 0:
        return None
    nbrs = np.flatnonzero(on)
    if nbrs.size > delta:
        return None
    return {int(b) for b in nbrs}


class _RecoveryCache:
    """Memoized verified recoveries against a fixed reference set."""

    def __init__(self, bank: SketchBank, ref: list[int]):
        self.bank = bank
        self.ref = sorted(ref)
        self._ref_syn: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        self._hits: dict[tuple[int, int], set[int] | None] = {}

    def _ref_for(self, r: int) -> tuple[np.ndarray, np.ndarray]:
        if r not in self._ref_syn:
            self._ref_syn[r] = (
                vandermonde_sum(r, self.bank.p, self.ref),
                random_check_sum(self.bank.zseed, r, self.ref, self.bank.alpha, self.bank.p),
            )
        return self._ref_syn[r]

    def neighborhood(self, w: int, r: int) -> set[int] | None:
        key = (w, r)
        if key in self._hits:
            return self._hits[key]
        bank = self.bank
        out = None
        if bank.in_rate(w, r):
            y, z = bank.raw(w, r)
            ref_y, ref_z = self._ref_for(r)
            meas = Measurement(r=r, vec=(y - ref_y) % bank.p, check=(z - ref_z) % bank.p)
            x = safe_recover(meas, bank.p, bank.n, bank.zseed, bank.alpha)
            if x is not None:
                out = _decode_neighborhood(x, self.ref, w, bank.p, bank.delta)
        self._hits[key] = out
        return out


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
    cache = _RecoveryCache(bank, verts)
    resolved: dict[int, set[int]] = {}
    for r in bank.rates:
        for w in verts:
            if w in resolved:
                continue  # the decoded vector is exact; higher rates agree
            nbhd = cache.neighborhood(w, r)
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
    cache = _RecoveryCache(bank, [])
    for w in verts:
        n_w = cache.neighborhood(w, r)
        if n_w is None or witness in n_w:
            continue
        for v in sorted(n_w & kset):
            n_v = cache.neighborhood(v, r)
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
