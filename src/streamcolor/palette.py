"""Per-vertex color-list sampling and the conflict-graph edge filter.

Each vertex samples six independent lists over the colors 1..delta; an
edge is stored iff the endpoint lists intersect, since those are the
only edges that can ever become monochromatic when vertices stick to
their sampled colors.  List membership is mirrored in per-vertex bit
masks so the stream filter is a vectorized AND.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from streamcolor.params import ParamSet, rng_for


def _mask_words(delta: int) -> int:
    return max(1, (delta + 63) // 64)


def _sample_color_sets(rng, n: int, delta: int, rate: float) -> list[frozenset[int]]:
    """n independent Bernoulli(rate) subsets of 1..delta.

    Bulk-samples a boolean matrix when the expected list size is a fair
    share of the palette; skips by geometric gaps when the rate is tiny.
    """
    if rate >= 1.0:
        full = frozenset(range(1, delta + 1))
        return [full] * n
    if rate * delta >= 1.0 or rate > 0.02:
        hits = rng.random((n, delta)) < rate
        return [frozenset((np.flatnonzero(row) + 1).tolist()) for row in hits]
    out = []
    for _ in range(n):
        picks = []
        c = 0
        while True:
            c += int(rng.geometric(rate))
            if c > delta:
                break
            picks.append(c)
        out.append(frozenset(picks))
    return out


@dataclass
class PaletteSet:
    """All sampled lists plus union bit masks used by the edge filter."""

    n: int
    delta: int
    beta: int
    l1: np.ndarray                       # one uniform color per vertex
    l2: list[frozenset[int]]
    l3: list[frozenset[int]]
    l4_star: list[frozenset[int]]
    l4: list[list[frozenset[int]]]       # beta short pair-lists per vertex
    l5: list[frozenset[int]]
    l6: list[list[frozenset[int]]]       # 2*beta lists per vertex
    masks: np.ndarray = field(repr=False)  # (n, words) uint64 union masks

    def list_sizes(self, v: int) -> int:
        return (
            1
            + len(self.l2[v])
            + len(self.l3[v])
            + len(self.l4_star[v])
            + sum(len(s) for s in self.l4[v])
            + len(self.l5[v])
            + sum(len(s) for s in self.l6[v])
        )

    def total_list_entries(self) -> int:
        return sum(self.list_sizes(v) for v in range(self.n))


def sample_palettes(n: int, delta: int, params: ParamSet, seed: int) -> PaletteSet:
    """Draw every list independently per (vertex, list, color)."""
    rng = rng_for(seed, "palette")
    beta = params.beta

    rates = {
        "l2": params.l2_rate(delta),
        "l3": params.l3_rate(n, delta),
        "l4_star": params.l2_rate(delta),
        "l4_i": params.q_rate(delta),
        "l5": params.l2_rate(delta),
        "l6_i": params.l6_rate(delta),
    }
    if params.mode == "paper":
        clamped = [k for k, r in rates.items() if r >= 1.0]
        if clamped:
            warnings.warn(f"paper-mode rates clamped to 1 at delta={delta}: {clamped}")

    l1 = rng.integers(1, delta + 1, size=n).astype(np.int64)
    l2 = _sample_color_sets(rng, n, delta, rates["l2"])
    l3 = _sample_color_sets(rng, n, delta, rates["l3"])
    l4_star = _sample_color_sets(rng, n, delta, rates["l4_star"])
    l4_by_i = [_sample_color_sets(rng, n, delta, rates["l4_i"]) for _ in range(beta)]
    l4 = [[l4_by_i[i][v] for i in range(beta)] for v in range(n)]
    l5 = _sample_color_sets(rng, n, delta, rates["l5"])
    l6_by_i = [_sample_color_sets(rng, n, delta, rates["l6_i"]) for _ in range(2 * beta)]
    l6 = [[l6_by_i[i][v] for i in range(2 * beta)] for v in range(n)]

    words = _mask_words(delta)
    masks = np.zeros((n, words), dtype=np.uint64)
    for v in range(n):
        mask = masks[v]
        for c in (
            {int(l1[v])} | l2[v] | l3[v] | l4_star[v] | l5[v]
            | set().union(*l4[v]) | set().union(*l6[v])
        ):
            mask[(c - 1) // 64] |= np.uint64(1) << np.uint64((c - 1) % 64)

    return PaletteSet(
        n=n, delta=delta, beta=beta, l1=l1, l2=l2, l3=l3,
        l4_star=l4_star, l4=l4, l5=l5, l6=l6, masks=masks,
    )


class ConflictGraph:
    """Adjacency over the stored (possibly-monochromatic) edges."""

    def __init__(self, n: int):
        self.n = n
        self.adj: list[set[int]] = [set() for _ in range(n)]
        self.m = 0

    def add_edge(self, u: int, v: int) -> None:
        if v not in self.adj[u]:
            self.adj[u].add(v)
            self.adj[v].add(u)
            self.m += 1

    def add_chunk(self, us: np.ndarray, vs: np.ndarray) -> None:
        for u, v in zip(us.tolist(), vs.tolist()):
            self.add_edge(u, v)

    def neighbors(self, v: int) -> set[int]:
        return self.adj[v]

    def stored_bits(self) -> int:
        return self.m * 2 * max(1, int(np.ceil(np.log2(max(2, self.n)))))


def conflict_keep_chunk(us: np.ndarray, vs: np.ndarray, palettes: PaletteSet) -> np.ndarray:
    return (palettes.masks[us] & palettes.masks[vs]).any(axis=1)


def palette_space_report(palettes: PaletteSet, h: ConflictGraph) -> dict:
    """Deterministic bit accounting; shadow structures are not included."""
    log_delta = max(1, int(np.ceil(np.log2(max(2, palettes.delta)))))
    log_n = max(1, int(np.ceil(np.log2(max(2, palettes.n)))))
    entries = palettes.total_list_entries()
    union_sizes = np.bitwise_count(palettes.masks).sum(axis=1)  # |union of v's lists|
    sizes, counts = np.unique(union_sizes, return_counts=True)
    return {
        "list_entries": entries,
        "list_bits": entries * log_delta,
        "union_size_histogram": dict(zip(sizes.tolist(), counts.tolist())),
        "h_edges": h.m,
        "h_bits": h.m * 2 * log_n,
        "bits": entries * log_delta + h.m * 2 * log_n,
    }
