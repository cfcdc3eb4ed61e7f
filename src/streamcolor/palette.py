"""Per-vertex color-list sampling and the conflict-graph edge filter.

Each vertex samples six independent lists over the colors 1..delta.  A
list is a boolean row over the palette whose column c-1 is set when
color c is in it: L2, L3, L4* and L5 are (n, delta) arrays, the beta
pair-lists L4 are (n, beta, delta) and the 2*beta recolor lists L6 are
(n, 2*beta, delta); L1 is one color per vertex.  An edge is stored iff
the endpoint lists intersect, since those are the only edges that can
ever become monochromatic when vertices stick to their sampled colors.
The filter reads per-vertex uint64 union masks packed from the rows, so
it is a vectorized AND.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from streamcolor.graph import Graph
from streamcolor.params import ParamSet, rng_for


def _draw_lists(rng, shape: tuple[int, ...], rate: float) -> np.ndarray:
    """Independent Bernoulli(rate) memberships for an (n, [k,] delta)
    array of lists, drawn one (n, delta) block per list index."""
    if rate >= 1.0:
        return np.ones(shape, dtype=bool)
    n, delta = shape[0], shape[-1]
    out = np.empty(shape, dtype=bool)
    for block in out.reshape(n, -1, delta).transpose(1, 0, 2):
        block[...] = rng.random((n, delta)) < rate
    return out


@dataclass
class PaletteSet:
    """All sampled lists plus the union bit masks the edge filter reads."""

    n: int
    delta: int
    beta: int
    l1: np.ndarray                       # (n,) one uniform color per vertex
    l2: np.ndarray                       # (n, delta) bool
    l3: np.ndarray                       # (n, delta) bool
    l4_star: np.ndarray                  # (n, delta) bool
    l4: np.ndarray                       # (n, beta, delta) bool pair-lists
    l5: np.ndarray                       # (n, delta) bool
    l6: np.ndarray                       # (n, 2*beta, delta) bool
    masks: np.ndarray = field(init=False, repr=False)  # (n, words) uint64

    def __post_init__(self):
        self.masks = union_masks(self)

    def total_list_entries(self) -> int:
        lists = (self.l2, self.l3, self.l4_star, self.l4, self.l5, self.l6)
        return self.n + sum(int(np.count_nonzero(a)) for a in lists)


def union_masks(pal: PaletteSet) -> np.ndarray:
    """(n, words) uint64 masks: bit c-1 of v's row is set iff color c is
    in any of v's lists."""
    union = pal.l2 | pal.l3 | pal.l4_star | pal.l5 | pal.l4.any(axis=1) | pal.l6.any(axis=1)
    union[np.arange(pal.n), pal.l1 - 1] = True
    bits = np.pad(union, ((0, 0), (0, -pal.delta % 64)))
    return np.packbits(bits, axis=1, bitorder="little").view("<u8")


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
    l2 = _draw_lists(rng, (n, delta), rates["l2"])
    l3 = _draw_lists(rng, (n, delta), rates["l3"])
    l4_star = _draw_lists(rng, (n, delta), rates["l4_star"])
    l4 = _draw_lists(rng, (n, beta, delta), rates["l4_i"])
    l5 = _draw_lists(rng, (n, delta), rates["l5"])
    l6 = _draw_lists(rng, (n, 2 * beta, delta), rates["l6_i"])
    return PaletteSet(
        n=n, delta=delta, beta=beta, l1=l1, l2=l2, l3=l3,
        l4_star=l4_star, l4=l4, l5=l5, l6=l6,
    )


class ConflictGraph:
    """The stored (possibly-monochromatic) edges, kept chunk by chunk during
    the pass; `build` turns them into the graph H."""

    def __init__(self, n: int):
        self.n = n
        self._chunks: list[np.ndarray] = []

    def add_chunk(self, us: np.ndarray, vs: np.ndarray) -> None:
        self._chunks.append(np.stack([us, vs], axis=1))

    def build(self) -> Graph:
        edges = np.concatenate(self._chunks) if self._chunks else np.empty((0, 2), dtype=np.int64)
        return Graph(self.n, edges)


def conflict_keep_chunk(us: np.ndarray, vs: np.ndarray, palettes: PaletteSet) -> np.ndarray:
    return (palettes.masks[us] & palettes.masks[vs]).any(axis=1)


def palette_space_report(palettes: PaletteSet, h: Graph) -> dict:
    """Deterministic bit accounting; shadow structures are not included."""
    log_delta = max(1, int(np.ceil(np.log2(max(2, palettes.delta)))))
    entries = palettes.total_list_entries()
    union_sizes = np.bitwise_count(palettes.masks).sum(axis=1)  # |union of v's lists|
    sizes, counts = np.unique(union_sizes, return_counts=True)
    return {
        "list_entries": entries,
        "list_bits": entries * log_delta,
        "union_size_histogram": dict(zip(sizes.tolist(), counts.tolist())),
        "h_edges": h.m,
        "h_bits": h.stored_bits(),
        "bits": entries * log_delta + h.stored_bits(),
    }
