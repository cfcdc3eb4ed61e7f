"""Per-vertex color-list sampling and the conflict-graph edge filter.

Each vertex samples six independent lists over the colors 1..delta.  A
list is a row over the palette in which color c sits at column (or bit)
c-1: L2, L3, L4* and L5 are (n, delta) bool arrays and the 2*beta
recolor lists L6 are (n, 2*beta, delta); the beta pair-lists L4 are held
as (n, beta, words) uint64, bit c-1 for color c, the layout of the union
masks (`pack_rows`, `unpack_rows`); L1 is one color per vertex.

A family whose per-color rate clamps to 1 holds the whole palette in
every list.  It draws nothing and is kept as a read-only, zero-stride
broadcast that holds no bytes, and `PaletteSet.full` names it.  One
full family makes every vertex's union the whole palette.

An edge is stored iff the endpoint lists intersect, since those are the
only edges that can ever become monochromatic when vertices stick to
their sampled colors.  The filter reads per-vertex uint64 union masks,
so it is a vectorized AND; when every union is full it keeps every edge
without reading them.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from streamcolor.graph import Graph
from streamcolor.params import ParamSet, rng_for

FAMILIES = ("l2", "l3", "l4_star", "l4", "l5", "l6")


def pack_rows(rows: np.ndarray) -> np.ndarray:
    """(..., delta) bool rows -> (..., words) uint64, bit c-1 of a row set
    when color c is in it; bits from delta up stay zero."""
    lead, delta = rows.shape[:-1], rows.shape[-1]
    words = -(-delta // 64)
    bits = np.zeros(lead + (64 * words,), dtype=bool)
    bits[..., :delta] = rows
    # one flat pack: a padded row is whole bytes, so rows do not mix
    return np.packbits(bits.reshape(-1), bitorder="little").view("<u8").reshape(lead + (words,))


def unpack_rows(words: np.ndarray, delta: int) -> np.ndarray:
    """(..., words) uint64 -> (..., delta) bool rows; undoes `pack_rows`."""
    data = np.ascontiguousarray(words).view(np.uint8)
    return np.unpackbits(data, axis=-1, count=delta, bitorder="little").view(bool)


def _draw_lists(rng, shape: tuple[int, ...], rate: float) -> np.ndarray:
    """Independent Bernoulli(rate) memberships for an (n, [k,] delta)
    bool array of lists, drawn one (n, delta) block per list index."""
    if rate >= 1.0:
        return np.broadcast_to(True, shape)
    n, delta = shape[0], shape[-1]
    out = np.empty(shape, dtype=bool)
    for block in out.reshape(n, -1, delta).transpose(1, 0, 2):
        np.less(rng.random((n, delta)), rate, out=block)
    return out


def _draw_packed_lists(rng, n: int, k: int, delta: int, rate: float) -> np.ndarray:
    """`_draw_lists` of an (n, k, delta) family, from the same draws, held
    as (n, k, words) uint64: each block is written into one zero-padded
    bool buffer and packed flat."""
    full = pack_rows(np.ones(delta, dtype=bool))
    if rate >= 1.0:
        return np.broadcast_to(full, (n, k, full.size))
    out = np.empty((n, k, full.size), dtype=np.uint64)
    bits = np.zeros((n, 64 * full.size), dtype=bool)
    for i in range(k):
        np.less(rng.random((n, delta)), rate, out=bits[:, :delta])
        out[:, i] = np.packbits(bits.reshape(-1), bitorder="little").view("<u8").reshape(n, -1)
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
    l4: np.ndarray                       # (n, beta, words) uint64 pair-lists, bit c-1
    l5: np.ndarray                       # (n, delta) bool
    l6: np.ndarray                       # (n, 2*beta, delta) bool
    # the families whose every list is the whole palette; each is a
    # read-only broadcast, so a write into one raises
    full: frozenset[str] = frozenset()
    masks: np.ndarray = field(init=False, repr=False)  # (n, words) uint64

    def __post_init__(self):
        for name in self.full:
            if getattr(self, name).flags.writeable:
                raise ValueError(f"full family {name} must be read-only")
        self.masks = union_masks(self)

    def total_list_entries(self) -> int:
        total = self.n
        for name in FAMILIES:
            lists = getattr(self, name)
            if name in self.full:
                total += math.prod(lists.shape[:-1]) * self.delta
            elif name == "l4":
                total += int(np.bitwise_count(lists).sum())
            else:
                total += int(np.count_nonzero(lists))
        return total


def union_masks(pal: PaletteSet) -> np.ndarray:
    """(n, words) uint64 masks: bit c-1 of v's row is set iff color c is
    in any of v's lists.  With a full family every row is the whole
    palette, returned as a broadcast of that one row."""
    if pal.full:
        full = pack_rows(np.ones(pal.delta, dtype=bool))
        return np.broadcast_to(full, (pal.n, full.size))
    union = pal.l2 | pal.l3 | pal.l4_star | pal.l5 | pal.l6.any(axis=1)
    union[np.arange(pal.n), pal.l1 - 1] = True
    return pack_rows(union) | np.bitwise_or.reduce(pal.l4, axis=1)


def sample_palettes(n: int, delta: int, params: ParamSet, seed: int) -> PaletteSet:
    """Draw every list independently per (vertex, list, color)."""
    rng = rng_for(seed, "palette")
    beta = params.beta

    rates = {
        "l2": params.l2_rate(delta),
        "l3": params.l3_rate(n, delta),
        "l4_star": params.l2_rate(delta),
        "l4": params.q_rate(delta),
        "l5": params.l2_rate(delta),
        "l6": params.l6_rate(delta),
    }
    clamped = [k for k, r in rates.items() if r >= 1.0]
    if params.mode == "paper" and clamped:
        warnings.warn(f"paper-mode rates clamped to 1 at delta={delta}: {clamped}")

    l1 = rng.integers(1, delta + 1, size=n).astype(np.int64)
    l2 = _draw_lists(rng, (n, delta), rates["l2"])
    l3 = _draw_lists(rng, (n, delta), rates["l3"])
    l4_star = _draw_lists(rng, (n, delta), rates["l4_star"])
    l4 = _draw_packed_lists(rng, n, beta, delta, rates["l4"])
    l5 = _draw_lists(rng, (n, delta), rates["l5"])
    l6 = _draw_lists(rng, (n, 2 * beta, delta), rates["l6"])
    return PaletteSet(
        n=n, delta=delta, beta=beta, l1=l1, l2=l2, l3=l3,
        l4_star=l4_star, l4=l4, l5=l5, l6=l6, full=frozenset(clamped),
    )


class ConflictGraph:
    """The graph H of the stored (possibly-monochromatic) edges, fed the
    filter's verdicts chunk by chunk.  Over a base holding every streamed
    edge (the shadow) only the dropped edges are stored, and `build`
    returns the base object itself when there are none, else the base
    less them; without a base the kept edges are stored and sorted."""

    def __init__(self, n: int, base: Graph | None = None):
        self.n = n
        self.base = base
        self._chunks: list[np.ndarray] = []

    def add_chunk(self, us: np.ndarray, vs: np.ndarray, keep: np.ndarray) -> None:
        store = keep if self.base is None else ~keep
        if store.any():
            self._chunks.append(np.stack([us[store], vs[store]], axis=1))

    def build(self) -> Graph:
        if self.base is not None and not self._chunks:
            return self.base
        edges = np.concatenate(self._chunks) if self._chunks else np.empty((0, 2), dtype=np.int64)
        if self.base is not None:  # a streamed edge may come in either orientation
            e, n = self.base.edges(), self.n
            edges = e[~np.isin(e[:, 0] * n + e[:, 1], edges.min(axis=1) * n + edges.max(axis=1))]
        return Graph(self.n, edges)


def conflict_keep_chunk(us: np.ndarray, vs: np.ndarray, palettes: PaletteSet) -> np.ndarray:
    if palettes.full:  # every union is the whole palette: all pairs meet
        return np.ones(us.size, dtype=bool)
    return (palettes.masks[us] & palettes.masks[vs]).any(axis=1)


def palette_space_report(palettes: PaletteSet, h: Graph) -> dict:
    """Deterministic bit accounting; shadow structures are not included."""
    log_delta = max(1, int(np.ceil(np.log2(max(2, palettes.delta)))))
    entries = palettes.total_list_entries()
    return {
        "list_entries": entries,
        "list_bits": entries * log_delta,
        "h_edges": h.m,
        "h_bits": h.stored_bits(),
        "bits": entries * log_delta + h.stored_bits(),
    }
