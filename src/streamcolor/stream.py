"""Edge streams: single-pass enforcement, census types, colorability gate.

The stream abstraction materializes its source once (file or generator),
then hands out strictly sequential single-consumption passes.  Arrival
order is a deterministic shuffle of the source order by the stream seed,
so every run exercises an arbitrary-looking but reproducible order.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from streamcolor.params import rng_for


class StreamError(RuntimeError):
    pass


class ParseError(ValueError):
    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(f"line {line}: {message}" if line else message)


@dataclass
class StreamMeta:
    n: int
    m: int | None = None        # filled after a completed pass
    seed: int = 0


class EdgeStream:
    """One pass over the edges; pulling after exhaustion raises.

    Re-opening (a fresh pass from the same source) is reserved for the
    pre-pass/main-pass pair and the verifier.
    """

    def __init__(self, meta: StreamMeta, edges: np.ndarray):
        self.meta = meta
        self._edges = edges
        self._cursor = 0
        self.consumed = False

    def __len__(self) -> int:
        return self._edges.shape[0]

    def chunks(self, size: int = 4096):
        """Yield (k, 2) int64 edge blocks exactly once."""
        if self.consumed:
            raise StreamError("stream already consumed; re-open the source for a new pass")
        total = self._edges.shape[0]
        while self._cursor < total:
            block = self._edges[self._cursor : self._cursor + size]
            self._cursor += block.shape[0]
            yield block
        self.consumed = True
        self.meta.m = total


class StreamSource:
    """Parsed edge data that opens seeded single-pass streams and counts them."""

    def __init__(self, n: int, edges: np.ndarray, seed: int = 0, name: str = "<edges>"):
        if n < 1:
            raise ParseError("vertex count must be >= 1")
        self.n = n
        self.seed = seed
        self.name = name
        self._edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        self.passes = 0
        order = rng_for(seed, "stream").permutation(self._edges.shape[0])
        self._delivery = self._edges[order]

    @property
    def m(self) -> int:
        return self._edges.shape[0]

    def open(self) -> EdgeStream:
        """Start a new pass (same delivery order every time)."""
        self.passes += 1
        return EdgeStream(StreamMeta(n=self.n, seed=self.seed), self._delivery)

    @classmethod
    def from_file(cls, path: str, seed: int = 0) -> "StreamSource":
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
        arr = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        return cls(n, arr, seed=seed, name=os.path.basename(path))


def stream_source(source: str, seed: int = 0) -> StreamSource:
    from streamcolor.generators import is_generator_spec, source_from_spec

    if is_generator_spec(source):
        return source_from_spec(source, seed=seed)
    return StreamSource.from_file(source, seed=seed)


# ---------------------------------------------------------------------------
# Pre-scan statistics
# ---------------------------------------------------------------------------


@dataclass
class ComponentStat:
    vertices: list[int]
    vcount: int
    ecount: int
    max_degree: int
    min_degree: int


@dataclass
class ComponentCensus:
    """Union-find view of one full pass: per-component counts and degrees."""

    n: int
    roots: np.ndarray
    degrees: np.ndarray

    def components(self) -> list[ComponentStat]:
        """One stat per component, in ascending root order."""
        order = np.argsort(self.roots, kind="stable")
        roots = self.roots[order]
        starts = np.flatnonzero(np.r_[True, roots[1:] != roots[:-1]])
        degs = self.degrees[order]
        # every edge stays inside its component
        ecounts = np.add.reduceat(degs, starts) // 2
        maxs = np.maximum.reduceat(degs, starts)
        mins = np.minimum.reduceat(degs, starts)
        verts = order.tolist()
        bounds = starts.tolist() + [len(verts)]
        return [
            ComponentStat(vertices=verts[a:b], vcount=b - a,
                          ecount=e, max_degree=hi, min_degree=lo)
            for a, b, e, hi, lo in zip(bounds, bounds[1:], ecounts.tolist(),
                                       maxs.tolist(), mins.tolist())
        ]


COLORABLE = "Colorable"
CLIQUE_COMPONENT = "CliqueComponent"
ODD_CYCLE_COMPONENT = "OddCycleComponent"


@dataclass
class ComponentVerdict:
    verdict: str
    stat: ComponentStat


def check_colorability(census: ComponentCensus, delta: int) -> list[ComponentVerdict]:
    """Flag each component as Colorable unless it is exactly a
    (delta+1)-clique or (at delta=2) an odd cycle - the only graphs with
    no proper coloring in delta colors."""
    if delta != int(census.degrees.max() if census.n else 0):
        raise ValueError(f"delta={delta} inconsistent with census max degree")
    verdicts = []
    for stat in census.components():
        if (
            delta == 2
            and stat.max_degree == 2
            and stat.min_degree == 2
            and stat.vcount % 2 == 1
            and stat.ecount == stat.vcount
        ):
            verdicts.append(ComponentVerdict(ODD_CYCLE_COMPONENT, stat))
        elif (
            stat.vcount == delta + 1
            and stat.ecount == delta * (delta + 1) // 2
            and stat.max_degree == delta
            and stat.min_degree == delta
        ):
            verdicts.append(ComponentVerdict(CLIQUE_COMPONENT, stat))
        else:
            verdicts.append(ComponentVerdict(COLORABLE, stat))
    return verdicts
