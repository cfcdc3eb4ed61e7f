"""End-to-end orchestration: pre-pass, main pass, post-processing, retries.

A run makes exactly two passes over the edges: the pre-pass does the
degree census, the component colorability gate, and (by default) the
shadow copy that feeds the reference decomposer and final verification;
the main pass feeds the palette filter, the neighbor sampler, and the
sketch bank simultaneously; the bank sees only the edges the filter drops
and reads the rest from H.  So does the sampler while its rate is clamped
to 1: its sample is H plus the dropped edges, and H itself when none is
dropped, as on every run: L3's rate is 1 for every n and delta in both
modes, so H keeps every edge.  With a shadow, H is the shadow less the
dropped edges, so on every shadow run the shadow, H and the sample are
one object.  Each retry re-seeds every randomized component and costs
one more main pass.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from streamcolor import coloring as col
from streamcolor.decomposition import (
    DecompositionFailed,
    SampleCollector,
    annotate_cliques,
    classify_friendly_lonely,
    compute_decomposition,
    verify_decomposition,
)
from streamcolor.field import SketchBank
from streamcolor.graph import Graph
from streamcolor.helpers import build_recovery_graph, find_critical_helper, find_friendly_helper
from streamcolor.palette import (
    ConflictGraph,
    conflict_keep_chunk,
    palette_space_report,
    sample_palettes,
)
from streamcolor.params import DELTA_MIN_PIPELINE, ParamSet
from streamcolor.stream import StreamSource, check_colorability, stream_source
from streamcolor._kernels import uf_roots, uf_union_batch

SUCCESS = "success"
NOT_COLORABLE = "not-colorable"
PIPELINE_FAILED = "pipeline-failed"

# The pre-pass builds the shadow through this name, which perfbench's
# tracer times as the shadow build.
AdjacencyOracle = Graph


@dataclass
class RunConfig:
    source: str
    mode: str = "desk"
    seed: int = 0
    retries: int = 2
    delta: int | None = None           # assert against the census
    no_shadow: bool = False            # heuristic decomposition, no verification
    budget: int | None = None          # bytes; store-and-solve when the graph fits

    def __post_init__(self):
        if self.retries < 0:
            raise ValueError("retries must be >= 0")


@dataclass
class RunResult:
    status: str
    colors: np.ndarray | None
    report: dict
    # rich attachments for tests and tooling
    delta: int = 0
    params: ParamSet | None = None
    shadow: Graph | None = None
    palettes: object = None
    conflict: object = None
    dec: object = None
    phase_result: object = None      # H+ and the helpers used are read here


def _prepass(src: StreamSource, want_shadow: bool):
    """Degrees and union-find roots in a single pass, and the shadow:
    (degrees, roots, shadow or None, m).

    Without the shadow this holds O(n) words; the shadow, the graph of the
    source's edges, is the explicitly out-of-budget structure.
    """
    n = src.n
    degrees = np.zeros(n, dtype=np.int64)
    parent = np.arange(n, dtype=np.int64)
    m = 0
    for block in src.open().chunks():
        degrees += np.bincount(block[:, 0], minlength=n)
        degrees += np.bincount(block[:, 1], minlength=n)
        uf_union_batch(parent, block[:, 0], block[:, 1])
        m += block.shape[0]
    shadow = AdjacencyOracle(n, src.edges) if want_shadow else None
    return degrees, uf_roots(parent), shadow, m


def _main_pass(src, n, delta, params, seed, bank=None, shadow=None):
    """The one main pass: every edge chunk feeds the palette filter into H,
    the neighbor sampler and, when one is given, the sketch bank together.

    H is the shadow less the edges the filter drops when the shadow is
    given (`ConflictGraph`), else the graph of the kept edges.  The bank
    is fed only the dropped edges, and is then given H: its stored row of
    v plus the columns over v's row of H is v's row over every edge, the
    sum still below p^2 (`SketchBank`).  While the sample's rate is clamped
    to 1 the sampler, too, is fed only the dropped edges, and its sample
    is H plus those (`SampleCollector.finalize`).  H keeps every edge
    unless the palettes are hand-built or the ParamSet overridden, so
    neither is fed any, and the sample is H: the shadow, when given."""
    palettes = sample_palettes(n, delta, params, seed)
    conflict = ConflictGraph(n, shadow)
    collector = SampleCollector(n, delta, params, seed)
    for block in src.open().chunks():
        us = np.ascontiguousarray(block[:, 0])
        vs = np.ascontiguousarray(block[:, 1])
        keep = conflict_keep_chunk(us, vs, palettes)
        conflict.add_chunk(us, vs, keep)
        dropped = us[~keep], vs[~keep]
        collector.update_chunk(*(dropped if collector.clamped else (us, vs)))
        if bank is not None:
            bank.update_chunk(*dropped)
    h = conflict.build()
    if bank is not None:
        bank.h = h
    return palettes, h, collector.finalize(h)


def _decompose(shadow, isample, conflict, params, delta):
    """Partition, annotate and classify; verified against the shadow when
    there is one (the violations are None in heuristic mode, which reads H
    and the neighbor sample)."""
    graph = conflict if shadow is None else shadow
    dec = compute_decomposition(graph, params, delta, isample if shadow is None else None)
    report = None if shadow is None else verify_decomposition(dec, shadow, params.eps, delta)
    annotate_cliques(dec, params, delta, graph)
    classify_friendly_lonely(dec, isample, params, delta)
    return dec, report


def _attempt(src, n, delta, params, run_seed, shadow):
    """One main pass plus post-processing; raises RunFailure on bad luck."""
    bank = SketchBank(n, delta, params, run_seed)
    palettes, conflict, isample = _main_pass(src, n, delta, params, run_seed, bank, shadow)
    dec, report = _decompose(shadow, isample, conflict, params, delta)
    if report:
        raise DecompositionFailed([], "verification gate rejected the decomposition: "
                                  + "; ".join(report[:3]))

    def find_helpers(critical, friendly):
        # one batched search for each kind; failures are reported in clique
        # order, so the first failing clique is named
        found = dict(zip(critical, find_critical_helper(
            [dec.cliques[i].vertices for i in critical], bank))) if critical else {}
        friendly_helpers = dict(zip(friendly, find_friendly_helper(
            [(dec.cliques[i].vertices, dec.cliques[i].witness) for i in friendly],
            bank))) if friendly else {}
        for i in sorted(critical + friendly):
            if i in found and found[i] is None:
                raise col.RunFailure("helpers", f"no pair recovered for critical clique {i}")
            if i in friendly_helpers and friendly_helpers[i] is None:
                raise col.RunFailure("helpers", f"no witness triple for friendly clique {i}")
        return found, friendly_helpers, build_recovery_graph(n, found, friendly_helpers)

    phase_result = col.run_phases(conflict, palettes, dec, find_helpers, params, run_seed)

    space = palette_space_report(palettes, conflict)
    space_report = {
        "palette_bits": space["list_bits"],
        "h_edges": space["h_edges"],
        "h_bits": space["h_bits"],
        "sample_bits": isample.stored_bits(),
        "sketch_bits": bank.stored_bits(),
        "hplus_bits": phase_result.recovery.stored_bits(),
        "shadow_excluded": True,
    }
    space_report["total_bits"] = (
        space_report["palette_bits"]
        + space_report["h_bits"]
        + space_report["sample_bits"]
        + space_report["sketch_bits"]
        + space_report["hplus_bits"]
    )
    return {
        "palettes": palettes,
        "conflict": conflict,
        "dec": dec,
        "phase_result": phase_result,
        "space": space_report,
    }


def _coloring_fault(colors: np.ndarray, edges: np.ndarray, delta: int) -> str | None:
    """The first fault of a total coloring: the first vertex whose color is
    outside 1..delta, else the first monochromatic edge in edges order."""
    outside = np.flatnonzero((colors < 1) | (colors > delta))
    if outside.size:
        v = int(outside[0])
        return f"color out of range at vertex {v}: {int(colors[v])}"
    same = np.flatnonzero(colors[edges[:, 0]] == colors[edges[:, 1]])
    if same.size:
        u, v = edges[same[0]].tolist()
        return f"monochromatic edge ({u},{v})"
    return None


def color_run(cfg: RunConfig) -> RunResult:
    """Full run: gate, two passes, phases, retries; never raises for
    bad luck or impossible inputs, only for usage errors and bugs."""
    src = stream_source(cfg.source, seed=cfg.seed)
    n = src.n
    degrees, roots, shadow, m = _prepass(src, want_shadow=not cfg.no_shadow)
    delta = int(degrees.max())
    if cfg.delta is not None and cfg.delta != delta:
        raise ValueError(f"--delta {cfg.delta} does not match census max degree {delta}")

    base_report = {"n": n, "m": m, "delta": delta, "mode": cfg.mode, "seed": cfg.seed}

    listing = check_colorability(roots, degrees, delta)
    if listing:
        return RunResult(
            status=NOT_COLORABLE,
            colors=None,
            report=base_report | {"status": NOT_COLORABLE, "components": listing},
            delta=delta,
            shadow=shadow,
        )

    raw_bytes = m * 2 * 8
    if delta < DELTA_MIN_PIPELINE or (cfg.budget is not None and raw_bytes <= cfg.budget):
        adj_source = shadow
        if adj_source is None:  # offline path stores the graph by definition
            adj_source = _prepass(src, want_shadow=True)[2]
        colors = col.offline_brooks(adj_source, max(delta, 1))
        fault = _coloring_fault(colors, adj_source.edges(), delta)
        if fault is not None:
            raise col.ColoringError(f"final coloring: {fault}")
        report = base_report | {
            "status": SUCCESS,
            "pipeline": "offline",
            "attempts": 0,
            "passes": src.passes,
        }
        return RunResult(
            status=SUCCESS, colors=colors, report=report, delta=delta, shadow=adj_source
        )

    params = ParamSet.make(cfg.mode, n, delta)
    params.validate_for(delta)

    failures: list[dict] = []
    for attempt in range(cfg.retries + 1):
        run_seed = cfg.seed + attempt
        try:
            out = _attempt(src, n, delta, params, run_seed, shadow)
        except col.RunFailure as f:
            failures.append({"attempt": attempt, "phase": f.phase, "detail": f.detail})
            continue
        except DecompositionFailed as f:  # a wrong decomposition is not bad luck
            failures.append({"attempt": attempt, "phase": "decomposition", "detail": str(f)})
            break
        pr = out["phase_result"]
        colors = pr.colors
        fault = None if shadow is None else _coloring_fault(colors, shadow.edges(), delta)
        if fault is not None:
            raise col.ColoringError(f"final coloring: {fault}")
        cliques = [
            {
                "index": i,
                "size": len(k),
                "size_class": k.size_class,
                "non_edges": k.non_edges,
                "holey": k.holey,
                "kind": k.kind,
                "responsible_phase": pr.responsible[i],
                "colored_by": pr.colored_by[i],
            }
            for i, k in enumerate(out["dec"].cliques)
        ]
        report = base_report | {
            "status": SUCCESS,
            "pipeline": "streaming",
            "attempts": attempt + 1,
            "passes": src.passes,
            "failures": failures,
            "sparse_vertices": len(out["dec"].v_sparse),
            "cliques": cliques,
            "space": out["space"],
        }
        return RunResult(
            status=SUCCESS,
            colors=colors,
            report=report,
            delta=delta,
            params=params,
            shadow=shadow,
            palettes=out["palettes"],
            conflict=out["conflict"],
            dec=out["dec"],
            phase_result=pr,
        )

    report = base_report | {
        "status": PIPELINE_FAILED,
        "pipeline": "streaming",
        "failures": failures,
        "passes": src.passes,
    }
    return RunResult(
        status=PIPELINE_FAILED, colors=None, report=report,
        delta=delta, params=params, shadow=shadow,
    )


def decompose_run(source: str, seed: int = 0, mode: str = "desk",
                  no_shadow: bool = False) -> tuple[object, object | None]:
    """Partition + classification for the `decompose` subcommand, from the
    same pre-pass and main pass as the first attempt of `color_run`.

    Returns (decomposition, the verifier's violations); the list is None
    in heuristic (no-shadow) mode where there is nothing to verify against.
    """
    src = stream_source(source, seed=seed)
    degrees, _, shadow, _ = _prepass(src, want_shadow=not no_shadow)
    delta = int(degrees.max())
    params = ParamSet.make(mode, src.n, delta)
    params.validate_for(delta)

    _, conflict, isample = _main_pass(src, src.n, delta, params, seed, shadow=shadow)
    return _decompose(shadow, isample, conflict, params, delta)


def verify_coloring(graph_source: str, colors: dict[int, int] | np.ndarray,
                    delta: int, seed: int = 0) -> tuple[bool, str]:
    """Check the coloring is total, in range, and has no monochromatic
    edge; the edges are read in source order, so the first monochromatic
    edge of the file is the one reported.  `seed` selects the instance of
    a generator spec."""
    src = stream_source(graph_source, seed=seed)
    n = src.n
    arr = np.zeros(n, dtype=np.int64)
    if isinstance(colors, dict):
        vs = np.fromiter(colors, dtype=np.int64, count=len(colors))
        outside = (vs < 0) | (vs >= n)
        if outside.any():
            return False, f"vertex {int(vs[outside.argmax()])} out of range"
        arr[vs] = np.fromiter(colors.values(), dtype=np.int64, count=len(colors))
    else:
        arr = np.asarray(colors, dtype=np.int64)
        if arr.shape[0] != n:
            return False, f"coloring covers {arr.shape[0]} of {n} vertices"
    missing = np.flatnonzero(arr == 0)
    if missing.size:
        return False, f"vertex {int(missing[0])} uncolored"
    fault = _coloring_fault(arr, src.edges, delta)
    return fault is None, fault or "ok"
