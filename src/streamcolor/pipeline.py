"""End-to-end orchestration: pre-pass, main pass, post-processing, retries.

A run makes exactly two passes over the edges: the pre-pass does the
degree census, the component colorability gate, and (by default) the
shadow copy that feeds the reference decomposer and final verification;
the main pass feeds the palette filter, the decomposition samplers, and
the sketch bank simultaneously.  Each retry re-seeds every randomized
component and costs one more main pass.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np

from streamcolor import coloring as col
from streamcolor.decomposition import (
    CRITICAL,
    FRIENDLY,
    SMALL,
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
from streamcolor.stream import (
    COLORABLE,
    ComponentCensus,
    StreamSource,
    check_colorability,
    stream_source,
)
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
    delta_min: int = DELTA_MIN_PIPELINE
    overrides: dict = dc_field(default_factory=dict)

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
    recovery: object = None
    dec: object = None
    phase_result: object = None
    critical_helpers: dict = dc_field(default_factory=dict)
    friendly_helpers: dict = dc_field(default_factory=dict)


def _prepass(src: StreamSource, want_shadow: bool):
    """Census + components (+ shadow) in a single pass.

    Without the shadow this holds O(n) words; the shadow itself is the
    explicitly out-of-budget structure.
    """
    stream = src.open()
    n = stream.meta.n
    degrees = np.zeros(n, dtype=np.int64)
    parent = np.arange(n, dtype=np.int64)
    blocks = [] if want_shadow else None
    m = 0
    for block in stream.chunks():
        degrees += np.bincount(block[:, 0], minlength=n)
        degrees += np.bincount(block[:, 1], minlength=n)
        uf_union_batch(parent, block[:, 0], block[:, 1])
        m += block.shape[0]
        if blocks is not None:
            blocks.append(block.copy())
    census = ComponentCensus(n=n, roots=uf_roots(parent), degrees=degrees)
    shadow = None
    if blocks is not None:
        edges = np.concatenate(blocks) if blocks else np.empty((0, 2), dtype=np.int64)
        shadow = AdjacencyOracle(n, edges)
    return census, shadow, m


def _non_edges_in(vertices, graphs) -> list[tuple[int, int]]:
    """The pairs a < b of the vertices that no graph joins, ascending."""
    verts = np.asarray(sorted(vertices), dtype=np.int64)
    joined = np.zeros((verts.size, verts.size), dtype=bool)
    for g in graphs:
        i, j = g.within(verts)
        joined[i, j] = True
    a, b = np.nonzero(np.triu(~joined, 1))
    return list(zip(verts[a].tolist(), verts[b].tolist()))


def _main_pass(src, n, delta, params, seed):
    """The one main pass: every edge chunk feeds the palette filter into H,
    the decomposition samplers and the sketch bank together."""
    palettes = sample_palettes(n, delta, params, seed)
    conflict = ConflictGraph(n)
    collector = SampleCollector(n, delta, params, seed)
    bank = SketchBank(n, delta, params, seed)
    for block in src.open().chunks():
        us = np.ascontiguousarray(block[:, 0])
        vs = np.ascontiguousarray(block[:, 1])
        keep = conflict_keep_chunk(us, vs, palettes)
        conflict.add_chunk(us[keep], vs[keep])
        collector.update_chunk(us, vs)
        bank.update_chunk(us, vs)
    return palettes, conflict.build(), collector.finalize(), bank


def _decompose(shadow, samples, conflict, params, delta):
    """Partition, annotate and classify; verified against the shadow when
    there is one (the report is None in heuristic mode)."""
    if shadow is not None:
        dec = compute_decomposition(shadow, params, delta)
        report = verify_decomposition(dec, shadow, params.eps, delta)
        annotate_cliques(dec, params, delta, shadow)
    else:
        dec = compute_decomposition(None, params, delta, samples=samples, conflict=conflict)
        report = None
        annotate_cliques(dec, params, delta, conflict)
    classify_friendly_lonely(dec, samples, params, delta)
    return dec, report


def _attempt(src, n, delta, params, run_seed, shadow):
    """One main pass plus post-processing; raises RunFailure on bad luck."""
    palettes, conflict, samples, bank = _main_pass(src, n, delta, params, run_seed)
    dec, report = _decompose(shadow, samples, conflict, params, delta)
    if report is not None and not report.ok:
        raise DecompositionFailed(
            report.violations[:3], "verification gate rejected the decomposition"
        )

    critical_helpers = {}
    friendly_helpers = {}
    for i, k in enumerate(dec.cliques):
        if k.size_class == CRITICAL:
            h = find_critical_helper(k.vertices, bank)
            if h is None:
                raise col.RunFailure("helpers", f"no pair recovered for critical clique {i}")
            critical_helpers[i] = h
        elif k.size_class == SMALL and not k.holey and k.kind == FRIENDLY:
            h = find_friendly_helper(k.vertices, k.witness, bank)
            if h is None:
                raise col.RunFailure("helpers", f"no witness triple for friendly clique {i}")
            friendly_helpers[i] = h
    recovery = build_recovery_graph(n, critical_helpers, friendly_helpers)

    graphs = (shadow,) if shadow is not None else (conflict, recovery)
    non_edges_of = {
        i: _non_edges_in(k.vertices, graphs) for i, k in enumerate(dec.cliques)
    }

    phase_result = col.run_phases(
        conflict,
        recovery,
        palettes,
        dec,
        critical_helpers,
        friendly_helpers,
        non_edges_of,
        params,
        run_seed,
        delta,
    )

    space = palette_space_report(palettes, conflict)
    space_report = {
        "palette_bits": space["list_bits"],
        "h_edges": space["h_edges"],
        "h_bits": space["h_bits"],
        "sample_bits": samples.stored_bits(),
        "sketch_bits": bank.stored_bits(),
        "hplus_bits": recovery.stored_bits(),
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
        "recovery": recovery,
        "dec": dec,
        "samples": samples,
        "bank": bank,
        "phase_result": phase_result,
        "space": space_report,
        "critical_helpers": critical_helpers,
        "friendly_helpers": friendly_helpers,
    }


def _verify_against_shadow(colors: np.ndarray, shadow: Graph, delta: int) -> None:
    if (colors < 1).any() or (colors > delta).any():
        raise col.ColoringError("final coloring out of range")
    e = shadow.edges()
    same = np.flatnonzero(colors[e[:, 0]] == colors[e[:, 1]])
    if same.size:
        u, v = e[same[0]].tolist()
        raise col.ColoringError(f"monochromatic edge ({u},{v})")


def color_run(cfg: RunConfig) -> RunResult:
    """Full run: gate, two passes, phases, retries; never raises for
    bad luck or impossible inputs, only for usage errors and bugs."""
    src = stream_source(cfg.source, seed=cfg.seed)
    n = src.n
    census, shadow, m = _prepass(src, want_shadow=not cfg.no_shadow)
    delta = int(census.degrees.max()) if n else 0
    if cfg.delta is not None and cfg.delta != delta:
        raise ValueError(f"--delta {cfg.delta} does not match census max degree {delta}")

    base_report = {"n": n, "m": m, "delta": delta, "mode": cfg.mode, "seed": cfg.seed}

    verdicts = check_colorability(census, delta)
    bad = [v for v in verdicts if v.verdict != COLORABLE]
    if bad:
        listing = [
            {"verdict": v.verdict, "vertices": v.stat.vertices[:12], "size": v.stat.vcount}
            for v in bad
        ]
        return RunResult(
            status=NOT_COLORABLE,
            colors=None,
            report=base_report | {"status": NOT_COLORABLE, "components": listing},
            delta=delta,
            shadow=shadow,
        )

    raw_bytes = m * 2 * 8
    if delta < cfg.delta_min or (cfg.budget is not None and raw_bytes <= cfg.budget):
        adj_source = shadow
        if adj_source is None:  # offline path stores the graph by definition
            _, adj_source, _ = _prepass(src, want_shadow=True)
        adj = [adj_source.neighbors(v) for v in range(n)]
        colors = col.offline_brooks(adj, max(delta, 1))
        report = base_report | {
            "status": SUCCESS,
            "pipeline": "offline",
            "attempts": 0,
            "passes": src.passes,
        }
        return RunResult(
            status=SUCCESS, colors=colors, report=report, delta=delta, shadow=adj_source
        )

    params = ParamSet.make(cfg.mode, n, delta, **cfg.overrides)
    params.validate_for(delta)

    failures: list[dict] = []
    for attempt in range(cfg.retries + 1):
        run_seed = cfg.seed + attempt
        try:
            out = _attempt(src, n, delta, params, run_seed, shadow)
        except col.RunFailure as f:
            failures.append({"attempt": attempt, "phase": f.phase, "detail": f.detail})
            continue
        except DecompositionFailed as f:
            report = base_report | {
                "status": PIPELINE_FAILED,
                "pipeline": "streaming",
                "failures": failures + [{"attempt": attempt, "phase": "decomposition", "detail": str(f)}],
                "passes": src.passes,
            }
            return RunResult(
                status=PIPELINE_FAILED, colors=None, report=report,
                delta=delta, params=params, shadow=shadow,
            )
        colors = out["phase_result"].colors
        if shadow is not None:
            _verify_against_shadow(colors, shadow, delta)
        pr = out["phase_result"]
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
            recovery=out["recovery"],
            dec=out["dec"],
            phase_result=pr,
            critical_helpers=out["critical_helpers"],
            friendly_helpers=out["friendly_helpers"],
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

    Returns (decomposition, verification report); the report is None in
    heuristic (no-shadow) mode where there is nothing to verify against.
    """
    src = stream_source(source, seed=seed)
    census, shadow, _ = _prepass(src, want_shadow=not no_shadow)
    delta = int(census.degrees.max()) if src.n else 0
    params = ParamSet.make(mode, src.n, delta)
    params.validate_for(delta)

    _, conflict, samples, _ = _main_pass(src, src.n, delta, params, seed)
    return _decompose(shadow, samples, conflict, params, delta)


def verify_coloring(graph_source: str, colors: dict[int, int] | np.ndarray,
                    delta: int, seed: int = 0) -> tuple[bool, str]:
    """Stream the edges once and check the coloring is total, in range,
    and has no monochromatic edge."""
    src = stream_source(graph_source, seed=seed)
    n = src.n
    arr = np.zeros(n, dtype=np.int64)
    if isinstance(colors, dict):
        for v, c in colors.items():
            if not 0 <= v < n:
                return False, f"vertex {v} out of range"
            arr[v] = c
    else:
        arr = np.asarray(colors, dtype=np.int64)
        if arr.shape[0] != n:
            return False, f"coloring covers {arr.shape[0]} of {n} vertices"
    missing = np.flatnonzero(arr == 0)
    if missing.size:
        return False, f"vertex {int(missing[0])} uncolored"
    if (arr < 1).any() or (arr > delta).any():
        v = int(np.flatnonzero((arr < 1) | (arr > delta))[0])
        return False, f"color out of range at vertex {v}: {int(arr[v])}"
    for block in src.open().chunks():
        same = arr[block[:, 0]] == arr[block[:, 1]]
        if same.any():
            i = int(np.flatnonzero(same)[0])
            return False, f"monochromatic edge ({int(block[i, 0])},{int(block[i, 1])})"
    return True, "ok"
