"""Layer spans for one `color_run`, recorded from outside the package.

`Tracer` replaces, for the length of a `with` block, the names that
`streamcolor.pipeline` looks up at call time (its module attributes,
`coloring.run_phases`, `helpers.safe_recover` and the per-chunk methods of
the main-pass consumers) with wrappers that record a span: name, parent
span, start and end. Spans stay in memory; `summary` turns them into the
per-layer metrics and `spans` is written out by the caller at the end.
Nothing under `src/` changes.
"""

from __future__ import annotations

import functools
import time
from collections import Counter, defaultdict

import numpy as np

# attribute of streamcolor.pipeline -> span name ("<layer>.<what>")
PIPELINE_NAMES = {
    "stream_source": "stream.parse",
    "_prepass": "pipeline.prepass",
    "uf_union_batch": "kernels.uf_union",
    "uf_roots": "kernels.uf_roots",
    "AdjacencyOracle": "stream.shadow_build",
    "check_colorability": "stream.colorability",
    "_attempt": "pipeline.attempt",
    "sample_palettes": "palette.sample",
    "ConflictGraph": "palette.h_init",
    "conflict_keep_chunk": "palette.filter",
    "palette_space_report": "palette.space_report",
    "SampleCollector": "decomposition.collect_init",
    "compute_decomposition": "decomposition.compute",
    "verify_decomposition": "decomposition.verify",
    "annotate_cliques": "decomposition.annotate",
    "classify_friendly_lonely": "decomposition.classify",
    "SketchBank": "field.bank_init",
    "find_critical_helper": "helpers.critical",
    "find_friendly_helper": "helpers.friendly",
    "build_recovery_graph": "helpers.recovery_graph",
}
ROOT_SPAN = "pipeline.color_run"
SPAN_NAMES = sorted(
    set(PIPELINE_NAMES.values())
    | {
        ROOT_SPAN,
        "coloring.phases",
        "field.recover",
        "palette.h_insert",
        "decomposition.collect",
        "decomposition.finalize",
        "field.sketch_update",
    }
)
LAYERS = ("stream", "kernels", "palette", "decomposition", "field", "helpers",
          "coloring", "pipeline")
MAIN_PASS_CONSUMERS = ("palette.filter", "palette.h_insert", "decomposition.collect",
                       "field.sketch_update")
PREPASS_CONSUMERS = ("kernels.uf_union",)
# counts that must repeat exactly between two traced runs at one seed
EXACT_COUNTS = (
    "space.palette_bits", "space.h_bits", "space.sample_bits", "space.sketch_bits",
    "space.hplus_bits", "palette.h_kept_share", "field.sketch_updates",
    "field.recover_calls", "field.recover_refused", "field.recover_ok_share",
    *(f"coloring.phase{k}_vertices" for k in range(1, 7)),
    "decomposition.cliques", "decomposition.sparse_vertices", "pipeline.attempts",
)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []   # [name, parent index or -1, start, end]
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self.banks: list = []          # every SketchBank the run built
        self.recover_calls = 0
        self.recover_refused = 0

    def wrap(self, name: str, fn, on_return=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, self._stack[-1] if self._stack else -1, time.perf_counter(), None]
            self._stack.append(len(self.spans))
            self.spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[3] = time.perf_counter()
                self._stack.pop()
            if on_return is not None:
                on_return(out)
            return out

        return traced

    def _patch(self, owner, attr: str, name: str, on_return=None) -> None:
        original = getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, on_return))

    def _on_recover(self, x) -> None:
        self.recover_calls += 1
        self.recover_refused += x is None

    def __enter__(self) -> "Tracer":
        from streamcolor import coloring, decomposition, field, helpers, palette, pipeline

        for attr, name in PIPELINE_NAMES.items():
            self._patch(pipeline, attr, name,
                        self.banks.append if attr == "SketchBank" else None)
        self._patch(coloring, "run_phases", "coloring.phases")
        self._patch(helpers, "safe_recover", "field.recover", self._on_recover)
        self._patch(palette.ConflictGraph, "add_chunk", "palette.h_insert")
        self._patch(decomposition.SampleCollector, "update_chunk", "decomposition.collect")
        self._patch(decomposition.SampleCollector, "finalize", "decomposition.finalize")
        self._patch(field.SketchBank, "update_chunk", "field.sketch_update")
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def gate_violations(self) -> list[str]:
        """Spans whose direct children cover more time than the span itself."""
        child_sum = self._child_sums()
        return [
            f"{name}: children {child_sum[i]:.6f}s > span {end - start:.6f}s"
            for i, (name, _, start, end) in enumerate(self.spans)
            if child_sum[i] > end - start + 1e-9
        ]

    def _child_sums(self) -> list[float]:
        sums = [0.0] * len(self.spans)
        for _, parent, start, end in self.spans:
            if parent >= 0:
                sums[parent] += end - start
        return sums

    def summary(self, result, degrees: np.ndarray, scale: float) -> dict[str, float]:
        """Per-layer metrics of the traced run; span durations are multiplied
        by `scale` (the caller's host normalization)."""
        roots = [s for s in self.spans if s[1] < 0]
        if [s[0] for s in roots] != [ROOT_SPAN]:
            raise RuntimeError(f"expected one {ROOT_SPAN} root span, got {roots}")
        child_sum = self._child_sums()
        total = defaultdict(float)
        self_time = defaultdict(float)
        for i, (name, _, start, end) in enumerate(self.spans):
            total[name] += (end - start) * scale
            self_time[name.split(".")[0]] += (end - start - child_sum[i]) * scale
        out = {f"{name}_s": total[name] for name in SPAN_NAMES}
        out |= {f"{layer}.self_s": self_time[layer] for layer in LAYERS}

        report = result.report
        m = report["m"]
        attempts = sum(s[0] == "pipeline.attempt" for s in self.spans)
        out["pipeline.attempts"] = attempts
        # edges/s computed from spans: edges consumed over the pass's consumer spans
        out["pipeline.main_pass_edges_per_s"] = m * attempts / sum(
            total[name] for name in MAIN_PASS_CONSUMERS)
        out["pipeline.prepass_edges_per_s"] = m / sum(total[name] for name in PREPASS_CONSUMERS)

        space = report.get("space", {})
        for key in ("palette_bits", "h_bits", "sample_bits", "sketch_bits", "hplus_bits"):
            out[f"space.{key}"] = space.get(key, 0)
        out["palette.h_kept_share"] = space.get("h_edges", 0) / m
        out["field.sketch_updates"] = int(sum(
            degrees[bank.sampled(r)].sum() for bank in self.banks for r in bank.rates
        ))
        out["field.recover_calls"] = self.recover_calls
        out["field.recover_refused"] = self.recover_refused
        out["field.recover_ok_share"] = (
            (self.recover_calls - self.recover_refused) / self.recover_calls
            if self.recover_calls else 0.0
        )
        phases = Counter()
        if result.phase_result is not None:
            phases.update(result.phase_result.provenance.tolist())
        for k in range(1, 7):
            out[f"coloring.phase{k}_vertices"] = phases[k]
        out["decomposition.cliques"] = len(result.dec.cliques) if result.dec else 0
        out["decomposition.sparse_vertices"] = len(result.dec.v_sparse) if result.dec else 0
        return out
