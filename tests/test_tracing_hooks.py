"""The benchmark's tracer patches names of `streamcolor.pipeline`, of the
main-pass consumers and `helpers.safe_recover` by attribute.  A refactor
that renames one of them, or stops calling it through those names, breaks
`perfbench/run.py --trace 1`; these tests make that fail here instead."""

import importlib.util
from pathlib import Path

import streamcolor.pipeline as pipeline
from streamcolor.pipeline import SUCCESS, RunConfig, color_run

from conftest import decline_phase4

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _traced(tracing, source):
    """A traced `color_run` of source at seed 1: (tracer, result)."""
    with tracing.Tracer() as tracer:
        res = tracer.wrap(tracing.ROOT_SPAN, color_run)(RunConfig(source=source, seed=1))
    return tracer, res


def test_tracer_hooks_exist_and_record_a_run():
    tracing = _load_tracing()
    for name in tracing.PIPELINE_NAMES:
        assert hasattr(pipeline, name), name

    tracer, res = _traced(tracing, "random-regular:delta=16,n=200,seed=1")
    assert res.status == SUCCESS
    assert tracer.gate_violations() == []
    names = {span[0] for span in tracer.spans}
    assert {"decomposition.collect", "decomposition.finalize"} <= names
    assert {"palette.sample", "palette.filter", "palette.space_report"} <= names
    # the bank is built and offered every chunk, though H keeps every edge
    assert {"field.bank_init", "field.sketch_update"} <= names
    summary = tracer.summary(res, res.shadow.degrees, 1.0)
    assert summary["space.sample_bits"] == res.report["space"]["sample_bits"]


def test_tracer_records_helper_spans(monkeypatch):
    # the mixed family has critical and friendly cliques; with phase 4
    # declining they are all deferred, so both helper searches run, and
    # both recover through safe_recover
    decline_phase4(monkeypatch)
    tracing = _load_tracing()
    tracer, res = _traced(tracing, "mixed:delta=16,count=1,seed=1")
    assert res.status == SUCCESS
    assert tracer.gate_violations() == []
    names = [span[0] for span in tracer.spans]
    assert "helpers.critical" in names and "helpers.friendly" in names
    recover = [span for span in tracer.spans if span[0] == "field.recover"]
    assert recover
    parents = [tracer.spans[span[1]][0] for span in recover]
    assert set(parents) == {"helpers.critical", "helpers.friendly"}
    summary = tracer.summary(res, res.shadow.degrees, 1.0)
    assert summary["field.recover_calls"] == len(recover)
    # every vertex carries the phase that colored it
    phases = [summary[f"coloring.phase{k}_vertices"] for k in range(1, 7)]
    assert sum(phases) == res.report["n"]


def test_every_traced_name_records_a_span(monkeypatch):
    # a patched name that is still defined but no longer called would read
    # 0 s for its layer; between them the two runs above reach every one
    tracing = _load_tracing()
    names = {span[0] for span in _traced(tracing, "random-regular:delta=16,n=200,seed=1")[0].spans}
    decline_phase4(monkeypatch)
    names |= {span[0] for span in _traced(tracing, "mixed:delta=16,count=1,seed=1")[0].spans}
    assert sorted(names) == tracing.SPAN_NAMES
