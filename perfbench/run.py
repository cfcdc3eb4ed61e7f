"""End-to-end and per-layer benchmark of `streamcolor.pipeline.color_run`.

    python3 perfbench/run.py --workload rr16-sparse [--seed 1] [--seconds 25] [--trace 0|1]

Run from anywhere inside a checkout; the package is imported from the
checkout's `src/`. Set-up generates the workload's instance from the seed
and writes it as an edge list (three times, each in a fresh interpreter).
Then three fresh interpreters, for a third of `--seconds` each, color the
file again and again and check every coloring. The last line of standard
output is one JSON object: with `--trace 0` the end-to-end metrics, with
`--trace 1` the per-layer metrics of traced colorings (interleaved with
untraced ones, which give the tracing overhead). Metric names and units come from BENCHMARK.json;
README.md explains them.
"""

from __future__ import annotations

import argparse
import filecmp
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
SETUP_REPEATS = 3
CHILDREN = 3            # fresh interpreters per run: peak RSS median, drift across processes
CHILD_SLACK_S = 40      # a child's time limit beyond its coloring window
WORK_DIR = HERE / ".work"          # holds one scratch directory per run, removed at its end
SPANS_DIR = WORK_DIR / "spans"     # traced spans, one file per workload and seed

sys.path.insert(0, str(HERE))
from tracing import EXACT_COUNTS  # noqa: E402
from worker import host_seconds  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


class ChildFailed(RuntimeError):
    pass


def run_child(*args: str, window: float = 0.0) -> tuple[float, dict]:
    """Run worker.py in a fresh interpreter; return its wall time and JSON line."""
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(WORKER), *args],
        capture_output=True, text=True, timeout=window + CHILD_SLACK_S, cwd=ROOT,
    )
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise ChildFailed(f"worker {args[0]} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return wall, json.loads(proc.stdout.strip().splitlines()[-1])


def set_up(name: str, seed: int, work: Path, repeats: int) -> tuple[float, Path]:
    """Median host-normalized wall time of `repeats` set-ups, and the edge
    file they agree on."""
    walls, files = [], []
    for i in range(repeats):
        path = work / f"{name}-{seed}-{i}.txt"
        wall, out = run_child("setup", name, str(seed), str(path))
        walls.append(host_seconds(wall, out["ref_s"]))
        files.append(path)
    for other in files[1:]:
        if not filecmp.cmp(files[0], other, shallow=False):
            raise ChildFailed(f"set-up is not deterministic: {files[0]} != {other}")
    return statistics.median(walls), files[0]


def color_for(name: str, seed: int, edge_file: Path, seconds: float, trace: bool):
    """Colorings from CHILDREN fresh interpreters, each coloring for seconds / CHILDREN.

    Returns every coloring's record and each child's peak RSS. A child that
    crashes counts as one failed coloring.
    """
    runs, rss = [], []
    window = seconds / CHILDREN
    for _ in range(CHILDREN):
        args = ("color", name, str(seed), str(edge_file), str(window))
        try:
            _, out = run_child(*args, *(("--trace",) if trace else ()), window=window)
        except (ChildFailed, subprocess.TimeoutExpired) as e:
            print(f"coloring failed: {e}", file=sys.stderr)
            runs.append({"traced": False, "status": "crashed", "wrong": None, "color_s": None})
            continue
        rss.append(out["peak_rss_mb"])
        for r in out["runs"]:
            if r["wrong"]:
                print(f"wrong coloring: {r['wrong']}", file=sys.stderr)
        runs += out["runs"]
    return runs, rss


def failed(runs: list[dict]) -> int:
    return sum(r["status"] != "success" or r["wrong"] is not None for r in runs)


def end_to_end(name: str, seed: int, seconds: float, work: Path) -> tuple[bool, list, dict]:
    setup_s, edge_file = set_up(name, seed, work, SETUP_REPEATS)
    runs, rss = color_for(name, seed, edge_file, seconds, trace=False)
    ok = [r for r in runs if r["status"] == "success"]
    timed = [r for r in runs if r["color_s"] is not None]
    metrics = {
        "setup_s": setup_s,
        "color_s": statistics.median(r["color_s"] for r in timed),
        "verify_s": statistics.median(t for r in ok for t in r["verify_s"]),
        "peak_rss_mb": statistics.median(rss),
        "stored_to_raw": statistics.median(r["stored_to_raw"] for r in ok),
        "attempts_per_run": statistics.mean(r["attempts"] for r in timed),
        "success_share": 1 - failed(runs) / len(runs),
    }
    return all(r["wrong"] is None for r in runs), runs, metrics


def per_layer(name: str, seed: int, seconds: float, work: Path) -> tuple[bool, list, dict]:
    _, edge_file = set_up(name, seed, work, 1)
    runs, _ = color_for(name, seed, edge_file, seconds, trace=True)
    traced = [r for r in runs if r["traced"]]
    untraced = [r for r in runs if not r["traced"] and r["color_s"] is not None]
    spans = [r.pop("spans") for r in traced]
    (SPANS_DIR / f"{name}-seed{seed}.json").write_text(json.dumps(spans))
    if not traced or not untraced:
        raise ChildFailed("no traced or no untraced coloring completed")
    correct = all(r["wrong"] is None for r in runs)
    layers = [r["layers"] for r in traced]
    for r in traced:
        for violation in r["gate"]:
            print(f"span gate: {violation}", file=sys.stderr)
            correct = False
    for key in EXACT_COUNTS:
        values = {lay[key] for lay in layers}
        if len(values) > 1:
            print(f"count drift at one seed: {key} = {sorted(values)}", file=sys.stderr)
            correct = False
    metrics = {key: layers[0][key] for key in EXACT_COUNTS}
    for key in layers[0].keys() - set(EXACT_COUNTS):
        metrics[key] = statistics.median(lay[key] for lay in layers)
    untraced_s = statistics.median(r["color_s"] for r in untraced)
    metrics["trace.overhead_share"] = metrics["pipeline.color_run_s"] / untraced_s - 1
    metrics["host.ref_s"] = statistics.median(r["ref_s"] for r in traced)
    return correct, runs, metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "streamcolor" / "__init__.py").is_file():
        print(f"no streamcolor sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = declared["per_layer" if args.trace else "end_to_end"]

    SPANS_DIR.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=WORK_DIR))
    try:
        measure = per_layer if args.trace else end_to_end
        correct, runs, metrics = measure(args.workload, args.seed, args.seconds, work)
    except (ChildFailed, subprocess.TimeoutExpired, statistics.StatisticsError) as e:
        print(f"benchmark failed: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work)

    missing = {m["name"] for m in declared} ^ metrics.keys()
    if missing:
        print(f"metrics disagree with BENCHMARK.json: {sorted(missing)}", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": correct,
        "attempted": len(runs),
        "failed": failed(runs),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
