"""One measured step of the benchmark, in a fresh interpreter.

    python3 perfbench/worker.py setup WORKLOAD SEED EDGE_FILE
    python3 perfbench/worker.py color WORKLOAD SEED EDGE_FILE SECONDS [--trace]

`setup` imports streamcolor from this checkout's `src/`, generates the
workload's instance and writes it in `cli.write_edge_list` format.
`color` imports streamcolor and colors the file with `color_run` again and
again until SECONDS have passed (at least once). It reads its peak RSS
after the first coloring, checks every coloring with `verify_coloring`,
and prints one JSON line. With `--trace` every second coloring is wrapped
by `tracing.Tracer`, and its per-layer metrics and spans join its record.

Times are reported in host-normalized seconds: each wall time is scaled by
REF_NOMINAL_S / the wall time of `reference_s`, a fixed pure-Python kernel
timed just before the coloring. On a shared host the speed of interpreted
code drifts by a quarter or more over minutes; the ratio to the reference
drifts far less (README.md has the figures).
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import resource
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
RETRIES = 3
VERIFY_REPEATS = 3
# median of reference_s() on the 2-core host the baseline was recorded on;
# it only fixes the scale, so normalized times read as seconds on that host
REF_NOMINAL_S = 0.08
REF_TEXT = "".join(f"{i * 7919 % 50_021} {i * 104_729 % 50_021}\n" for i in range(10_000))


def reference_s() -> float:
    """Wall time of a fixed pure-Python kernel: dict churn, an integer loop,
    and parsing an edge-list text into a set and a list."""
    t0 = time.perf_counter()
    d = {}
    for i in range(75_000):
        d[(i * 7919) % 50_021] = (i, i + 1)
    s = 0
    for i in range(500_000):
        s += i
    seen, edges = set(), []
    for line in REF_TEXT.splitlines():
        u, v = line.split()
        key = (min(int(u), int(v)), max(int(u), int(v)))
        if key not in seen:
            seen.add(key)
            edges.append(key)
    return time.perf_counter() - t0


def host_seconds(wall_s: float, ref_s: float) -> float:
    return wall_s * REF_NOMINAL_S / ref_s


def import_streamcolor() -> None:
    sys.path.insert(0, str(SRC))
    import streamcolor

    if Path(streamcolor.__file__).resolve().parent != SRC / "streamcolor":
        raise RuntimeError(f"imported {streamcolor.__file__}, not the one under {SRC}")


def setup(workload, seed: int, path: str) -> dict:
    import_streamcolor()
    from streamcolor.cli import write_edge_list

    inst = workload.generate(seed)
    write_edge_list(path, inst.n, inst.edges)
    return {"ref_s": reference_s()}


def color(workload, seed: int, path: str, seconds: float, trace: bool) -> dict:
    import_streamcolor()
    deadline = time.perf_counter() + seconds
    runs = [color_once(workload, seed, path, traced=False)]
    # ru_maxrss of this process after one coloring: import + parse + color
    peak_rss_mb = runs[0].pop("rss_mb")
    # a traced child makes at least one traced coloring
    while time.perf_counter() < deadline or len(runs) < 1 + trace:
        runs.append(color_once(workload, seed, path, traced=trace and len(runs) % 2 == 1))
        runs[-1].pop("rss_mb")
    return {"peak_rss_mb": peak_rss_mb, "runs": runs}


def color_once(workload, seed: int, path: str, traced: bool) -> dict:
    from streamcolor.pipeline import SUCCESS, RunConfig, color_run
    from tracing import Tracer

    cfg = RunConfig(source=path, seed=seed, retries=RETRIES, no_shadow=workload.no_shadow)
    gc.collect()
    ref_s = reference_s()
    tracer = None
    t0 = time.perf_counter()
    if not traced:
        result = color_run(cfg)
    else:
        with Tracer() as tracer:
            result = tracer.wrap("pipeline.color_run", color_run)(cfg)
    wall_s = time.perf_counter() - t0
    out = {
        "traced": traced,
        "status": result.status,
        "ref_s": ref_s,
        "color_s": host_seconds(wall_s, ref_s),
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "attempts": result.report.get("attempts", RETRIES + 1),
        "wrong": None,
    }
    if tracer is not None:
        import numpy as np

        edges = np.loadtxt(path, dtype=np.int64, skiprows=1, ndmin=2)
        degrees = np.bincount(edges.ravel(), minlength=result.report["n"])
        out["layers"] = tracer.summary(result, degrees, REF_NOMINAL_S / ref_s)
        out["gate"] = tracer.gate_violations()
        out["spans"] = [dict(zip(("name", "parent", "start", "end"), s)) for s in tracer.spans]
    if result.status == SUCCESS:
        space, n, m = result.report["space"], result.report["n"], result.report["m"]
        raw_bits = m * 2 * max(1, math.ceil(math.log2(max(2, n))))
        out["stored_to_raw"] = space["total_bits"] / raw_bits
        colors, census_delta = result.colors, result.delta
        # verify as the separate `streamcolor verify` step would: without the
        # run's structures alive for the garbage collector to walk
        del result
        gc.collect()
        out["wrong"] = check(colors, census_delta, path, workload.delta, out)
    return out


def check(colors, census_delta: int, path: str, delta: int, out: dict) -> str | None:
    """Why a successful coloring is wrong, or None; times verify_coloring."""
    from streamcolor.pipeline import verify_coloring

    out["verify_s"] = []
    for _ in range(VERIFY_REPEATS):
        t0 = time.perf_counter()
        ok, msg = verify_coloring(path, colors, delta)
        out["verify_s"].append(host_seconds(time.perf_counter() - t0, out["ref_s"]))
        if not ok:
            return f"verify_coloring: {msg}"
    if census_delta != delta:
        return f"census delta {census_delta} != generated delta {delta}"
    if int(colors.max()) > delta:
        return f"color {int(colors.max())} above delta {delta}"
    return None


def main(argv=None) -> int:
    from workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("step", choices=("setup", "color"))
    ap.add_argument("workload", choices=sorted(WORKLOADS))
    ap.add_argument("seed", type=int)
    ap.add_argument("edge_file")
    ap.add_argument("seconds", type=float, nargs="?", default=0.0)
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args(argv)
    workload = WORKLOADS[args.workload]
    if args.step == "setup":
        out = setup(workload, args.seed, args.edge_file)
    else:
        out = color(workload, args.seed, args.edge_file, args.seconds, args.trace)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
