"""Batch front-end: color / verify / gen / report / demo-recover.

Exit codes: 0 success, 1 verification failure, 2 not delta-colorable,
3 pipeline failure after retries, 4 usage error or an input too large for
memory.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from streamcolor.field import (
    MAX_PRIME,
    canonical_prime,
    check_prime,
    column_sums,
    decode_rows,
    safe_recover,
)
from streamcolor.generators import GeneratorSpecError, instance_from_spec
from streamcolor.pipeline import (
    NOT_COLORABLE,
    PIPELINE_FAILED,
    RunConfig,
    color_run,
    decompose_run,
    verify_coloring,
)
from streamcolor.stream import CLIQUE_COMPONENT, ParseError, first_repeat, read_pairs

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_NOT_COLORABLE = 2
EXIT_PIPELINE = 3
EXIT_USAGE = 4


WRITE_BLOCK = 1 << 16  # lines formatted per write


def _write_pairs(fh, first: np.ndarray, second: np.ndarray) -> None:
    """One 'first second' line per entry, formatted a block at a time."""
    for s in range(0, first.size, WRITE_BLOCK):
        block = slice(s, s + WRITE_BLOCK)
        fh.write("".join(map("{} {}\n".format, first[block].tolist(), second[block].tolist())))


def write_coloring(path: str, colors: np.ndarray) -> None:
    colors = np.asarray(colors, dtype=np.int64)
    with open(path, "w", encoding="utf-8") as fh:
        _write_pairs(fh, np.arange(colors.size), colors)


_COLOR_MESSAGES = ("expected 'vertex color', got {!r}", "non-integer entry in {!r}",
                   "entry out of range in {!r}")


def read_coloring(path: str) -> dict[int, int]:
    """Read 'vertex color' lines, in the syntax of `stream.read_pairs`. A
    vertex given twice raises ParseError at its second line."""
    _, pairs, lines, fault = read_pairs(path, _COLOR_MESSAGES)
    i = first_repeat(pairs[:, 0])
    if i >= 0:
        raise ParseError(f"vertex {int(pairs[i, 0])} repeated", int(lines[i]))
    if fault is not None:
        raise fault
    return dict(zip(pairs[:, 0].tolist(), pairs[:, 1].tolist()))


def write_edge_list(path: str, n: int, edges: np.ndarray) -> None:
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{n}\n")
        _write_pairs(fh, edges[:, 0], edges[:, 1])


def cmd_color(args) -> int:
    source = args.gen if args.gen else args.input
    cfg = RunConfig(
        source=source,
        mode=args.mode,
        seed=args.seed,
        retries=args.retries,
        delta=args.delta,
        no_shadow=args.no_shadow,
        budget=args.budget,
    )
    result = color_run(cfg)
    report_path = args.out + ".report.json"
    with open(report_path, "w", encoding="utf-8") as fh:
        json.dump(result.report, fh, indent=2, default=int)
    if result.status == NOT_COLORABLE:
        for comp in result.report["components"]:
            kind = "a clique" if comp["verdict"] == CLIQUE_COMPONENT else "an odd cycle"
            vs = comp["vertices"]
            print(
                f"not delta-colorable: component {{{vs[0]}..}} of size "
                f"{comp['size']} is {kind}",
                file=sys.stderr,
            )
        return EXIT_NOT_COLORABLE
    if result.status == PIPELINE_FAILED:
        fails = result.report.get("failures", [])
        last = fails[-1] if fails else {}
        print(
            f"pipeline failed after {len(fails)} attempt(s); "
            f"last failure: {last.get('phase')}: {last.get('detail')}",
            file=sys.stderr,
        )
        return EXIT_PIPELINE
    write_coloring(args.out, result.colors)
    rep = result.report
    print(
        f"colored n={rep['n']} m={rep['m']} delta={rep['delta']} "
        f"attempts={rep.get('attempts')} passes={rep.get('passes')} -> {args.out}"
    )
    return EXIT_OK


def cmd_verify(args) -> int:
    try:
        colors = read_coloring(args.coloring)
    except (ParseError, ValueError) as e:
        print(f"cannot parse coloring: {e}", file=sys.stderr)
        return EXIT_USAGE
    ok, msg = verify_coloring(args.graph, colors, args.delta, seed=args.seed)
    if ok:
        print("coloring verified: proper, total, within range")
        return EXIT_OK
    print(f"verification failed: {msg}", file=sys.stderr)
    return EXIT_VERIFY


def cmd_gen(args) -> int:
    inst = instance_from_spec(args.spec, args.seed)
    write_edge_list(args.out, inst.n, inst.edges)
    print(f"wrote {inst.n} vertices, {inst.edges.shape[0]} edges -> {args.out}")
    return EXIT_OK


def cmd_decompose(args) -> int:
    source = args.gen if args.gen else args.input
    dec, report = decompose_run(
        source, seed=args.seed, mode=args.mode, no_shadow=args.no_shadow
    )
    print(f"sparse vertices: {len(dec.v_sparse)}")
    for i, k in enumerate(dec.cliques):
        head = k.vertices[:10]
        tail = "..." if len(k) > 10 else ""
        print(
            f"clique {i}: size={len(k)} {k.size_class} non_edges={k.non_edges} "
            f"holey={k.holey} {k.kind}"
            + (f" witness={k.witness}" if k.witness is not None else "")
            + f" vertices={head}{tail}"
        )
    if report is None:
        print("verification: skipped (no shadow copy)")
        return EXIT_OK
    if not report:
        print("verification: OK (0 violations)")
        return EXIT_OK
    print(f"verification: {len(report)} violation(s)")
    for v in report[:10]:
        print(f"  {v}")
    return EXIT_VERIFY


def cmd_report(args) -> int:
    with open(args.run, "r", encoding="utf-8") as fh:
        rep = json.load(fh)
    print(f"run: n={rep.get('n')} m={rep.get('m')} delta={rep.get('delta')} "
          f"status={rep.get('status')} pipeline={rep.get('pipeline')}")
    space = rep.get("space")
    if space:
        parts = ["palette_bits", "h_bits", "sample_bits", "sketch_bits", "hplus_bits"]
        total = sum(space[k] for k in parts)
        for k in parts:
            print(f"  {k:13} {space[k]:>12}")
        print(f"  {'total_bits':13} {space['total_bits']:>12} "
              f"(components {'sum to total' if total == space['total_bits'] else 'DO NOT SUM'})")
        print(f"  shadow structures excluded: {space.get('shadow_excluded')}")
        if total != space["total_bits"]:
            return EXIT_VERIFY
    for c in rep.get("cliques", []):
        print(
            f"  clique {c['index']:3} size={c['size']:3} {c['size_class']:8} "
            f"holey={str(c['holey']):5} {c['kind']:8} "
            f"responsible=phase{c['responsible_phase']} colored_by=phase{c['colored_by']}"
        )
    return EXIT_OK


def cmd_demo_recover(args) -> int:
    n = args.n
    p = canonical_prime(n) if args.p is None else args.p
    check_prime(p, n)
    r = args.k if args.r is None else args.r
    if r < 0:
        raise ValueError(f"--r must be >= 0, got {r}")
    rng = np.random.default_rng(args.seed)
    x = np.zeros(n, dtype=np.int64)
    if args.k:
        supp = rng.choice(n, size=args.k, replace=False)
        x[supp] = rng.integers(1, p, size=args.k)
    supp = np.flatnonzero(x)
    # one measurement row: x's columns times its values
    vec, check = column_sums(p, args.seed, 8, r, np.zeros_like(supp), supp, 1, x[supp])
    print(f"n={n} p={p} true sparsity k={args.k} recovery bound r={r}")
    print(f"support: {supp.tolist()} values: {x[supp].tolist()}")
    [got] = safe_recover(vec % p, check % p, p, n, args.seed, 8)
    if got is None:
        print("safe recovery: fail (refused; measurement not r-sparse or check mismatch)")
        [raw] = decode_rows(vec, r, p, n)
        print(f"unverified decode said: {'no sparse preimage' if raw is None else 'candidate ' + str(raw[0].tolist())}")
        return EXIT_OK
    exact = np.array_equal(got[0], supp) and np.array_equal(got[1], x[supp])
    print(f"recovered support {got[0].tolist()} exact={exact}")
    return EXIT_OK if exact else EXIT_VERIFY


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="streamcolor",
        description="Single-pass streaming max-degree graph coloring",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    c = sub.add_parser("color", help="color a graph from a file or generator spec")
    g = c.add_mutually_exclusive_group(required=True)
    g.add_argument("--input", help="edge-list file (header n, then 'u v' lines)")
    g.add_argument("--gen", help="generator spec, e.g. 'clique-pairs:delta=16,count=4'")
    c.add_argument("--delta", type=int, default=None, help="assert this max degree")
    c.add_argument("--mode", choices=("desk", "paper"), default="desk")
    c.add_argument("--seed", type=int, default=0)
    c.add_argument("--retries", type=int, default=2)
    c.add_argument("--out", default="coloring.txt")
    c.add_argument("--no-shadow", action="store_true",
                   help="heuristic decomposition; skip verification")
    c.add_argument("--budget", type=int, default=None,
                   help="bytes; solve offline when the raw graph fits")
    c.set_defaults(fn=cmd_color)

    v = sub.add_parser("verify", help="check a coloring file against a graph")
    v.add_argument("--graph", required=True)
    v.add_argument("--coloring", required=True)
    v.add_argument("--delta", type=int, required=True)
    v.add_argument("--seed", type=int, default=0)
    v.set_defaults(fn=cmd_verify)

    ge = sub.add_parser("gen", help="write a generated instance to an edge-list file")
    ge.add_argument("--spec", required=True)
    ge.add_argument("--out", required=True)
    ge.add_argument("--seed", type=int, default=0)
    ge.set_defaults(fn=cmd_gen)

    de = sub.add_parser("decompose", help="print the sparse-dense partition and its verification")
    gd = de.add_mutually_exclusive_group(required=True)
    gd.add_argument("--input")
    gd.add_argument("--gen")
    de.add_argument("--seed", type=int, default=0)
    de.add_argument("--mode", choices=("desk", "paper"), default="desk")
    de.add_argument("--no-shadow", action="store_true")
    de.set_defaults(fn=cmd_decompose)

    r = sub.add_parser("report", help="pretty-print a run report")
    r.add_argument("--run", required=True, help="path to the .report.json file")
    r.set_defaults(fn=cmd_report)

    d = sub.add_parser("demo-recover", help="sparse-recovery round trip demo")
    d.add_argument("--n", type=int, default=32)
    d.add_argument("--k", type=int, default=3)
    d.add_argument("--p", type=int, default=None,
                   help=f"prime modulus with n <= p <= {MAX_PRIME} "
                   "(default: the smallest prime >= max(n, 101))")
    d.add_argument("--r", type=int, default=None, help="recovery bound (default k)")
    d.add_argument("--seed", type=int, default=0)
    d.set_defaults(fn=cmd_demo_recover)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return EXIT_USAGE if e.code not in (0, None) else 0
    try:
        return args.fn(args)
    except (ParseError, GeneratorSpecError, ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError as e:  # an input too large for this host is an input fault
        print(f"error: out of memory: {e}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
