import json

import numpy as np
import pytest

from streamcolor import cli
from streamcolor import pipeline as pl
from streamcolor.coloring import RunFailure
from streamcolor.decomposition import verify_decomposition
from streamcolor.field import MAX_PRIME, next_prime
from streamcolor.stream import stream_source

from conftest import planted_mistakes


def run(argv):
    return cli.main([str(a) for a in argv])


def test_gen_color_verify_report_round_trip(tmp_path):
    graph = tmp_path / "g.txt"
    colors = tmp_path / "g.colors"
    assert run(["gen", "--spec", "mixed:delta=16,seed=2", "--out", graph]) == 0
    assert run(
        ["color", "--input", graph, "--seed", 1, "--retries", 3, "--out", colors]
    ) == 0
    assert run(["verify", "--graph", graph, "--coloring", colors, "--delta", 16]) == 0
    assert run(["report", "--run", f"{colors}.report.json"]) == 0

    rep = json.loads((tmp_path / "g.colors.report.json").read_text())
    assert rep["status"] == "success"
    assert rep["passes"] == 2
    parts = ["palette_bits", "h_bits", "sample_bits", "sketch_bits", "hplus_bits"]
    assert sum(rep["space"][k] for k in parts) == rep["space"]["total_bits"]


def test_verify_catches_flip_and_range(tmp_path):
    graph = tmp_path / "g.txt"
    colors = tmp_path / "g.colors"
    assert run(["gen", "--spec", "clique-pairs:delta=8,count=1,seed=3", "--out", graph]) == 0
    assert run(["color", "--input", graph, "--out", colors, "--retries", 3]) == 0

    lines = colors.read_text().splitlines()
    v0, c0 = map(int, lines[0].split())
    # find a neighbor of v0 and copy its color onto v0
    edges = [tuple(map(int, l.split())) for l in graph.read_text().splitlines()[1:]]
    nbr = next(b for a, b in edges if a == v0)
    cmap = {int(l.split()[0]): int(l.split()[1]) for l in lines}
    cmap[v0] = cmap[nbr]
    colors.write_text("".join(f"{v} {c}\n" for v, c in sorted(cmap.items())))
    assert run(["verify", "--graph", graph, "--coloring", colors, "--delta", 8]) == 1

    cmap[v0] = 9  # out of range at delta=8
    colors.write_text("".join(f"{v} {c}\n" for v, c in sorted(cmap.items())))
    assert run(["verify", "--graph", graph, "--coloring", colors, "--delta", 8]) == 1


def test_missing_vertex_fails_verification(tmp_path):
    graph = tmp_path / "g.txt"
    graph.write_text("3\n0 1\n1 2\n")
    colors = tmp_path / "c.txt"
    colors.write_text("0 1\n1 2\n")  # vertex 2 missing
    assert run(["verify", "--graph", graph, "--coloring", colors, "--delta", 2]) == 1


def _not_colorable_lines(report_path) -> list[str]:
    """The stderr lines `color` owes a not-colorable report: one per
    listed component."""
    kinds = {"CliqueComponent": "a clique", "OddCycleComponent": "an odd cycle"}
    comps = json.loads(report_path.read_text())["components"]
    return [f"not delta-colorable: component {{{c['vertices'][0]}..}} of size {c['size']} "
            f"is {kinds[c['verdict']]}" for c in comps]


def test_not_colorable_exits(tmp_path, capsys):
    # pure (delta+1)-clique
    assert run(["color", "--gen", "holey-clique:delta=16,t=0", "--out", tmp_path / "a"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == ["not delta-colorable: component {0..} of size 17 is a clique"]
    assert err == _not_colorable_lines(tmp_path / "a.report.json")
    # triangle = odd cycle at delta 2
    tri = tmp_path / "tri.txt"
    tri.write_text("3\n0 1\n1 2\n0 2\n")
    assert run(["color", "--input", tri, "--out", tmp_path / "b"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == ["not delta-colorable: component {0..} of size 3 is an odd cycle"]
    assert err == _not_colorable_lines(tmp_path / "b.report.json")
    # three K2s at delta 1 and a lone vertex: one line per K2, by root
    pairs = tmp_path / "pairs.txt"
    pairs.write_text("7\n5 1\n2 6\n0 4\n")
    assert run(["color", "--input", pairs, "--out", tmp_path / "c"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 3
    assert err == _not_colorable_lines(tmp_path / "c.report.json")


def test_small_delta_routes_offline(tmp_path):
    out = tmp_path / "c.colors"
    graph = tmp_path / "p.txt"
    assert run(["gen", "--spec", "clique-minus-edge:delta=5,count=2,seed=1", "--out", graph]) == 0
    assert run(["color", "--input", graph, "--out", out]) == 0
    rep = json.loads((tmp_path / "c.colors.report.json").read_text())
    assert rep["pipeline"] == "offline"
    assert run(["verify", "--graph", graph, "--coloring", out, "--delta", 5]) == 0


def test_budget_gate_routes_offline(tmp_path):
    out = tmp_path / "d.colors"
    assert run([
        "color", "--gen", "clique-pairs:delta=16,count=1,seed=2",
        "--out", out, "--budget", 10**9,
    ]) == 0
    rep = json.loads((tmp_path / "d.colors.report.json").read_text())
    assert rep["pipeline"] == "offline"


def test_exhausted_retries_exit_code(tmp_path, monkeypatch):
    def always_unlucky(*a, **k):
        raise RunFailure("phase2", "forced for the exit-code contract")

    monkeypatch.setattr(pl, "_attempt", always_unlucky)
    rc = run([
        "color", "--gen", "clique-pairs:delta=16,count=1", "--retries", 2,
        "--out", tmp_path / "x",
    ])
    assert rc == 3
    rep = json.loads((tmp_path / "x.report.json").read_text())
    assert rep["status"] == "pipeline-failed"
    assert len(rep["failures"]) == 3


def test_delta_flag_is_checked(tmp_path):
    rc = run([
        "color", "--gen", "clique-pairs:delta=16,count=1", "--delta", 9,
        "--out", tmp_path / "y",
    ])
    assert rc == 4


def test_usage_errors(tmp_path, capsys):
    assert run(["gen", "--spec", "bogus:delta=4", "--out", tmp_path / "z"]) == 4
    assert run(["color", "--input", tmp_path / "missing.txt", "--out", tmp_path / "w"]) == 4
    # a directory is an unreadable path too: usage error, not a crash
    folder = tmp_path / "folder"
    folder.mkdir()
    colors = tmp_path / "c.txt"
    colors.write_text("0 1\n")
    capsys.readouterr()
    assert run(["color", "--input", folder, "--out", tmp_path / "w"]) == 4
    assert run(["verify", "--graph", folder, "--coloring", colors, "--delta", 1]) == 4
    err = capsys.readouterr().err
    assert err.count("error: ") == 2


def test_argument_errors_exit_4_and_help_exits_0(tmp_path, capsys):
    assert run(["color"]) == 4                    # neither --input nor --gen
    assert run(["no-such-command"]) == 4
    assert run(["color", "--gen", "mixed:delta=16", "--retries", -1, "--out", tmp_path / "r"]) == 4
    assert capsys.readouterr().err.endswith("error: retries must be >= 0\n")
    assert run(["--help"]) == 0
    assert capsys.readouterr().out.startswith("usage: streamcolor")


def test_out_of_memory_exits_4(tmp_path, monkeypatch, capsys):
    def too_large(*args):
        raise MemoryError("cannot allocate")

    monkeypatch.setattr(cli, "instance_from_spec", too_large)
    assert run(["gen", "--spec", "mixed:delta=16", "--out", tmp_path / "g.txt"]) == 4
    assert capsys.readouterr().err == "error: out of memory: cannot allocate\n"


def test_no_shadow_mode_still_colors(tmp_path):
    out = tmp_path / "ns.colors"
    graph = tmp_path / "ns.txt"
    assert run(["gen", "--spec", "mixed:delta=16,seed=6", "--out", graph]) == 0
    assert run(["color", "--input", graph, "--out", out, "--no-shadow", "--retries", 3]) == 0
    assert run(["verify", "--graph", graph, "--coloring", out, "--delta", 16]) == 0


def test_decompose_subcommand(tmp_path, capsys):
    assert run(["decompose", "--gen", "mixed:delta=16,seed=2", "--seed", 2]) == 0
    out = capsys.readouterr().out
    assert "verification: OK" in out
    assert "critical" in out and "friendly" in out
    assert run(["decompose", "--gen", "mixed:delta=16,seed=2", "--no-shadow"]) == 0
    out = capsys.readouterr().out
    assert "skipped" in out


def test_decompose_prints_at_most_ten_violations_and_exits_1(monkeypatch, capsys):
    # the planted decomposition that merges two blocks into one clique
    dec, oracle, params, delta = planted_mistakes()[1]
    violations = verify_decomposition(dec, oracle, params.eps, delta)
    assert len(violations) > 10
    monkeypatch.setattr(cli, "decompose_run", lambda *args, **kwargs: (dec, violations))
    assert run(["decompose", "--gen", "mixed:delta=16,seed=2"]) == 1
    out = capsys.readouterr().out.splitlines()
    at = out.index(f"verification: {len(violations)} violation(s)")
    assert out[at + 1 :] == [f"  {v}" for v in violations[:10]]


def test_report_whose_parts_do_not_sum_exits_1(tmp_path, capsys):
    space = {"palette_bits": 1, "h_bits": 2, "sample_bits": 3, "sketch_bits": 4,
             "hplus_bits": 5, "total_bits": 16, "shadow_excluded": True}
    path = tmp_path / "r.report.json"
    path.write_text(json.dumps({"n": 3, "status": "success", "space": space}))
    assert run(["report", "--run", path]) == 1
    assert "(components DO NOT SUM)" in capsys.readouterr().out


def test_sparse_only_graph_needs_no_clique_phases(tmp_path):
    out = tmp_path / "rr.colors"
    assert run([
        "color", "--gen", "random-regular:delta=16,n=200,seed=4",
        "--seed", 4, "--retries", 3, "--out", out,
    ]) == 0
    rep = json.loads((tmp_path / "rr.colors.report.json").read_text())
    assert rep["cliques"] == []
    assert rep["sparse_vertices"] == 200


def test_clique_pairs_blocks_colored_by_phase_4_or_5(tmp_path):
    out = tmp_path / "cp.colors"
    assert run([
        "color", "--gen", "clique-pairs:delta=16,count=2,seed=1",
        "--seed", 1, "--retries", 3, "--out", out,
    ]) == 0
    rep = json.loads((tmp_path / "cp.colors.report.json").read_text())
    for c in rep["cliques"]:
        assert c["size_class"] == "critical"
        assert c["responsible_phase"] in (4, 5)
        assert c["colored_by"] in (4, 5)


def test_paper_mode_fails_honestly_at_desk_scale():
    import warnings

    from streamcolor.pipeline import RunConfig, color_run

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        res = color_run(
            RunConfig(
                source="clique-minus-edge:delta=16,count=1,seed=1",
                seed=1, retries=0, mode="paper",
            )
        )
    # paper constants only hold up at astronomical n; the verification
    # gate must refuse rather than emit a doubtful answer
    assert res.status == "pipeline-failed"


def test_gate_failure_names_the_first_violations_in_verifier_order(monkeypatch):
    # the gate's detail is its violations, not a dense cluster: out of
    # text order on purpose, so sorting them as a cluster's vertices shows
    violations = ["sparse vertex 245 is not eps-sparse", "sparse vertex 76 is not eps-sparse",
                  "partition does not cover all vertices", "vertex 3 in cliques 0 and 1"]
    monkeypatch.setattr(pl, "verify_decomposition", lambda *a, **k: list(violations))
    res = pl.color_run(pl.RunConfig(source="mixed:delta=16,count=1,seed=1", seed=1, retries=2))
    assert res.status == "pipeline-failed"
    assert res.report["failures"] == [{
        "attempt": 0, "phase": "decomposition",
        "detail": "verification gate rejected the decomposition: "
                  "sparse vertex 245 is not eps-sparse; sparse vertex 76 is not eps-sparse; "
                  "partition does not cover all vertices",
    }]


@pytest.mark.xfail(strict=True, reason=(
    "is_eps_sparse counts non-edges only among a vertex's d neighbours and needs d >= 2, "
    "so a low-degree vertex is neither sparse nor dense and the gate rejects the graph; "
    "--no-shadow and --budget color it"))
@pytest.mark.parametrize("n, extra", [
    (403, [(400, 401), (401, 402), (400, 402)]),  # a disjoint triangle
    (401, []),                                    # an isolated vertex
], ids=["triangle", "isolated-vertex"])
def test_low_degree_vertices_pass_the_gate(tmp_path, n, extra):
    from streamcolor.generators import instance_from_spec

    edges = instance_from_spec("random-regular:delta=16,n=400,seed=1").edges
    graph = tmp_path / "g.txt"
    cli.write_edge_list(graph, n, np.vstack([edges, np.array(extra, dtype=np.int64).reshape(-1, 2)]))
    res = pl.color_run(pl.RunConfig(source=str(graph), seed=1))
    assert res.status == "success", res.report["failures"]


def test_demo_recover_paths(capsys):
    assert run(["demo-recover", "--n", 32, "--k", 3]) == 0
    out = capsys.readouterr().out
    assert "exact=True" in out
    assert run(["demo-recover", "--n", 32, "--k", 0]) == 0
    out = capsys.readouterr().out
    assert "recovered support []" in out
    assert run(["demo-recover", "--n", 32, "--k", 5, "--r", 2]) == 0
    out = capsys.readouterr().out
    assert "fail" in out


@pytest.mark.parametrize("argv", [
    ["--n", 16, "--k", 2, "--p", 15],                           # not prime
    ["--n", 200, "--k", 2, "--p", 101],                         # p < n: nodes collide
    ["--n", 16, "--k", 2, "--p", next_prime(MAX_PRIME + 1)],    # products overflow int64
    ["--n", 16, "--k", 2, "--p", 0],                            # given, so not the default
])
def test_demo_recover_rejects_bad_prime(argv, capsys):
    assert run(["demo-recover", *argv]) == 4
    assert "error:" in capsys.readouterr().err


def test_demo_recover_takes_an_explicit_zero_bound(capsys):
    assert run(["demo-recover", "--n", 32, "--k", 3, "--r", 0]) == 0
    out = capsys.readouterr().out
    assert "recovery bound r=0" in out and "fail (refused" in out
    assert run(["demo-recover", "--n", 32, "--k", 3, "--r", -1]) == 4
    assert "--r" in capsys.readouterr().err


def test_demo_recover_large_prime(capsys):
    assert run(["demo-recover", "--n", 64, "--k", 8, "--p", 2**31 - 1]) == 0
    assert "exact=True" in capsys.readouterr().out


def test_cmd_color_verify_closed_loop(tmp_path):
    # every coloring cmd_color emits is accepted by cmd_verify
    for fam, delta in (
        ("clique-minus-edge:delta=16,count=2,seed=3", 16),
        ("lonely-clique:delta=16,count=2,seed=3", 16),
        ("hard-phase6:delta=16,count=2,seed=3", 16),
    ):
        graph = tmp_path / "loop.txt"
        out = tmp_path / "loop.colors"
        assert run(["gen", "--spec", fam, "--out", graph]) == 0
        assert run(["color", "--input", graph, "--seed", 5, "--retries", 3, "--out", out]) == 0
        assert run(["verify", "--graph", graph, "--coloring", out, "--delta", delta]) == 0


def test_verify_rejects_a_repeated_vertex(tmp_path, capsys):
    # the second entry for vertex 1 clashes with vertex 0; it must not
    # silently replace the first
    graph = tmp_path / "g.txt"
    graph.write_text("3\n0 1\n1 2\n")
    colors = tmp_path / "c.txt"
    colors.write_text("0 1\n1 1\n2 1\n1 2\n")
    capsys.readouterr()
    assert run(["verify", "--graph", graph, "--coloring", colors, "--delta", 2]) == 4
    assert "line 4: vertex 1 repeated" in capsys.readouterr().err


def test_verify_names_the_line_of_a_bad_entry(tmp_path, capsys):
    graph = tmp_path / "g.txt"
    graph.write_text("3\n0 1\n1 2\n")
    colors = tmp_path / "c.txt"
    for text, line in [("0 1\n# two\n1 x\n2 1\n", 3), ("0 1\n1 2 3\n", 2),
                       ("0 1\n1 2\n2 99999999999999999999\n", 3)]:
        colors.write_text(text)
        capsys.readouterr()
        assert run(["verify", "--graph", graph, "--coloring", colors, "--delta", 2]) == 4
        assert f"line {line}: " in capsys.readouterr().err
    colors.write_text("0 1\n1 2\n2 1  # last\n")
    assert run(["verify", "--graph", graph, "--coloring", colors, "--delta", 2]) == 0


def test_verify_coloring_reads_a_dict(tmp_path):
    graph = tmp_path / "g.txt"
    graph.write_text("3\n0 1\n1 2\n")
    assert pl.verify_coloring(str(graph), {2: 1, 0: 1, 1: 2}, 2) == (True, "ok")
    assert pl.verify_coloring(str(graph), {0: 1, 7: 2, -1: 1}, 2) == (False, "vertex 7 out of range")
    assert pl.verify_coloring(str(graph), {0: 1, 2: 2}, 2) == (False, "vertex 1 uncolored")
    assert pl.verify_coloring(str(graph), {0: 1, 1: 1, 2: 2}, 2) == (
        False, "monochromatic edge (0,1)")


def test_verify_coloring_reports_the_first_monochromatic_edge_of_the_file(tmp_path):
    graph = tmp_path / "g.txt"
    graph.write_text("4\n3 2\n0 1\n1 2\n")
    src = stream_source(str(graph), seed=1)
    assert src.edges.tolist() == [[2, 3], [0, 1], [1, 2]] and src.passes == 0
    assert pl.verify_coloring(str(graph), np.array([1, 1, 2, 2]), 2, seed=1) == (
        False, "monochromatic edge (2,3)")


def test_verify_coloring_refuses_an_array_of_the_wrong_length(tmp_path):
    graph = tmp_path / "g.txt"
    graph.write_text("3\n0 1\n1 2\n")
    assert pl.verify_coloring(str(graph), np.array([1, 2]), 2) == (
        False, "coloring covers 2 of 3 vertices")


def _write_lines(path, header, pairs):
    """The per-line writer the block writers replaced: one write a line."""
    with open(path, "w", encoding="utf-8") as fh:
        if header is not None:
            fh.write(f"{header}\n")
        for u, v in pairs:
            fh.write(f"{int(u)} {int(v)}\n")


@pytest.mark.parametrize("m", [0, 1, cli.WRITE_BLOCK, 2 * cli.WRITE_BLOCK + 5])
def test_writers_match_a_per_line_writer(tmp_path, m):
    rng = np.random.default_rng(m)
    n = 3 * cli.WRITE_BLOCK if m else 4
    edges = rng.integers(0, n, size=(m, 2))
    cli.write_edge_list(str(tmp_path / "got.txt"), n, edges)
    _write_lines(tmp_path / "want.txt", n, edges)
    assert (tmp_path / "got.txt").read_bytes() == (tmp_path / "want.txt").read_bytes()

    colors = rng.integers(1, 300, size=n)
    cli.write_coloring(str(tmp_path / "got.colors"), colors)
    _write_lines(tmp_path / "want.colors", None, enumerate(colors))
    assert (tmp_path / "got.colors").read_bytes() == (tmp_path / "want.colors").read_bytes()


@pytest.mark.parametrize("command", ["color", "verify"])
def test_a_graph_too_large_for_memory_exits_4(tmp_path, command):
    # the address-space cap makes the allocation fail on hosts that
    # overcommit too; one BLAS thread keeps numpy's import under it
    import os
    import resource
    import subprocess
    import sys
    from pathlib import Path

    graph, colors = tmp_path / "g.txt", tmp_path / "g.colors"
    graph.write_text("10000000000\n0 9999999999\n1 2\n")
    colors.write_text("0 1\n")
    argv = {
        "color": ["--input", graph, "--out", tmp_path / "out"],
        "verify": ["--graph", graph, "--coloring", colors, "--delta", 1],
    }[command]

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))

    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=str(Path(cli.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, "-m", "streamcolor.cli", command, *map(str, argv)],
        env=env, preexec_fn=cap, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 4, done.stderr
    assert done.stderr.startswith("error: out of memory") and done.stderr.count("\n") == 1
