import itertools
import json
import tracemalloc

import numpy as np
import pytest

from streamcolor import pipeline, stream
from streamcolor.cli import read_coloring, write_coloring, write_edge_list
from streamcolor.stream import (
    CLIQUE_COMPONENT,
    ODD_CYCLE_COMPONENT,
    EdgeStream,
    ParseError,
    StreamError,
    StreamSource,
    check_colorability,
    chunk_edges,
    stream_source,
)
from streamcolor.generators import generate_instance, instance_from_spec
from streamcolor.pipeline import PIPELINE_FAILED, RunConfig, _prepass, color_run

from conftest import (
    dropping_palettes,
    has_edge,
    neighbors,
    reference_edge_list,
    row,
    shadow_of,
    source_of,
)


def _write(tmp_path, text, name="g.txt"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def _edges(stream):
    return [tuple(e) for block in stream.chunks() for e in block.tolist()]


def _census(src):
    """(degrees, roots) from the pre-pass."""
    return _prepass(src, want_shadow=False)[:2]


def test_file_format_echo(tmp_path):
    path = _write(tmp_path, "3\n0 1\n1 2\n")
    st = stream_source(path).open()
    assert st.n == 3
    assert sorted(_edges(st)) == [(0, 1), (1, 2)]
    assert st.consumed


def test_file_comments_and_blanks(tmp_path):
    path = _write(tmp_path, "# graph\n4\n\n0 1  # edge\n2 3\n")
    assert len(_edges(stream_source(path).open())) == 2


@pytest.mark.parametrize(
    "text,line",
    [
        ("3\n0 0\n", 2),          # self-loop
        ("3\n0 5\n", 2),          # out of range
        ("3\n0 1\n0 1\n", 3),     # duplicate (repeated-edge streams unsupported)
        ("x\n", 1),               # bad header
        ("3\n0 1 2\n", 2),        # wrong arity
    ],
)
def test_parse_errors_carry_line_numbers(tmp_path, text, line):
    path = _write(tmp_path, text)
    with pytest.raises(ParseError) as err:
        stream_source(path)
    assert err.value.line == line


# -- the vectorized reader against the line-by-line reference ---------------

SEPARATORS = (" ", "  ", "\t", " \t ")


def _number(rng, x):
    """x in decimal, now and then signed or zero-padded (to 24 digits)."""
    r = rng.random()
    return f"+{x}" if r < 0.1 else f"00{x}" if r < 0.2 else f"{x:024d}" if r < 0.25 else str(x)


STYLES = ("free", "plain", "mixed")


def _random_lines(rng, n, m, style="free"):
    """A valid edge list as (lines, indices of the edge lines): m distinct
    edges over n vertices in random orientation. In the "free" style the
    spacing varies, and comments and blank lines sit between the edges.
    "plain" is the form `write_edge_list` writes: 'u v' with one space and
    no comment, blank line, sign or padding. "mixed" is plain with about
    one line in ten free, and now and then a CRLF line, so that small
    blocks switch between the reader's two tokenizers."""
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    if style == "free":
        lines = ["# random edge list", "  ", _number(rng, n) + rng.choice(["", " # n", "\t"])]
    else:
        lines = [str(n)]
    at = []
    for i in rng.choice(len(pairs), size=m, replace=False):
        u, v = pairs[i] if rng.random() < 0.5 else pairs[i][::-1]
        if style == "plain" or (style == "mixed" and rng.random() < 0.9):
            at.append(len(lines))
            lines.append(f"{u} {v}")
            continue
        line = _number(rng, u) + rng.choice(SEPARATORS) + _number(rng, v)
        r = rng.random()
        if r < 0.1:
            line += " # note 1 2"
        elif r < 0.2:
            line = "\t" + line + "  "
        elif style == "mixed" and r < 0.5:
            line += "\r"
        at.append(len(lines))
        lines.append(line)
        if rng.random() < 0.1:
            lines.append(str(rng.choice(["", "   ", "# c", "\t# x 1 2"])))
    return lines, at


def _write_lines(path, rng, lines, style="free"):
    newline = "\r\n" if style == "free" and rng.random() < 0.3 else "\n"
    text = newline.join(lines) + (newline if rng.random() < 0.7 else "")
    path.write_bytes(text.encode())
    return str(path)


def _read_vectorized(path):
    src = StreamSource.from_file(path)
    return src.n, src._edges


def _read_both(path):
    out = []
    for read in (reference_edge_list, _read_vectorized):
        try:
            out.append(read(path))
        except ParseError as err:
            out.append(err)
    return out


def _assert_same(path):
    """Both readers give the same (n, edges), or a ParseError with the same
    line and message; returns the reference's result."""
    want, got = _read_both(path)
    if isinstance(want, ParseError):
        assert isinstance(got, ParseError), (path, want)
        assert (got.line, str(got)) == (want.line, str(want))
    else:
        assert not isinstance(got, ParseError), (path, got)
        assert got[0] == want[0]
        assert got[1].dtype == np.int64 and np.array_equal(got[1], want[1])
    return want


def _edge_at(line):
    """The two integers of an edge line, or None."""
    fields = line.split("#")[0].split()
    try:
        return tuple(int(x) for x in fields) if len(fields) == 2 else None
    except ValueError:
        return None


def _header_at(lines):
    """Index of the header line: the first with a field."""
    return next(k for k, line in enumerate(lines) if line.split("#")[0].strip())


def _corrupt(rng, kind, n, lines, at, style="free"):
    """Put one fault of `kind` into lines; return the index of its line.
    Outside the free style a duplicate is written plain."""
    i = int(rng.choice(at))
    u, v = _edge_at(lines[i])
    if kind == "self-loop":
        lines[i] = f"{u} {u}"
    elif kind == "range":
        lines[i] = str(rng.choice([f"{u} {n}", f"-1 {v}", f"{u} 99999999999999999999",
                                   f"-99999999999999999999 {v}", f"{u} {n + 10 ** 19}"]))
    elif kind == "duplicate":
        j = int(rng.choice([k for k in at if k < i] or [i]))
        a, b = _edge_at(lines[j])
        flipped = f"{b}\t{a}" if style == "free" else f"{b} {a}"
        lines.insert(i + 1, f"{a} {b}" if rng.random() < 0.5 else flipped)
        i += 1
    elif kind == "arity":
        lines[i] = str(rng.choice([f"{u}", f"{u} {v} {u}", f"{u} {v} 7 # c", "x", f"{u} {v} y"]))
    elif kind == "non-integer":
        lines[i] = str(rng.choice([f"{u} x", f"1.5 {v}", f"{u} 0x1f", f"{u} --2",
                                   f"{u} +", f"{u}-1 {v}", f"{u} {v}e1", f"- {v}"]))
    elif kind == "header":
        i = _header_at(lines)
        lines[i] = str(rng.choice(["x", "3 4", "0", "-2", "1.0", "+", "0 # zero"]))
    return i


@pytest.mark.parametrize("seed", range(12))
def test_reader_matches_reference_on_valid_files(tmp_path, monkeypatch, seed):
    for style in STYLES:
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 40))
        m = int(rng.integers(0, min(120, n * (n - 1) // 2) + 1))
        path = _write_lines(tmp_path / f"{style}.txt", rng, _random_lines(rng, n, m, style)[0],
                            style)
        for block in (stream.BLOCK_BYTES, int(rng.integers(1, 64))):
            monkeypatch.setattr(stream, "BLOCK_BYTES", block)
            _assert_same(path)


KINDS = ["self-loop", "range", "duplicate", "arity", "non-integer", "header"]


@pytest.mark.parametrize("kind", KINDS)
def test_reader_matches_reference_on_corrupted_files(tmp_path, monkeypatch, kind):
    """One or two faults at random lines, in each style, read whole, in
    small blocks, and with the fault of `kind` on the first line of a
    block."""
    for seed, style in itertools.product(range(15), STYLES):
        rng = np.random.default_rng([seed, len(kind)])
        n = int(rng.integers(3, 30))
        m = int(rng.integers(2, min(80, n * (n - 1) // 2) + 1))
        lines, at = _random_lines(rng, n, m, style)
        if seed % 3 == 0:   # first a fault of any kind anywhere
            _corrupt(rng, str(rng.choice(KINDS[:-1])), n, lines, at, style)
            at = [k for k in range(_header_at(lines) + 1, len(lines)) if _edge_at(lines[k])]
        i = _corrupt(rng, kind, n, lines, at, style)
        path = _write_lines(tmp_path / f"g{seed}{style}.txt", rng, lines, style)
        data = open(path, "rb").read()
        line_start = len(b"\n".join(data.split(b"\n")[:i])) + 1
        for block in (stream.BLOCK_BYTES, int(rng.integers(1, 64)), line_start):
            monkeypatch.setattr(stream, "BLOCK_BYTES", block)
            assert isinstance(_assert_same(path), ParseError)


@pytest.mark.parametrize("text", [
    "", "\n\n", "# only comments\n  \n\t# more\n", "# no newline at the end",
    "5", "5\n", "5\n# nothing else", "0\n", "0\n0 1\n", "007\n0 1\n", "5\n\n0 1\n",
    "5\n0 1\n2 3", "5\n0 1\n0 1\n", "5\n3 3\n", "5\n0 5\n", "5\n0 1 2\n", "5 # n\n0 1\n",
    # lines of wrong arity with separators in plain order
    "5\n0 1 2 3\n", "5\n0 \n1 2\n", "5\n 0\n1 2\n",
    # a 19-digit token, or 18, in an otherwise plain file
    "5\n0 1\n0000000000000000002 3\n1 2\n", "5\n0 1\n1000000000000000000 3\n",
    "5\n0 1\n000000000000000002 3\n",
    # endpoints too large for min*n+max codes in int64
    "10000000000\n0 9999999999\n9999999999 5\n", "10000000000\n0 9999999999\n9999999999 0\n",
])
def test_reader_matches_reference_on_small_files(tmp_path, monkeypatch, text):
    """Whole, one line a block, and with the first line a block of its
    own."""
    path = _write(tmp_path, text)
    for block in (stream.BLOCK_BYTES, 1, text.find("\n") + 1 or len(text) + 1):
        monkeypatch.setattr(stream, "BLOCK_BYTES", block)
        _assert_same(path)


def test_written_files_take_the_plain_path(tmp_path, monkeypatch):
    """What `write_edge_list` and `write_coloring` write never reaches the
    general tokenizer, whole or in blocks of about 4 KiB."""
    inst = generate_instance("random-regular", 16, n=400, seed=1)
    colors = np.random.default_rng(1).integers(1, 1 << 40, size=3000)
    graph, colored = str(tmp_path / "g.txt"), str(tmp_path / "g.colors")
    write_edge_list(graph, inst.n, inst.edges)
    write_coloring(colored, colors)

    def refuse(buf, data):
        raise AssertionError("a written file reached the general tokenizer")

    monkeypatch.setattr(stream, "_fields", refuse)
    for block in (stream.BLOCK_BYTES, 1 << 12):
        monkeypatch.setattr(stream, "BLOCK_BYTES", block)
        src = StreamSource.from_file(graph)
        assert src.n == inst.n and len(src.edges) == inst.edges.shape[0] == 3200
        assert np.array_equal(src.edges, np.sort(inst.edges, axis=1))
        assert read_coloring(colored) == dict(enumerate(colors.tolist()))


def test_reader_memory_bound(tmp_path):
    """A 16-regular graph on n = 128000 (m = 1,024,000, a 12 MB file, the
    size of the random-regular Delta=16 file at that n): the whole read,
    StreamSource included, peaks under 96 MB of tracemalloc. The per-line
    reader peaked at 196 MB; the numpy reader at 43.3 MB when every block
    took the general tokenizer, and at 41.8 MB with the plain path that
    this file takes (numpy 2.4, Python 3.11)."""
    n = 128000
    label = np.random.default_rng(0).permutation(n)
    v = np.arange(n)
    edges = np.concatenate([np.stack([label[v], label[(v + k) % n]], axis=1)
                            for k in range(1, 9)])
    path = tmp_path / "rr16.txt"
    path.write_text(f"{n}\n" + "".join(f"{a} {b}\n" for a, b in edges.tolist()))
    del edges
    tracemalloc.start()
    try:
        src = StreamSource.from_file(str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(src.edges) == 1024000
    assert peak < 96e6, f"peak {peak / 1e6:.1f} MB"


def test_generator_spec_stream():
    st = stream_source("clique-pairs:Δ=4,pairs=1").open()
    assert st.n == 10
    assert len(_edges(st)) == 2 * 10  # two K5 blocks keep their edge count after switching


def test_single_pass_enforcement():
    src = stream_source("clique-minus-edge:delta=4,count=1")
    st = src.open()
    list(st.chunks())
    with pytest.raises(StreamError):
        next(iter(st.chunks()))
    assert src.passes == 1
    src.open()
    assert src.passes == 2


@pytest.mark.parametrize("n, size", [
    (1, 4096), (256, 4096),                 # the floor
    (257, 4112), (5000, 80000),             # 16 edges per vertex
    (15625, 250000), (16384, 250000), (10**6, 250000),   # the cap
])
def test_default_chunk_size(n, size):
    assert chunk_edges(n) == size


def test_default_chunks_yield_every_edge_once_in_order():
    n, m = 300, 10000                        # 4800 edges per chunk
    edges = np.random.default_rng(8).integers(0, n, size=(m, 2))
    st = EdgeStream(n, edges)
    blocks = list(st.chunks())
    assert [b.shape[0] for b in blocks] == [4800, 4800, 400]
    assert np.array_equal(np.concatenate(blocks), edges)
    assert st.consumed
    with pytest.raises(StreamError, match="already consumed"):
        next(iter(st.chunks()))


@pytest.mark.parametrize("size", [0, -3])
def test_chunk_size_below_one_raises(size, monkeypatch):
    st = EdgeStream(4, np.array([(0, 1), (1, 2), (2, 3)]))
    monkeypatch.setattr(stream, "chunk_edges", lambda n: size)
    with pytest.raises(ValueError, match="chunk size"):
        next(st.chunks())
    assert not st.consumed                  # the stream is still whole
    monkeypatch.setattr(stream, "chunk_edges", lambda n: 2)
    chunks = st.chunks()
    assert not st.consumed                  # nothing is read until pulled
    assert [b.shape[0] for b in chunks] == [2, 1]


def test_a_pass_delivers_the_source_order():
    src = stream_source("clique-pairs:delta=4,count=2,seed=5")
    assert _edges(src.open()) == _edges(src.open()) == [tuple(e) for e in src.edges.tolist()]


def _outcome(path, no_shadow):
    res = color_run(RunConfig(path, seed=1, no_shadow=no_shadow))
    colors = None if res.colors is None else res.colors.tobytes()
    return res.status, colors, json.dumps(res.report, sort_keys=True)


@pytest.mark.parametrize("spec", ["mixed:delta=32,count=6", "holey-clique:delta=16,count=2,t=5"])
def test_row_order_and_orientation_change_no_output(spec, tmp_path, monkeypatch):
    """One instance written in generator order, and with its rows permuted
    and about half of them flipped to (v, u): both files give the same
    status, colors and report in both modes.  The holey clique's shadow
    run fails the gate, so a pipeline-failed report is compared too; the
    mixed one is also run with palettes that drop edges."""
    inst = instance_from_spec(spec, 1)
    rng = np.random.default_rng(1)
    shuffled = inst.edges[rng.permutation(inst.edges.shape[0])]
    flip = rng.random(shuffled.shape[0]) < 0.5
    shuffled[flip] = shuffled[flip, ::-1]
    paths = [str(tmp_path / "source.txt"), str(tmp_path / "shuffled.txt")]
    write_edge_list(paths[0], inst.n, inst.edges)
    write_edge_list(paths[1], inst.n, shuffled)
    statuses = set()
    for no_shadow in (False, True):
        source, permuted = (_outcome(path, no_shadow) for path in paths)
        assert source == permuted, no_shadow
        statuses.add(source[0])
    assert (PIPELINE_FAILED in statuses) == spec.startswith("holey")
    if spec.startswith("mixed"):
        monkeypatch.setattr(pipeline, "sample_palettes", dropping_palettes)
        assert _outcome(paths[0], False) == _outcome(paths[1], False)


def test_degree_census_small_cases(tmp_path):
    k4 = _write(tmp_path, "4\n0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n")
    degs = _census(stream_source(k4))[0]
    assert degs.tolist() == [3, 3, 3, 3]

    star = _write(tmp_path, "5\n0 1\n0 2\n0 3\n0 4\n", name="s.txt")
    degs = _census(stream_source(star))[0]
    assert degs.tolist() == [4, 1, 1, 1, 1]


def test_degree_census_matches_shadow_on_generated():
    for fam in ("clique-pairs", "lonely-clique", "hard-phase6"):
        inst = generate_instance(fam, 8, count=2, seed=3)
        src = source_of(inst)
        degs = _census(src)[0]
        sh = shadow_of(src)
        assert degs.max() == inst.delta
        assert degs.tolist() == [sh.degrees[v] for v in range(inst.n)]


def _gate(src, delta):
    """The colorability listing of src's pre-pass at delta."""
    degrees, roots = _census(src)
    return check_colorability(roots, degrees, delta)


def test_check_colorability_verdicts():
    tri = StreamSource(3, np.array([(0, 1), (1, 2), (0, 2)]))
    assert _gate(tri, 2) == [
        {"verdict": ODD_CYCLE_COMPONENT, "vertices": [0, 1, 2], "size": 3}]

    k5 = StreamSource(5, np.array([(u, v) for u in range(5) for v in range(u + 1, 5)]))
    assert [c["verdict"] for c in _gate(k5, 4)] == [CLIQUE_COMPONENT]

    k4e = StreamSource(4, np.array([(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)]))
    assert _gate(k4e, 3) == []


def _listing_by_scan(roots, degrees, delta):
    """The gate's listing from one scan of all n roots per component, by
    the full rule: vertex and edge counts, maximum and minimum degree."""
    out = []
    for root in np.unique(roots):
        members = np.flatnonzero(roots == root)
        degs = degrees[members]
        size, ecount = members.size, int(degs.sum()) // 2
        regular = degs.max() == degs.min() == delta
        if delta == 2 and regular and size % 2 == 1 and ecount == size:
            verdict = ODD_CYCLE_COMPONENT
        elif regular and size == delta + 1 and ecount == delta * (delta + 1) // 2:
            verdict = CLIQUE_COMPONENT
        else:
            continue
        out.append({"verdict": verdict, "vertices": members[:12].tolist(), "size": size})
    return out


def _pieces(delta):
    """(edges on vertices 0..k-1, k, listed by the gate) for the components
    of max degree <= delta planted below: a lone vertex, the
    (delta+1)-clique and, from delta=2, near misses (one edge short, one
    vertex short, the delta-regular K_{delta,delta}); at delta=2 also
    cycles of every length from 3 to 27 and a path."""
    def clique(k):
        return [(u, v) for u in range(k) for v in range(u + 1, k)]

    out = [([], 1, delta == 0), (clique(delta + 1), delta + 1, True)]
    if delta >= 2:
        out += [(clique(delta + 1)[1:], delta + 1, False), (clique(delta), delta, False)]
        out.append(([(u, delta + v) for u in range(delta) for v in range(delta)],
                    2 * delta, False))   # K_{delta,delta}
    if delta == 2:
        out += [([(i, (i + 1) % k) for i in range(k)], k, k % 2 == 1) for k in range(4, 28)]
        out.append(([(i, i + 1) for i in range(20)], 21, False))
    return out


@pytest.mark.parametrize("delta", [0, 1, 2, 3, 12])
def test_gate_matches_a_per_root_scan_on_many_components(delta):
    # ~3k components under shuffled labels and a shuffled stream, with
    # planted (delta+1)-cliques (and odd cycles at delta=2) among near misses
    rng = np.random.default_rng(delta)
    pieces = _pieces(delta)
    counts = rng.multinomial(3000 - len(pieces), np.ones(len(pieces)) / len(pieces)) + 1
    edges, n, planted = [], 0, 0
    for (piece, k, bad), copies in zip(pieces, counts.tolist()):
        for _ in range(copies):
            edges += [(n + u, n + v) for u, v in piece]
            n += k
        planted += bad * copies
    perm = rng.permutation(n)
    edges = perm[np.array(edges, dtype=np.int64).reshape(-1, 2)]
    edges = edges[rng.permutation(edges.shape[0])]
    degrees, roots = _census(StreamSource(n, edges))
    assert degrees.max() == delta and np.unique(roots).size == 3000
    got = check_colorability(roots, degrees, delta)
    assert len(got) == planted
    assert got == _listing_by_scan(roots, degrees, delta)
    assert any(c["size"] > 12 and len(c["vertices"]) == 12 for c in got) == (delta in (2, 12))


def test_check_colorability_rejects_wrong_delta():
    k4e = StreamSource(4, np.array([(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)]))
    with pytest.raises(ValueError):
        _gate(k4e, 5)


def test_generated_families_are_colorable_until_clique_injected():
    inst = generate_instance("mixed", 8, count=1, seed=2)
    assert _gate(source_of(inst), 8) == []

    # bolt a pure (delta+1)-clique component on: exactly it is listed
    k = inst.delta + 1
    extra = np.array(
        [(inst.n + u, inst.n + v) for u in range(k) for v in range(u + 1, k)]
    )
    bigger = StreamSource(inst.n + k, np.concatenate([inst.edges, extra]))
    assert _gate(bigger, inst.delta) == [
        {"verdict": CLIQUE_COMPONENT, "vertices": list(range(inst.n, inst.n + k)), "size": k}]


def test_shadow_copy_matches_generator():
    inst = generate_instance("clique-pairs", 4, count=1, seed=7)
    sh = shadow_of(source_of(inst))
    want = {(min(u, v), max(u, v)) for u, v in inst.edges.tolist()}
    got = set(map(tuple, sh.edges().tolist()))
    assert got == want
    assert all(sh.degrees[v] == 4 for v in range(inst.n))


def test_shadow_rows_and_counts():
    # path 0-1-2 plus the chord 0-2: one triangle
    sh = shadow_of(StreamSource(4, np.array([(0, 1), (1, 2), (0, 2)])))
    assert neighbors(sh, 1) == {0, 2}
    assert row(sh, 3).size == 0 and not has_edge(sh, 0, 3)
    assert sh.edges().tolist() == [[0, 1], [0, 2], [1, 2]]
    assert sh.common.tolist() == [1, 1, 1]
    assert sh.triangles().tolist() == [1, 1, 1, 0]
