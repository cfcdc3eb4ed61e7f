import numpy as np
import pytest

from streamcolor.stream import (
    CLIQUE_COMPONENT,
    COLORABLE,
    ODD_CYCLE_COMPONENT,
    ParseError,
    StreamError,
    StreamSource,
    check_colorability,
    stream_source,
)
from streamcolor.generators import generate_instance
from streamcolor.pipeline import _prepass

from conftest import shadow_of, source_of


def _write(tmp_path, text, name="g.txt"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def _edges(stream):
    return [tuple(e) for block in stream.chunks() for e in block.tolist()]


def _census(src):
    return _prepass(src, want_shadow=False)[0]


def test_file_format_echo(tmp_path):
    path = _write(tmp_path, "3\n0 1\n1 2\n")
    st = stream_source(path).open()
    assert st.meta.n == 3
    assert sorted(_edges(st)) == [(0, 1), (1, 2)]
    assert st.meta.m == 2


def test_file_comments_and_blanks(tmp_path):
    path = _write(tmp_path, "# graph\n4\n\n0 1  # edge\n2 3\n")
    assert len(stream_source(path).open()) == 2


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


def test_generator_spec_stream():
    st = stream_source("clique-pairs:Δ=4,pairs=1").open()
    assert len(st) == 2 * 10  # two K5 blocks keep their edge count after switching
    assert st.meta.n == 10


def test_single_pass_enforcement():
    src = stream_source("clique-minus-edge:delta=4,count=1")
    st = src.open()
    list(st.chunks())
    with pytest.raises(StreamError):
        next(iter(st.chunks()))
    assert src.passes == 1
    src.open()
    assert src.passes == 2


def test_delivery_order_is_seeded_shuffle():
    spec = "clique-pairs:delta=4,count=2,seed=5"  # pin the instance; vary delivery
    a = _edges(stream_source(spec, seed=1).open())
    b = _edges(stream_source(spec, seed=1).open())
    c = _edges(stream_source(spec, seed=2).open())
    assert a == b
    assert sorted(a) == sorted(c)
    assert a != c


def test_degree_census_small_cases(tmp_path):
    k4 = _write(tmp_path, "4\n0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n")
    degs = _census(stream_source(k4)).degrees
    assert degs.tolist() == [3, 3, 3, 3]

    star = _write(tmp_path, "5\n0 1\n0 2\n0 3\n0 4\n", name="s.txt")
    degs = _census(stream_source(star)).degrees
    assert degs.tolist() == [4, 1, 1, 1, 1]


def test_degree_census_matches_shadow_on_generated():
    for fam in ("clique-pairs", "lonely-clique", "hard-phase6"):
        inst = generate_instance(fam, 8, count=2, seed=3)
        src = source_of(inst)
        degs = _census(src).degrees
        sh = shadow_of(src)
        assert degs.max() == inst.delta
        assert degs.tolist() == [sh.degree(v) for v in range(inst.n)]


def test_check_colorability_verdicts():
    tri = StreamSource(3, np.array([(0, 1), (1, 2), (0, 2)]))
    cen = _census(tri)
    assert [v.verdict for v in check_colorability(cen, 2)] == [ODD_CYCLE_COMPONENT]

    k5 = StreamSource(5, np.array([(u, v) for u in range(5) for v in range(u + 1, 5)]))
    cen = _census(k5)
    assert [v.verdict for v in check_colorability(cen, 4)] == [CLIQUE_COMPONENT]

    k4e = StreamSource(4, np.array([(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)]))
    cen = _census(k4e)
    assert [v.verdict for v in check_colorability(cen, 3)] == [COLORABLE]


def _components_by_scan(census):
    """The census listing as one scan of all n roots per component."""
    out = []
    for root in np.unique(census.roots):
        members = np.flatnonzero(census.roots == root)
        degs = census.degrees[members]
        out.append((members.tolist(), members.size, int(degs.sum()) // 2,
                    int(degs.max()), int(degs.min())))
    return out


def test_components_match_a_per_root_scan_on_many_components():
    # ~3k components: 1000 disjoint edges, a path, a star, 1980 isolated
    # vertices, all under shuffled labels
    n = 4000
    perm = np.random.default_rng(5).permutation(n)
    edges = [tuple(perm[2 * i : 2 * i + 2]) for i in range(1000)]
    edges += [(perm[i], perm[i + 1]) for i in range(2000, 2009)]
    edges += [(perm[2010], perm[i]) for i in range(2011, 2020)]
    cen = _census(StreamSource(n, np.array(edges)))
    got = [(c.vertices, c.vcount, c.ecount, c.max_degree, c.min_degree)
           for c in cen.components()]
    assert len(got) == 2982
    assert got == _components_by_scan(cen)


def test_check_colorability_rejects_wrong_delta():
    k4e = StreamSource(4, np.array([(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)]))
    cen = _census(k4e)
    with pytest.raises(ValueError):
        check_colorability(cen, 5)


def test_generated_families_are_colorable_until_clique_injected():
    inst = generate_instance("mixed", 8, count=1, seed=2)
    src = source_of(inst)
    cen = _census(src)
    assert all(v.verdict == COLORABLE for v in check_colorability(cen, 8))

    # bolt a pure (delta+1)-clique component on: exactly it flips
    k = inst.delta + 1
    extra = np.array(
        [(inst.n + u, inst.n + v) for u in range(k) for v in range(u + 1, k)]
    )
    bigger = StreamSource(inst.n + k, np.concatenate([inst.edges, extra]))
    cen = _census(bigger)
    verdicts = check_colorability(cen, inst.delta)
    flipped = [v for v in verdicts if v.verdict == CLIQUE_COMPONENT]
    assert len(flipped) == 1
    assert sorted(flipped[0].stat.vertices) == list(range(inst.n, inst.n + k))
    assert sum(v.verdict == COLORABLE for v in verdicts) == len(verdicts) - 1


def test_shadow_copy_matches_generator():
    inst = generate_instance("clique-pairs", 4, count=1, seed=7)
    sh = shadow_of(source_of(inst))
    want = {(min(u, v), max(u, v)) for u, v in inst.edges.tolist()}
    got = set(map(tuple, sh.edges().tolist()))
    assert got == want
    assert all(sh.degree(v) == 4 for v in range(inst.n))


def test_shadow_rows_and_counts():
    # path 0-1-2 plus the chord 0-2: one triangle
    sh = shadow_of(StreamSource(4, np.array([(0, 1), (1, 2), (0, 2)])))
    assert sh.neighbors(1) == {0, 2}
    assert sh.row(3).size == 0 and not sh.has_edge(0, 3)
    assert sh.edges().tolist() == [[0, 1], [0, 2], [1, 2]]
    assert sh.common.tolist() == [1, 1, 1]
    assert sh.triangles().tolist() == [1, 1, 1, 0]
    i, j = sh.within(np.array([0, 1, 3]))
    assert sorted(zip(i.tolist(), j.tolist())) == [(0, 1), (1, 0)]
