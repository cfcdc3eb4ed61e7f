"""Golden digests of fixed-seed colorings, reports, palette masks and
decompositions.

Only fields that do not depend on how the lists and graphs are stored are
pinned: the colors, the phase that colored each vertex, the clique report,
the space report, the union masks the stream filter reads, the
decomposition `decompose_run` returns and the ordered violation list of
`verify_decomposition`.  A refactor of the palette or graph storage must
leave all of them byte-identical.
"""

import hashlib
import itertools
import json

import numpy as np
import pytest

from streamcolor.decomposition import verify_decomposition
from streamcolor.generators import generate_instance
from streamcolor.palette import sample_palettes
from streamcolor.params import ParamSet
from streamcolor.pipeline import RunConfig, _main_pass, color_run, decompose_run, verify_coloring
from streamcolor.stream import stream_source

from conftest import decline_phase4, neighbors, planted_mistakes, shadow_of

# spec -> sha256 of (colors bytes, report["cliques"] JSON, report["space"] JSON,
# provenance bytes); both shadow modes give the same four digests on these
# instances.
RUNS = {
    "random-regular:delta=16,n=400,seed=1": (
        "149898e2b8165bf0dc610c61352e9d3c092f4c3f1d654185706065059d82947e",
        "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
        "d5c0aaf23022bb3e4ec58a0055c95cfea8500e2b32a69a218f663c1c79edd1ea",
        "bc0eb9f0c41ad964388f86401f990893dc23a3c7614d827e53292de00183ff57",
    ),
    "mixed:delta=32,count=2,seed=1": (
        "b5224c016b150588121fa0723addde30dc991a35545e301e9f74b601446a173f",
        "7ea26bd02ad11a4ce9fe12fbfee5a4f8adfea9a0559fb4b4b5ee48c768136894",
        "da1488b9077bee7b415d97f802c2ee683e0a63bce0d6196e9f5edd363e0a6894",
        "64bc871e6c6b5af717b62e2a01513fa6c6d392e8b13abe5f430f4df7e990afe6",
    ),
    "clique-pairs:delta=16,count=4,seed=1": (
        "82da737ac57de11e27c31033b76966dc2f14ef8fea4aedf7e6b6a8bd12092ae6",
        "e9d84c32ce0bb67554fee29c016d07273386a084ad9351573ef302de75f9ec61",
        "fab98acfcc734f95ff8356cdb8826675a5002853b741943760fce6883f603b1e",
        "b4ebf43892ee2980cc4c19104150d7000026e8ff5c6a98f338858179e21580ba",
    ),
    # samples its neighbors at rate 225/256 and L6 below 1
    "mixed:delta=256,count=1,seed=1": (
        "ef8995a77d3d125c5ddaffa93281bd20855d92281313263dbeb6a2a01c913621",
        "2cd0fef93b63f3eb8439d156f0494a24a74964db7522be68fdff084352c0298c",
        "290d6720b6d148bf59228be551280d48c8e8e204940fa72a5979bbb3e6c2bd36",
        "0ee29adb664ffa933d8ccf72947f6e173bc4676e09a6f1a7a08f833d30c8df03",
    ),
}
# spec -> (delta, sha256 of indptr bytes, sha256 of indices bytes) of the
# neighbor sample the main pass returns at seed 1: below rate 1 (225/256)
# on the mixed instance, at rate 1 on the random-regular one
SAMPLES = {
    "mixed:delta=256,count=1,seed=1": (
        256,
        "22031b871572fee72bb8ede17ab97a56a3e7a212291be6d4a0baac653af7b5bd",
        "ed1a02da619a7a37947d32266a95d63144b9eb012e9891eb222a4a498d2feb2e",
    ),
    "random-regular:delta=16,n=400,seed=1": (
        16,
        "bc5cf96385675a14da5fa1d4087dcd310fc89ec9f13b89f06be6045c26f59961",
        "760805f8794c313ad33ca6879d3f7398e1c012c9d6e39c4eb2d61bec47976d64",
    ),
}
# The same four digests with phase 4 declining every clique, so the critical
# cliques go to phase 5 and the friendly ones to phase 6; both shadow modes
# agree here too.
DEFERRED_RUNS = {
    "mixed:delta=16,count=1,seed=1": (
        "6f7db7552ac86a818a956dcd341a0c872f0335bfaaf7da0dfc317436eb153ccd",
        "0d76602fa990fd3fab36d568ec6a8d3ef6f867e59d10ce54456e2544d08970bd",
        "a3746200eb95d928faafd60e3cc4fcbb17c1b350acd6e301c62df3e379a06a16",
        "3c8d4b4861dd5eff650a1b6216d831561265840d3bfc2fb0e9677256f557c29d",
    ),
    "mixed:delta=32,count=2,seed=1": (
        "3ccef1aeaa9e5105a20d61f23746191df54128a4279a5ce5d63a4dcd357eee03",
        "251e90349f81bec849fd988b33bd2c2211358fdecaf759ed4e87c928dc52e08b",
        "7706908d115981014b390c9889fae452875455406a74eda4ac79616b37b3d4e0",
        "46c87bb7b233e1c477144134cad0002f508cf09fc5fa0e5bd8d146f1af10711f",
    ),
}


def _edge_file(n: int, edges) -> str:
    return f"{n}\n" + "".join(f"{u} {v}\n" for u, v in edges)


def _k5_minus_edge(base: int) -> list[tuple[int, int]]:
    return [(a, b) for a, b in itertools.combinations(range(base, base + 5), 2)
            if (a, b) != (base, base + 1)]


def _octahedron_minus_edge(base: int) -> list[tuple[int, int]]:
    return [(a, b) for a, b in itertools.combinations(range(base, base + 6), 2)
            if b - a != 3 and (a, b) != (base, base + 1)]


def _cut_vertex_file(second: list[tuple[int, int]]) -> str:
    """A 4-regular graph whose last vertex is a cut: K5 minus the edge (0, 1),
    a second piece minus (5, 6), and the cut joined to 0, 1, 5 and 6."""
    cut = max(b for _, b in second) + 1
    edges = _k5_minus_edge(0) + second + [(0, cut), (1, cut), (5, cut), (6, cut)]
    return _edge_file(cut + 1, edges)


# Edge-list files for the offline runs below.  Each piece at the cut is colored
# on its own; in the octahedron piece the cut gets another color than in the
# K5 piece, so that piece's two colors are swapped.  The delta=2 file holds a
# 6-cycle, a path entered from its middle vertex 1, an edge and a lone vertex.
OFFLINE_FILES = {
    "cut-k5-k5.txt": _cut_vertex_file(_k5_minus_edge(5)),
    "cut-k5-octahedron.txt": _cut_vertex_file(_octahedron_minus_edge(5)),
    "delta2-paths-cycle.txt": "14\n7 2\n2 11\n11 4\n4 9\n9 0\n0 7\n3 12\n12 5\n5 1\n1 10\n8 13\n",
}
# (spec, budget, no_shadow) -> sha256 of (colors bytes, report JSON) of runs
# that take the offline route: delta below the pipeline minimum, or a budget
# the raw graph fits.  Without a shadow the route takes one more pre-pass.
# A spec in OFFLINE_FILES is read from that file.
OFFLINE_RUNS = {
    ("cut-k5-k5.txt", None, False): (
        "7d0581db55e8550261604e8d267c0951f98c1a343c7855977804d8123bbd65e9",
        "8238de905ff3a1ce51d8415fda66d9fcaaa26b01949946400640012e6ac8f57f",
    ),
    ("cut-k5-k5.txt", None, True): (
        "7d0581db55e8550261604e8d267c0951f98c1a343c7855977804d8123bbd65e9",
        "61903d1d4b259d681837792b89628fc7032727aa580f87cef3bbc7958749b705",
    ),
    ("cut-k5-octahedron.txt", None, False): (
        "5f99471bec9bb06f6717c70f92990a734a31cf382ba625c16eaa90aaf5fdbaf6",
        "a26c4c7c7ab811b437a7eb47fff2f4c4dd1eab23be29aa880dd1e4c0cceb2cbf",
    ),
    ("cut-k5-octahedron.txt", None, True): (
        "5f99471bec9bb06f6717c70f92990a734a31cf382ba625c16eaa90aaf5fdbaf6",
        "f480fa5fb6147bbc23343ffcd1620b7404da33f9a794f531a6ef5f3c6d1da652",
    ),
    ("delta2-paths-cycle.txt", None, False): (
        "fcb0d90027f8f3a5148e4970eba272cb244f4367af0d3a5f98a012af66f59572",
        "d5179befbd3d6954e8cc014e69cb9e4ef48acc393cab45134764d5d0ad726716",
    ),
    ("delta2-paths-cycle.txt", None, True): (
        "fcb0d90027f8f3a5148e4970eba272cb244f4367af0d3a5f98a012af66f59572",
        "2467b6cffd26656e54b2e379f43cd5293d8a6668a2da004c63cb5dc8bfb0d709",
    ),
    ("clique-minus-edge:delta=5,count=2,seed=1", None, False): (
        "82d18ed6fd712a414142f08040e0a2bf6f3c8c4d81d3cc4cb7840d19bf97f6c9",
        "dba51bc67d6828c8af596f44f64bc4b5b12d953da05b2e51b43e821f3451f0a3",
    ),
    ("clique-minus-edge:delta=5,count=2,seed=1", None, True): (
        "82d18ed6fd712a414142f08040e0a2bf6f3c8c4d81d3cc4cb7840d19bf97f6c9",
        "2f1fadd9ba894fd05c624c2db848dded51099b75c2f91d88ef8e0ea2ed75ef3b",
    ),
    ("clique-pairs:delta=16,count=1,seed=2", 10**9, False): (
        "2da82c0db5e4befd285eebe015807b2cbcdae2ba4c8357ab2469b885d392614c",
        "c04e046eba67a757c406ad3b5e507682ccbaf3af72395b5e15ebf87dc3a1f645",
    ),
    ("clique-pairs:delta=16,count=1,seed=2", 10**9, True): (
        "2da82c0db5e4befd285eebe015807b2cbcdae2ba4c8357ab2469b885d392614c",
        "c86d9d3be98a5b91ae975858e9ca27171503442f69760788f9f94e59f5b301e6",
    ),
}


def _mixed_with_k9() -> str:
    """The mixed delta=8 block with a pure 9-clique bolted on after it."""
    inst = generate_instance("mixed", 8, count=1, seed=2)
    k9 = itertools.combinations(range(inst.n, inst.n + 9), 2)
    return _edge_file(inst.n + 9, [*inst.edges.tolist(), *k9])


# Edge-list files for the not-colorable runs below: a 15-cycle (delta=2),
# eight K2s among 30 vertices (delta=1), an edgeless graph (delta=0) and
# the mixed block with a K9.
NOT_COLORABLE_FILES = {
    "cycle-15.txt": lambda: _edge_file(15, [(7 * i % 15, 7 * (i + 1) % 15) for i in range(15)]),
    "k2-isolated.txt": lambda: _edge_file(
        30, [(0, 17), (3, 4), (9, 25), (28, 12), (6, 2), (21, 29), (14, 8), (19, 23)]),
    "edgeless.txt": lambda: "6\n",
    "mixed-k9.txt": _mixed_with_k9,
}
# spec -> sha256 of the report JSON of a not-colorable run at seed 1, the
# same in both shadow modes; the 17-clique's listing is cut to 12 vertices.
# A spec in NOT_COLORABLE_FILES is read from that file.
NOT_COLORABLE_RUNS = {
    "holey-clique:delta=16,t=0":
        "784475f9d1a325e2e503d71b41f18c995e4714386eacbee49e8cb55448f4838f",
    "cycle-15.txt":
        "236e8c85d8457cd7a1f7ab416ed68277981e1ea851f4bdd61ef07cf5d80f8359",
    "k2-isolated.txt":
        "123a3ce22dc5da532b3105b3baba4f69e926ce980a03f479eea2beb8cd0989de",
    "edgeless.txt":
        "6a15090dd3aa18fb7bc67c48785f31cc8ad946145bb6ae482fec8a394571eb13",
    "mixed-k9.txt":
        "00a2cd64b4ce5710e3729faf7cdd37b633f0e78f2a922ebfdcaf695ee668f52e",
}
MASKS = "e0c9a64298fb250d266821b7a2b1fd5f6afa193deea1c857bb1702539e8d0566"
# (spec, no_shadow) -> sha256 of the decompose_run JSON (see _decomposition_view)
DECOMPOSITIONS = {
    ("clique-pairs:delta=16,count=4,seed=1", False):
        "a8e63a3440b46181c2b61dbc89e50da5ac31a20341fd74073b41b74c8c0d3209",
    ("clique-pairs:delta=16,count=4,seed=1", True):
        "100fd715b58eb5ec11132cd405c5a068756d01f55243805c8072fe699df6d712",
    ("mixed:delta=32,count=2,seed=1", False):
        "2947a9c3523b8cb2edfc3463be78f2fcc4cf71730604a0375cb0e25c7357115c",
    ("mixed:delta=32,count=2,seed=1", True):
        "e33a99e03bef61cf0fbadc3f49d31adb93fe99848ec4a37c21fd67f651050fad",
    ("random-regular:delta=16,n=400,seed=1", False):
        "239cca8ab2f32bd9c573cbe403cbac0828639610320c6867c7e2a414072bf8ab",
    ("random-regular:delta=16,n=400,seed=1", True):
        "0274708000cc15e8c8c7c53b2597dc48b7dbbd34e17f18c4f5628089fce3d3ff",
}
# sha256 of the violations JSON for each decomposition of planted_mistakes()
PLANTED_VIOLATIONS = (
    "3cafdb723762425e1a7b28ec43b09c2f689e3ef6495ff0106b9912f5f9372b51",
    "9463e3a3ecb2c52a2c26e71c5291c7fb59db57c492d0ca8d73f33d54c88f982e",
)


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _json_sha(obj) -> str:
    return _sha(json.dumps(obj, sort_keys=True).encode())


@pytest.mark.parametrize("no_shadow", [False, True])
@pytest.mark.parametrize("spec", sorted(RUNS))
def test_fixed_seed_run_golden(spec, no_shadow):
    res = color_run(RunConfig(source=spec, seed=1, retries=3, no_shadow=no_shadow))
    assert _run_digests(res) == RUNS[spec]


def _run_digests(res) -> tuple[str, str, str, str]:
    return (
        _sha(res.colors.tobytes()),
        _json_sha(res.report["cliques"]),
        _json_sha(res.report["space"]),
        _sha(res.phase_result.provenance.tobytes()),
    )


@pytest.mark.parametrize("spec", sorted(SAMPLES))
def test_neighbor_sample_golden(spec):
    delta, indptr, indices = SAMPLES[spec]
    src = stream_source(spec, seed=1)
    isample = _main_pass(src, src.n, delta, ParamSet.desk(src.n, delta), 1)[2]
    assert (_sha(isample.indptr.tobytes()), _sha(isample.indices.tobytes())) == (indptr, indices)


@pytest.mark.parametrize("no_shadow", [False, True])
@pytest.mark.parametrize("spec", sorted(DEFERRED_RUNS))
def test_forced_deferral_golden(spec, no_shadow, monkeypatch):
    decline_phase4(monkeypatch)
    res = color_run(RunConfig(source=spec, seed=1, retries=3, no_shadow=no_shadow))
    assert res.status == "success"
    assert {5, 6} <= set(res.phase_result.provenance.tolist())
    delta = res.delta
    assert verify_coloring(spec, res.colors, delta, seed=1) == (True, "ok")
    # a vertex colored outside its union list has its whole neighborhood in H+
    shadow = shadow_of(stream_source(spec, seed=1))
    c = res.colors - 1
    in_list = (res.palettes.masks[np.arange(res.colors.size), c // 64]
               >> (c % 64).astype(np.uint64)) & np.uint64(1)
    for v in np.flatnonzero(in_list == 0).tolist():
        assert v in res.phase_result.recovery.known
        assert neighbors(res.phase_result.recovery, v) == neighbors(shadow, v)
    assert _run_digests(res) == DEFERRED_RUNS[spec]


@pytest.mark.parametrize("spec, budget, no_shadow", sorted(OFFLINE_RUNS, key=str))
def test_offline_run_golden(spec, budget, no_shadow, tmp_path):
    source = spec
    if spec in OFFLINE_FILES:
        source = str(tmp_path / spec)
        (tmp_path / spec).write_text(OFFLINE_FILES[spec])
    res = color_run(RunConfig(source=source, seed=1, budget=budget, no_shadow=no_shadow))
    assert res.report["pipeline"] == "offline"
    assert verify_coloring(source, res.colors, res.delta, seed=1) == (True, "ok")
    got = (_sha(res.colors.tobytes()), _json_sha(res.report))
    assert got == OFFLINE_RUNS[spec, budget, no_shadow]


@pytest.mark.parametrize("no_shadow", [False, True])
@pytest.mark.parametrize("spec", sorted(NOT_COLORABLE_RUNS))
def test_not_colorable_report_golden(spec, no_shadow, tmp_path):
    source = spec
    if spec in NOT_COLORABLE_FILES:
        source = str(tmp_path / spec)
        (tmp_path / spec).write_text(NOT_COLORABLE_FILES[spec]())
    res = color_run(RunConfig(source=source, seed=1, no_shadow=no_shadow))
    assert res.status == "not-colorable" and res.colors is None
    assert _json_sha(res.report) == NOT_COLORABLE_RUNS[spec]


def test_palette_masks_golden():
    # delta=100: two mask words; every rate but L3's is below 1
    pal = sample_palettes(300, 100, ParamSet.desk(300, 100, beta=8), seed=5)
    assert pal.masks.shape == (300, 2)
    assert _sha(pal.masks.tobytes()) == MASKS


def _decomposition_view(dec, report) -> dict:
    return {
        "v_sparse": dec.v_sparse,
        "cliques": [
            {"vertices": k.vertices, "size_class": k.size_class, "non_edges": k.non_edges,
             "holey": k.holey, "kind": k.kind, "witness": k.witness}
            for k in dec.cliques
        ],
        "violations": report,
    }


@pytest.mark.parametrize("spec, no_shadow", sorted(DECOMPOSITIONS))
def test_decompose_run_golden(spec, no_shadow):
    dec, report = decompose_run(spec, seed=1, no_shadow=no_shadow)
    assert _json_sha(_decomposition_view(dec, report)) == DECOMPOSITIONS[spec, no_shadow]


def test_planted_mistake_violations_golden():
    got = tuple(
        _json_sha(verify_decomposition(dec, oracle, params.eps, delta))
        for dec, oracle, params, delta in planted_mistakes()
    )
    assert got == PLANTED_VIOLATIONS
