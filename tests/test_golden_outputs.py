"""Golden digests of fixed-seed colorings, reports, palette masks and
decompositions.

Only fields that do not depend on how the lists and graphs are stored are
pinned: the colors, the clique report, the space report, the union masks
the stream filter reads, the decomposition `decompose_run` returns and the
ordered violation list of `verify_decomposition`.  A refactor of the
palette or graph storage must leave all of them byte-identical.
"""

import hashlib
import json

import pytest

from streamcolor.decomposition import verify_decomposition
from streamcolor.palette import sample_palettes
from streamcolor.params import ParamSet
from streamcolor.pipeline import RunConfig, color_run, decompose_run

from conftest import planted_mistakes

# spec -> sha256 of (colors bytes, report["cliques"] JSON, report["space"] JSON);
# both shadow modes give the same three digests on these instances.
RUNS = {
    "random-regular:delta=16,n=400,seed=1": (
        "149898e2b8165bf0dc610c61352e9d3c092f4c3f1d654185706065059d82947e",
        "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
        "20b0583280093fdb9efdf522fde919b4f9049d88191fc3ffb887ab5f70e2b7e9",
    ),
    "mixed:delta=32,count=2,seed=1": (
        "b5224c016b150588121fa0723addde30dc991a35545e301e9f74b601446a173f",
        "7ea26bd02ad11a4ce9fe12fbfee5a4f8adfea9a0559fb4b4b5ee48c768136894",
        "80b4c275d722e302acbf547b5b5a07663eec947094047d410ef707b9981fe2f7",
    ),
    "clique-pairs:delta=16,count=4,seed=1": (
        "82da737ac57de11e27c31033b76966dc2f14ef8fea4aedf7e6b6a8bd12092ae6",
        "e9d84c32ce0bb67554fee29c016d07273386a084ad9351573ef302de75f9ec61",
        "d469104a02aec57e517a5a60c3cf0ab351dffa883074d8129245aae31da1c2ca",
    ),
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
    got = (
        _sha(res.colors.tobytes()),
        _json_sha(res.report["cliques"]),
        _json_sha(res.report["space"]),
    )
    assert got == RUNS[spec]


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
        "violations": None if report is None else report.violations,
    }


@pytest.mark.parametrize("spec, no_shadow", sorted(DECOMPOSITIONS))
def test_decompose_run_golden(spec, no_shadow):
    dec, report = decompose_run(spec, seed=1, no_shadow=no_shadow)
    assert _json_sha(_decomposition_view(dec, report)) == DECOMPOSITIONS[spec, no_shadow]


def test_planted_mistake_violations_golden():
    got = tuple(
        _json_sha(verify_decomposition(dec, oracle, params.eps, delta).violations)
        for dec, oracle, params, delta in planted_mistakes()
    )
    assert got == PLANTED_VIOLATIONS
