"""Golden digests of fixed-seed colorings, reports and palette masks.

Only fields that do not depend on how the sampled lists are stored are
pinned: the colors, the clique report, the space report and the union
masks the stream filter reads.  A refactor of the palette storage must
leave all of them byte-identical.
"""

import hashlib
import json

import pytest

from streamcolor.palette import sample_palettes
from streamcolor.params import ParamSet
from streamcolor.pipeline import RunConfig, color_run

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
