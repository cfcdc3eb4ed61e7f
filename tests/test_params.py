"""The one Bernoulli sampler: its lane rule, its mean, and what a clamped
rate draws (nothing)."""

from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest

from streamcolor import field
from streamcolor.field import SketchBank
from streamcolor.params import ParamSet, bernoulli


class _StubRng:
    """Hands out chosen raw words and chosen uniforms, and records how
    many of each were asked for."""

    def __init__(self, words, uniforms=()):
        self._words = np.asarray(words, dtype=np.uint64)
        self._uniforms = list(uniforms)
        self.raw_asked, self.uniforms_asked = [], []
        self.bit_generator = SimpleNamespace(random_raw=self._raw)

    def _raw(self, size):
        self.raw_asked.append(size)
        return self._words[:size].copy()

    def random(self, size):
        self.uniforms_asked.append(size)
        got, self._uniforms = self._uniforms[:size], self._uniforms[size:]
        return np.array(got)


def _word(*lanes) -> int:
    """One raw word holding the given 16-bit lanes, the first lowest."""
    return sum(lane << (16 * i) for i, lane in enumerate(lanes))


def test_lanes_below_at_and_above_the_threshold():
    """With t = floor(rate * 2**16): a lane below t is in, a lane above is
    out, and a lane equal to t is in iff its uniform is below the
    fractional part (here 0.5).  Six lanes take two words, read low lane
    first, and the two ties take two uniforms in lane order."""
    t = 1000
    rate = (t + 0.5) / 2**16
    rng = _StubRng([_word(t - 1, t, t + 1, t), _word(0, 65535, 7, 7)], uniforms=[0.3, 0.7])
    got = bernoulli(rng, (2, 3), rate)
    assert got.dtype == bool and got.shape == (2, 3)
    assert got.ravel().tolist() == [True, True, False, False, True, False]
    assert rng.raw_asked == [2] and rng.uniforms_asked == [2]


def test_an_integral_threshold_draws_no_uniform():
    """At 5/16 the rate times 2**16 is a whole number, so a lane equal to
    it is out and no uniform is drawn."""
    t = 5 * 2**12
    rng = _StubRng([_word(t - 1, t, t + 1, 0)])
    assert bernoulli(rng, (4,), 5 / 16).tolist() == [True, False, False, True]
    assert rng.uniforms_asked == []


@pytest.mark.parametrize("rate", [0.0013, 5 / 16])
def test_the_mean_is_the_rate(rate):
    """0.0013 * 2**16 has a fractional part, 5/16 * 2**16 has none; either
    way the share of ins is the rate, within four standard deviations."""
    size = 2_000_000
    got = bernoulli(np.random.default_rng(7), (size // 1000, 1000), rate)
    sigma = np.sqrt(size * rate * (1 - rate))
    assert abs(np.count_nonzero(got) - size * rate) < 4 * sigma


@pytest.mark.parametrize("rate", [1.0, 1.5])
def test_a_clamped_rate_draws_nothing(rate):
    rng = np.random.default_rng(3)
    before = rng.bit_generator.state
    got = bernoulli(rng, (5, 2, 3), rate)
    assert rng.bit_generator.state == before
    assert got.shape == (5, 2, 3) and got.all()
    assert not got.flags.writeable


def test_a_clamped_sketch_level_builds_no_generator(monkeypatch):
    """Only a level whose rate is below 1 gets its own "vr" generator: none
    at the desk defaults, and only the top level (r=256) with beta=2 at
    n=300, delta=256."""
    built = Counter()
    rng_for = field.rng_for

    def counting_rng_for(seed, tag, extra=0):
        built[tag, extra] += 1
        return rng_for(seed, tag, extra)

    monkeypatch.setattr(field, "rng_for", counting_rng_for)
    n, delta = 300, 256
    bank = SketchBank(n, delta, ParamSet.desk(n, delta), seed=5)
    assert built == Counter()
    assert [bank.sampled(r).size for r in bank.rates] == [n] * len(bank.rates)
    bank = SketchBank(n, delta, ParamSet.desk(n, delta, beta=2), seed=5)
    assert built == Counter({("vr", 256): 1})
    assert 0 < bank.sampled(256).size < n
