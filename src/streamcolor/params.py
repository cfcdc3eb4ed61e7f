"""Parameter sets and sampling rates shared by every pipeline stage.

Two modes exist.  ``paper`` uses the constants the asymptotic analysis
wants (alpha=1e3, beta=100*log2(n), eps=1e-8/log2(n), ...); those only
make sense for astronomically large inputs.  ``desk`` rescales the same
formulas so that every sampling rate lands in (0, 1] and every
almost-clique slack is at least a vertex or two at Delta in the 8..256
range, which is where the test suite lives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

DELTA_MIN_PIPELINE = 8  # below this, store the graph and color offline


def _log2(n: int) -> float:
    return math.log2(max(2, n))


@dataclass(frozen=True)
class ParamSet:
    """Constants driving palette sizes, decomposition, and sketches.

    alpha doubles as the activation divisor of the one-shot phase and as
    the row count of the random verification matrix.  holey_mult sets
    the non-edge count above which an almost-clique counts as holey
    (threshold holey_mult * eps * delta).
    """

    mode: str
    alpha: int
    beta: int
    eps: float
    holey_mult: float
    q_const: float = 1.0      # divisor constant in the pair-list rate

    def __post_init__(self):
        if self.mode not in ("paper", "desk"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.beta < 2:
            raise ValueError("beta must be >= 2")
        if not 0 < self.eps <= 1 / 40:
            raise ValueError("eps must be in (0, 1/40]")

    @classmethod
    def paper(cls, n: int, **overrides) -> "ParamSet":
        base = cls(
            mode="paper",
            alpha=10**3,
            beta=100 * math.ceil(_log2(n)),
            eps=1e-8 / _log2(n),
            holey_mult=1e7,
            q_const=100.0,
        )
        return replace(base, **overrides) if overrides else base

    @classmethod
    def desk(cls, n: int, delta: int, **overrides) -> "ParamSet":
        base = cls(
            mode="desk",
            alpha=8,
            beta=max(4, math.ceil(2 * math.log(max(2, n)))),
            eps=min(1 / 40, 4 / max(1, delta)),
            holey_mult=10.0,
            q_const=1.0,
        )
        return replace(base, **overrides) if overrides else base

    @classmethod
    def make(cls, mode: str, n: int, delta: int) -> "ParamSet":
        if mode == "paper":
            return cls.paper(n)
        return cls.desk(n, delta)

    def validate_for(self, delta: int) -> None:
        """Check the slack constraints for a concrete max degree."""
        if delta < 1:
            raise ValueError("delta must be >= 1")
        if self.mode == "desk" and 10 * self.eps * delta < 1:
            # clamped slack: need at least one vertex of almost-clique room
            raise ValueError(
                f"eps={self.eps} gives almost-clique slack "
                f"{10 * self.eps * delta:.2f} < 1 at delta={delta}"
            )

    # ---- sampling rates (all clamped to [0, 1]) ----

    def activation_rate(self) -> float:
        return min(1.0, 1.0 / self.alpha)

    def l2_rate(self, delta: int) -> float:
        return min(1.0, self.beta / delta)

    def l3_rate(self, n: int, delta: int) -> float:
        return min(1.0, 100 * self.alpha * _log2(n) / (self.eps**2 * delta))

    def q_rate(self, delta: int) -> float:
        """Per-color rate of the short lists used for non-edge pairing."""
        return min(1.0, 1.0 / (self.q_const * math.sqrt(self.eps) * delta))

    def l6_rate(self, delta: int) -> float:
        return min(1.0, self.beta**2 / delta)

    def isample_rate(self, delta: int) -> float:
        return min(1.0, self.beta**2 / delta)

    def vr_rate(self, r: int) -> float:
        return min(1.0, self.beta / (self.eps * r))

    # ---- derived thresholds ----

    def friend_test_threshold(self, delta: int) -> float:
        """Decision threshold on |I_sample(v) & K| for the friend tester.

        Sits halfway between the stranger (< delta/beta edges into K) and
        friend (>= 2*delta/beta) expectations under the effective (clamped)
        neighbor-sampling rate; with the unclamped rate beta^2/delta this is
        the classic 1.5*beta.
        """
        return 1.5 * (delta / self.beta) * self.isample_rate(delta)

    def holey_threshold(self, delta: int) -> float:
        return self.holey_mult * self.eps * delta


def sketch_rates(delta: int) -> list[int]:
    """Sketch sparsity levels: powers of two from 1 up to >= delta."""
    return [2**i for i in range(math.ceil(math.log2(max(2, delta))) + 1)]


# Stable per-component sub-seeds so retries can re-seed everything at once.
_TAGS = {
    "palette": 2,
    "oneshot": 3,
    "isample": 6,
    "vr": 7,
    "phir": 8,
    "instance": 9,
}


def child_seed(seed: int, tag: str, extra: int = 0) -> int:
    """Derive a sub-seed for a named component (int64-safe for kernels)."""
    ss = np.random.SeedSequence([int(seed) & (2**63 - 1), _TAGS[tag], extra])
    return int(ss.generate_state(1, dtype=np.uint64)[0]) & (2**63 - 1)


def rng_for(seed: int, tag: str, extra: int = 0) -> np.random.Generator:
    return np.random.default_rng(child_seed(seed, tag, extra))


def bernoulli(rng: np.random.Generator, shape: tuple[int, ...], rate: float) -> np.ndarray:
    """Independent Bernoulli(rate) bools of the given shape.

    A rate >= 1 draws nothing and gives a read-only broadcast of True.
    Otherwise each entry is one little-endian 16-bit lane of the raw
    words.  With s = rate * 2**16 and t = floor(s), a lane below t is in,
    a lane equal to t is in iff one uniform falls below s - t, and any
    other lane is out, so P(in) = rate exactly.
    """
    if rate >= 1.0:
        return np.broadcast_to(True, shape)
    size = math.prod(shape)
    words = rng.bit_generator.random_raw(-(-size // 4))
    lanes = words.astype("<u8", copy=False).view("<u2")[:size].reshape(shape)
    s = rate * 2**16
    t = math.floor(s)
    out = lanes < t
    if s > t:
        tie = lanes == t
        out[tie] = rng.random(np.count_nonzero(tie)) < s - t
    return out
