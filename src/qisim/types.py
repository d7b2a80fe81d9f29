"""Domain types shared across the simulator, estimators and sweep harness.

All value types are frozen dataclasses validated at construction, so any
function receiving one can trust the physical ranges.  Everything here is
immutable; the same objects may be read from several threads at once.
"""
from __future__ import annotations

import dataclasses
import enum
import math
from dataclasses import dataclass

import numpy as np


# Above this many expected photons per pixel, or this read-noise sigma,
# int64 sums of squared counts in the estimators stop being safe.
_MEAN_PHOTON_LIMIT = 1e6
# Relative roundoff `MomentSet.check_consistency` forgives.
_CONSISTENCY_RTOL = 1e-9


class ParameterError(ValueError):
    """A field of a domain type is out of its physical range."""


class DegenerateStatisticError(ValueError):
    """A denominator (normally ordered variance, sample variance) is not positive."""


class InsufficientDataError(ValueError):
    """Too few realizations to evaluate an estimator."""


class InfeasibleInstanceError(ValueError):
    """Exact enumeration would exceed the configured state budget."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ParameterError(message)


def _require_finite(name: str, value: float) -> None:
    if not math.isfinite(value):
        raise ParameterError(f"{name} must be finite (got {value!r})")


def _require_count(name: str, value: int) -> None:
    _require(
        isinstance(value, (int, np.integer)) and value >= 1,
        f"{name} must be a positive integer (got {value})",
    )


class SourceKind(enum.Enum):
    """Illumination source: entangled pair or classically split thermal beam."""

    TWIN_BEAM = "twin_beam"
    SPLIT_THERMAL = "split_thermal"

    @classmethod
    def parse(cls, text: str) -> "SourceKind":
        for kind in cls:
            if kind.value == text:
                return kind
        raise ParameterError(
            f"kind must be one of {[k.value for k in cls]} (got {text!r})"
        )


@dataclass(frozen=True)
class SourceSpec:
    """Illumination source model.

    mu is the mean photon number per spatiotemporal mode of each arm;
    modes is the number of modes collected per pixel pair.  For the split
    thermal source the pre-split beam carries mu/split_ratio photons per
    mode so that arm 1 keeps a per-mode mean of mu regardless of the
    splitting ratio.
    """

    kind: SourceKind
    mu: float
    modes: int
    split_ratio: float = 0.5

    def __post_init__(self) -> None:
        _require_finite("mu", self.mu)
        _require(self.mu >= 0.0, f"mu must be >= 0 (got {self.mu})")
        object.__setattr__(self, "mu", self.mu + 0.0)  # -0.0 -> +0.0
        _require_count("modes", self.modes)
        _require_finite("split_ratio", self.split_ratio)
        _require(
            0.0 < self.split_ratio < 1.0,
            f"split_ratio must lie strictly inside (0, 1) (got {self.split_ratio})",
        )

    @property
    def pre_split_mean(self) -> float:
        """Per-mode mean of the beam before the classical splitter."""
        return self.mu / self.split_ratio


@dataclass(frozen=True)
class ChannelSpec:
    """Detection efficiencies and target model.

    The hypothesis enters every route through `arm2_efficiency` alone:
    eta2 * reflectivity with the target present, 0 with it absent.
    mode_match is the fraction of probe modes that remain pairwise
    correlated with the pixel on the reference arm (the remainder is
    replaced by statistically identical but uncorrelated light, which
    lowers the measured cross correlation without touching the local
    statistics).
    """

    eta1: float
    eta2: float
    reflectivity: float = 0.5
    target_present: bool = True
    mode_match: float = 1.0

    def __post_init__(self) -> None:
        for name in ("eta1", "eta2", "reflectivity", "mode_match"):
            value = getattr(self, name)
            _require_finite(name, value)
            _require(0.0 <= value <= 1.0, f"{name} must lie in [0, 1] (got {value})")
            # a signed zero reads +0.0 on every route
            object.__setattr__(self, name, value + 0.0)

    @property
    def arm2_efficiency(self) -> float:
        """Detected fraction of probe-arm light under this channel's
        hypothesis: eta2 * reflectivity with the target present, and
        exactly 0 with it absent, since then no source light reaches arm 2
        at all."""
        return self.eta2 * self.reflectivity if self.target_present else 0.0


@dataclass(frozen=True)
class BackgroundSpec:
    """Multithermal background on the probe arm: modes_b modes, total
    detected mean mean_total, variance mean_total * (1 + mean_total/modes_b)."""

    modes_b: int = 1
    mean_total: float = 0.0

    def __post_init__(self) -> None:
        _require_count("modes_b", self.modes_b)
        _require_finite("mean_total", self.mean_total)
        _require(self.mean_total >= 0.0, f"mean_total must be >= 0 (got {self.mean_total})")


@dataclass(frozen=True)
class Scenario:
    """A complete experiment configuration: source, channel (which sets the
    hypothesis), background, number of pixel pairs per frame (K), frames
    per hypothesis, the detector read-noise sigma in electrons and the
    frames averaged into one perr decision."""

    source: SourceSpec
    channel: ChannelSpec
    background: BackgroundSpec
    pixel_pairs: int
    images: int
    read_noise_sigma: float = 0.0
    images_per_decision: int = 10

    def __post_init__(self) -> None:
        ipd = self.images_per_decision
        _require(
            isinstance(ipd, (int, np.integer)) and ipd >= 1,
            f"images_per_decision must be >= 1 (got {ipd})",
        )
        _require_count("pixel_pairs", self.pixel_pairs)
        _require_count("images", self.images)
        sigma = self.read_noise_sigma
        _require(
            math.isfinite(sigma) and 0.0 <= sigma <= _MEAN_PHOTON_LIMIT,
            f"read_noise_sigma must be finite and >= 0, and at most {_MEAN_PHOTON_LIMIT:g}"
            f" (got {sigma!r})",
        )

    def with_target(self, present: bool) -> "Scenario":
        return dataclasses.replace(
            self, channel=dataclasses.replace(self.channel, target_present=present)
        )


@dataclass(frozen=True)
class MomentSet:
    """Joint central moments of the detected counts (N1, N2) per pixel pair.

    m22 is the fourth-order joint central moment <dN1^2 dN2^2>; together
    with cov it gives the variance of the product statistic,
    var(dN1 dN2) = m22 - cov^2, which drives every noise figure.
    """

    mean1: float
    mean2: float
    var1: float
    var2: float
    cov: float
    m22: float

    @property
    def delta_product_variance(self) -> float:
        return self.m22 - self.cov * self.cov

    def check_consistency(self) -> None:
        """Assert the defining inequalities, tolerating float roundoff."""
        rtol = _CONSISTENCY_RTOL
        scale = max(abs(self.var1), abs(self.var2), 1.0)
        if self.var1 < -rtol * scale or self.var2 < -rtol * scale:
            raise AssertionError(f"negative variance in {self}")
        if self.cov**2 > self.var1 * self.var2 * (1.0 + rtol) + rtol * scale**2:
            raise AssertionError(f"cov^2 exceeds var1*var2 in {self}")
        if self.m22 < self.cov**2 * (1.0 - rtol) - rtol * scale**2:
            raise AssertionError(f"m22 below cov^2 in {self}")


# Stream domains hashed into every child seed, so that "in" and "out"
# hypothesis frames can never collide on the same random stream.
STREAM_OUT = 0
STREAM_IN = 1


@dataclass(frozen=True)
class SeedSpec:
    """Root of all randomness.

    Child streams are derived by hashing (master_seed, *tags) through
    numpy's SeedSequence.  Frames are drawn from one stream per block of
    frames (see `frame_rng`), so generation is reproducible bit-for-bit
    no matter in which order blocks or hypotheses are produced.
    """

    master_seed: int

    def __post_init__(self) -> None:
        _require(
            isinstance(self.master_seed, (int, np.integer)) and 0 <= self.master_seed < 2**64,
            f"master_seed must be an unsigned 64-bit integer (got {self.master_seed})",
        )

    def child_sequence(self, *tags: int) -> np.random.SeedSequence:
        """The SeedSequence of (master_seed, *tags).  It pads its entropy,
        the 32-bit words of master_seed and of each tag, with zeros to 4
        words, so a trailing zero tag is ignored while the entropy fits in
        4 words: (a,) and (a, 0) give the same sequence."""
        return np.random.SeedSequence((self.master_seed, *tags))

    def rng(self, *tags: int) -> np.random.Generator:
        return np.random.default_rng(self.child_sequence(*tags))

    def derive(self, *tags: int) -> "SeedSpec":
        """A new independent SeedSpec, e.g. one per sweep series.  As in
        `child_sequence`, a trailing zero tag is ignored while the entropy
        fits in 4 words, so derive(a) == derive(a, 0)."""
        child = int(self.child_sequence(*tags).generate_state(1, np.uint64)[0])
        return SeedSpec(child)

    def frame_rng(self, target_present: bool, block: int) -> np.random.Generator:
        """The stream of frame block `block` of one hypothesis; the sampler
        sets how many frames a block holds."""
        domain = STREAM_IN if target_present else STREAM_OUT
        return self.rng(domain, block)
