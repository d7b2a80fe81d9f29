"""Domain types shared across the simulator, estimators and sweep harness.

All value types are frozen dataclasses validated at construction, so any
function receiving one can trust the physical ranges.  Everything here is
immutable; the same objects may be read from several threads at once.

Each config key is declared once, by the spec field that holds it: `_key`
gives the field its default and a `Key` with the range, help text and
shortcut.  A spec checks its fields against their declarations when it
is built, and holds each float key as a plain `float`, a signed zero as
+0.0, so every route sees one form of each value; `config` derives the
schema, the parsers and `build_scenario` from them, and `cli` the flags
and ``--help``.  Checks that are not ranges (the source kind,
`SeedSpec`) stay in the ``__post_init__`` of what they guard.
"""
from __future__ import annotations

import dataclasses
import enum
import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np


# Above this many expected photons per pixel, or this read-noise sigma,
# int64 sums of squared counts in the estimators stop being safe.
_MEAN_PHOTON_LIMIT = 1e6
# Relative roundoff `MomentSet.check_consistency` forgives.
_CONSISTENCY_RTOL = 1e-9
# the types an integer key (and a seed) takes, `bool` aside
_INTEGERS = (int, np.integer)
# a number key takes an int, a float or one of these, but no bool
_NUMPY_NUMBERS = (np.integer, np.floating)


class ParameterError(ValueError):
    """A field of a domain type is out of its physical range."""


class DegenerateStatisticError(ValueError):
    """A denominator (normally ordered variance, sample variance) is not positive."""


class InsufficientDataError(ValueError):
    """Too few realizations to evaluate an estimator."""


class InfeasibleInstanceError(ValueError):
    """Exact enumeration would exceed the configured state budget."""


@dataclass(frozen=True)
class Key:
    """The one declaration of a config key.  The default's type is the
    key's type.  A number lies in [lo, hi], or in (lo, hi) if `open`; a
    missing bound is no bound, and a float must also be finite.  `section`
    places a key that `Scenario` holds itself; a spec's keys sit in the
    section named after the `Scenario` field holding the spec.  `parse`
    reads the key's config text when the default's type cannot."""

    default: object
    help: str
    lo: float | None = None
    hi: float | None = None
    open: bool = False
    shortcut: str | None = None
    section: str = "scenario"
    parse: Callable[[str], object] | None = None

    def range_text(self) -> str:
        """The range as help text and messages print it: ">= 0",
        "in [0, 1]", "in (0, 1)", or "" for a key without bounds."""
        if self.hi is None:
            return "" if self.lo is None else f"{'>' if self.open else '>='} {self.lo:g}"
        ends = "()" if self.open else "[]"
        return f"in {ends[0]}{self.lo:g}, {self.hi:g}{ends[1]}"

    def admits(self, value) -> bool:
        """Whether `value` lies within the bounds."""
        if self.open:
            return (self.lo is None or value > self.lo) and (self.hi is None or value < self.hi)
        return (self.lo is None or value >= self.lo) and (self.hi is None or value <= self.hi)

    def check(self, name: str, value) -> None:
        """Raise `ParameterError`, naming the key `name`, unless `value`
        has the key's type and lies in its range; a boolean key takes only
        a `bool` or `numpy.bool_`, and a number key only a real number
        that is not a `bool`."""
        kind = type(self.default)
        if kind is bool and not isinstance(value, (bool, np.bool_)):
            raise ParameterError(f"{name} must be a boolean (got {value!r})")
        if kind in (int, float) and not (type(value) in (int, float) or isinstance(value, _NUMPY_NUMBERS)):
            raise ParameterError(f"{name} must be a number (got {value!r})")
        if kind is float and not math.isfinite(value):
            raise ParameterError(f"{name} must be finite (got {value!r})")
        if (kind is int and not isinstance(value, _INTEGERS)) or not self.admits(value):
            raise ParameterError(f"{name} must be {self.range_text()} (got {value})")


def _key(default, help: str, **declared):
    """A spec field holding a config key: `Key(default, help, **declared)`."""
    return dataclasses.field(default=default, metadata={"key": Key(default, help, **declared)})


@functools.cache
def _declared(cls) -> tuple:
    """(name, `Key`) of each key field of the spec class `cls`, in field
    order; built once per class, so building a spec allocates no tuple."""
    return tuple((f.name, f.metadata["key"]) for f in dataclasses.fields(cls) if "key" in f.metadata)


def _check_keys(spec) -> None:
    """Check every key field of `spec` against its declaration, and store
    each float key as a plain `float`, with -0.0 read as +0.0."""
    for name, key in _declared(type(spec)):
        value = getattr(spec, name)
        key.check(name, value)
        if type(key.default) is float:
            object.__setattr__(spec, name, float(value) + 0.0)


# lower-case word -> value, as every boolean key reads it in any case
_BOOLEANS = {
    "true": True, "yes": True, "1": True, "on": True, "false": False, "no": False, "0": False, "off": False
}


def parse_bool(text: str, words: dict = _BOOLEANS, expected: str = "a boolean") -> bool:
    """The value of the word of `words` that `text` names in any case."""
    try:
        return words[text.strip().lower()]
    except KeyError:
        raise ParameterError(f"expected {expected}, got {text!r}") from None


# the parser of `channel.target_present`, which also reads the hypothesis' name
_parse_target = functools.partial(
    parse_bool, words={"present": True, "absent": False, **_BOOLEANS},
    expected=f"present or absent, or a boolean ({', '.join(_BOOLEANS)})",
)


class SourceKind(enum.Enum):
    """Illumination source: entangled pair or classically split thermal beam."""

    TWIN_BEAM = "twin_beam"
    SPLIT_THERMAL = "split_thermal"

    @classmethod
    def parse(cls, text) -> "SourceKind":
        """The kind named `text`; a kind is returned as it is."""
        try:
            return cls(text)
        except ValueError:
            raise ParameterError(
                f"kind must be one of {[k.value for k in cls]} (got {text!r})"
            ) from None


@dataclass(frozen=True)
class SourceSpec:
    """Illumination source model.

    mu is the mean photon number per spatiotemporal mode of each arm;
    modes is the number of modes collected per pixel pair.  For the split
    thermal source the pre-split beam carries mu/split_ratio photons per
    mode so that arm 1 keeps a per-mode mean of mu regardless of the
    splitting ratio.  kind is a `SourceKind` or its name.
    """

    kind: SourceKind = _key(
        "twin_beam",
        f"source type: {' or '.join(k.value for k in SourceKind)}; analytic and simulate only,"
        " sweeps use sweep.sources",
    )
    mu: float = _key(0.075, "mean photons per mode, symbol mu (dimensionless)", lo=0.0, shortcut="mu")
    modes: int = _key(90000, "spatiotemporal modes per pixel pair, symbol M", lo=1, shortcut="modes")
    split_ratio: float = _key(0.5, "classical splitter transmittance, symbol t", lo=0.0, hi=1.0, open=True)

    def __post_init__(self) -> None:
        object.__setattr__(self, "kind", SourceKind.parse(self.kind))
        _check_keys(self)

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

    eta1: float = _key(
        0.62, "reference-arm detection efficiency, symbol eta_1", lo=0.0, hi=1.0, shortcut="eta1"
    )
    eta2: float = _key(
        0.62, "probe-arm detection efficiency, symbol eta_2", lo=0.0, hi=1.0, shortcut="eta2"
    )
    reflectivity: float = _key(
        0.5, "target reflectivity, symbol r", lo=0.0, hi=1.0, shortcut="reflectivity"
    )
    target_present: bool = _key(
        True, "whether the target is in the probe path: present or absent, or a boolean",
        shortcut="target", parse=_parse_target,
    )
    mode_match: float = _key(
        1.0, "fraction of probe modes correlated with the paired pixel", lo=0.0, hi=1.0,
        shortcut="mode-match",
    )

    __post_init__ = _check_keys

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

    modes_b: int = _key(1300, "background mode count, symbol M_b", lo=1, shortcut="modes-b")
    mean_total: float = _key(
        0.0, "detected background photons per pixel, symbol N_b", lo=0.0, shortcut="background"
    )

    __post_init__ = _check_keys


@dataclass(frozen=True)
class Scenario:
    """A complete experiment configuration: source, channel (which sets the
    hypothesis), background, number of pixel pairs per frame (K), frames
    per hypothesis, the detector read-noise sigma in electrons and the
    frames averaged into one perr decision.  Every field has the default
    of its config key, so `Scenario()` is the default configuration."""

    source: SourceSpec = dataclasses.field(default_factory=SourceSpec)
    channel: ChannelSpec = dataclasses.field(default_factory=ChannelSpec)
    background: BackgroundSpec = dataclasses.field(default_factory=BackgroundSpec)
    pixel_pairs: int = _key(80, "correlated pixel pairs per frame, symbol K", lo=1, shortcut="pixel-pairs")
    images: int = _key(2000, "frames generated per hypothesis, symbol N_img", lo=1, shortcut="frames")
    read_noise_sigma: float = _key(
        0.0, "additive detector read noise sigma, electrons", lo=0.0, hi=_MEAN_PHOTON_LIMIT,
        shortcut="read-noise", section="sampler",
    )
    images_per_decision: int = _key(
        10, "frames averaged per detection decision", lo=1, shortcut="images-per-decision"
    )

    __post_init__ = _check_keys

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
        seed = self.master_seed
        if type(seed) is bool or not (isinstance(seed, _INTEGERS) and 0 <= seed < 2**64):
            raise ParameterError(f"master_seed must be an unsigned 64-bit integer (got {seed})")

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
