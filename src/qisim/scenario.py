"""Declarative parameter sweeps with Monte Carlo and closed-form columns.

A sweep runs one (source kind, swept value) job per grid point, each on
its own derived seed, so a point's rows do not depend on which other
points run.  Estimator failures flag the affected row and never abort the
sweep.
"""
from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass

from . import analytic
from .estimator import (
    bootstrap,
    bootstrap_epsilon,
    covariance_hat,
    perr_batches,
    perr_rows,
    snr_rows,
)
from .sampler import hypothesis_stream, sample_counts
from .types import (
    DegenerateStatisticError,
    InsufficientDataError,
    ParameterError,
    Scenario,
    SeedSpec,
    SourceKind,
    STREAM_BOOTSTRAP,
)

KNOWN_OUTPUTS = ("epsilon", "snr", "covariance", "perr")


class SweepParameter(enum.Enum):
    BACKGROUND_MEAN = "background_mean"
    IMAGES_PER_DECISION = "images_per_decision"
    MU = "mu"

    @classmethod
    def parse(cls, text: str) -> "SweepParameter":
        for member in cls:
            if member.value == text:
                return member
        raise ParameterError(
            f"parameter must be one of {[m.value for m in cls]} (got {text!r})"
        )


@dataclass(frozen=True)
class SweepSpec:
    """One experiment grid: base scenario, the swept axis and its values,
    the sources to compare and the figures of merit to emit."""

    base: Scenario
    parameter: SweepParameter
    values: tuple
    sources: tuple
    outputs: tuple
    seed: SeedSpec
    emit_analytic: bool = True
    images_per_decision: int = 10

    def __post_init__(self) -> None:
        if len(self.values) == 0:
            raise ParameterError("values must be non-empty")
        if any(b <= a for a, b in zip(self.values, self.values[1:])):
            raise ParameterError("values must be strictly increasing")
        unknown = [o for o in self.outputs if o not in KNOWN_OUTPUTS]
        if unknown:
            raise ParameterError(f"unknown outputs {unknown}; known: {KNOWN_OUTPUTS}")
        if len(self.sources) == 0:
            raise ParameterError("sources must be non-empty")
        if self.images_per_decision < 1:
            raise ParameterError("images_per_decision must be >= 1")
        if self.parameter is SweepParameter.IMAGES_PER_DECISION and not all(
            float(v).is_integer() and v >= 1 for v in self.values
        ):
            raise ParameterError(f"images_per_decision values must be integers >= 1 (got {self.values})")


@dataclass(frozen=True)
class SweepRow:
    source: str
    param: str
    value: float
    metric: str
    estimate: float | None
    uncertainty: float | None
    analytic: float | None
    flag: str = ""


@dataclass(frozen=True)
class SweepResult:
    rows: tuple

    def to_csv_text(self) -> str:
        def fmt(x) -> str:
            return "" if x is None else repr(float(x))

        lines = ["source,param,value,metric,estimate,uncertainty,analytic,flag"]
        for r in self.rows:
            lines.append(
                f"{r.source},{r.param},{fmt(r.value)},{r.metric},"
                f"{fmt(r.estimate)},{fmt(r.uncertainty)},{fmt(r.analytic)},{r.flag}"
            )
        return "\n".join(lines) + "\n"


def _scenario_at(spec: SweepSpec, kind: SourceKind, value: float) -> tuple[Scenario, int]:
    scn = spec.base.with_source_kind(kind)
    ipd = spec.images_per_decision
    if spec.parameter is SweepParameter.BACKGROUND_MEAN:
        scn = scn.with_background_mean(value)
    elif spec.parameter is SweepParameter.MU:
        scn = scn.with_mu(value)
    else:
        ipd = int(value)
    return scn, ipd


def _analytic_value(metric: str, scn: Scenario, ipd: int):
    if metric == "epsilon":
        return analytic.epsilon(scn)
    if metric == "snr":
        return analytic.snr(scn)
    if metric == "covariance_in":
        return analytic.moments(scn).cov
    if metric == "covariance_out":
        return 0.0
    if metric == "perr":
        return analytic.error_probability(scn, ipd)
    raise ParameterError(f"no analytic form for metric {metric!r}")


_ESTIMATOR_ERRORS = (DegenerateStatisticError, InsufficientDataError, ParameterError)


def _point_rows(spec: SweepSpec, source_index: int, value_index: int) -> list[SweepRow]:
    kind = spec.sources[source_index]
    value = spec.values[value_index]
    scn, ipd = _scenario_at(spec, kind, value)
    point_seed = spec.seed.derive(source_index, value_index)

    # Each hypothesis is drawn, and its per-frame covariances computed, at
    # most once per point and only when an output first needs it.
    @functools.cache
    def counts(label: str):
        return sample_counts(*hypothesis_stream(scn, point_seed, label))

    @functools.cache
    def deltas(label: str):
        return covariance_hat(*counts(label))

    rows: list[SweepRow] = []

    def emit(metric: str, boot_tag: int, compute) -> None:
        estimate = uncertainty = None
        flags = []
        rng = point_seed.rng(STREAM_BOOTSTRAP, boot_tag)
        try:
            estimate, uncertainty = compute(rng)
        except _ESTIMATOR_ERRORS as exc:
            flags.append(f"error:{type(exc).__name__}")
        reference = None
        if spec.emit_analytic:
            try:
                reference = _analytic_value(metric, scn, ipd)
            except _ESTIMATOR_ERRORS as exc:
                flags.append(f"analytic_error:{type(exc).__name__}")
        if reference is not None and scn.read_noise_sigma > 0:
            # the closed forms have no read-noise term
            flags.append("analytic_ignores_read_noise")
        rows.append(
            SweepRow(
                source=kind.value,
                param=spec.parameter.value,
                value=value,
                metric=metric,
                estimate=estimate,
                uncertainty=uncertainty,
                analytic=reference,
                flag=";".join(flags),
            )
        )

    def mc(stat, *labels):
        """(stat, bootstrap sigma) over the per-frame covariances of the
        hypotheses `labels`; `stat` is row-wise, as `bootstrap` takes it."""
        return lambda rng: bootstrap(stat, [deltas(label) for label in labels], rng)

    def mean(values):
        return values.mean(axis=-1)

    def snr(a, b):
        return snr_rows(a, b) / math.sqrt(scn.pixel_pairs)

    def perr(a, b):
        return perr_rows(a, b, ipd).p_err

    def perr_point(rng):
        perr_batches(scn.images, scn.images, ipd)
        return mc(perr, "in", "out")(rng)

    for output in spec.outputs:
        if output == "epsilon":
            emit("epsilon", 0, lambda rng: bootstrap_epsilon(*counts("in"), rng))
        elif output == "covariance":
            emit("covariance_in", 1, mc(mean, "in"))
            emit("covariance_out", 2, mc(mean, "out"))
        elif output == "snr":
            emit("snr", 3, mc(snr, "in", "out"))
        elif output == "perr":
            emit("perr", 4, perr_point)
    return rows


def run_sweep(spec: SweepSpec) -> SweepResult:
    """Run every (source, value) job in grid order; deterministic under
    `spec.seed`, since jobs own disjoint derived streams."""
    rows: list[SweepRow] = []
    for si in range(len(spec.sources)):
        for vi in range(len(spec.values)):
            rows.extend(_point_rows(spec, si, vi))
    return SweepResult(rows=tuple(rows))


def write_sweep_csv(result: SweepResult, path: str) -> None:
    with open(path, "w", newline="") as handle:
        handle.write(result.to_csv_text())

