"""Declarative parameter sweeps with Monte Carlo and closed-form columns.

`sweep_spec` turns a resolved configuration into its grid: each (source
kind, swept value) point is the configuration with `source.kind` and the
swept key set, built by `config.build_scenario` before anything is
drawn.  Every point of a series (one source kind) draws on the series
seed, its frames and its bootstrap streams alike, so points share random
numbers, but a point's rows do not depend on which other points run.
`run_sweep` runs one `PointPipeline` per point, with two memos per
series: the source draws of `sample_counts`, and each bootstrap stream's
resample indices, which every point of the series with the same frame
counts reuses.  `simulate` is one point on the master seed, without
memos.
`METRICS` defines each figure of merit once.  Estimator failures flag
the affected row and never abort the sweep.
"""
from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

from . import analytic
from .config import CONFIG_SCHEMA, apply, build_scenario
from .estimator import (
    bootstrap,
    bootstrap_epsilon,
    covariance_hat,
    one_row,
    perr_batches,
    perr_rows,
    resample_indices,
    snr_rows,
)
from .sampler import hypothesis_stream, sample_counts
from .types import (
    DegenerateStatisticError,
    InsufficientDataError,
    ParameterError,
    Scenario,
    SeedSpec,
    STREAM_BOOTSTRAP,
)

# sweep output -> the metrics it emits, one row each
_OUTPUT_METRICS = {
    "epsilon": ("epsilon",), "snr": ("snr",),
    "covariance": ("covariance_in", "covariance_out"), "perr": ("perr",),
}
KNOWN_OUTPUTS = tuple(_OUTPUT_METRICS)


# sweep.parameter aliases -> the config key each one sweeps
_ALIASES = {
    "background_mean": "background.mean_total",
    "mu": "source.mu",
    "images_per_decision": "scenario.images_per_decision",
}


class SweepPoint(NamedTuple):
    """One grid point: its swept value and what its `PointPipeline` takes."""

    value: float
    scenario: Scenario
    images_per_decision: int
    seed: SeedSpec


@dataclass(frozen=True)
class SweepSpec:
    """One experiment grid: the swept key as written, its points in grid
    order (source by source, then value by value), and the figures of
    merit to emit."""

    parameter: str
    points: tuple
    outputs: tuple
    emit_analytic: bool = True


def sweep_spec(config: dict) -> SweepSpec:
    """The grid of a resolved configuration.  Point (i, j) is the config
    with source.kind = sweep.sources[i] and the swept key = sweep.values[j],
    on the seed of series i, derived from run.seed with tag i.  Every point
    is built, and so checked, here."""
    sweep = config["sweep"]
    values = sweep["values"]
    if len(values) == 0:
        raise ParameterError("values must be non-empty")
    if any(b <= a for a, b in zip(values, values[1:])):
        raise ParameterError("values must be strictly increasing")
    unknown = [o for o in sweep["outputs"] if o not in KNOWN_OUTPUTS]
    if unknown:
        raise ParameterError(f"unknown outputs {unknown}; known: {KNOWN_OUTPUTS}")
    if len(sweep["sources"]) == 0:
        raise ParameterError("sources must be non-empty")
    name = sweep["parameter"]
    key = _ALIASES.get(name, name)
    section, _, field = key.partition(".")
    parser = CONFIG_SCHEMA.get(section, {}).get(field, (None,))[0]
    if section in ("run", "sweep") or parser not in (int, float):
        raise ParameterError(
            "sweep.parameter must be a numeric section.key outside run and sweep, or one of "
            f"{list(_ALIASES)} (got {name!r})"
        )
    if parser is int and not all(float(v).is_integer() and v >= 1 for v in values):
        raise ParameterError(f"{name} values must be integers >= 1 (got {values})")
    seed = SeedSpec(config["run"]["seed"])
    points = []
    for si, kind in enumerate(sweep["sources"]):
        for value in values:
            at = apply(config, {"source.kind": kind, key: value})
            ipd = at["scenario"]["images_per_decision"]
            points.append(SweepPoint(value, build_scenario(at), ipd, seed.derive(si)))
    return SweepSpec(name, tuple(points), sweep["outputs"], sweep["emit_analytic"])


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


def _mean(scn: Scenario, ipd: int, values):
    return values.mean(axis=-1)


def _snr(scn: Scenario, ipd: int, in_values, out_values):
    return snr_rows(in_values, out_values) / math.sqrt(scn.pixel_pairs)


def _perr(scn: Scenario, ipd: int, in_values, out_values):
    return perr_rows(in_values, out_values, ipd).p_err


class _Metric(NamedTuple):
    tag: int  # its bootstrap stream, `seed.rng(STREAM_BOOTSTRAP, tag)`
    hypotheses: tuple  # the hypotheses it reads
    # row-wise, of (scenario, images per decision, the per-frame covariances
    # of `hypotheses`); None for epsilon, which `bootstrap_epsilon` pools
    # from the counts
    stat: Callable | None
    closed_form: Callable  # of (scenario, images per decision)


# closed forms look `analytic` up per call, so perfbench's tracer sees them
METRICS = {
    "epsilon": _Metric(0, ("in",), None, lambda scn, ipd: analytic.epsilon(scn)),
    "covariance_in": _Metric(1, ("in",), _mean, lambda scn, ipd: analytic.moments(scn).cov),
    "covariance_out": _Metric(2, ("out",), _mean, lambda scn, ipd: 0.0),
    "snr": _Metric(3, ("in", "out"), _snr, lambda scn, ipd: analytic.snr(scn)),
    "perr": _Metric(4, ("in", "out"), _perr, lambda scn, ipd: analytic.error_probability(scn, ipd)),
}


class PointPipeline:
    """The Monte Carlo estimates of one point: a scenario on one seed, with
    `images_per_decision` frames per perr decision.  Each hypothesis is
    drawn, and its per-frame covariances computed, at most once and only
    when a metric first needs it.  `memo` is `sample_counts`' memo and
    `resamples` the memo of bootstrap indices, each shared by the points of
    a series; neither changes an estimate."""

    def __init__(
        self, scenario: Scenario, seed: SeedSpec, images_per_decision: int,
        memo: dict | None = None, resamples: dict | None = None,
    ) -> None:
        self.scenario = scenario
        self.seed = seed
        self.images_per_decision = images_per_decision
        self._memo = memo
        self._resamples = resamples
        self._counts: dict = {}
        self._deltas: dict = {}

    def counts(self, label: str):
        """(n1, n2) of hypothesis `label`, drawn as `hypothesis_stream` says."""
        if label not in self._counts:
            stream = hypothesis_stream(self.scenario, self.seed, label)
            self._counts[label] = sample_counts(*stream, self._memo)
        return self._counts[label]

    def deltas(self, label: str):
        """Per-frame covariances of hypothesis `label`."""
        if label not in self._deltas:
            self._deltas[label] = covariance_hat(*self.counts(label))
        return self._deltas[label]

    def _inputs(self, metric: str):
        """The row-wise statistic of `metric` and the covariances it reads."""
        if metric == "perr":
            # too few batches are refused before any frame is drawn
            perr_batches(self.scenario.images, self.scenario.images, self.images_per_decision)
        stat = functools.partial(METRICS[metric].stat, self.scenario, self.images_per_decision)
        return stat, [self.deltas(label) for label in METRICS[metric].hypotheses]

    def _draws(self, tag: int, sizes: tuple):
        """What the bootstrap of stream `tag` on samples of `sizes` draws
        from: the stream itself, or with a memo the indices
        `resample_indices` drew from it.  The memo holds one entry per tag
        and replaces it when the sizes differ."""
        if self._resamples is None:
            return self.seed.rng(STREAM_BOOTSTRAP, tag)
        if self._resamples.get(tag, (None,))[0] != sizes:
            rng = self.seed.rng(STREAM_BOOTSTRAP, tag)
            self._resamples[tag] = (sizes, resample_indices(sizes, rng))
        return self._resamples[tag][1]

    def estimate(self, metric: str) -> tuple[float, float]:
        """(estimate, bootstrap sigma) of `metric`."""
        tag, hypotheses, stat, _ = METRICS[metric]
        if stat is None:
            n1, n2 = self.counts(*hypotheses)
            return bootstrap_epsilon(n1, n2, self._draws(tag, (len(n1),)))
        stat, samples = self._inputs(metric)
        return bootstrap(stat, samples, self._draws(tag, tuple(len(s) for s in samples)))

    def value(self, metric: str) -> float:
        """The estimate of `metric`, epsilon aside, without its bootstrap."""
        stat, samples = self._inputs(metric)
        return one_row(stat, *samples)


_ESTIMATOR_ERRORS = (DegenerateStatisticError, InsufficientDataError, ParameterError)


def _point_rows(
    spec: SweepSpec, point: SweepPoint, memo: dict, resamples: dict
) -> list[SweepRow]:
    scn, ipd = point.scenario, point.images_per_decision
    pipeline = PointPipeline(scn, point.seed, ipd, memo, resamples)
    rows: list[SweepRow] = []
    for output in spec.outputs:
        for metric in _OUTPUT_METRICS[output]:
            estimate = uncertainty = reference = None
            flags = []
            try:
                estimate, uncertainty = pipeline.estimate(metric)
            except _ESTIMATOR_ERRORS as exc:
                flags.append(f"error:{type(exc).__name__}")
            if spec.emit_analytic:
                try:
                    reference = METRICS[metric].closed_form(scn, ipd)
                except _ESTIMATOR_ERRORS as exc:
                    flags.append(f"analytic_error:{type(exc).__name__}")
            if reference is not None and scn.read_noise_sigma > 0:
                # the closed forms have no read-noise term
                flags.append("analytic_ignores_read_noise")
            rows.append(SweepRow(
                scn.source.kind.value, spec.parameter, point.value, metric,
                estimate, uncertainty, reference, ";".join(flags),
            ))
    return rows


def run_sweep(spec: SweepSpec) -> SweepResult:
    """Run every point in grid order.  The points of a series share one
    memo of source draws and one of bootstrap indices, dropped when the
    series ends; each point's rows are those of its own `PointPipeline`
    without them."""
    rows: list[SweepRow] = []
    for _, series in itertools.groupby(spec.points, key=lambda point: point.seed):
        memo: dict = {}
        resamples: dict = {}
        for point in series:
            rows.extend(_point_rows(spec, point, memo, resamples))
    return SweepResult(rows=tuple(rows))


def write_sweep_csv(result: SweepResult, path: str) -> None:
    with open(path, "w", newline="") as handle:
        handle.write(result.to_csv_text())

