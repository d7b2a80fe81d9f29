"""Declarative parameter sweeps with Monte Carlo and closed-form columns.

`sweep_spec` turns a resolved configuration into its grid: each (source
kind, swept value) point is the configuration with `source.kind` and the
swept key set, built by `config.build_scenario` into one `Scenario`
(frames per decision included) before anything is drawn.  Every point
of a series (one source kind) draws on the series seed, its frames and
perr's bootstrap stream alike, so points share random numbers, but a
point's rows do not depend on which other points run.  `run_sweep` runs
one `PointPipeline` per point, all on one memo of the sweep, which
reuses a draw only as README "Reproducibility" states.  `simulate` is
one point on the master seed, without a memo.
`METRICS` defines each figure of merit once.  Estimator failures flag
the affected row and never abort the sweep.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

from . import analytic
from .config import CONFIG_SCHEMA, apply, build_scenario
from .estimator import (
    bootstrap,
    delta_method,
    epsilon_influence,
    epsilon_rows,
    frame_covariance,
    frame_stats,
    one_row,
    perr_batches,
    perr_rows,
    resample_indices,
    snr_influence,
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
    """One grid point: its swept value, and the scenario and seed of its
    `PointPipeline`."""

    value: float
    scenario: Scenario
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
            points.append(SweepPoint(value, build_scenario(at), seed.derive(si)))
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


def _mean(scn: Scenario, values):
    return values.mean(axis=-1)


def _own(scn: Scenario, values):
    # each value's influence on their mean, up to an offset that sd ignores
    return [values]


def _snr(scn: Scenario, in_values, out_values):
    return snr_rows(in_values, out_values) / math.sqrt(scn.pixel_pairs)


def _snr_influence(scn: Scenario, in_values, out_values):
    return [f / math.sqrt(scn.pixel_pairs) for f in snr_influence(in_values, out_values)]


def _perr(scn: Scenario, in_values, out_values):
    return perr_rows(in_values, out_values, scn.images_per_decision).p_err


class _Metric(NamedTuple):
    samples: str  # what it reads of each hypothesis: "table" or "deltas"
    hypotheses: tuple  # the hypotheses it reads
    stat: Callable  # row-wise, of (scenario, its samples)
    # each sample's per-frame influence on `stat`, of the same arguments;
    # None for perr, whose sigma is bootstrapped
    influence: Callable | None
    closed_form: Callable  # of the scenario


# closed forms look `analytic` up per call, so perfbench's tracer sees them
METRICS = {
    "epsilon": _Metric(
        "table", ("in",), lambda scn, table: epsilon_rows(table),
        lambda scn, table: epsilon_influence(table), lambda scn: analytic.epsilon(scn),
    ),
    "covariance_in": _Metric("deltas", ("in",), _mean, _own, lambda scn: analytic.moments(scn).cov),
    "covariance_out": _Metric("deltas", ("out",), _mean, _own, lambda scn: 0.0),
    "snr": _Metric("deltas", ("in", "out"), _snr, _snr_influence, lambda scn: analytic.snr(scn)),
    "perr": _Metric(
        "deltas", ("in", "out"), _perr, None,
        lambda scn: analytic.error_probability(scn, scn.images_per_decision),
    ),
}
_PERR_TAG = 4  # perr's bootstrap stream is `seed.rng(STREAM_BOOTSTRAP, _PERR_TAG)`


class PointPipeline:
    """The Monte Carlo estimates of one point: a scenario on one seed.
    Each hypothesis is drawn, and its table and covariances computed, once
    and only when a metric first needs them.  `memo`, shared by the points
    of a sweep, holds the last source draw of each hypothesis label and
    the last perr bootstrap indices, under the rule of README
    "Reproducibility"; it changes no estimate."""

    def __init__(self, scenario: Scenario, seed: SeedSpec, memo: dict | None = None) -> None:
        self.scenario = scenario
        self.seed = seed
        self._memo = memo
        self._made: dict = {}

    def _once(self, key: tuple, make: Callable):
        if key not in self._made:
            self._made[key] = make()
        return self._made[key]

    def counts(self, label: str):
        """(n1, n2) of hypothesis `label`, drawn as `hypothesis_stream` says."""
        memo = None if self._memo is None else self._memo.setdefault(label, {})
        return self._once(("counts", label), lambda: sample_counts(
            *hypothesis_stream(self.scenario, self.seed, label), memo
        ))

    def table(self, label: str):
        """The statistics table (`frame_stats`) of hypothesis `label`."""
        return self._once(("table", label), lambda: frame_stats(*self.counts(label)))

    def deltas(self, label: str):
        """Per-frame covariances of hypothesis `label`."""
        return self._once(("deltas", label), lambda: frame_covariance(self.table(label)))

    def _inputs(self, metric: str):
        """The row-wise statistic of `metric`, its influence (None for
        perr) and the samples they read."""
        scn = self.scenario
        if metric == "perr":
            # too few batches are refused before any frame is drawn
            perr_batches(scn.images, scn.images, scn.images_per_decision)
        reads, hypotheses, stat, influence, _ = METRICS[metric]
        samples = [getattr(self, reads)(label) for label in hypotheses]
        if influence is not None:
            influence = functools.partial(influence, scn)
        return functools.partial(stat, scn), influence, samples

    def _draws(self, sizes: tuple):
        """The indices `resample_indices` draws for perr's bootstrap on
        samples of `sizes`, held in the memo's "perr" slot, keyed by the
        seed and `sizes`, until another key replaces them."""
        slot = {} if self._memo is None else self._memo.setdefault("perr", {})
        key = (self.seed, sizes)
        if key not in slot:
            slot.clear()
            slot[key] = resample_indices(sizes, self.seed.rng(STREAM_BOOTSTRAP, _PERR_TAG))
        return slot[key]

    def estimate(self, metric: str) -> tuple[float, float]:
        """(estimate, sigma) of `metric`: the delta method's sigma, or for
        perr the bootstrap's."""
        stat, influence, samples = self._inputs(metric)
        if influence is None:
            return bootstrap(stat, samples, self._draws(tuple(len(s) for s in samples)))
        return delta_method(stat, influence, *samples)

    def value(self, metric: str) -> float:
        """The estimate of `metric`, without its sigma."""
        stat, _, samples = self._inputs(metric)
        return one_row(stat, *samples)


_ESTIMATOR_ERRORS = (DegenerateStatisticError, InsufficientDataError, ParameterError)


def _point_rows(spec: SweepSpec, point: SweepPoint, memo: dict) -> list[SweepRow]:
    scn = point.scenario
    pipeline = PointPipeline(scn, point.seed, memo)
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
                    reference = METRICS[metric].closed_form(scn)
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
    """Run every point in grid order, all on one memo."""
    memo: dict = {}
    rows = [row for point in spec.points for row in _point_rows(spec, point, memo)]
    return SweepResult(rows=tuple(rows))


def write_sweep_csv(result: SweepResult, path: str) -> None:
    with open(path, "w", newline="") as handle:
        handle.write(result.to_csv_text())

