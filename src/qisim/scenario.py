"""Declarative parameter sweeps with Monte Carlo and closed-form columns.

`sweep_spec` turns a resolved configuration into its grid: each (source
kind, swept value) point is the configuration with `source.kind` and the
swept key set, built by `config.build_scenario` into one `Scenario`
(frames per decision included) before anything is drawn.  Every point
of a series (one source kind) draws its frames on the series seed, so
points share random numbers, but a point's rows do not depend on which
other points run.  `run_sweep` runs one `PointPipeline` per point, all
on one memo of the sweep, which reuses a draw only as README
"Reproducibility" states.  `simulate` is one point on the master seed,
without a memo.
`_OUTPUTS` lists each sweep output's metrics in row order and defines
each figure of merit once, as a function of the point; `METRICS` and
`KNOWN_OUTPUTS` are read off it.  A metric reads the point's statistics
tables or per-frame covariances and makes one `estimator` call that
returns (estimate, sigma): the delta method's sigma, or for perr errors
counted at a fitted threshold with a binomial sigma; no metric draws
random numbers of its own.  Estimator failures flag the affected row
and never abort the sweep.

`PRESETS` holds the paper's figures fig2..fig5: per series, its file
stem and its config keys.  `run_figure` resolves the config of each
series of one figure and runs it, and returns the (config, result)
pairs; it writes nothing, and `qisim reproduce` writes what it returns.
"""
from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Callable, NamedTuple

from . import analytic
from .config import CONFIG_SCHEMA, apply, build_scenario, default_config, render, write_text
from .estimator import (
    epsilon_hat,
    frame_covariance,
    frame_stats,
    mean_covariance,
    perr_batches,
    perr_hat,
    snr_hat,
)
from .sampler import hypothesis_stream, sample_counts
from .types import (
    DegenerateStatisticError,
    InsufficientDataError,
    ParameterError,
    Scenario,
    SeedSpec,
)

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


class SweepSpec(NamedTuple):
    """One experiment grid: the resolved configuration that replays it,
    source.kind naming the first series' source, and its points in grid
    order (source by source, then value by value).  The swept key as
    written and the figures of merit to emit are read from
    config["sweep"]."""

    config: dict
    points: tuple


def sweep_spec(config: dict) -> SweepSpec:
    """The grid of a resolved configuration.  Point (i, j) is the config
    with source.kind = sweep.sources[i] and the swept key = sweep.values[j],
    on the seed of series i, derived from run.seed with tag i.  Every point
    is built, and so checked, here.  The spec's config is `config` with
    source.kind = sweep.sources[0], so that `sidecar_text` of it replays
    the sweep."""
    sweep = config["sweep"]
    for listed in ("values", "sources", "outputs"):
        if len(sweep[listed]) == 0:
            raise ParameterError(f"{listed} must be non-empty")
    values = sweep["values"]
    if any(b <= a for a, b in zip(values, values[1:])):
        raise ParameterError("values must be strictly increasing")
    unknown = [o for o in sweep["outputs"] if o not in KNOWN_OUTPUTS]
    if unknown:
        raise ParameterError(f"unknown outputs {unknown}; known: {KNOWN_OUTPUTS}")
    name = sweep["parameter"]
    key = _ALIASES.get(name, name)
    section, _, field = key.partition(".")
    declared = CONFIG_SCHEMA.get(section, {}).get(field)
    key_type = type(declared.default) if declared else None
    if key_type not in (int, float):  # the sweep and run keys hold no number
        raise ParameterError(
            "sweep.parameter must be a numeric section.key outside run and sweep, or one of "
            f"{list(_ALIASES)} (got {name!r})"
        )
    # checked here, so that each value reaches `apply` as the int it names
    if key_type is int and not all(float(v).is_integer() and declared.admits(v) for v in values):
        raise ParameterError(f"{name} values must be integers {declared.range_text()} (got {values})")
    seed = SeedSpec(config["run"]["seed"])
    points = []
    for si, kind in enumerate(sweep["sources"]):
        for value in values:
            at = apply(config, {"source.kind": kind, key: int(value) if key_type is int else value})
            points.append(SweepPoint(value, build_scenario(at), seed.derive(si)))
    return SweepSpec(apply(config, {"source.kind": sweep["sources"][0]}), tuple(points))


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
        """The CSV of the rows: a header of `SweepRow`'s field names, then
        one line per row, each cell as `config.render` writes it."""
        names = [f.name for f in fields(SweepRow)]
        lines = [names] + [[render(getattr(row, name)) for name in names] for row in self.rows]
        return "".join(",".join(line) + "\n" for line in lines)


class _Metric(NamedTuple):
    estimate: Callable  # of the point: reads its tables or deltas, returns (estimate, sigma)
    closed_form: Callable  # of the scenario


def _perr(point: PointPipeline) -> tuple[float, float]:
    scn = point.scenario
    # too few batches are refused before any frame is drawn
    perr_batches(scn.images, scn.images, scn.images_per_decision)
    estimate = perr_hat(point.deltas("in"), point.deltas("out"), scn.images_per_decision)
    return estimate.p_err, estimate.sigma


# sweep output -> its metrics in row order -> (estimate, closed form);
# closed forms look `analytic` up per call, so perfbench's tracer sees them
_OUTPUTS = {
    "epsilon": {"epsilon": _Metric(
        lambda point: epsilon_hat(point.table("in")), lambda scn: analytic.epsilon(scn)
    )},
    "snr": {"snr": _Metric(
        lambda point: snr_hat(point.deltas("in"), point.deltas("out"), point.scenario.pixel_pairs),
        lambda scn: analytic.snr(scn),
    )},
    "covariance": {
        "covariance_in": _Metric(
            lambda point: mean_covariance(point.deltas("in")), lambda scn: analytic.moments(scn).cov
        ),
        "covariance_out": _Metric(lambda point: mean_covariance(point.deltas("out")), lambda scn: 0.0),
    },
    "perr": {"perr": _Metric(_perr, lambda scn: analytic.error_probability(scn, scn.images_per_decision))},
}
KNOWN_OUTPUTS = tuple(_OUTPUTS)
METRICS = {name: metric for metrics in _OUTPUTS.values() for name, metric in metrics.items()}


class PointPipeline:
    """The Monte Carlo estimates of one point: a scenario on one seed.
    Each hypothesis is drawn, and its table and covariances computed, once
    and only when a metric first needs them.  `memo`, shared by the points
    of a sweep, holds the last source draw of each hypothesis label, under
    the rule of README "Reproducibility"; it changes no estimate."""

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

    def estimate(self, metric: str) -> tuple[float, float]:
        """(estimate, sigma) of `metric`: the delta method's sigma, or for
        perr the binomial one."""
        return METRICS[metric].estimate(self)


# The errors of an estimate or closed form that has no value at a point:
# each flags its sweep row, and prints as nan in `analytic` and `simulate`.
NO_VALUE_ERRORS = (DegenerateStatisticError, InsufficientDataError, ParameterError)


def _point_rows(spec: SweepSpec, point: SweepPoint, memo: dict) -> list[SweepRow]:
    scn = point.scenario
    sweep = spec.config["sweep"]
    pipeline = PointPipeline(scn, point.seed, memo)
    rows: list[SweepRow] = []
    for output in sweep["outputs"]:
        for metric in _OUTPUTS[output]:
            estimate = uncertainty = reference = None
            flags = []
            try:
                estimate, uncertainty = pipeline.estimate(metric)
            except NO_VALUE_ERRORS as exc:
                flags.append(f"error:{type(exc).__name__}")
            if sweep["emit_analytic"]:
                try:
                    reference = METRICS[metric].closed_form(scn)
                except NO_VALUE_ERRORS as exc:
                    flags.append(f"analytic_error:{type(exc).__name__}")
            if reference is not None and scn.read_noise_sigma > 0:
                # the closed forms have no read-noise term
                flags.append("analytic_ignores_read_noise")
            rows.append(SweepRow(
                scn.source.kind.value, sweep["parameter"], point.value, metric,
                estimate, uncertainty, reference, ";".join(flags),
            ))
    return rows


def run_sweep(spec: SweepSpec) -> SweepResult:
    """Run every point in grid order, all on one memo."""
    memo: dict = {}
    rows = [row for point in spec.points for row in _point_rows(spec, point, memo)]
    return SweepResult(rows=tuple(rows))


def write_sweep_csv(result: SweepResult, path: str) -> None:
    write_text(path, result.to_csv_text())


_DECADES = "100,316,1000,3162,10000,31623,100000"

# Keys every preset series sets; the series' own table adds to them.
_PRESET_BASE = {
    "sweep.parameter": "background_mean",
    "sweep.values": _DECADES,
    "scenario.images": "2000",
    "scenario.images_per_decision": "10",
}

# The (source, M_b) pairs of the fig3..fig5 series, named as in their file
# stems, and the frames per hypothesis each gets in fig3 and fig4.
_SERIES = {
    "twin_mb57": {"sweep.sources": "twin_beam", "background.modes_b": "57"},
    "twin_mb1300": {"sweep.sources": "twin_beam", "background.modes_b": "1300"},
    "split_mb1300": {"sweep.sources": "split_thermal", "background.modes_b": "1300"},
}
_FRAMES = {"twin_mb57": "4000", "twin_mb1300": "2000", "split_mb1300": "6000"}

# Figure presets: per series, its output file stem and its config keys.
PRESETS = {
    "fig2": {
        f"fig2_mb{mb}": {
            "sweep.outputs": "epsilon",
            "sweep.sources": "twin_beam,split_thermal",
            "sweep.values": "0," + _DECADES,
            "background.modes_b": mb,
        }
        for mb in ("57", "1300")
    },
    "fig3": {
        f"fig3_{name}": {**_SERIES[name], "sweep.outputs": "snr", "scenario.images": _FRAMES[name]}
        for name in ("twin_mb1300", "twin_mb57", "split_mb1300")
    },
    "fig4": {
        f"fig4_{name}": {
            **_SERIES[name], "sweep.outputs": "covariance", "scenario.images": _FRAMES[name]
        }
        for name in ("twin_mb1300", "split_mb1300", "twin_mb57")
    },
    "fig5": {
        f"fig5{tag}_{name}": {**keys, "sweep.outputs": "perr", "scenario.images_per_decision": ipd}
        for tag, ipd in (("", "10"), ("_inset", "100"))
        for name, keys in _SERIES.items()
    },
}


def run_figure(figure: str, seed: int, overrides: dict | None = None, base: dict | None = None) -> dict:
    """{stem: (config, result)} of each series of the preset `figure`.
    Series i is configured by `base` (the defaults if None), then
    `_PRESET_BASE`, then the series' keys, then `overrides`, a
    {"section.key": raw} dict; it runs on the seed derived from the master
    seed `seed` with tag i, and its config is its `SweepSpec`'s, so that
    `sidecar_text(config)` replays `result`.  Every point of every series
    is built before the first is drawn, and nothing is written."""
    if figure not in PRESETS:
        raise ParameterError(f"unknown figure {figure!r}; known: {list(PRESETS)}")
    specs = {}
    for index, (stem, table) in enumerate(PRESETS[figure].items()):
        seed_layer = {"run.seed": SeedSpec(seed).derive(index).master_seed}
        config = apply(base or default_config(), _PRESET_BASE, table, overrides or {}, seed_layer)
        specs[stem] = sweep_spec(config)
    return {stem: (spec.config, run_sweep(spec)) for stem, spec in specs.items()}
