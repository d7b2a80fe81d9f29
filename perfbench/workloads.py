"""The benchmark's four workloads: inputs from a seed, the work, output checks.

Every check is written from the documented output formats, never from the
program's own tables, so a change to a preset or a schema shows up as a
failed check instead of silently moving the goal posts.

Counting, per repetition:
- `attempted`: sweep rows, simulate summary values and output files, or
  crosscheck points and oracle instances.
- `failed`: operations whose output breaks a check: a wrong header or row
  count, a missing value, an unexpected flag, an oracle disagreement, a
  `nan` in the summary.
- `flagged`: sweep rows the preset is documented to flag (perr with fewer
  than 10 decision batches). They are no failure of the program, but they
  are no answer either, so they count against `ok_ratio` like failures.

qisim is imported inside functions: run.py imports this module without
qisim on its path.
"""
from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import math
import os
import time
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

SWEEP_HEADER = "source,param,value,metric,estimate,uncertainty,analytic,flag"
FRAMES_HEADER = "frame,pixel,n1,n2,hypothesis"
RECORDS_HEADER = "frame,hypothesis,delta12"
MOMENT_FIELDS = ("mean1", "mean2", "var1", "var2", "cov", "m22")
# perr_hat refuses fewer decision batches than this per hypothesis.
MIN_PERR_BATCHES = 10
# Acceptance criterion 1: analytic and oracle moments agree to this.
ORACLE_RTOL = 1e-9
# Detector defaults of `qisim simulate` (README "Command line").
PIXEL_PAIRS = 80
IMAGES_PER_DECISION = 10
SIMULATE_BACKGROUND = 5000.0

DECADES = 7  # background values 100 .. 100000 in the fig3..fig5 presets
# (csv stem, sources, values, images_per_decision) of each preset's CSVs.
FIG2_SERIES = (("fig2_mb57", 2, DECADES + 1, 10), ("fig2_mb1300", 2, DECADES + 1, 10))
FIG5_SERIES = tuple(
    (f"fig5{tag}_{series}", 1, DECADES, ipd)
    for ipd, tag in ((10, ""), (100, "_inset"))
    for series in ("twin_mb57", "twin_mb1300", "split_mb1300")
)


@dataclass
class Outcome:
    """What one repetition's output checks found."""

    attempted: int = 0
    failed: int = 0
    flagged: int = 0
    worst_z: float | None = None
    digest: str = ""
    problems: list = field(default_factory=list)

    def fail(self, count: int, problem: str) -> None:
        self.failed += count
        if len(self.problems) < 10:
            self.problems.append(problem)

    def observe_z(self, estimate: float, reference: float, sigma: float) -> None:
        if sigma > 0.0:
            z = abs(estimate - reference) / sigma
            self.worst_z = z if self.worst_z is None else max(self.worst_z, z)


def _finite(text: str) -> float | None:
    try:
        value = float(text)
    except ValueError:
        return None
    return value if math.isfinite(value) else None


def _rel_err(a: float, b: float) -> float:
    scale = max(abs(a), abs(b))
    return abs(a - b) / scale if scale > 0.0 else abs(a - b)


# --------------------------------------------------------------------------
# CLI workloads: reproduce fig2, reproduce fig5 --frames 500, simulate
# --------------------------------------------------------------------------
@dataclass(frozen=True)
class CliInputs:
    argv: tuple
    out: str
    frames: int


def run_cli(inputs: CliInputs, modules: list) -> int:
    """Call `qisim.cli.main`; its stdout is kept off the benchmark's own."""
    (cli,) = modules
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(list(inputs.argv))


def _check_sweep(inputs: CliInputs, series: tuple, code: int) -> Outcome:
    outcome = Outcome()
    digest = hashlib.sha256()
    for stem, sources, values, ipd in series:
        expected = sources * values
        outcome.attempted += expected
        path = os.path.join(inputs.out, stem + ".csv")
        try:
            with open(path, newline="") as handle:
                text = handle.read()
            with open(path + ".meta.txt") as handle:
                sidecar = handle.read()
        except OSError as exc:
            outcome.fail(expected, f"{stem}: {exc}")
            continue
        digest.update(f"{stem}\n".encode())
        digest.update(text.encode())
        if "\nseed = " not in sidecar:
            outcome.fail(expected, f"{stem}: sidecar has no seed")
            continue
        if text.split("\n", 1)[0] != SWEEP_HEADER:
            outcome.fail(expected, f"{stem}: header differs")
            continue
        rows = list(csv.DictReader(io.StringIO(text)))
        if len(rows) != expected:
            outcome.fail(expected, f"{stem}: {len(rows)} rows, expected {expected}")
            continue
        for row in rows:
            _check_sweep_row(outcome, stem, row, inputs.frames // ipd < MIN_PERR_BATCHES)
    if code != 0:
        outcome.fail(1, f"exit code {code}")
    outcome.digest = digest.hexdigest()
    return outcome


def _check_sweep_row(outcome: Outcome, stem: str, row: dict, too_few_batches: bool) -> None:
    where = f"{stem} {row['source']} {row['value']} {row['metric']}"
    expect_flag = row["metric"] == "perr" and too_few_batches
    reference = _finite(row["analytic"])
    if row["flag"]:
        if expect_flag and row["flag"] == "error:InsufficientDataError" and reference is not None:
            outcome.flagged += 1
        else:
            outcome.fail(1, f"{where}: unexpected flag {row['flag']!r}")
        return
    if expect_flag:
        outcome.fail(1, f"{where}: too few decision batches but not flagged")
        return
    estimate = _finite(row["estimate"])
    sigma = _finite(row["uncertainty"])
    if estimate is None or sigma is None or sigma < 0.0 or reference is None:
        outcome.fail(1, f"{where}: estimate/uncertainty/analytic not valid")
        return
    outcome.observe_z(estimate, reference, sigma)


def check_fig2(inputs: CliInputs, code: int) -> Outcome:
    return _check_sweep(inputs, FIG2_SERIES, code)


def check_fig5(inputs: CliInputs, code: int) -> Outcome:
    return _check_sweep(inputs, FIG5_SERIES, code)


SUMMARY_KEYS = (
    "epsilon_hat",
    "epsilon_sigma",
    "covariance_in",
    "covariance_out",
    "snr_per_sqrt_pair",
    "perr_hat",
    "perr_threshold",
    "perr_batches",
)


def _count_lines(path: str, digest) -> tuple[bytes, int]:
    """First line and number of lines of a file, feeding it to `digest`."""
    lines = 0
    first = b""
    with open(path, "rb") as handle:
        while chunk := handle.read(1 << 20):
            if not first:
                first = chunk.split(b"\n", 1)[0].rstrip(b"\r")
            lines += chunk.count(b"\n")
            digest.update(chunk)
    return first, lines


def check_simulate(inputs: CliInputs, code: int) -> Outcome:
    from qisim import analytic

    outcome = Outcome()
    digest = hashlib.sha256()
    frames = inputs.frames
    for name, header, rows in (
        ("frames.csv", FRAMES_HEADER, 2 * frames * PIXEL_PAIRS),
        ("records.csv", RECORDS_HEADER, 2 * frames),
    ):
        outcome.attempted += 1
        try:
            first, lines = _count_lines(os.path.join(inputs.out, name), digest)
        except OSError as exc:
            outcome.fail(1, f"{name}: {exc}")
            continue
        if first.decode() != header or lines != rows + 1:
            outcome.fail(1, f"{name}: header {first!r}, {lines - 1} rows, expected {rows}")

    outcome.attempted += len(SUMMARY_KEYS)
    values = {}
    try:
        with open(os.path.join(inputs.out, "summary.txt")) as handle:
            text = handle.read()
    except OSError as exc:
        outcome.fail(len(SUMMARY_KEYS), f"summary.txt: {exc}")
        text = ""
    digest.update(text.encode())
    for line in text.splitlines():
        key, _, value = line.partition(" = ")
        values[key] = _finite(value.split("#", 1)[0].strip())
    for key in SUMMARY_KEYS:
        if values.get(key) is None:
            outcome.fail(1, f"summary {key} missing or not finite")
    checks = (
        ("epsilon_sigma", lambda v: v >= 0.0),
        ("perr_hat", lambda v: 0.0 <= v <= 0.5),
        ("perr_batches", lambda v: v == frames // IMAGES_PER_DECISION),
    )
    for key, ok in checks:
        if values.get(key) is not None and not ok(values[key]):
            outcome.fail(1, f"summary {key} = {values[key]} out of range")
    if values.get("epsilon_hat") is not None and values.get("epsilon_sigma") is not None:
        outcome.observe_z(
            values["epsilon_hat"],
            analytic.epsilon(default_scenario(SIMULATE_BACKGROUND, frames)),
            values["epsilon_sigma"],
        )
    if code != 0:
        outcome.fail(1, f"exit code {code}")
    outcome.digest = digest.hexdigest()
    return outcome


def default_scenario(background: float, images: int, kind=None, modes_b: int = 1300):
    """The CLI's default scenario (README "Command line"), built from the
    public domain types."""
    from qisim.types import BackgroundSpec, ChannelSpec, Scenario, SourceKind, SourceSpec

    return Scenario(
        source=SourceSpec(kind=kind or SourceKind.TWIN_BEAM, mu=0.075, modes=90000),
        channel=ChannelSpec(eta1=0.62, eta2=0.62, reflectivity=0.5),
        background=BackgroundSpec(modes_b=modes_b, mean_total=background),
        pixel_pairs=PIXEL_PAIRS,
        images=images,
    )


def rng_floor_us_per_frame(seed: int, frames: int = 4000, repeats: int = 3) -> float:
    """Microseconds per frame for the sampler's draws at the default
    scenario (twin beam, K = 80, N_b = 1000), made block-wise by one
    Generator: the floor a block-drawing sampler could approach."""
    rng = np.random.default_rng(seed)
    size = frames * PIXEL_PAIRS
    modes, mean = 90000, 90000 * 0.075
    modes_b, mean_b = 1300, 1000.0
    timings = []
    for _ in range(repeats):
        start = time.perf_counter()
        shared = rng.negative_binomial(modes, modes / (modes + mean), size)
        rng.binomial(shared, 0.62)
        rng.binomial(shared, 0.31)
        rng.negative_binomial(modes_b, modes_b / (modes_b + mean_b), size)
        timings.append(time.perf_counter() - start)
    return float(np.median(timings)) / frames * 1e6


# --------------------------------------------------------------------------
# crosscheck: closed forms along every preset series, oracle against them
# --------------------------------------------------------------------------
# (kind, modes_b, images_per_decision) of every fig2..fig5 series.
PRESET_SERIES = (
    ("twin_beam", 57, 10),
    ("split_thermal", 57, 10),
    ("twin_beam", 1300, 10),
    ("split_thermal", 1300, 10),
    ("twin_beam", 57, 100),
    ("twin_beam", 1300, 100),
    ("split_thermal", 1300, 100),
)
# Acceptance criterion 1: (M, mu, eta1, eta2, r, (modes_b, mean_b)).
CRITERION_1_GRID = (
    (1, 0.10, 0.3, 0.7, 1.0, (1, 0.0)),
    (1, 0.50, 1.0, 1.0, 0.5, (1, 0.5)),
    (2, 0.25, 0.7, 0.3, 1.0, (2, 2.0)),
    (3, 0.10, 0.3, 0.3, 0.7, (1, 0.0)),
    (3, 0.50, 0.7, 1.0, 1.0, (4, 1.0)),
    (4, 0.25, 1.0, 0.3, 0.5, (2, 0.5)),
    (5, 0.10, 0.7, 0.7, 1.0, (3, 2.0)),
    (5, 0.50, 0.3, 1.0, 1.0, (1, 1.0)),
    (2, 0.40, 1.0, 0.7, 0.9, (2, 0.0)),
    (4, 0.30, 0.7, 0.3, 1.0, (5, 1.5)),
)
# Mid-size instances: tens of modes, mode_match < 1, (M, mu, mode_match,
# (modes_b, mean_b)); the oracle takes 0.05 to 0.5 s on each.
MID_SIZE_GRID = (
    (20, 0.25, 0.8, (5, 2.0)),
    (30, 0.20, 0.6, (4, 3.0)),
    (25, 0.50, 0.9, (3, 1.5)),
    (60, 0.10, 0.7, (6, 2.0)),
)


@dataclass(frozen=True)
class CrosscheckInputs:
    points: tuple  # (Scenario, images_per_decision) along the preset series
    instances: tuple  # Scenario, small enough to enumerate


def build_crosscheck(seed: int, out: str, smoke: bool) -> CrosscheckInputs:
    """Dense background grids and oracle instances, jittered by the seed
    so each seed asks for different values at the same cost."""
    from qisim.types import SourceKind

    rng = np.random.default_rng(seed)
    grid_size = 4 if smoke else 400
    points = []
    for kind, modes_b, ipd in PRESET_SERIES:
        grid = np.geomspace(10.0, 1e5, grid_size) * np.exp(rng.uniform(-0.02, 0.02, grid_size))
        for background in grid:
            scn = default_scenario(float(background), 1, SourceKind.parse(kind), modes_b)
            points.append((scn, ipd))
    mid = MID_SIZE_GRID[:1] if smoke else MID_SIZE_GRID
    instances = []
    for kind in SourceKind:
        for modes, mu, e1, e2, r, (modes_b, mean_b) in CRITERION_1_GRID:
            instances.append(_small_scenario(kind, modes, mu, e1, e2, r, 1.0, modes_b, mean_b))
        for modes, mu, mode_match, (modes_b, mean_b) in mid:
            jitter = math.exp(rng.uniform(-0.02, 0.02))
            instances.append(
                _small_scenario(
                    kind, modes, mu * jitter, 0.62, 0.62, 0.5, mode_match, modes_b, mean_b * jitter
                )
            )
    return CrosscheckInputs(points=tuple(points), instances=tuple(instances))


def _small_scenario(kind, modes, mu, e1, e2, r, mode_match, modes_b, mean_b):
    from qisim.types import BackgroundSpec, ChannelSpec, Scenario, SourceSpec

    return Scenario(
        source=SourceSpec(kind=kind, mu=mu, modes=modes),
        channel=ChannelSpec(eta1=e1, eta2=e2, reflectivity=r, mode_match=mode_match),
        background=BackgroundSpec(modes_b=modes_b, mean_total=mean_b),
        pixel_pairs=2,
        images=1,
    )


def run_crosscheck(inputs: CrosscheckInputs, modules: list) -> dict:
    """Evaluate everything; an exception is a result, kept for the check."""
    analytic, oracle = modules
    closed_forms = []
    for scn, ipd in inputs.points:
        try:
            closed_forms.append(
                (analytic.moments(scn), analytic.snr(scn), analytic.error_probability(scn, ipd))
            )
        except Exception as exc:  # counted as a failed point by the check
            closed_forms.append(exc)
    pairs = []
    for scn in inputs.instances:
        try:
            reference = oracle.enumerate_moments(scn.source, scn.channel, scn.background)
            pairs.append((analytic.moments(scn), reference))
        except Exception as exc:  # counted as a failed instance by the check
            pairs.append(exc)
    return {"closed_forms": closed_forms, "pairs": pairs}


def check_crosscheck(inputs: CrosscheckInputs, result: dict) -> Outcome:
    outcome = Outcome()
    digest = hashlib.sha256()
    for (scn, ipd), value in zip(inputs.points, result["closed_forms"]):
        outcome.attempted += 1
        where = f"{scn.source.kind.value} M_b={scn.background.modes_b} N_b={scn.background.mean_total:.6g}"
        if isinstance(value, Exception):
            outcome.fail(1, f"{where}: raised {type(value).__name__}")
            continue
        moments, snr, perr = value
        numbers = [getattr(moments, f) for f in MOMENT_FIELDS] + [snr, perr]
        digest.update(repr(numbers).encode())
        try:
            moments.check_consistency()
        except AssertionError as exc:
            outcome.fail(1, f"{where}: {exc}")
            continue
        if not all(math.isfinite(x) for x in numbers) or snr < 0.0 or not 0.0 <= perr <= 0.5:
            outcome.fail(1, f"{where}: snr {snr} or perr {perr} out of range")
    for scn, value in zip(inputs.instances, result["pairs"]):
        outcome.attempted += 1
        where = f"{scn.source.kind.value} M={scn.source.modes} mu={scn.source.mu:.6g}"
        if isinstance(value, Exception):
            outcome.fail(1, f"{where}: raised {type(value).__name__}: {value}")
            continue
        closed, reference = value
        digest.update(repr([getattr(reference, f) for f in MOMENT_FIELDS]).encode())
        worst = max(_rel_err(getattr(closed, f), getattr(reference, f)) for f in MOMENT_FIELDS)
        if not worst <= ORACLE_RTOL:
            outcome.fail(1, f"{where}: analytic and oracle differ by {worst:.3g}")
    outcome.digest = digest.hexdigest()
    return outcome


# --------------------------------------------------------------------------
# registry
# --------------------------------------------------------------------------
@dataclass(frozen=True)
class Workload:
    name: str
    build: Callable  # (seed, out_dir, smoke) -> inputs
    run: Callable  # (inputs, imported qisim modules) -> result
    check: Callable  # (inputs, result) -> Outcome


def _cli_workload(name: str, argv: tuple, frames: int, smoke_frames: int, check) -> Workload:
    """A `qisim` command line; "{frames}" in `argv` takes the budget."""

    def build(seed: int, out: str, smoke: bool) -> CliInputs:
        budget = smoke_frames if smoke else frames
        args = [a.format(frames=budget) for a in argv]
        if smoke and "--frames" not in args:
            args += ["--frames", str(budget)]
        # --seed goes after the subcommand: given before it, it is ignored.
        args += ["--seed", str(seed), "--out", out]
        return CliInputs(argv=tuple(args), out=out, frames=budget)

    return Workload(name, build, run_cli, check)


WORKLOADS = {
    w.name: w
    for w in (
        _cli_workload("reproduce-fig2", ("reproduce", "fig2"), 2000, 200, check_fig2),
        _cli_workload(
            "reproduce-fig5-f500", ("reproduce", "fig5", "--frames", "{frames}"), 500, 100, check_fig5
        ),
        _cli_workload(
            "simulate-dump",
            ("simulate", "--frames", "{frames}", "--background", str(SIMULATE_BACKGROUND)),
            10000,
            100,
            check_simulate,
        ),
        Workload("crosscheck", build_crosscheck, run_crosscheck, check_crosscheck),
    )
}
