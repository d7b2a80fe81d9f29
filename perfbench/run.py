"""qisim benchmark: one workload, one seed, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root; it imports qisim from `src/`.  Each
repetition of the workload runs in its own fresh interpreter
(perfbench/worker.py) with every BLAS/OpenMP pool pinned to one thread,
one after another, so no run uses more than one core for qisim.

--trace 0  a setup probe, then repetitions until S seconds are used (at
           least two, whose output digests must match).  Prints the
           end-to-end metrics of BENCHMARK.json: medians over the
           repetitions (setup_s also over the probe).
--trace 1  untraced and traced repetitions in turn (at least one each),
           plus interpreter and import probes.  Prints the per-layer
           metrics of BENCHMARK.json, taken from the traced repetitions.

The second-last stdout line is a JSON report (environment, every
repetition, the output checks); the last is the result object.  A run
whose work cannot start or finish prints no result and exits with 1.
"""
from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
WORK_DIR = ".perfbench-work"
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
SETUP_PROBES = 1  # setup-only launch per untraced run, besides each repetition's own
LAYER_PROBES = 3  # launches behind each setup.* per-layer metric
MIN_REPS = 2  # untraced repetitions per run, so that two output digests are compared
TIME_LIMIT = 170.0  # seconds; a run that would take longer fails


class BenchError(RuntimeError):
    pass


class Runner:
    """Starts interpreters for one run, one at a time, within TIME_LIMIT."""

    def __init__(self, root: str, args: argparse.Namespace) -> None:
        self.root = root
        self.args = args
        self.deadline = time.monotonic() + TIME_LIMIT
        self.env = dict(os.environ)
        self.env.update({name: "1" for name in THREAD_VARS})
        self.env["PYTHONHASHSEED"] = "0"
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (os.path.join(root, "src"), os.environ.get("PYTHONPATH")) if p
        )
        self.launched = 0

    def launch(self, argv: list) -> str:
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError(f"run exceeded {TIME_LIMIT:.0f} s")
        try:
            proc = subprocess.run(
                argv, cwd=self.root, env=self.env, capture_output=True, text=True, timeout=remaining
            )
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"run exceeded {TIME_LIMIT:.0f} s in {argv[1:3]}") from exc
        if proc.returncode != 0:
            raise BenchError(f"{argv[1:3]} exited with {proc.returncode}:\n{proc.stderr.strip()}")
        return proc.stdout

    def worker(self, *flags: str) -> dict:
        """One repetition (or with --setup-only, one setup probe)."""
        self.launched += 1
        out = os.path.join(self.root, WORK_DIR, f"rep-{self.launched}")
        argv = [sys.executable, os.path.join(HERE, "worker.py"), self.args.workload, str(self.args.seed), out]
        if self.args.smoke:
            flags += ("--smoke",)
        start = time.monotonic()
        stdout = self.launch(argv + [str(time.monotonic_ns()), *flags])
        wall = time.monotonic() - start
        shutil.rmtree(out, ignore_errors=True)
        try:
            report = json.loads(stdout.strip().splitlines()[-1])
        except (IndexError, ValueError) as exc:
            raise BenchError(f"worker printed no result: {stdout[-500:]!r}") from exc
        report["wall_s"] = wall
        return report

    def repetitions(self, start: float, kinds: tuple) -> list:
        """Cycle through `kinds` (flag tuples) until the run's seconds are
        used, never stopping before one full cycle of at least MIN_REPS."""
        reps: list = []
        while True:
            for flags in kinds:
                reps.append(self.worker(*flags))
            cycle = statistics.median(r["wall_s"] for r in reps) * len(kinds)
            if len(reps) >= MIN_REPS and time.monotonic() + cycle > start + self.args.seconds:
                return reps

    def probe(self, code: str) -> tuple[float, str]:
        start = time.perf_counter()
        stdout = self.launch([sys.executable, "-c", code])
        return time.perf_counter() - start, stdout


def environment(root: str) -> dict:
    versions = {}
    for name in ("numpy", "scipy"):
        try:
            versions[name] = importlib.metadata.version(name)
        except importlib.metadata.PackageNotFoundError:
            versions[name] = None
    rev = None
    if os.path.isdir(os.path.join(root, ".git")) and shutil.which("git"):
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True)
        rev = done.stdout.strip() or None
    return {
        "python": platform.python_version(),
        **versions,
        "nproc": len(os.sched_getaffinity(0)),
        "git_rev": rev,
        "loadavg_start": _loadavg(),
    }


def _loadavg() -> list | None:
    try:
        with open("/proc/loadavg") as handle:
            return [float(x) for x in handle.read().split()[:3]]
    except OSError:
        return None


def check_outputs(reps: list) -> dict:
    """Sum the repetitions' checks.  One seed must give one output, so a
    repetition whose digest differs from the first fails as a whole."""
    outcomes = [r["outcome"] for r in reps]
    for outcome in outcomes[1:]:
        if outcome["digest"] != outcomes[0]["digest"]:
            outcome.update(failed=outcome["attempted"], flagged=0)
            outcome["problems"].append("output digest differs from the first repetition")
    attempted = sum(o["attempted"] for o in outcomes)
    failed = sum(o["failed"] for o in outcomes)
    flagged = sum(o["flagged"] for o in outcomes)
    zs = [o["worst_z"] for o in outcomes if o["worst_z"] is not None]
    return {
        "attempted": attempted,
        "failed": failed,
        "flagged": flagged,
        "failed_ratio": (failed + flagged) / attempted,
        "digest": outcomes[0]["digest"],
        "worst_z": max(zs) if zs else None,
        "problems": [p for o in outcomes for p in o["problems"]][:10],
    }


def end_to_end(runner: Runner, start: float) -> tuple[dict, list]:
    probes = [runner.worker("--setup-only") for _ in range(SETUP_PROBES)]
    reps = runner.repetitions(start, ((),))
    values = {
        "run_s": statistics.median(r["run_s"] for r in reps),
        "setup_s": statistics.median(r["setup_s"] for r in probes + reps),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
    }
    return values, reps


# Spans reported as `<name>.calls` and `<name>.s`, and as `<name>.s` only.
COUNTED_SPANS = (
    "types.frame_rng",
    "sampler.generate_frame",
    "estimator.perr_hat",
    "estimator.covariance_records",
    "estimator.bootstrap_epsilon",
    "analytic.moments",
    "analytic.error_probability",
    "oracle.joint_distribution",
)
TIMED_SPANS = (
    "sampler.write_frames_csv",
    "estimator.write_records_csv",
    "scenario.run_sweep",
    "oracle.enumerate_moments",
    "cli.main",
)
COUNTERS = (
    "sampler.write_frames_csv.bytes",
    "estimator.write_records_csv.bytes",
    "scenario.points",
    "scenario.rows",
    "scenario.rows_flagged",
    "scenario.bytes_written",
    "oracle.states",
)


def _us_per(seconds: float, count: int) -> float:
    """Microseconds per counted item; 0 where the layer did not run."""
    return seconds / count * 1e6 if count else 0.0


def traced_layers(rep: dict) -> dict:
    spans = rep["spans"]
    counters = rep["counters"]

    def span(name: str) -> list:
        return spans.get(name, [0, 0.0, 0.0])

    values = {f"{n}.calls": span(n)[0] for n in COUNTED_SPANS}
    values.update({f"{n}.s": span(n)[1] for n in COUNTED_SPANS + TIMED_SPANS})
    values.update({n: counters.get(n, 0) for n in COUNTERS})
    values["sampler.us_per_frame"] = _us_per(span("sampler.generate_frame")[1], span("sampler.generate_frame")[0])
    values["sampler.rng_floor_us_per_frame"] = rep["rng_floor_us_per_frame"]
    values["estimator.perr_hat.us_per_batch"] = _us_per(
        span("estimator.perr_hat")[1], counters.get("estimator.perr_hat.batches", 0)
    )
    values["scenario.self_s"] = span("scenario.run_sweep")[2]
    values["scenario.write_s"] = span("scenario.write_sweep_csv")[1] + span("scenario.write_sidecar")[1]
    values["cli.self_s"] = span("cli.main")[2]
    return values


def per_layer(runner: Runner, start: float) -> tuple[dict, list]:
    interpreter = [runner.probe("pass")[0] for _ in range(LAYER_PROBES)]
    scipy_stats = [
        float(runner.probe(
            "import time; t = time.perf_counter(); import scipy.stats; print(time.perf_counter() - t)"
        )[1])
        for _ in range(LAYER_PROBES)
    ]
    probes = [runner.worker("--setup-only") for _ in range(LAYER_PROBES)]
    reps = runner.repetitions(start, ((), ("--trace",)))
    plain = [r for r in reps if "spans" not in r]
    traced = [r for r in reps if "spans" in r]
    layers = [traced_layers(r) for r in traced]
    values = {name: statistics.median(v[name] for v in layers) for name in layers[0]}
    values["setup.interpreter_s"] = statistics.median(interpreter)
    values["setup.import_scipy_stats_s"] = statistics.median(scipy_stats)
    values["setup.import_s"] = statistics.median(r["import_s"] for r in probes + reps)
    values["trace.overhead_ratio"] = (
        statistics.median(r["run_s"] for r in traced) / statistics.median(r["run_s"] for r in plain) - 1.0
    )
    return values, reps


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--smoke", action="store_true", help="tiny budgets, for perfbench/smoke.py")
    args = parser.parse_args()
    if not 0 <= args.seed < 2**64:
        parser.error("--seed must be an unsigned 64-bit integer")

    start = time.monotonic()
    root = os.getcwd()
    try:
        with open(os.path.join(root, "BENCHMARK.json")) as handle:
            declared = json.load(handle)["per_layer" if args.trace else "end_to_end"]
    except (OSError, ValueError, KeyError) as exc:
        print(f"perfbench: cannot read BENCHMARK.json in {root}: {exc}", file=sys.stderr)
        return 1
    if not os.path.isfile(os.path.join(root, "src", "qisim", "__init__.py")):
        print(f"perfbench: no src/qisim in {root}; run from the repository root", file=sys.stderr)
        return 1

    runner = Runner(root, args)
    report = {"workload": args.workload, "seed": args.seed, "trace": args.trace}
    report["environment"] = environment(root)
    shutil.rmtree(os.path.join(root, WORK_DIR), ignore_errors=True)
    try:
        runner.launch([sys.executable, "-m", "compileall", "-q", "src"])
        values, reps = (per_layer if args.trace else end_to_end)(runner, start)
        checks = check_outputs(reps)
        values["ok_ratio"] = 1.0 - checks["failed_ratio"]
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(os.path.join(root, WORK_DIR), ignore_errors=True)
    report["environment"]["loadavg_end"] = _loadavg()
    report["checks"] = checks
    report["repetitions"] = [
        {k: r.get(k) for k in ("run_s", "cpu_s", "setup_s", "import_s", "peak_rss_mb", "wall_s")}
        | {"traced": "spans" in r, "digest": r["outcome"]["digest"], "worst_z": r["outcome"]["worst_z"]}
        for r in reps
    ]
    report["values"] = values
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": checks["failed"] == 0,
        "attempted": checks["attempted"],
        "failed": checks["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
