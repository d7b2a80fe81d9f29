"""Smoke check of the benchmark at tiny budgets.

    python3 perfbench/smoke.py          (from the repository root, ~1.5 min)

1. Runs every workload through run.py with --smoke, untraced and traced,
   and asserts that the result line names every end-to-end and per-layer
   metric of BENCHMARK.json with its declared unit and a finite value, and
   that the outputs passed their checks.
2. Runs each workload in this process, corrupts one of its outputs, and
   asserts that the checks count the corruption as a failure; the same for
   two repetitions whose output digests differ.

Prints one line per failed assertion and exits 1 if there was any.
"""
from __future__ import annotations

import dataclasses
import importlib
import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def check_result_lines(failures: list) -> None:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        bench = json.load(handle)
    for name in workloads.WORKLOADS:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            where = f"{name} --trace {trace}"
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", name, "--seed", "3",
                 "--seconds", "1", "--trace", str(trace), "--smoke"],
                cwd=ROOT, capture_output=True, text=True, timeout=180,
            )
            if proc.returncode != 0:
                failures.append(f"{where}: exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if set(result) != RESULT_KEYS:
                failures.append(f"{where}: result keys {sorted(result)}")
                continue
            if not (result["correct"] and result["failed"] == 0 and result["attempted"] >= 1):
                failures.append(f"{where}: outputs failed their checks: {proc.stdout.splitlines()[-2][:500]}")
            declared = {m["name"]: m["unit"] for m in bench[section]}
            metrics = result["metrics"]
            if set(metrics) != set(declared):
                failures.append(f"{where}: metrics differ from BENCHMARK.json: {sorted(set(metrics) ^ set(declared))}")
            for metric, unit in declared.items():
                value = metrics.get(metric, {}).get("value")
                if metrics.get(metric, {}).get("unit") != unit:
                    failures.append(f"{where}: {metric} has no unit {unit!r}")
                if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
                    failures.append(f"{where}: {metric} = {value!r}")


def _rewrite(path: str, edit) -> None:
    with open(path, newline="") as handle:
        lines = handle.read().splitlines(keepends=True)
    with open(path, "w", newline="") as handle:
        handle.writelines(edit(lines))


def _nan_estimate(lines: list) -> list:
    fields = lines[1].split(",")
    fields[4] = "nan"
    return [lines[0], ",".join(fields)] + lines[2:]


def _perturb_oracle(inputs, result) -> None:
    closed, reference = result["pairs"][0]
    result["pairs"][0] = (closed, dataclasses.replace(reference, m22=reference.m22 * (1 + 1e-6)))


# workload -> how to corrupt its output after a clean run
CORRUPTIONS = {
    "reproduce-fig2": lambda inputs, result: _rewrite(
        os.path.join(inputs.out, "fig2_mb57.csv"), _nan_estimate
    ),
    "reproduce-fig5-f500": lambda inputs, result: _rewrite(
        os.path.join(inputs.out, "fig5_twin_mb57.csv"), lambda lines: lines[:-1]
    ),
    "simulate-dump": lambda inputs, result: _rewrite(
        os.path.join(inputs.out, "frames.csv"), lambda lines: lines[:-1]
    ),
    "crosscheck": _perturb_oracle,
}


def check_corruption_counts(failures: list) -> None:
    scratch = os.path.join(ROOT, run.WORK_DIR, "smoke")
    try:
        for name, corrupt in CORRUPTIONS.items():
            workload = workloads.WORKLOADS[name]
            modules = [importlib.import_module(m) for m in worker.IMPORTS.get(name, worker.CLI_IMPORTS)]
            inputs = workload.build(5, os.path.join(scratch, name), True)
            result = workload.run(inputs, modules)
            clean = workload.check(inputs, result)
            if clean.failed:
                failures.append(f"{name}: clean output failed its checks: {clean.problems}")
            corrupt(inputs, result)
            if workload.check(inputs, result).failed == 0:
                failures.append(f"{name}: corrupted output passed its checks")
    finally:
        shutil.rmtree(os.path.join(ROOT, run.WORK_DIR), ignore_errors=True)

    def rep(digest: str) -> dict:
        outcome = dict(attempted=4, failed=0, flagged=1, worst_z=None, digest=digest, problems=[])
        return {"outcome": outcome}

    checks = run.check_outputs([rep("a"), rep("b")])
    if checks["failed"] != 4:
        failures.append(f"differing digests not counted as failures: {checks}")


def main() -> int:
    failures: list = []
    check_corruption_counts(failures)
    check_result_lines(failures)
    for failure in failures:
        print(f"FAIL {failure}")
    print(f"smoke: {'FAILED' if failures else 'ok'}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
