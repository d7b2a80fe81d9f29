"""The benchmark's workloads against the current public API, in-process.

Each workload of `perfbench/workloads.py` is built at its smoke budget,
run on the modules its worker imports, and checked by its own output
checks, so a change that breaks how the benchmark calls qisim fails here
rather than only in the benchmark run.
"""
from __future__ import annotations

import importlib
import os
import sys

import pytest

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")
sys.path.insert(0, PERFBENCH)

import worker  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_runs_and_passes_its_checks(name, tmp_path):
    workload = workloads.WORKLOADS[name]
    modules = [importlib.import_module(m) for m in worker.IMPORTS.get(name, worker.CLI_IMPORTS)]
    inputs = workload.build(1, str(tmp_path), True)
    outcome = workload.check(inputs, workload.run(inputs, modules))
    assert outcome.attempted > 0
    assert outcome.failed == 0, outcome.problems
