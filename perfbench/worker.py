"""One repetition of one workload, in a fresh interpreter started by run.py.

Usage (run.py passes these; the launch time is its monotonic clock, in ns,
read just before it started this interpreter):

    python3 perfbench/worker.py WORKLOAD SEED OUT_DIR LAUNCH_NS
        [--trace] [--setup-only] [--smoke]

Prints one JSON object as the last line of stdout:
    setup_s      launch until qisim is imported and the inputs are built
    import_s     the qisim imports alone
    run_s        first call into qisim until its last output is closed
    cpu_s        CPU time of this process over the same span (a run_s far
                 above cpu_s means the process waited: I/O or a busy host)
    peak_rss_mb  peak RSS of this process after the work
    outcome      what the output checks found (see workloads.Outcome)
    spans, counters, rng_floor_us_per_frame   with --trace only
"""
from __future__ import annotations

import argparse
import importlib
import os
import time

IMPORTS = {"crosscheck": ("qisim.analytic", "qisim.oracle")}
CLI_IMPORTS = ("qisim.cli",)


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("workload")
    parser.add_argument("seed", type=int)
    parser.add_argument("out")
    parser.add_argument("launch_ns", type=int)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()

    start = time.perf_counter()
    modules = [importlib.import_module(m) for m in IMPORTS.get(args.workload, CLI_IMPORTS)]
    import_s = time.perf_counter() - start
    source = os.path.realpath(os.path.join("src", "qisim"))
    if os.path.dirname(os.path.realpath(modules[0].__file__)) != source:
        raise SystemExit(f"qisim was imported from {modules[0].__file__}, not from {source}")

    import json
    import resource

    import workloads

    workload = workloads.WORKLOADS[args.workload]
    inputs = workload.build(args.seed, args.out, args.smoke)
    setup_s = (time.monotonic_ns() - args.launch_ns) / 1e9
    report = {"setup_s": setup_s, "import_s": import_s}
    if args.setup_only:
        print(json.dumps(report))
        return 0

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    start, cpu_start = time.perf_counter(), time.process_time()
    result = workload.run(inputs, modules)
    run_s = time.perf_counter() - start
    cpu_s = time.process_time() - cpu_start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    if tracer is not None:
        tracer.uninstall()
        report["spans"] = tracer.totals
        report["counters"] = tracer.counters
        report["rng_floor_us_per_frame"] = workloads.rng_floor_us_per_frame(args.seed)
    outcome = workload.check(inputs, result)
    report.update(run_s=run_s, cpu_s=cpu_s, peak_rss_mb=peak_rss_mb, outcome=vars(outcome))
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
