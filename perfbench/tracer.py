"""Per-layer spans recorded from outside the qisim package.

`Tracer.install` replaces each public function of the qisim modules with a
timing wrapper, both in the module that defines it and under every name
another qisim module imported it by (`qisim.scenario.generate_frame`,
`qisim.cli.perr_hat`, ...).  Calls through the defining module's attribute
(`analytic.moments(...)`, including analytic's own calls) are therefore
counted too.  `SeedSpec.frame_rng` is wrapped on its class.  Nothing under
`src/` is edited; `uninstall` puts every original back.

Spans nest on a single stack, so the tracer assumes one thread, which is
how the benchmark runs qisim (`--threads` stays 1).  Totals are kept in
memory per span name: calls, seconds, and self seconds (the span's time
minus the time of the spans it directly contains).
"""
from __future__ import annotations

import importlib
import inspect
import os
import sys
import time

# Modules whose own public functions are wrapped.  Of cli only `main` is
# wrapped: its helpers (config parsing, spec building) are what the
# self time of `cli.main` measures.
LAYERS = ("sampler", "estimator", "scenario", "analytic", "oracle")


def _count(counters: dict, name: str, amount) -> None:
    counters[name] = counters.get(name, 0) + amount


def _bytes_at(counter: str, position: int):
    """Hook: count the size of the file named by argument `position`."""
    return lambda counters, args, result: _count(counters, counter, os.path.getsize(args[position]))


def _perr_batches(counters, args, result):
    _count(counters, "estimator.perr_hat.batches", result.batches_in + result.batches_out)


def _oracle_states(counters, args, result):
    _count(counters, "oracle.states", int(result.probs.size))


def _sweep_rows(counters, args, result):
    rows = result.rows
    _count(counters, "scenario.rows", len(rows))
    _count(counters, "scenario.rows_flagged", sum(1 for row in rows if row.flag))
    _count(counters, "scenario.points", len({(row.source, row.value) for row in rows}))


# Counts taken from a span's arguments or result, outside its timing.
HOOKS = {
    "estimator.perr_hat": _perr_batches,
    "oracle.joint_distribution": _oracle_states,
    "scenario.run_sweep": _sweep_rows,
    "sampler.write_frames_csv": _bytes_at("sampler.write_frames_csv.bytes", 0),
    "estimator.write_records_csv": _bytes_at("estimator.write_records_csv.bytes", 0),
    "scenario.write_sweep_csv": _bytes_at("scenario.bytes_written", 1),
    "scenario.write_sidecar": _bytes_at("scenario.bytes_written", 1),
}


class Tracer:
    def __init__(self) -> None:
        self.totals: dict = {}  # span name -> [calls, seconds, self seconds]
        self.counters: dict = {}
        self._stack: list = []  # child seconds of each open span
        self._patches: list = []  # (owner, attribute, original)

    def wrap(self, name: str, fn):
        hook = HOOKS.get(name)
        stack = self._stack
        totals = self.totals

        def traced(*args, **kwargs):
            children = [0.0]
            stack.append(children)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                entry = totals.setdefault(name, [0, 0.0, 0.0])
                entry[0] += 1
                entry[1] += elapsed
                entry[2] += elapsed - children[0]
            if hook is not None:
                hook(self.counters, args, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every loaded qisim layer; modules not imported stay untouched."""
        loaded = {
            short: sys.modules[f"qisim.{short}"]
            for short in LAYERS + ("cli",)
            if f"qisim.{short}" in sys.modules
        }
        wrappers = {}
        for short, module in loaded.items():
            if short == "cli":
                continue
            for name, obj in vars(module).items():
                if inspect.isfunction(obj) and obj.__module__ == module.__name__ and not name.startswith("_"):
                    wrappers[obj] = self.wrap(f"{short}.{name}", obj)
        for module in loaded.values():
            for name, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patch(module, name, wrappers[obj])
        if "cli" in loaded:
            self._patch(loaded["cli"], "main", self.wrap("cli.main", loaded["cli"].main))
        seed_spec = importlib.import_module("qisim.types").SeedSpec
        self._patch(seed_spec, "frame_rng", self.wrap("types.frame_rng", seed_spec.frame_rng))

    def _patch(self, owner, name: str, replacement) -> None:
        self._patches.append((owner, name, getattr(owner, name)))
        setattr(owner, name, replacement)

    def uninstall(self) -> None:
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)
