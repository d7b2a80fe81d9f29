"""Command-line entry point: subcommands, flags, seeds, outputs.

A run resolves one configuration (see `config`) in layers: the defaults
or ``--config FILE``, then every key given on the command line.  Each
key is one option, spelled ``--section.key`` or by its shortcut
(``--mu``, ``--seed``, ...); ``--target present|absent`` sets
``channel.target_present``.  A key given more than once takes the value
of its last flag, before or after the subcommand.  The figure presets
live in the library: ``reproduce`` hands both layers to
`scenario.run_figure`, which puts each series' keys between them, so
explicit flags win over presets, and writes what it returns.

Every sweep writes its CSV and, next to it, a sidecar: the resolved
configuration rendered from the schema, seed included.  ``qisim sweep
--config SIDECAR`` replays the CSV byte for byte.  A sweep moves any
numeric key, a loss such as ``channel.eta2`` too.  All randomness flows
from the single seed ``run.seed``; when absent a fresh seed is drawn and
printed so the run stays reproducible after the fact.
"""
from __future__ import annotations

import argparse
import dataclasses
import os
import secrets
import sys

from . import analytic
from .config import (
    CONFIG_SCHEMA,
    apply,
    build_scenario,
    default_config,
    load_config_file,
    render,
    sidecar_text,
)
from .estimator import perr_hat, write_records_csv
from .sampler import write_frames_csv
from .scenario import PRESETS, PointPipeline, run_figure, run_sweep, sweep_spec, write_sweep_csv
from .types import (
    DegenerateStatisticError,
    InsufficientDataError,
    ParameterError,
    SeedSpec,
    SourceKind,
)


def _write_sweeps(out: str, sweeps: dict) -> int:
    """Write each (config, result) of `sweeps` as `out`/<stem>.csv and,
    next to it, the sidecar rendered from its config."""
    os.makedirs(out, exist_ok=True)
    for stem, (config, result) in sweeps.items():
        csv_path = os.path.join(out, f"{stem}.csv")
        write_sweep_csv(result, csv_path)
        with open(csv_path + ".meta.txt", "w") as handle:
            handle.write(sidecar_text(config))
        print(f"wrote {csv_path}")
    return 0


# config key -> its shortcut flag
_SHORTCUTS = {
    "source.mu": "mu",
    "source.modes": "modes",
    "channel.eta1": "eta1",
    "channel.eta2": "eta2",
    "channel.reflectivity": "reflectivity",
    "channel.mode_match": "mode-match",
    "background.mean_total": "background",
    "background.modes_b": "modes-b",
    "scenario.pixel_pairs": "pixel-pairs",
    "scenario.images": "frames",
    "scenario.images_per_decision": "images-per-decision",
    "sampler.read_noise_sigma": "read-noise",
    "run.seed": "seed",
}


# Values of the shared flags when given neither before nor after the
# subcommand.  The flags default to SUPPRESS, so a subcommand parser never
# writes a default over a value parsed before the subcommand.
_FLAG_DEFAULTS = {"config": None, "out": "qisim-out"}


def _target(text: str) -> str:
    if text not in ("present", "absent"):
        raise argparse.ArgumentTypeError(f"expected present or absent, got {text!r}")
    return str(text == "present")


def _add_common_flags(parser: argparse.ArgumentParser) -> None:
    """Shared flags, accepted both before and after the subcommand: one
    option per config key, `--section.key` and its shortcut, storing the
    raw text under the key's name."""
    parser.add_argument(
        "--config", metavar="PATH", default=argparse.SUPPRESS, help="key-value config file"
    )
    parser.add_argument(
        "--out", metavar="DIR", default=argparse.SUPPRESS, help="output directory"
    )
    for section, keys in CONFIG_SCHEMA.items():
        for key, (_, default, text) in keys.items():
            name = f"{section}.{key}"
            flags = [f"--{flag}" for flag in (name, _SHORTCUTS.get(name)) if flag]
            if default is not None:
                text = f"{text} (default: {render(default)})"
            parser.add_argument(
                *flags, dest=name, metavar="V", default=argparse.SUPPRESS, help=text
            )
    parser.add_argument(
        "--target",
        dest="channel.target_present",
        type=_target,
        metavar="{present,absent}",
        default=argparse.SUPPRESS,
        help="sets channel.target_present",
    )


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    _add_common_flags(common)
    # short usage lines: an argparse error is two lines, not a list of every key
    usage = "%(prog)s [-h] [--section.key V | --shortcut V ...]"
    parser = argparse.ArgumentParser(
        prog="qisim",
        usage=usage + " {analytic,simulate,sweep,reproduce} ...",
        description=(
            "Photon-counting target detection with correlated beams: "
            "closed forms, Monte Carlo simulation, and figure sweeps."
        ),
        parents=[common],
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True, prog="qisim")

    def add(name: str, text: str, tail: str = "") -> argparse.ArgumentParser:
        return sub.add_parser(name, parents=[common], allow_abbrev=False, help=text, usage=usage + tail)

    p_analytic = add("analytic", "closed-form moments and figures of merit, no sampling", " [--csv PATH]")
    p_analytic.add_argument("--csv", metavar="PATH", help="also write a single-row CSV")
    add("simulate", "generate one image set, run all estimators, write records")
    add("sweep", "run the configured sweep; write sweep.csv and its sidecar")
    p_rep = add("reproduce", "run a named figure sweep preset", " {fig2,fig3,fig4,fig5}")
    p_rep.add_argument("figure", choices=list(PRESETS))
    return parser


def _overrides(args: argparse.Namespace, leftovers: list) -> dict:
    """Every config key given on the command line, as {"section.key": raw}."""
    if leftovers:
        raise ParameterError(f"unknown config key: {leftovers[0].lstrip('-').partition('=')[0]}")
    return {name: raw for name, raw in vars(args).items() if "." in name}


def _fmt(value: float) -> str:
    return repr(float(value))


def _or_nan(closed_form) -> str:
    """`closed_form()` formatted, or nan where the figure has no value: a
    degenerate epsilon or dominant-background SNR, or the enhancement at
    mu = 0, where a source without photons has no ratio."""
    try:
        return _fmt(closed_form())
    except (DegenerateStatisticError, ParameterError):
        return "nan"


def cmd_analytic(config: dict, args: argparse.Namespace) -> int:
    scenario = build_scenario(config)
    ipd = scenario.images_per_decision
    m = analytic.moments(scenario)
    enhancement = _or_nan(lambda: analytic.enhancement(scenario.source.mu))
    # the source's own lossless epsilon; a split beam reaches only 1
    twin = scenario.source.kind is SourceKind.TWIN_BEAM
    fields = [
        ("kind", scenario.source.kind.value),
        ("mu", _fmt(scenario.source.mu)),
        *((f.name, _fmt(getattr(m, f.name))) for f in dataclasses.fields(m)),
        ("epsilon", _or_nan(lambda: analytic.epsilon(scenario))),
        ("epsilon_ideal", enhancement if twin else _fmt(1.0)),
        ("enhancement", enhancement),
        ("snr", _fmt(analytic.snr(scenario))),
        ("snr_dominant_background", _or_nan(lambda: analytic.snr_dominant_background(scenario))),
        ("images_per_decision", str(ipd)),
        ("error_probability", _fmt(analytic.error_probability(scenario, ipd))),
    ]
    for key, value in fields:
        print(f"{key} = {value}")
    if args.csv:
        with open(args.csv, "w", newline="") as handle:
            handle.write(",".join(key for key, _ in fields) + "\n")
            handle.write(",".join(value for _, value in fields) + "\n")
    return 0


def cmd_simulate(config: dict, args: argparse.Namespace) -> int:
    """One sweep point on the master seed: its counts, per-frame covariances
    and estimates, as frames.csv, records.csv and summary.txt."""
    scenario = build_scenario(config)
    seed = SeedSpec(config["run"]["seed"])
    ipd = scenario.images_per_decision
    point = PointPipeline(scenario, seed)
    # every estimator runs before the first output is opened, so a run that
    # exits with an error leaves no partial output behind
    in_deltas, out_deltas = point.deltas("in"), point.deltas("out")

    lines = [f"seed = {seed.master_seed}", f"frames_per_hypothesis = {scenario.images}"]
    for keys, compute in (
        (("epsilon_hat", "epsilon_sigma"), lambda: point.estimate("epsilon")),
        # zip below keeps only the estimate of a metric printed without its sigma
        (("covariance_in",), lambda: point.estimate("covariance_in")),
        (("covariance_out",), lambda: point.estimate("covariance_out")),
        (("snr_per_sqrt_pair",), lambda: point.estimate("snr")),
        (("perr_hat", "perr_threshold", "perr_batches"), lambda: perr_hat(in_deltas, out_deltas, ipd)),
    ):
        try:
            values = compute()
        except (DegenerateStatisticError, InsufficientDataError) as exc:
            lines.append(f"{keys[0]} = nan  # {type(exc).__name__}")
            continue
        lines.extend(f"{key} = {v if isinstance(v, int) else _fmt(v)}" for key, v in zip(keys, values))
    summary = "\n".join(lines) + "\n"

    os.makedirs(args.out, exist_ok=True)
    frames_path = os.path.join(args.out, "frames.csv")
    write_frames_csv(frames_path, point.counts("in"), point.counts("out"))
    records_path = os.path.join(args.out, "records.csv")
    write_records_csv(records_path, in_deltas, out_deltas)
    with open(os.path.join(args.out, "summary.txt"), "w") as handle:
        handle.write(summary)
    print(summary, end="")
    print(f"wrote {frames_path}")
    print(f"wrote {records_path}")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args, leftovers = parser.parse_known_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    for key, value in _FLAG_DEFAULTS.items():
        vars(args).setdefault(key, value)
    try:
        overrides = _overrides(args, leftovers)
        base = load_config_file(args.config) if args.config else default_config()
        config = apply(base, overrides)
        build_scenario(config)
        if args.command == "analytic":
            return cmd_analytic(config, args)
        if config["run"]["seed"] is None:
            config["run"]["seed"] = secrets.randbits(64)
            print(f"seed = {config['run']['seed']}")
        if args.command == "simulate":
            return cmd_simulate(config, args)
        if args.command == "sweep":
            spec = sweep_spec(config)  # checks sweep.sources before it is read below
            # the sidecar names the source the sweep runs first
            config["source"]["kind"] = config["sweep"]["sources"][0]
            return _write_sweeps(args.out, {"sweep": (config, run_sweep(spec))})
        return _write_sweeps(args.out, run_figure(args.figure, config["run"]["seed"], overrides, base))
    except (ParameterError, InsufficientDataError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
