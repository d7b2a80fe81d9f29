"""Command-line entry point: config parsing, subcommands, seeds, outputs.

Configuration is flat key-value text with one section per module
(INI syntax), described by ``CONFIG_SCHEMA``.  A run resolves one
configuration in layers: the defaults or ``--config FILE``, then, for
``reproduce``, the keys of the figure preset's series, then every key
given on the command line, so explicit flags win over presets.  Each key
is one option, spelled ``--section.key`` or by its shortcut (``--mu``,
``--seed``, ...); ``--target present|absent`` sets
``channel.target_present``.  A key given more than once takes the value
of its last flag, before or after the subcommand.

Every sweep writes its CSV and, next to it, a sidecar: the resolved
configuration rendered from the schema, seed included.  ``qisim sweep
--config SIDECAR`` replays the CSV byte for byte.  All randomness flows
from the single seed ``run.seed``; when absent a fresh seed is drawn and
printed so the run stays reproducible after the fact.
"""
from __future__ import annotations

import argparse
import configparser
import os
import secrets
import sys

from . import analytic
from .estimator import perr_hat, write_records_csv
from .sampler import STREAM_FORMAT, write_frames_csv
from .scenario import (
    PointPipeline,
    SweepParameter,
    SweepSpec,
    run_sweep,
    write_sweep_csv,
)
from .types import (
    BackgroundSpec,
    ChannelSpec,
    DegenerateStatisticError,
    InsufficientDataError,
    ParameterError,
    Scenario,
    SeedSpec,
    SourceKind,
    SourceSpec,
)


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("true", "yes", "1", "on"):
        return True
    if lowered in ("false", "no", "0", "off"):
        return False
    raise ParameterError(f"expected a boolean, got {text!r}")


def _parse_float_list(text: str) -> tuple:
    return tuple(float(part) for part in text.split(",") if part.strip())


def _parse_str_list(text: str) -> tuple:
    return tuple(part.strip() for part in text.split(",") if part.strip())


# section -> key -> (parser, default, help text with symbol and units)
CONFIG_SCHEMA = {
    "source": {
        "kind": (
            str,
            "twin_beam",
            "source type: twin_beam or split_thermal; analytic and simulate only, sweeps use sweep.sources",
        ),
        "mu": (float, 0.075, "mean photons per mode, symbol mu (dimensionless)"),
        "modes": (int, 90000, "spatiotemporal modes per pixel pair, symbol M"),
        "split_ratio": (float, 0.5, "classical splitter transmittance, symbol t, in (0,1)"),
    },
    "channel": {
        "eta1": (float, 0.62, "reference-arm detection efficiency, symbol eta_1, in [0,1]"),
        "eta2": (float, 0.62, "probe-arm detection efficiency, symbol eta_2, in [0,1]"),
        "reflectivity": (float, 0.5, "target reflectivity, symbol r, in [0,1]"),
        "target_present": (_parse_bool, True, "whether the target is in the probe path"),
        "mode_match": (float, 1.0, "fraction of probe modes correlated with the paired pixel, in [0,1]"),
    },
    "background": {
        "modes_b": (int, 1300, "background mode count, symbol M_b"),
        "mean_total": (float, 0.0, "detected background photons per pixel, symbol N_b"),
    },
    "scenario": {
        "pixel_pairs": (int, 80, "correlated pixel pairs per frame, symbol K"),
        "images": (int, 2000, "frames generated per hypothesis, symbol N_img"),
        "images_per_decision": (int, 10, "frames averaged per detection decision"),
    },
    "sampler": {
        "read_noise_sigma": (float, 0.0, "additive detector read noise sigma, electrons, 0 to 1e6"),
    },
    "sweep": {
        "parameter": (str, "background_mean", "swept axis: background_mean, images_per_decision or mu"),
        "values": (
            _parse_float_list,
            (100.0, 316.0, 1000.0, 3162.0, 10000.0, 31623.0, 100000.0),
            "comma-separated increasing values",
        ),
        "sources": (
            _parse_str_list,
            ("twin_beam", "split_thermal"),
            "comma-separated source kinds to compare",
        ),
        "outputs": (
            _parse_str_list, ("epsilon",), "comma-separated metrics: epsilon,snr,covariance,perr"
        ),
        "emit_analytic": (_parse_bool, True, "also emit closed-form curve values"),
    },
    "run": {
        "seed": (int, None, "master seed (default: drawn and printed)"),
    },
}


def default_config() -> dict:
    return {
        section: {key: entry[1] for key, entry in keys.items()}
        for section, keys in CONFIG_SCHEMA.items()
    }


def _set_key(config: dict, section: str, key: str, raw: str) -> None:
    if section not in CONFIG_SCHEMA or key not in CONFIG_SCHEMA[section]:
        raise ParameterError(f"unknown config key: {section}.{key}")
    parser = CONFIG_SCHEMA[section][key][0]
    try:
        config[section][key] = parser(raw)
    except (ValueError, ParameterError) as exc:
        raise ParameterError(f"{section}.{key}: {exc}") from exc


def _apply(config: dict, *layers) -> dict:
    """A copy of `config` with each layer, a {"section.key": raw} dict,
    applied in order, so a later layer wins."""
    config = {section: dict(keys) for section, keys in config.items()}
    for layer in layers:
        for name, raw in layer.items():
            _set_key(config, *name.split(".", 1), raw)
    return config


def load_config_file(path: str) -> dict:
    config = default_config()
    ini = configparser.ConfigParser(interpolation=None)
    with open(path) as handle:
        ini.read_file(handle)
    for section in ini.sections():
        if section not in CONFIG_SCHEMA:
            raise ParameterError(f"unknown config section: {section}")
        for key, raw in ini.items(section):
            _set_key(config, section, key, raw)
    return config


def _render(value) -> str:
    """A config value in the text form its schema parser reads back."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, tuple):
        return ",".join(_render(item) for item in value)
    return str(value)


def sidecar_text(config: dict) -> str:
    """A resolved configuration in the format `load_config_file` reads."""
    lines = [
        "# resolved sweep configuration; feed back via --config to reproduce",
        "# background mean_total is the detected per-pixel mean",
        f"# {STREAM_FORMAT}",
    ]
    for section, keys in CONFIG_SCHEMA.items():
        lines.append(f"[{section}]")
        lines.extend(f"{key} = {_render(config[section][key])}" for key in keys)
    return "\n".join(lines) + "\n"


def build_scenario(config: dict) -> Scenario:
    """The scenario of a resolved configuration; the source, channel and
    background sections each hold exactly their spec's fields."""
    return Scenario(
        source=SourceSpec(**dict(config["source"], kind=SourceKind.parse(config["source"]["kind"]))),
        channel=ChannelSpec(**config["channel"]),
        background=BackgroundSpec(**config["background"]),
        pixel_pairs=config["scenario"]["pixel_pairs"],
        images=config["scenario"]["images"],
        read_noise_sigma=config["sampler"]["read_noise_sigma"],
    )


def build_sweep_spec(config: dict, seed: SeedSpec) -> SweepSpec:
    return SweepSpec(
        base=build_scenario(config),
        parameter=SweepParameter.parse(config["sweep"]["parameter"]),
        values=config["sweep"]["values"],
        sources=tuple(SourceKind.parse(k) for k in config["sweep"]["sources"]),
        outputs=config["sweep"]["outputs"],
        seed=seed,
        emit_analytic=config["sweep"]["emit_analytic"],
        images_per_decision=config["scenario"]["images_per_decision"],
    )


def _write_sweeps(out: str, configs: dict) -> int:
    """Run the sweep each config describes on its seed `run.seed`; write
    `out`/<stem>.csv and the sidecar that replays it, with source.kind =
    sweep.sources[0].  Every sweep is validated before `out` is made."""
    specs = {stem: build_sweep_spec(c, SeedSpec(c["run"]["seed"])) for stem, c in configs.items()}
    os.makedirs(out, exist_ok=True)
    for stem, config in configs.items():
        csv_path = os.path.join(out, f"{stem}.csv")
        write_sweep_csv(run_sweep(specs[stem]), csv_path)
        config = _apply(config, {"source.kind": config["sweep"]["sources"][0]})
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
                text = f"{text} (default: {_render(default)})"
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


def cmd_analytic(config: dict, args: argparse.Namespace) -> int:
    scenario = build_scenario(config)
    ipd = config["scenario"]["images_per_decision"]
    m = analytic.moments(scenario)
    fields = [
        ("kind", scenario.source.kind.value),
        ("mu", _fmt(scenario.source.mu)),
        ("mean1", _fmt(m.mean1)),
        ("mean2", _fmt(m.mean2)),
        ("var1", _fmt(m.var1)),
        ("var2", _fmt(m.var2)),
        ("cov", _fmt(m.cov)),
        ("m22", _fmt(m.m22)),
    ]
    try:
        fields.append(("epsilon", _fmt(analytic.epsilon(scenario))))
    except DegenerateStatisticError:
        fields.append(("epsilon", "nan"))
    # the source's own lossless epsilon; a split beam reaches only 1
    enhancement = analytic.enhancement(scenario.source.mu)
    twin = scenario.source.kind is SourceKind.TWIN_BEAM
    fields.append(("epsilon_ideal", _fmt(enhancement if twin else 1.0)))
    fields.append(("enhancement", _fmt(enhancement)))
    fields.append(("snr", _fmt(analytic.snr(scenario))))
    try:
        fields.append(("snr_dominant_background", _fmt(analytic.snr_dominant_background(scenario))))
    except DegenerateStatisticError:
        fields.append(("snr_dominant_background", "nan"))
    fields.append(("images_per_decision", str(ipd)))
    fields.append(("error_probability", _fmt(analytic.error_probability(scenario, ipd))))
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
    ipd = config["scenario"]["images_per_decision"]
    point = PointPipeline(scenario, seed, ipd)
    # every estimator runs before the first output is opened, so a run that
    # exits with an error leaves no partial output behind
    in_deltas, out_deltas = point.deltas("in"), point.deltas("out")

    lines = [f"seed = {seed.master_seed}", f"frames_per_hypothesis = {scenario.images}"]
    for keys, compute in (
        (("epsilon_hat", "epsilon_sigma"), lambda: point.estimate("epsilon")),
        (("covariance_in",), lambda: [point.value("covariance_in")]),
        (("covariance_out",), lambda: [point.value("covariance_out")]),
        (("snr_per_sqrt_pair",), lambda: [point.value("snr")]),
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


def cmd_sweep(config: dict, args: argparse.Namespace) -> int:
    return _write_sweeps(args.out, {"sweep": config})


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


def cmd_reproduce(base: dict, overrides: dict, seed: SeedSpec, args: argparse.Namespace) -> int:
    """One sweep per series of the preset, configured by `base`, then the
    series' keys, then the command-line `overrides`; series i runs on the
    seed derived from the master seed with tag i."""
    configs = {}
    for index, (stem, table) in enumerate(PRESETS[args.figure].items()):
        config = _apply(base, _PRESET_BASE, table, overrides)
        config["run"]["seed"] = seed.derive(index).master_seed
        configs[stem] = config
    return _write_sweeps(args.out, configs)


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
        config = _apply(base, overrides)
        build_scenario(config)
        if args.command == "analytic":
            return cmd_analytic(config, args)
        if config["run"]["seed"] is None:
            config["run"]["seed"] = secrets.randbits(64)
            print(f"seed = {config['run']['seed']}")
        if args.command == "simulate":
            return cmd_simulate(config, args)
        if args.command == "sweep":
            return cmd_sweep(config, args)
        return cmd_reproduce(base, overrides, SeedSpec(config["run"]["seed"]), args)
    except (ParameterError, InsufficientDataError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
