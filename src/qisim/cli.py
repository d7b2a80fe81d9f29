"""Command-line entry point: config parsing, subcommands, seeds, outputs.

Configuration is flat key-value text with one section per module
(INI syntax); every key can be overridden on the command line with
``--section.key value``.  All randomness flows from a single ``--seed``;
when absent a fresh seed is drawn and printed so the run stays
reproducible after the fact.
"""
from __future__ import annotations

import argparse
import configparser
import math
import os
import secrets
import sys

from . import analytic
from .estimator import (
    bootstrap_epsilon,
    covariance_hat,
    perr_hat,
    snr_hat,
    write_records_csv,
)
from .sampler import generate_image_set, write_frames_csv
from .scenario import (
    SweepParameter,
    SweepSpec,
    run_sweep,
    write_sidecar,
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
    STREAM_BOOTSTRAP,
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
        "kind": (str, "twin_beam", "source type: twin_beam or split_thermal"),
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
        "read_noise_sigma": (float, 0.0, "additive detector read noise sigma, electrons"),
    },
    "sweep": {
        "parameter": (str, "background_mean", "swept axis: background_mean, images_per_decision or mu"),
        "values": (str, "100,316,1000,3162,10000,31623,100000", "comma-separated increasing values"),
        "sources": (str, "twin_beam,split_thermal", "comma-separated source kinds to compare"),
        "outputs": (str, "epsilon", "comma-separated metrics: epsilon,snr,covariance,perr"),
        "emit_analytic": (_parse_bool, True, "also emit closed-form curve values"),
    },
    "run": {
        "seed": (int, None, "master seed; --seed takes precedence"),
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


def build_scenario(config: dict) -> Scenario:
    source = SourceSpec(
        kind=SourceKind.parse(config["source"]["kind"]),
        mu=config["source"]["mu"],
        modes=config["source"]["modes"],
        split_ratio=config["source"]["split_ratio"],
    )
    channel = ChannelSpec(
        eta1=config["channel"]["eta1"],
        eta2=config["channel"]["eta2"],
        reflectivity=config["channel"]["reflectivity"],
        target_present=config["channel"]["target_present"],
        mode_match=config["channel"]["mode_match"],
    )
    background = BackgroundSpec(
        modes_b=config["background"]["modes_b"],
        mean_total=config["background"]["mean_total"],
    )
    return Scenario(
        source=source,
        channel=channel,
        background=background,
        pixel_pairs=config["scenario"]["pixel_pairs"],
        images=config["scenario"]["images"],
    )


def build_sweep_spec(config: dict, seed: SeedSpec) -> SweepSpec:
    return SweepSpec(
        base=build_scenario(config),
        parameter=SweepParameter.parse(config["sweep"]["parameter"]),
        values=_parse_float_list(config["sweep"]["values"]),
        sources=tuple(SourceKind.parse(k) for k in _parse_str_list(config["sweep"]["sources"])),
        outputs=_parse_str_list(config["sweep"]["outputs"]),
        seed=seed,
        emit_analytic=config["sweep"]["emit_analytic"],
        images_per_decision=config["scenario"]["images_per_decision"],
        read_noise_sigma=config["sampler"]["read_noise_sigma"],
    )


def _config_help() -> str:
    lines = ["configuration keys (file sections or --section.key overrides):"]
    for section, keys in CONFIG_SCHEMA.items():
        for key, (_, default, text) in keys.items():
            lines.append(f"  {section}.{key:<22} {text} [default: {default}]")
    return "\n".join(lines)


_CONVENIENCE_FLAGS = {
    "mu": ("source", "mu"),
    "modes": ("source", "modes"),
    "eta1": ("channel", "eta1"),
    "eta2": ("channel", "eta2"),
    "reflectivity": ("channel", "reflectivity"),
    "mode_match": ("channel", "mode_match"),
    "background": ("background", "mean_total"),
    "modes_b": ("background", "modes_b"),
    "pixel_pairs": ("scenario", "pixel_pairs"),
    "frames": ("scenario", "images"),
    "images_per_decision": ("scenario", "images_per_decision"),
    "read_noise": ("sampler", "read_noise_sigma"),
}


# Values of the shared flags when given neither before nor after the
# subcommand.  The flags default to SUPPRESS, so a subcommand parser never
# writes a default over a value parsed before the subcommand.
_FLAG_DEFAULTS = {"config": None, "seed": None, "out": "qisim-out", "threads": 1, "target": None}
_FLAG_DEFAULTS.update({f"cfg_{flag}": None for flag in _CONVENIENCE_FLAGS})


def _add_common_flags(parser: argparse.ArgumentParser) -> None:
    """Shared flags, accepted both before and after the subcommand."""
    parser.add_argument(
        "--config", metavar="PATH", default=argparse.SUPPRESS, help="key-value config file"
    )
    parser.add_argument(
        "--seed",
        type=int,
        metavar="U64",
        default=argparse.SUPPRESS,
        help="master seed (default: drawn and printed)",
    )
    parser.add_argument(
        "--out", metavar="DIR", default=argparse.SUPPRESS, help="output directory"
    )
    parser.add_argument(
        "--threads",
        type=int,
        metavar="N",
        default=argparse.SUPPRESS,
        help="sweep worker threads",
    )
    for flag, (section, key) in _CONVENIENCE_FLAGS.items():
        parser.add_argument(
            f"--{flag.replace('_', '-')}",
            dest=f"cfg_{flag}",
            metavar="V",
            default=argparse.SUPPRESS,
            help=f"shortcut for --{section}.{key}",
        )
    parser.add_argument(
        "--target",
        choices=["present", "absent"],
        default=argparse.SUPPRESS,
        help="shortcut for --channel.target_present",
    )


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    _add_common_flags(common)
    parser = argparse.ArgumentParser(
        prog="qisim",
        description=(
            "Photon-counting target detection with correlated beams: "
            "closed forms, Monte Carlo simulation, and figure sweeps."
        ),
        epilog=_config_help(),
        formatter_class=argparse.RawDescriptionHelpFormatter,
        parents=[common],
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p_analytic = sub.add_parser(
        "analytic",
        parents=[common],
        help="closed-form moments and figures of merit, no sampling",
    )
    p_analytic.add_argument("--csv", metavar="PATH", help="also write a single-row CSV")
    sub.add_parser(
        "simulate",
        parents=[common],
        help="generate one image set, run all estimators, write records",
    )
    p_rep = sub.add_parser("reproduce", parents=[common], help="run a named figure sweep preset")
    p_rep.add_argument("figure", choices=["fig2", "fig3", "fig4", "fig5"])
    return parser


def _apply_cli_config(args: argparse.Namespace, leftovers: list) -> dict:
    config = load_config_file(args.config) if args.config else default_config()
    index = 0
    while index < len(leftovers):
        token = leftovers[index]
        if not token.startswith("--"):
            raise ParameterError(f"unrecognized argument: {token}")
        name, eq, inline = token[2:].partition("=")
        if eq:
            value = inline
        else:
            index += 1
            if index >= len(leftovers):
                raise ParameterError(f"missing value for {token}")
            value = leftovers[index]
        plain = name.replace("-", "_")
        if "." in name:
            section, _, key = name.partition(".")
            _set_key(config, section, key, value)
        elif plain in _CONVENIENCE_FLAGS:
            section, key = _CONVENIENCE_FLAGS[plain]
            _set_key(config, section, key, value)
        elif plain == "target":
            config["channel"]["target_present"] = _parse_target(value)
        else:
            raise ParameterError(f"unknown config key: {name}")
        index += 1
    for flag, (section, key) in _CONVENIENCE_FLAGS.items():
        raw = getattr(args, f"cfg_{flag}")
        if raw is not None:
            _set_key(config, section, key, raw)
    if args.target is not None:
        config["channel"]["target_present"] = _parse_target(args.target)
    return config


def _parse_target(value: str) -> bool:
    if value not in ("present", "absent"):
        raise ParameterError(f"target must be 'present' or 'absent' (got {value!r})")
    return value == "present"


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
    fields.append(("epsilon_ideal", _fmt(analytic.enhancement(scenario.source.mu))))
    fields.append(("enhancement", _fmt(analytic.enhancement(scenario.source.mu))))
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


def cmd_simulate(config: dict, args: argparse.Namespace, seed: SeedSpec) -> int:
    scenario = build_scenario(config)
    ipd = config["scenario"]["images_per_decision"]
    os.makedirs(args.out, exist_ok=True)
    in_counts, out_counts = generate_image_set(
        scenario, seed, config["sampler"]["read_noise_sigma"]
    )
    frames_path = os.path.join(args.out, "frames.csv")
    write_frames_csv(frames_path, in_counts, out_counts)
    in_deltas = covariance_hat(*in_counts)
    out_deltas = covariance_hat(*out_counts)
    records_path = os.path.join(args.out, "records.csv")
    write_records_csv(records_path, in_deltas, out_deltas)

    lines = [f"seed = {seed.master_seed}", f"frames_per_hypothesis = {scenario.images}"]
    try:
        eps, eps_sigma = bootstrap_epsilon(*in_counts, seed.rng(STREAM_BOOTSTRAP, 0))
        lines.append(f"epsilon_hat = {_fmt(eps)}")
        lines.append(f"epsilon_sigma = {_fmt(eps_sigma)}")
    except (DegenerateStatisticError, InsufficientDataError) as exc:
        lines.append(f"epsilon_hat = nan  # {type(exc).__name__}")
    lines.append(f"covariance_in = {_fmt(in_deltas.mean())}")
    lines.append(f"covariance_out = {_fmt(out_deltas.mean())}")
    try:
        k = scenario.pixel_pairs
        lines.append(f"snr_per_sqrt_pair = {_fmt(snr_hat(in_deltas, out_deltas) / math.sqrt(k))}")
    except (DegenerateStatisticError, InsufficientDataError) as exc:
        lines.append(f"snr_per_sqrt_pair = nan  # {type(exc).__name__}")
    try:
        est = perr_hat(in_deltas, out_deltas, ipd)
        lines.append(f"perr_hat = {_fmt(est.p_err)}")
        lines.append(f"perr_threshold = {_fmt(est.threshold)}")
        lines.append(f"perr_batches = {est.batches_in}")
    except (DegenerateStatisticError, InsufficientDataError) as exc:
        lines.append(f"perr_hat = nan  # {type(exc).__name__}")
    summary = "\n".join(lines) + "\n"
    with open(os.path.join(args.out, "summary.txt"), "w") as handle:
        handle.write(summary)
    print(summary, end="")
    print(f"wrote {frames_path}")
    print(f"wrote {records_path}")
    return 0


_DECADES = (100.0, 316.0, 1000.0, 3162.0, 10000.0, 31623.0, 100000.0)


def _figure_series(figure: str) -> list:
    """(file stem, sources, outputs, modes_b, default frames, values, ipd)."""
    twin = (SourceKind.TWIN_BEAM,)
    split = (SourceKind.SPLIT_THERMAL,)
    both = (SourceKind.TWIN_BEAM, SourceKind.SPLIT_THERMAL)
    eps_values = (0.0,) + _DECADES
    if figure == "fig2":
        return [
            ("fig2_mb57", both, ("epsilon",), 57, 2000, eps_values, 10),
            ("fig2_mb1300", both, ("epsilon",), 1300, 2000, eps_values, 10),
        ]
    if figure == "fig3":
        return [
            ("fig3_twin_mb1300", twin, ("snr",), 1300, 2000, _DECADES, 10),
            ("fig3_twin_mb57", twin, ("snr",), 57, 4000, _DECADES, 10),
            ("fig3_split_mb1300", split, ("snr",), 1300, 6000, _DECADES, 10),
        ]
    if figure == "fig4":
        return [
            ("fig4_twin_mb1300", twin, ("covariance",), 1300, 2000, _DECADES, 10),
            ("fig4_split_mb1300", split, ("covariance",), 1300, 6000, _DECADES, 10),
            ("fig4_twin_mb57", twin, ("covariance",), 57, 4000, _DECADES, 10),
        ]
    if figure == "fig5":
        series = []
        for ipd, tag in ((10, ""), (100, "_inset")):
            series.extend(
                [
                    (f"fig5{tag}_twin_mb57", twin, ("perr",), 57, 2000, _DECADES, ipd),
                    (f"fig5{tag}_twin_mb1300", twin, ("perr",), 1300, 2000, _DECADES, ipd),
                    (f"fig5{tag}_split_mb1300", split, ("perr",), 1300, 2000, _DECADES, ipd),
                ]
            )
        return series
    raise ParameterError(f"unknown figure: {figure}")


def cmd_reproduce(config: dict, args: argparse.Namespace, seed: SeedSpec) -> int:
    os.makedirs(args.out, exist_ok=True)
    # --frames overrides every series budget; presets otherwise carry
    # their own per-series acquisition counts
    frames_override = config["scenario"]["images"] if args.cfg_frames is not None else None
    for series_index, (stem, sources, outputs, modes_b, frames, values, ipd) in enumerate(
        _figure_series(args.figure)
    ):
        series_config = {sec: dict(keys) for sec, keys in config.items()}
        series_config["background"]["modes_b"] = modes_b
        series_config["scenario"]["images"] = (
            frames_override if frames_override is not None else frames
        )
        series_config["scenario"]["images_per_decision"] = ipd
        base = build_scenario(series_config)
        spec = SweepSpec(
            base=base,
            parameter=SweepParameter.BACKGROUND_MEAN,
            values=values,
            sources=sources,
            outputs=outputs,
            seed=seed.derive(series_index),
            emit_analytic=series_config["sweep"]["emit_analytic"],
            images_per_decision=ipd,
            read_noise_sigma=series_config["sampler"]["read_noise_sigma"],
        )
        result = run_sweep(spec, threads=args.threads)
        csv_path = os.path.join(args.out, f"{stem}.csv")
        write_sweep_csv(result, csv_path)
        write_sidecar(spec, csv_path + ".meta.txt")
        print(f"wrote {csv_path}")
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
        config = _apply_cli_config(args, leftovers)
        build_scenario(config)
        if args.command == "analytic":
            return cmd_analytic(config, args)
        master = args.seed if args.seed is not None else config["run"]["seed"]
        announced = master is not None
        if master is None:
            master = secrets.randbits(64)
        seed = SeedSpec(master)
        if not announced:
            print(f"seed = {master}")
        if args.command == "simulate":
            return cmd_simulate(config, args, seed)
        return cmd_reproduce(config, args, seed)
    except ParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
