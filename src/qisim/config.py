"""Configuration: flat key-value text with one section per module (INI
syntax), described by ``CONFIG_SCHEMA``.  A resolved configuration holds
every key of the schema; `apply` layers {"section.key": raw} overrides
onto it, `sidecar_text` renders it as `load_config_file` reads it back,
and `build_scenario` is the one place that turns it into a `Scenario`.
"""
from __future__ import annotations

import configparser

from .sampler import STREAM_FORMAT
from .types import BackgroundSpec, ChannelSpec, ParameterError, Scenario, SourceKind, SourceSpec


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
        "parameter": (
            str, "background_mean", "swept key: any numeric section.key outside run and sweep, "
            "e.g. channel.eta2, or the alias background_mean, mu or images_per_decision",
        ),
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


def _set_key(config: dict, section: str, key: str, raw) -> None:
    if section not in CONFIG_SCHEMA or key not in CONFIG_SCHEMA[section]:
        raise ParameterError(f"unknown config key: {section}.{key}")
    parser = CONFIG_SCHEMA[section][key][0]
    try:
        config[section][key] = parser(raw)
    except (ValueError, ParameterError) as exc:
        raise ParameterError(f"{section}.{key}: {exc}") from exc


def apply(config: dict, *layers) -> dict:
    """A copy of `config` with each layer, a {"section.key": raw} dict,
    applied in order, so a later layer wins.  A raw value is text, or a
    number that the key's parser takes as it is."""
    config = {section: dict(keys) for section, keys in config.items()}
    for layer in layers:
        for name, raw in layer.items():
            _set_key(config, *name.split(".", 1), raw)
    return config


def load_config_file(path: str) -> dict:
    """The defaults with the keys of the config file `path` applied.  A file
    that is not UTF-8 INI text, repeats a key or a section, or has keys in
    a [DEFAULT] section raises `ParameterError`; one that cannot be opened
    raises `OSError`."""
    config = default_config()
    ini = configparser.ConfigParser(interpolation=None)
    try:
        with open(path, encoding="utf-8") as handle:
            ini.read_file(handle)
    except (configparser.Error, UnicodeDecodeError) as exc:
        # configparser's messages span lines; an error is one line
        raise ParameterError(f"config file {path}: {' '.join(str(exc).split())}") from exc
    if ini.defaults():
        # configparser would copy its keys into every other section
        raise ParameterError(f"unknown config section: {ini.default_section}")
    for section in ini.sections():
        if section not in CONFIG_SCHEMA:
            raise ParameterError(f"unknown config section: {section}")
        for key, raw in ini.items(section):
            _set_key(config, section, key, raw)
    return config


def render(value) -> str:
    """A config value in the text form its schema parser reads back."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, tuple):
        return ",".join(render(item) for item in value)
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
        lines.extend(f"{key} = {render(config[section][key])}" for key in keys)
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
        images_per_decision=config["scenario"]["images_per_decision"],
    )
