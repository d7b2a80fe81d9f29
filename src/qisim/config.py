"""Configuration: flat key-value text with one section per module (INI
syntax), described by ``CONFIG_SCHEMA``.  A key that a `Scenario` holds
is declared by the spec field holding it (see `types.Key`), and the sweep
and run keys, which no spec holds, in `_schema`; ``CONFIG_SCHEMA``
collects them once, at import.  Sections and keys are case-sensitive.
A resolved configuration holds every key of the schema; `apply` layers
{"section.key": raw} overrides onto it, and is the one path from raw
values to a configuration: flags, config files, figure presets and
seeds all go through it.  `sidecar_text` renders a configuration as
`load_config_file` reads it back, and `build_scenario` is the one place
that turns it into a `Scenario`.  `render` is the one writer of values,
in sidecars, sweep CSVs and printed figures alike, and `write_text` the
one writer of text files: sidecars, sweep CSVs, the ``analytic --csv``
file and ``summary.txt``, each UTF-8 with ``\n`` line ends on every
platform.
"""
from __future__ import annotations

import configparser
import dataclasses
from typing import Callable

from .sampler import STREAM_FORMAT
from .types import Key, ParameterError, Scenario, parse_bool


def _list_of(item: Callable) -> Callable:
    """The parser of comma-separated text: `item` of each part not blank."""
    return lambda text: tuple(item(part) for part in text.split(",") if part.strip())


def _schema() -> dict:
    """section -> key -> `Key`, in the order sidecars render them: the
    keys `Scenario` holds, its specs' included, in field order, then the
    sweep and run keys, which no spec holds."""
    schema: dict = {}
    for outer in dataclasses.fields(Scenario):
        if "key" in outer.metadata:
            key = outer.metadata["key"]
            schema.setdefault(key.section, {})[outer.name] = key
        else:
            spec_fields = dataclasses.fields(outer.default_factory)
            schema[outer.name] = {f.name: f.metadata["key"] for f in spec_fields}
    schema["sweep"] = {
        "parameter": Key(
            "background_mean", "swept key: any numeric section.key outside run and sweep, "
            "e.g. channel.eta2, or the alias background_mean, mu or images_per_decision",
        ),
        "values": Key(
            (100.0, 316.0, 1000.0, 3162.0, 10000.0, 31623.0, 100000.0),
            "comma-separated increasing values", parse=_list_of(float),
        ),
        "sources": Key(
            ("twin_beam", "split_thermal"), "comma-separated source kinds to compare",
            parse=_list_of(str.strip),
        ),
        "outputs": Key(
            ("epsilon",), "comma-separated metrics: epsilon,snr,covariance,perr", parse=_list_of(str.strip)
        ),
        "emit_analytic": Key(True, "also emit closed-form curve values"),
    }
    schema["run"] = {
        "seed": Key(None, "master seed (default: drawn and printed)", shortcut="seed", parse=int)
    }
    return schema


CONFIG_SCHEMA = _schema()


def default_config() -> dict:
    return {
        section: {name: key.default for name, key in keys.items()}
        for section, keys in CONFIG_SCHEMA.items()
    }


def apply(config: dict, *layers) -> dict:
    """A copy of `config` with each layer, a {"section.key": raw} dict,
    applied in order, so a later layer wins.  A raw value is text, or any
    value, which is read as the text `render` writes for it: 300 and
    "300" are the same override, and 300.0 for an integer key is refused,
    as its text is on the command line.  A name that is not a key, such
    as "mu", raises `ParameterError`."""
    config = {section: dict(keys) for section, keys in config.items()}
    for layer in layers:
        for name, raw in layer.items():
            section, _, key = name.partition(".")
            declared = CONFIG_SCHEMA.get(section, {}).get(key)
            if declared is None:
                raise ParameterError(f"unknown config key: {name}")
            kind = type(declared.default)
            parser = declared.parse or (parse_bool if kind is bool else kind)
            try:
                config[section][key] = parser(raw if isinstance(raw, str) else render(raw))
            except (ValueError, ParameterError) as exc:
                raise ParameterError(f"{name}: {exc}") from exc
    return config


def load_config_file(path: str) -> dict:
    """The defaults with the keys of the config file `path` applied.  A file
    that is not UTF-8 INI text, repeats a key or a section, or has keys in
    a [DEFAULT] section raises `ParameterError`; one that cannot be opened
    raises `OSError`."""
    ini = configparser.ConfigParser(interpolation=None)
    ini.optionxform = str  # keys are case-sensitive, like sections
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
    return apply(default_config(), {
        f"{section}.{key}": raw for section in ini.sections() for key, raw in ini.items(section)
    })


def render(value) -> str:
    """A value in the text form its schema parser reads back, as sidecars,
    CSV cells and printed figures write it: None as an empty cell, a float
    (an `np.float64` too) as the repr of the plain float, a bool as true or
    false, a tuple as its items joined by commas, and anything else as
    `str` writes it."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(float(value))
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


def write_text(path: str, text: str) -> None:
    """Write `text` to `path` as UTF-8, with its ``\n`` line ends kept."""
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(text)


def build_scenario(config: dict) -> Scenario:
    """The scenario of a resolved configuration: each spec takes its
    section as keywords, and `Scenario` its own keys."""
    return Scenario(**{
        f.name: config[f.metadata["key"].section][f.name]
        if "key" in f.metadata else f.default_factory(**config[f.name])
        for f in dataclasses.fields(Scenario)
    })
