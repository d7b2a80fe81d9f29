"""One form per value: what `config.render` writes, how `config.apply`
reads a raw value that is not text, and the plain floats specs hold; and
the names `apply` takes."""
from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

from qisim.config import CONFIG_SCHEMA, apply, default_config, render, sidecar_text
from qisim.scenario import run_figure
from qisim.types import (
    BackgroundSpec,
    ChannelSpec,
    ParameterError,
    Scenario,
    SeedSpec,
    SourceSpec,
)


def _applied(name: str, raw):
    """(value, type) of key `name` after `apply`, or the error it raises."""
    section, key = name.split(".")
    try:
        value = apply(default_config(), {name: raw})[section][key]
    except ParameterError as exc:
        return ParameterError, str(exc)
    return value, type(value)


@pytest.mark.parametrize(
    "name", [f"{section}.{key}" for section, keys in CONFIG_SCHEMA.items() for key in keys]
)
def test_a_default_and_its_text_apply_alike(name):
    # run.seed's default, None, is no seed: both forms are refused alike
    section, key = name.split(".")
    default = CONFIG_SCHEMA[section][key].default
    assert _applied(name, default) == _applied(name, render(default))


@pytest.mark.parametrize(
    "raw", [2.5, 300.0, np.float64(300.0), True], ids=["fractional", "integral", "np.float64", "bool"]
)
def test_integer_key_refuses_a_non_integer(raw):
    with pytest.raises(ParameterError, match=r"^scenario\.images: "):
        apply(default_config(), {"scenario.images": raw})


@pytest.mark.parametrize("raw", [300, np.int64(300), "300"], ids=["int", "np.int64", "text"])
def test_integer_key_takes_an_integer_or_its_text(raw):
    assert _applied("scenario.images", raw) == (300, int)


@pytest.mark.parametrize("raw", [False, np.bool_(False), "absent", "false"])
def test_boolean_key_takes_a_bool_or_its_text(raw):
    assert _applied("channel.target_present", raw) == (False, bool)


@pytest.mark.parametrize("value", ["absent", "false", 0, 1.0, None])
def test_channel_refuses_a_target_that_is_not_a_bool(value):
    with pytest.raises(ParameterError, match="^target_present must be a boolean"):
        ChannelSpec(target_present=value)


def test_channel_takes_a_numpy_bool():
    assert ChannelSpec(target_present=np.bool_(False)).arm2_efficiency == 0.0


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: SourceSpec(mu="0.1"), "mu must be a number (got '0.1')"),
        (lambda: SourceSpec(mu=True), "mu must be a number (got True)"),
        (lambda: Scenario(images=True), "images must be a number (got True)"),
        (lambda: BackgroundSpec(modes_b=True), "modes_b must be a number (got True)"),
        (lambda: SeedSpec(True), "master_seed must be an unsigned 64-bit integer (got True)"),
        (lambda: SeedSpec(-1), "master_seed must be an unsigned 64-bit integer (got -1)"),
        (lambda: SeedSpec(2**64), f"master_seed must be an unsigned 64-bit integer (got {2**64})"),
    ],
    ids=["text mu", "bool mu", "bool images", "bool modes_b", "bool seed", "seed -1", "seed 2**64"],
)
def test_a_number_key_or_seed_refuses_what_is_not_a_number_of_its_kind(build, message):
    with pytest.raises(ParameterError) as caught:
        build()
    assert str(caught.value) == message


_FLOAT_KEYS = [
    pytest.param(spec, f.name, f.metadata["key"], id=f"{spec.__name__}.{f.name}")
    for spec in (SourceSpec, ChannelSpec, BackgroundSpec, Scenario)
    for f in dataclasses.fields(spec)
    if "key" in f.metadata and type(f.metadata["key"].default) is float
]


@pytest.mark.parametrize("spec, name, declared", _FLOAT_KEYS)
def test_float_key_holds_a_plain_float(spec, name, declared):
    held = getattr(spec(**{name: np.float64(declared.default)}), name)
    assert type(held) is float and held == declared.default
    if declared.admits(0.0):
        zero = getattr(spec(**{name: -0.0}), name)
        assert type(zero) is float and math.copysign(1.0, zero) == 1.0


@pytest.mark.parametrize(
    "value, text",
    [
        (None, ""),
        ("twin_beam", "twin_beam"),
        (300, "300"),
        (np.int64(300), "300"),
        (np.float64(0.1), "0.1"),
        (-0.0, "-0.0"),
        (math.nan, "nan"),
        (math.inf, "inf"),
        (True, "true"),
        (False, "false"),
        ((100.0, 316.0), "100.0,316.0"),
        (("twin_beam", "split_thermal"), "twin_beam,split_thermal"),
    ],
    ids=repr,
)
def test_render(value, text):
    assert render(value) == text


def test_sidecar_of_an_unseeded_config_leaves_the_seed_empty():
    assert "\n[run]\nseed = \n" in sidecar_text(default_config())


@pytest.mark.parametrize(
    "call, name",
    [
        (lambda: run_figure("fig2", 1, {"mu": "0.1"}), "mu"),
        (lambda: apply(default_config(), {"source": "1"}), "source"),
        (lambda: apply(default_config(), {"source.": "1"}), "source."),
        (lambda: apply(default_config(), {"source.mu.x": "1"}), "source.mu.x"),
    ],
    ids=["run_figure dotless", "apply dotless", "apply empty key", "apply two dots"],
)
def test_an_override_that_names_no_key_is_an_unknown_key(call, name):
    with pytest.raises(ParameterError, match=rf"^unknown config key: {name}$"):
        call()
