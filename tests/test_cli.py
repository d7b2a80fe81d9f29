"""Command-line interface: subcommands, overrides, validation, determinism."""
from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qisim
from qisim import analytic
from qisim.cli import main
from qisim.config import (
    CONFIG_SCHEMA,
    build_scenario,
    default_config,
    load_config_file,
    sidecar_text,
)
from qisim.estimator import perr_hat
from qisim.scenario import KNOWN_OUTPUTS, PointPipeline, run_figure
from qisim.types import BackgroundSpec, ChannelSpec, ParameterError, SeedSpec, SourceSpec


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def summary_value(text: str, key: str) -> str:
    for line in text.splitlines():
        if line.startswith(f"{key} = "):
            return line.split(" = ", 1)[1].split("#")[0].strip()
    raise KeyError(key)


def test_analytic_default_configuration(capsys):
    code, out, _ = run_cli(capsys, "analytic")
    assert code == 0
    assert summary_value(out, "mu") == "0.075"
    assert summary_value(out, "epsilon_ideal").startswith("14.333")
    assert summary_value(out, "enhancement").startswith("14.333")
    assert float(summary_value(out, "mean1")) == pytest.approx(4185.0)


def test_analytic_split_ratio_past_the_double_range(capsys):
    # the pre-split mean mu / t overflows at t = 5e-324, but arm 1 still
    # sees M mu eta1; arm 2's moments overflow, so no error rate prints
    code, out, _ = run_cli(
        capsys, "analytic", "--source.kind", "split_thermal", "--source.split_ratio", "5e-324"
    )
    assert code == 0
    assert summary_value(out, "mean1") == repr(90000 * (0.075 * 0.62))
    assert summary_value(out, "mean2") == "inf"
    assert summary_value(out, "error_probability") == "nan"
    code, out, _ = run_cli(
        capsys, "analytic", "--source.kind", "split_thermal", "--source.split_ratio", "5e-324",
        "--eta1", "0",
    )
    assert code == 0 and summary_value(out, "mean1") == "0.0"
    # a background past the double range's square root: the product
    # variances are inf, and two laws that wide are not told apart
    code, out, _ = run_cli(capsys, "analytic", "--background", "1e160")
    assert code == 0
    assert summary_value(out, "var2") == "inf" and summary_value(out, "m22") == "inf"
    assert summary_value(out, "error_probability") == "nan"


@pytest.mark.parametrize(
    "kind, epsilon_ideal", [("twin_beam", repr((1.0 + 0.075) / 0.075)), ("split_thermal", "1.0")]
)
def test_analytic_epsilon_ideal_is_the_source_kind_lossless_value(capsys, kind, epsilon_ideal):
    code, out, _ = run_cli(capsys, "analytic", "--source.kind", kind)
    assert code == 0
    assert summary_value(out, "epsilon_ideal") == epsilon_ideal
    assert summary_value(out, "enhancement") == repr((1.0 + 0.075) / 0.075)


def test_analytic_mu_shortcut(capsys):
    code, out, _ = run_cli(capsys, "analytic", "--mu", "1")
    assert code == 0
    assert summary_value(out, "enhancement") == "2.0"


def test_analytic_signed_zero_mode_match_prints_as_zero(capsys):
    code_neg, out_neg, _ = run_cli(capsys, "analytic", "--mode-match", "-0.0")
    code_pos, out_pos, _ = run_cli(capsys, "analytic", "--mode-match", "0")
    assert code_neg == 0 and code_pos == 0
    assert out_neg == out_pos


def test_analytic_csv_output(capsys, tmp_path):
    # the CSV holds the printed fields, in their printed order.  Without a
    # background the dominant-background SNR is nan; at mu = 0 the source
    # has no photons, and the figures that divide by them are nan too
    path = tmp_path / "row.csv"
    for flags, nan_fields in (
        ((), ["snr_dominant_background"]),
        (("--mu", "0"), ["epsilon", "epsilon_ideal", "enhancement", "snr_dominant_background"]),
    ):
        code, out, _ = run_cli(capsys, "analytic", *flags, "--csv", str(path))
        assert code == 0
        printed = dict(line.split(" = ", 1) for line in out.splitlines())
        header, row = path.read_text().splitlines()
        assert header.split(",") == list(printed)
        assert row.split(",") == list(printed.values())
        assert printed["kind"] == "twin_beam"
        assert [key for key, value in printed.items() if value == "nan"] == nan_fields


def test_out_of_range_flag_names_field(capsys):
    code, _, err = run_cli(capsys, "analytic", "--eta1", "1.5")
    assert code == 2
    assert "eta1" in err


@pytest.mark.parametrize(
    "argv, named",
    [
        (("analytic", "--eta1", "-inf"), "--eta1"),
        (("--seed",), "--seed"),
        (("reproduce",), "figure"),
        (("reproduce", "fig9"), "fig9"),
        (("simulate", "--target", "maybe"), "--target"),
        ((), "command"),
    ],
    ids=["eta1", "seed", "no-figure", "bad-figure", "bad-target", "no-command"],
)
def test_argparse_error_is_short(capsys, argv, named):
    # a usage block listing every config key would bury the message
    code, _, err = run_cli(capsys, *argv)
    assert code == 2
    assert len(err.splitlines()) <= 3
    assert named in err.splitlines()[-1]


def test_unknown_config_key_rejected(capsys):
    code, _, err = run_cli(capsys, "analytic", "--source.bogus", "3")
    assert code == 2
    assert "source.bogus" in err


def test_unknown_figure_rejected(capsys):
    code = main(["reproduce", "fig9"])
    capsys.readouterr()
    assert code != 0


def test_help_enumerates_every_config_key(capsys):
    code, out, _ = run_cli(capsys, "--help")
    assert code == 0
    for section, keys in CONFIG_SCHEMA.items():
        for key in keys:
            assert f"{section}.{key}" in out


def test_config_file_roundtrip(capsys, tmp_path):
    config_path = tmp_path / "run.ini"
    config_path.write_text("[source]\nmu = 0.2\n\n[channel]\neta1 = 0.5\n")
    code, out, _ = run_cli(capsys, "analytic", "--config", str(config_path))
    assert code == 0
    assert summary_value(out, "mu") == "0.2"


@st.composite
def resolved_configs(draw) -> dict:
    """A configuration as a sweep resolves it: every schema key set within
    its valid range, the seed included."""
    kinds = ("twin_beam", "split_thermal")
    unit = st.floats(0.0, 1.0)
    parameter = draw(st.sampled_from(("background_mean", "images_per_decision", "mu")))
    if parameter == "images_per_decision":
        values = st.lists(st.integers(1, 10**4).map(float), min_size=1, max_size=8, unique=True)
    else:
        values = st.lists(st.floats(0.0, 1e6), min_size=1, max_size=8, unique=True)
    drawn = {
        "source": {
            "kind": st.sampled_from(kinds),
            "mu": st.floats(0.0, 1e3),
            "modes": st.integers(1, 10**6),
            "split_ratio": st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
        },
        "channel": {
            "eta1": unit,
            "eta2": unit,
            "reflectivity": unit,
            "target_present": st.booleans(),
            "mode_match": unit,
        },
        "background": {"modes_b": st.integers(1, 10**6), "mean_total": st.floats(0.0, 1e6)},
        "scenario": {
            "pixel_pairs": st.integers(1, 10**4),
            "images": st.integers(1, 10**6),
            "images_per_decision": st.integers(1, 10**4),
        },
        "sampler": {"read_noise_sigma": st.floats(0.0, 1e6)},
        "sweep": {
            "parameter": st.just(parameter),
            "values": values.map(sorted).map(tuple),
            "sources": st.lists(st.sampled_from(kinds), min_size=1, unique=True).map(tuple),
            "outputs": st.lists(st.sampled_from(KNOWN_OUTPUTS), min_size=1, unique=True).map(tuple),
            "emit_analytic": st.booleans(),
        },
        "run": {"seed": st.integers(0, 2**64 - 1)},
    }
    return {s: {k: draw(strategy) for k, strategy in keys.items()} for s, keys in drawn.items()}


@settings(max_examples=100, deadline=None)
@given(config=resolved_configs())
def test_sidecar_roundtrip_over_config_space(tmp_path_factory, config):
    # sidecar_text reads every schema key, and load_config_file starts from
    # all of them, so equality below also means the draw covers the schema
    path = tmp_path_factory.mktemp("sidecar") / "sweep.csv.meta.txt"
    text = sidecar_text(config)
    path.write_text(text)
    loaded = load_config_file(str(path))
    assert loaded == config
    assert sidecar_text(loaded) == text
    scenario = build_scenario(loaded)
    assert scenario == build_scenario(config)
    assert scenario.read_noise_sigma == config["sampler"]["read_noise_sigma"]


ANALYTIC_FIELDS = (
    "kind", "mu", "mean1", "mean2", "var1", "var2", "cov", "m22", "epsilon", "epsilon_ideal",
    "enhancement", "snr", "snr_dominant_background", "images_per_decision", "error_probability",
)


@settings(max_examples=100, deadline=None)
@given(config=resolved_configs())
def test_analytic_prints_every_field_over_config_space(tmp_path_factory, config):
    path = tmp_path_factory.mktemp("analytic") / "run.ini"
    path.write_text(sidecar_text(config))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["analytic", "--config", str(path)])
    assert code == 0, err.getvalue()
    printed = dict(line.split(" = ", 1) for line in out.getvalue().splitlines())
    assert tuple(printed) == ANALYTIC_FIELDS
    # moments past the double range (a tiny split ratio, a huge background)
    # have no finite product variance, and then no error rate either;
    # error_probability pairs the configured hypothesis with the
    # target-absent one
    scenario = build_scenario(config)
    widths = [
        analytic.moments(s).delta_product_variance for s in (scenario, scenario.with_target(False))
    ]
    perr = float(printed["error_probability"])
    if not all(math.isfinite(v) for v in widths):
        assert math.isnan(perr)
    else:
        assert 0.0 <= perr <= 0.5


def test_config_file_unknown_key_rejected(tmp_path, capsys):
    config_path = tmp_path / "bad.ini"
    config_path.write_text("[source]\nwibble = 1\n")
    code, _, err = run_cli(capsys, "analytic", "--config", str(config_path))
    assert code == 2
    assert "wibble" in err


def test_simulate_deterministic_outputs(capsys, tmp_path):
    args = ["simulate", "--seed", "7", "--frames", "40", "--background", "100",
            "--pixel-pairs", "16"]
    code_a, _, _ = run_cli(capsys, *args, "--out", str(tmp_path / "a"))
    code_b, _, _ = run_cli(capsys, *args, "--out", str(tmp_path / "b"))
    assert code_a == 0 and code_b == 0
    for name in ("frames.csv", "records.csv", "summary.txt"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
    frames_header = (tmp_path / "a" / "frames.csv").read_text().splitlines()[0]
    assert frames_header == "frame,pixel,n1,n2,hypothesis"


# sha256 of each output of `simulate --frames 300 --background 5000 --seed 7`:
# the bytes the CLI writes, counts, deltas and summary together.  The
# summary was re-pinned when perr's threshold moved from the error-minimising
# scan to the crossing of the normal fits: only `perr_threshold` changed.
SIMULATE_SHA256 = {
    "frames.csv": "1711f7d47df4ff2c6bf8729acaad6ff24d0205ff81854d017e0d356d86ab0d2d",
    "records.csv": "909c4b42bedff21cf48bd3fe46207b70bb68acc793f456994b6411c43d59e555",
    "summary.txt": "71be466938e534d4ad4ee5c879cb20410ad1ed593c71d672277f6d8e92a0b23e",
}


def test_simulate_outputs_are_pinned(capsys, tmp_path):
    code, _, _ = run_cli(
        capsys, "simulate", "--frames", "300", "--background", "5000", "--seed", "7",
        "--out", str(tmp_path),
    )
    assert code == 0
    for name, expected in SIMULATE_SHA256.items():
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == expected, name


# sha256 of each CSV and sidecar of `reproduce fig2..fig5 --frames 300 --seed 3`:
# 28 files, the bytes every figure sweep writes in stream format 3, with
# delta-method uncertainties on every metric but perr.  fig5 was re-pinned
# when the closed-form normal CDF moved to libm erfc and the threshold
# crossing to the narrower law's units: 26 `analytic` perr values moved, by
# at most 7.6e-14 relative, and every other byte stayed.  The three fig5
# CSVs with 10 frames per decision were re-pinned when perr's bootstrap gave
# way to errors counted at the crossing of normal fits with a binomial sigma:
# only the estimate and uncertainty of their perr rows changed.
FIGURE_SHA256 = {
    "fig2": {
        "fig2_mb1300.csv": "8c4dc51afc67722020cf0d81fdb958697f9c50ccfbea64a1bcbc9a027720c7e0",
        "fig2_mb1300.csv.meta.txt": "4a5b4a35390895a6b87816d9d0888bf9c5c4c346b0a45a811e3b4b8102b5256e",
        "fig2_mb57.csv": "8864806c59e940056bafdaf6c932b1c5329e2a1784c36ff1cf1cea5635e72b57",
        "fig2_mb57.csv.meta.txt": "968e12b51d2bbe4d4381328f7d37dc22797c00e8e22c7b2e5d84eef2908afa12",
    },
    "fig3": {
        "fig3_split_mb1300.csv": "875b55d5fc62de514bb916ab8c030133de1b0b00e19d5de8fc2af9af36792d13",
        "fig3_split_mb1300.csv.meta.txt": "db39d8773f470cf080d1991bb388000acf0d8d7ec239b32092f5aa50cca4921c",
        "fig3_twin_mb1300.csv": "40b2789a18c8bac85beab1ac1f5bfb980ab9993471fdb7513a4e41ce45786a7f",
        "fig3_twin_mb1300.csv.meta.txt": "8a272615e5d78e824e410c53277b0eb9a940fc99829a590652b66efee9ce681d",
        "fig3_twin_mb57.csv": "4fda34057fd709d77e83ee06e9dad9daef72a703943e522f9c89d1924af5723c",
        "fig3_twin_mb57.csv.meta.txt": "5bd9514b01e8b28bd206af1f2ea9bf3aeea794cd78a3f56b22b7fc2ef0e6e34d",
    },
    "fig4": {
        "fig4_split_mb1300.csv": "0279cbd1a30ccb54b8b27b482aaa7669d1a93c80665d5269a3c3cdbc512a013f",
        "fig4_split_mb1300.csv.meta.txt": "85221bb420e45f3752f369c1de632140a72c9beb98d8a730218df3a7ec7912eb",
        "fig4_twin_mb1300.csv": "9dfdbe586458bf76da0d80d0f020f3ed18d5b77102ee5d3749a918780cf36302",
        "fig4_twin_mb1300.csv.meta.txt": "0d2b3ada6c2e479fabe6a443c0787a2b8f2a85c20ed62f88e87387e295de8de5",
        "fig4_twin_mb57.csv": "ae17af97cba248aa68063c6708eb847e60ded5030ada0432e24e241513c96405",
        "fig4_twin_mb57.csv.meta.txt": "aac167571d85f4a73906c2f6f72efa32b4fded1bff2f1a434d0b327e104b7ac7",
    },
    "fig5": {
        "fig5_inset_split_mb1300.csv": "ef28fd36ce33430e3661ac050b08d165f98266902225c0e85e92b7dd27f955f6",
        "fig5_inset_split_mb1300.csv.meta.txt": "e2ce594b5b1b88312a6c30e922101308668c82fed9d9b4120cbc86926ef3ff37",
        "fig5_inset_twin_mb1300.csv": "ed990f32f1fe8ab945935141b5ff19cef6731661d16c141da5a031f398a4637d",
        "fig5_inset_twin_mb1300.csv.meta.txt": "9642d0cee832a9ad2abc5c9b7570bf35f33944142076d31d01aaaef88a9b67ba",
        "fig5_inset_twin_mb57.csv": "72893791ea8a20dd18e69cd90dda246923f2ae2b363508162f7b97a48704a030",
        "fig5_inset_twin_mb57.csv.meta.txt": "a7ab79d65ae581ca1d6357fee24e875d54c98758ac4ce55636b290fcdfb62bbc",
        "fig5_split_mb1300.csv": "c884e3a7eccb014e7e9d0743bc06e73b8559c5c356222ffde184fa412ab2875f",
        "fig5_split_mb1300.csv.meta.txt": "946adfe9ea0378e760e0e7263bdee60d879fb3f981c568037bc0a0cfced01458",
        "fig5_twin_mb1300.csv": "02adc4abecec0a490b382d90dbcdd81dc93e246f6008db0220dacf1f9e883f68",
        "fig5_twin_mb1300.csv.meta.txt": "765f22a471b71221486dd5ea4e3581ffdabc7d9fd772e402dca1eb74b941ffc5",
        "fig5_twin_mb57.csv": "e5e37be1977384cd338e9d5c87c46deae6e0282d71f88b21737eba5823d310ca",
        "fig5_twin_mb57.csv.meta.txt": "7cdf9cd13b84119120cca46b796b21557b09d97a5f8509a0c72a92c9d9f7055c",
    },
}


@pytest.mark.parametrize("figure", sorted(FIGURE_SHA256))
def test_figure_sweeps_are_pinned(capsys, tmp_path, figure):
    code, _, _ = run_cli(
        capsys, "reproduce", figure, "--frames", "300", "--seed", "3", "--out", str(tmp_path)
    )
    assert code == 0
    written = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in tmp_path.iterdir()}
    assert written == FIGURE_SHA256[figure]
    # the library call returns the same bytes
    returned = {}
    for stem, (config, result) in run_figure(figure, 3, {"scenario.images": "300"}).items():
        for name, text in ((".csv", result.to_csv_text()), (".csv.meta.txt", sidecar_text(config))):
            returned[stem + name] = hashlib.sha256(text.encode()).hexdigest()
    assert returned == FIGURE_SHA256[figure]


# `simulate --seed 1 --frames 20 --pixel-pairs 2 --target absent --background 0`:
# every count is 0 on arm 2, so three estimates print as `nan  # <Error>`.
DEGENERATE_SUMMARY = """\
seed = 1
frames_per_hypothesis = 20
epsilon_hat = nan  # DegenerateStatisticError
covariance_in = 0.0
covariance_out = 0.0
snr_per_sqrt_pair = nan  # DegenerateStatisticError
perr_hat = nan  # InsufficientDataError
"""


def test_simulate_error_lines_are_pinned(capsys, tmp_path):
    code, out, _ = run_cli(
        capsys, "simulate", "--seed", "1", "--frames", "20", "--pixel-pairs", "2",
        "--target", "absent", "--background", "0", "--out", str(tmp_path),
    )
    assert code == 0
    summary = (tmp_path / "summary.txt").read_bytes()
    assert summary == DEGENERATE_SUMMARY.encode()
    assert hashlib.sha256(summary).hexdigest() == (
        "9b7d4d2543de0d0a8d89266ce5e9e053cf3e8d585c06706226c39ccfd2fbfd1f"
    )
    assert out.startswith(DEGENERATE_SUMMARY)


def test_simulate_one_frame_prints_every_estimate_as_insufficient_data(capsys, tmp_path):
    # README "Outputs": too few frames is reported before a degenerate statistic
    code, out, _ = run_cli(
        capsys, "simulate", "--frames", "1", "--seed", "1", "--out", str(tmp_path)
    )
    assert code == 0
    keys = ("epsilon_hat", "covariance_in", "covariance_out", "snr_per_sqrt_pair", "perr_hat")
    lines = out.splitlines()
    assert lines[2:7] == [f"{key} = nan  # InsufficientDataError" for key in keys]


def test_sweep_one_frame_flags_every_row_insufficient_data(capsys, tmp_path):
    code, _, _ = run_cli(
        capsys, "sweep", "--frames", "1", "--seed", "1",
        "--sweep.outputs", "epsilon,snr,covariance,perr", "--sweep.values", "100",
        "--out", str(tmp_path),
    )
    assert code == 0
    rows = (tmp_path / "sweep.csv").read_text().splitlines()[1:]
    assert len(rows) == 10
    assert all(row.endswith(",error:InsufficientDataError") for row in rows)


def test_simulate_summary_is_the_point_pipeline_on_the_master_seed(capsys, tmp_path):
    code, out, _ = run_cli(
        capsys, "simulate", "--seed", "11", "--frames", "200", "--pixel-pairs", "16",
        "--background", "300", "--images-per-decision", "4", "--out", str(tmp_path),
    )
    assert code == 0
    config = default_config()
    config["scenario"].update(images=200, pixel_pairs=16)
    config["background"]["mean_total"] = 300.0
    scenario = dataclasses.replace(build_scenario(config), images_per_decision=4)
    point = PointPipeline(scenario, SeedSpec(11))
    epsilon, sigma = point.estimate("epsilon")
    perr = perr_hat(point.deltas("in"), point.deltas("out"), 4)
    expected = {
        "epsilon_hat": repr(epsilon),
        "epsilon_sigma": repr(sigma),
        "covariance_in": repr(point.estimate("covariance_in")[0]),
        "covariance_out": repr(point.estimate("covariance_out")[0]),
        "snr_per_sqrt_pair": repr(point.estimate("snr")[0]),
        "perr_hat": repr(perr.p_err),
        "perr_threshold": repr(perr.threshold),
        "perr_batches": "50",
    }
    assert {key: summary_value(out, key) for key in expected} == expected
    assert (tmp_path / "summary.txt").read_text() == out.split("wrote ")[0]


@pytest.mark.parametrize(
    "section, spec", [("source", SourceSpec), ("channel", ChannelSpec), ("background", BackgroundSpec)]
)
def test_spec_sections_hold_exactly_their_fields(section, spec):
    # build_scenario passes each of these sections to its spec as keywords
    assert list(CONFIG_SCHEMA[section]) == [field.name for field in dataclasses.fields(spec)]


def test_flags_before_subcommand_are_kept(capsys, tmp_path):
    flags = ["--seed", "5", "--frames", "30", "--pixel-pairs", "8"]
    code_a, _, _ = run_cli(capsys, *flags, "simulate", "--out", str(tmp_path / "a"))
    code_b, _, _ = run_cli(capsys, "simulate", *flags, "--out", str(tmp_path / "b"))
    assert code_a == 0 and code_b == 0
    for name in ("frames.csv", "records.csv", "summary.txt"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_simulate_counts_that_would_wrap_exit_2(capsys, tmp_path, monkeypatch):
    huge = np.full((4, 8), 2**31, dtype=np.int64)
    monkeypatch.setattr("qisim.scenario.sample_counts", lambda *args: (huge, huge))
    code, _, err = run_cli(capsys, "simulate", "--seed", "1", "--out", str(tmp_path / "run"))
    assert code == 2
    assert "overflow" in err
    assert not (tmp_path / "run" / "frames.csv").exists()


def test_simulate_single_pixel_pair_exit_2(capsys, tmp_path):
    code, _, err = run_cli(
        capsys, "simulate", "--seed", "1", "--frames", "20", "--pixel-pairs", "1",
        "--out", str(tmp_path / "run"),
    )
    assert code == 2
    assert err.startswith("error: ")
    assert not (tmp_path / "run" / "frames.csv").exists()


def test_simulate_background_past_the_sampling_limit_exit_2(capsys, tmp_path):
    # all three blocks of each hypothesis raise in their background draw
    code, _, err = run_cli(
        capsys, "simulate", "--seed", "1", "--frames", "600", "--background", "1e30",
        "--out", str(tmp_path / "run"),
    )
    assert code == 2
    assert err == "error: expected photon number 1e+30 exceeds sampling limit\n"
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("sigma", ["-1", "nan", "inf", "1e20"])
def test_invalid_read_noise_exit_2(capsys, tmp_path, sigma):
    analytic_csv = tmp_path / "analytic.csv"
    for command, extra, output in (
        ("analytic", ["--csv", str(analytic_csv)], analytic_csv),
        ("simulate", [], tmp_path / "simulate" / "frames.csv"),
        ("sweep", [], tmp_path / "sweep" / "sweep.csv"),
    ):
        out = tmp_path / command
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, _, err = run_cli(
                capsys, command, *extra, "--seed", "1", "--frames", "20", "--read-noise", sigma,
                "--out", str(out),
            )
        assert code == 2, command
        assert "read_noise_sigma must be finite and >= 0" in err
        assert "RuntimeWarning" not in err
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)], command
        assert not output.exists()
        assert not output.with_name(f"{output.name}.meta.txt").exists()


@pytest.mark.parametrize("ipd", ["0", "-3"])
def test_simulate_images_per_decision_below_one_exit_2(capsys, tmp_path, ipd):
    code, _, err = run_cli(
        capsys, "simulate", "--seed", "1", "--frames", "20", "--images-per-decision", ipd,
        "--out", str(tmp_path / "run"),
    )
    assert code == 2
    assert "images_per_decision must be >= 1" in err
    assert not [path for path in tmp_path.rglob("*") if path.is_file()]


@pytest.mark.parametrize("ipd", [0, -3, 2.5])
def test_scenario_rejects_images_per_decision_below_one(ipd):
    scenario = build_scenario(default_config())
    with pytest.raises(ParameterError, match="images_per_decision must be >= 1"):
        dataclasses.replace(scenario, images_per_decision=ipd)


def test_build_scenario_carries_images_per_decision():
    config = default_config()
    assert build_scenario(config).images_per_decision == 10
    config["scenario"]["images_per_decision"] = 7
    assert build_scenario(config).images_per_decision == 7


def test_sweep_images_per_decision_below_one_exit_2(capsys, tmp_path):
    code, _, err = run_cli(
        capsys, "sweep", "--seed", "1", "--frames", "20", "--sweep.parameter", "images_per_decision",
        "--sweep.values", "0,5", "--out", str(tmp_path / "run"),
    )
    assert code == 2
    assert "images_per_decision values must be integers >= 1" in err
    assert not [path for path in tmp_path.rglob("*") if path.is_file()]
    assert not (tmp_path / "run").exists()


_NOT_SWEEPABLE = "sweep.parameter must be a numeric section.key outside run and sweep"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["sweep", "--sweep.values=-5,10"], "mean_total must be >= 0"),
        (["sweep", "--sweep.parameter", "mu", "--sweep.values", "0.1,1e400"], "mu must be finite"),
        (["reproduce", "fig2", "--sweep.values=5,1e400"], "mean_total must be finite"),
        (["sweep", "--sweep.parameter", "channel.target_present"], _NOT_SWEEPABLE),
        (["sweep", "--sweep.parameter", "source.kind"], _NOT_SWEEPABLE),
        (["sweep", "--sweep.parameter", "run.seed"], _NOT_SWEEPABLE),
        (["sweep", "--sweep.parameter", "sweep.values"], _NOT_SWEEPABLE),
        (["sweep", "--sweep.parameter", "wibble"], _NOT_SWEEPABLE),
        # an empty list is refused before its first entry is read
        (["sweep", "--sweep.sources", ""], "sources must be non-empty"),
        (["reproduce", "fig2", "--sweep.sources", ""], "sources must be non-empty"),
        (["sweep", "--sweep.outputs", "", "--frames", "20"], "outputs must be non-empty"),
    ],
)
def test_bad_sweep_exits_2_before_out_exists(capsys, tmp_path, argv, message):
    # every point of every sweep is built before the output directory is made
    code, _, err = run_cli(capsys, *argv, "--seed", "3", "--out", str(tmp_path / "run"))
    assert code == 2
    assert message in err
    assert not (tmp_path / "run").exists()


def test_loss_sweep_replays_from_its_sidecar(capsys, tmp_path):
    code, _, _ = run_cli(
        capsys, "sweep", "--seed", "3", "--frames", "40", "--background", "1000",
        "--sweep.parameter", "channel.eta2", "--sweep.values", "0.1,0.3,0.62,1",
        "--out", str(tmp_path / "loss"),
    )
    assert code == 0
    csv_bytes = (tmp_path / "loss" / "sweep.csv").read_bytes()
    rows = [line.split(",") for line in csv_bytes.decode().splitlines()[1:]]
    assert [row[1] for row in rows] == ["channel.eta2"] * 8
    assert [row[2] for row in rows] == ["0.1", "0.3", "0.62", "1.0"] * 2
    # a lossier probe arm lowers the twin beam's closed-form epsilon
    twin = [float(row[6]) for row in rows[:4]]
    assert twin == sorted(set(twin))
    sidecar = tmp_path / "loss" / "sweep.csv.meta.txt"
    replay = tmp_path / "replay"
    code, _, _ = run_cli(capsys, "sweep", "--config", str(sidecar), "--out", str(replay))
    assert code == 0
    assert (replay / "sweep.csv").read_bytes() == csv_bytes
    assert (replay / "sweep.csv.meta.txt").read_bytes() == sidecar.read_bytes()


def test_reproduce_images_per_decision_below_one_exit_2(capsys, tmp_path):
    code, _, err = run_cli(
        capsys, "reproduce", "fig2", "--seed", "1", "--frames", "20",
        "--images-per-decision", "0", "--out", str(tmp_path / "run"),
    )
    assert code == 2
    assert "images_per_decision must be >= 1" in err
    assert not (tmp_path / "run").exists()


def test_underscore_shortcut_spelling_rejected(capsys):
    code, _, err = run_cli(capsys, "analytic", "--pixel_pairs", "8")
    assert code == 2
    assert "unknown config key: pixel_pairs" in err


@pytest.mark.parametrize(
    "first, last",
    [
        (("--mu", "0.1"), ("--source.mu", "0.2")),
        (("--seed", "11"), ("--run.seed", "12")),
        (("--target", "absent"), ("--channel.target_present", "true")),
    ],
    ids=["mu", "seed", "target"],
)
@pytest.mark.parametrize("reverse", [False, True])
@pytest.mark.parametrize("split", [0, 1, 2], ids=["before", "across", "after"])
def test_last_flag_wins(capsys, tmp_path, first, last, reverse, split):
    # `split` of the two flags go before the subcommand, the rest after it
    if reverse:
        first, last = last, first

    def summary(*flags):
        code, out, _ = run_cli(
            capsys, "--seed", "5", *flags[: 2 * split], "simulate", *flags[2 * split :],
            "--frames", "20", "--pixel-pairs", "4", "--out", str(tmp_path),
        )
        assert code == 0
        return out

    both = summary(*first, *last)
    assert both == summary(*last, *last)
    assert both != summary(*first, *first)


@pytest.mark.parametrize("flag, value", [("--source.mo", "3"), ("--backg", "100")])
def test_abbreviated_flag_rejected(capsys, flag, value):
    # each is the prefix of exactly one option, which argparse would accept
    code, _, err = run_cli(capsys, "analytic", flag, value)
    assert code == 2
    assert f"unknown config key: {flag[2:]}" in err


def test_help_shows_each_shortcut_beside_its_key(capsys):
    code, out, _ = run_cli(capsys, "--help")
    assert code == 0
    for key, flag in (
        ("source.mu", "mu"),
        ("source.modes", "modes"),
        ("channel.eta1", "eta1"),
        ("channel.eta2", "eta2"),
        ("channel.reflectivity", "reflectivity"),
        ("channel.mode_match", "mode-match"),
        ("background.mean_total", "background"),
        ("background.modes_b", "modes-b"),
        ("scenario.pixel_pairs", "pixel-pairs"),
        ("scenario.images", "frames"),
        ("scenario.images_per_decision", "images-per-decision"),
        ("sampler.read_noise_sigma", "read-noise"),
        ("run.seed", "seed"),
    ):
        assert f"--{key} V, --{flag} V" in out


def test_simulate_absent_target_zero_background(capsys, tmp_path):
    code, out, _ = run_cli(
        capsys,
        "simulate", "--seed", "3", "--frames", "30", "--target", "absent",
        "--background", "0", "--pixel-pairs", "16", "--out", str(tmp_path / "run"),
    )
    assert code == 0
    assert float(summary_value(out, "covariance_in")) == 0.0
    assert float(summary_value(out, "covariance_out")) == 0.0


def test_simulate_epsilon_matches_ideal(capsys, tmp_path):
    code, out, _ = run_cli(
        capsys,
        "simulate", "--seed", "12", "--frames", "600",
        "--out", str(tmp_path / "run"),
    )
    assert code == 0
    eps = float(summary_value(out, "epsilon_hat"))
    sigma = float(summary_value(out, "epsilon_sigma"))
    assert abs(eps - 14.333333333333334) <= 3.0 * sigma


def test_reproduce_fig3_budget_knob(capsys, tmp_path):
    code, out, _ = run_cli(
        capsys,
        "reproduce", "fig3", "--seed", "5", "--frames", "40",
        "--out", str(tmp_path / "figs"),
    )
    assert code == 0
    for stem in ("fig3_twin_mb1300", "fig3_twin_mb57", "fig3_split_mb1300"):
        csv_path = tmp_path / "figs" / f"{stem}.csv"
        assert csv_path.exists()
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "source,param,value,metric,estimate,uncertainty,analytic,flag"
        assert all(line.split(",")[6] for line in lines[1:])  # analytic column filled
        # the sidecar is itself a loadable configuration
        sidecar = csv_path.with_suffix(".csv.meta.txt")
        assert load_config_file(str(sidecar))["background"]["mean_total"] == 0.0


def test_reproduce_fig5_error_probability_preset(capsys, tmp_path):
    code, _, _ = run_cli(
        capsys,
        "reproduce", "fig5", "--seed", "17", "--frames", "300",
        "--out", str(tmp_path / "figs"),
    )
    assert code == 0
    lines = (tmp_path / "figs" / "fig5_twin_mb1300.csv").read_text().splitlines()
    rows = [line.split(",") for line in lines[1:]]
    assert all(r[3] == "perr" and r[4] != "" for r in rows)
    # background degrades the analytic error rate monotonically
    analytic_col = [float(r[6]) for r in rows]
    assert all(b >= a - 1e-12 for a, b in zip(analytic_col, analytic_col[1:]))
    # the inset series (100 frames per decision) exists; 300 frames only
    # give 3 batches there, so its Monte Carlo rows are flagged, not fatal
    inset = (tmp_path / "figs" / "fig5_inset_twin_mb1300.csv").read_text().splitlines()
    assert all("error:InsufficientDataError" in line for line in inset[1:])


def test_reproduce_fig4_covariance_flat_but_noisier(capsys, tmp_path):
    code, _, _ = run_cli(
        capsys,
        "reproduce", "fig4", "--seed", "31", "--frames", "400",
        "--out", str(tmp_path / "figs"),
    )
    assert code == 0
    lines = (tmp_path / "figs" / "fig4_twin_mb1300.csv").read_text().splitlines()
    rows = [line.split(",") for line in lines[1:]]
    in_rows = [r for r in rows if r[3] == "covariance_in"]
    values = [float(r[2]) for r in in_rows]
    estimates = [float(r[4]) for r in in_rows]
    sigmas = [float(r[5]) for r in in_rows]
    analytic_cov = float(in_rows[0][6])
    assert values == sorted(values)
    # mean covariance stays on the analytic level across the sweep while
    # its uncertainty grows with the background
    for est, sig in zip(estimates, sigmas):
        assert abs(est - analytic_cov) <= 4.0 * sig
    assert sigmas[-1] > 3.0 * sigmas[0]


@pytest.mark.parametrize("figure", ["fig2", "fig3", "fig4", "fig5"])
def test_every_sidecar_replays_its_csv(capsys, tmp_path, figure):
    figs = tmp_path / "figs"
    code, _, _ = run_cli(capsys, "reproduce", figure, "--seed", "3", "--frames", "40", "--out", str(figs))
    assert code == 0
    sidecars = sorted(figs.glob("*.csv.meta.txt"))
    assert sidecars
    for sidecar in sidecars:
        # the sidecar names the source the sweep ran first, not an unused default
        config = load_config_file(str(sidecar))
        assert config["source"]["kind"] == config["sweep"]["sources"][0]
        replay = tmp_path / sidecar.name
        code, _, _ = run_cli(capsys, "sweep", "--config", str(sidecar), "--out", str(replay))
        assert code == 0
        assert (replay / "sweep.csv.meta.txt").read_bytes() == sidecar.read_bytes()
        csv_path = figs / sidecar.name.replace(".meta.txt", "")
        assert (replay / "sweep.csv").read_bytes() == csv_path.read_bytes()


def test_reproduce_config_key_equals_shortcut(capsys, tmp_path):
    for name, flag in (("key", "--scenario.images"), ("shortcut", "--frames")):
        code, _, _ = run_cli(
            capsys, "reproduce", "fig2", "--seed", "5", flag, "30", "--out", str(tmp_path / name)
        )
        assert code == 0
    names = sorted(path.name for path in (tmp_path / "key").iterdir())
    assert names == sorted(path.name for path in (tmp_path / "shortcut").iterdir())
    for name in names:
        assert (tmp_path / "key" / name).read_bytes() == (tmp_path / "shortcut" / name).read_bytes()


def test_reproduce_flags_override_preset(capsys, tmp_path):
    code, _, _ = run_cli(
        capsys, "reproduce", "fig2", "--seed", "5", "--frames", "30", "--modes-b", "100",
        "--images-per-decision", "5", "--out", str(tmp_path),
    )
    assert code == 0
    for stem in ("fig2_mb57", "fig2_mb1300"):
        config = load_config_file(str(tmp_path / f"{stem}.csv.meta.txt"))
        assert config["background"]["modes_b"] == 100
        assert config["scenario"]["images_per_decision"] == 5
        assert config["scenario"]["images"] == 30


def run_python(code):
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(qisim.__file__)))
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)


# what a sweep loads beside the closed forms
_SWEEP_MODULES = ("qisim.scenario", "qisim.config", "qisim.sampler", "qisim.estimator")


@pytest.mark.parametrize(
    "module, absent",
    [
        # the closed forms carry their own normal CDF: the CLI loads no scipy at all
        pytest.param("qisim.cli", ("scipy",), id="qisim.cli"),
        # the oracle builds its laws from math.lgamma; neither it nor the
        # closed forms load the sweep machinery, whose import would count in
        # the start-up time of every caller that only evaluates them
        pytest.param("qisim.oracle", ("scipy",) + _SWEEP_MODULES, id="qisim.oracle"),
        pytest.param("qisim.analytic", ("scipy",) + _SWEEP_MODULES, id="qisim.analytic"),
    ],
)
def test_import_leaves_unused_modules_out(module, absent):
    # scipy.stats alone costs about a second of every CLI start, scipy.special 0.3 s
    code = (
        f"import sys, {module}; print(sorted(m for m in sys.modules "
        f"if any(m == a or m.startswith(a + '.') for a in {absent!r})))"
    )
    result = run_python(code)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


def test_cli_import_and_analytic_start_no_thread():
    # the sampler's block pool is made by the first draw of two or more blocks
    code = (
        "import sys, threading, qisim.cli\n"
        "state = lambda: ('concurrent.futures' in sys.modules, threading.active_count())\n"
        "imported = state()\n"
        "qisim.cli.main(['analytic'])\n"
        "print(imported, state())\n"
    )
    result = run_python(code)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip().splitlines()[-1] == "(False, 1) (False, 1)"


def test_cli_runs_with_scipy_blocked(tmp_path):
    # an import of scipy hidden inside a function would fail here
    code = (
        "import sys; sys.modules['scipy'] = None\n"
        "from qisim.cli import main\n"
        f"out = {str(tmp_path)!r}\n"
        "codes = [main(['analytic']),\n"
        "         main(['simulate', '--frames', '20', '--out', out + '/simulate']),\n"
        "         main(['reproduce', 'fig5', '--frames', '40', '--out', out + '/fig5'])]\n"
        "print(codes)\n"
    )
    result = run_python(code)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip().splitlines()[-1] == "[0, 0, 0]", result.stdout + result.stderr


def test_oracle_runs_with_scipy_blocked():
    # a criterion-1 instance and a mid-size one with mode mismatch and background
    code = (
        "import sys; sys.modules['scipy'] = None\n"
        "from qisim import analytic, oracle\n"
        "from qisim.types import BackgroundSpec, ChannelSpec, Scenario, SourceKind, SourceSpec\n"
        "cases = [(SourceKind.TWIN_BEAM, 2, 0.25, 0.7, 0.3, 1.0, 1.0, 2, 2.0),\n"
        "         (SourceKind.SPLIT_THERMAL, 20, 0.25, 0.62, 0.62, 0.5, 0.8, 5, 2.0)]\n"
        "worst = 0.0\n"
        "for kind, modes, mu, e1, e2, r, mm, modes_b, mean_b in cases:\n"
        "    scn = Scenario(SourceSpec(kind=kind, mu=mu, modes=modes),\n"
        "                   ChannelSpec(eta1=e1, eta2=e2, reflectivity=r, mode_match=mm),\n"
        "                   BackgroundSpec(modes_b=modes_b, mean_total=mean_b), 2, 1)\n"
        "    exact = oracle.enumerate_moments(scn.source, scn.channel, scn.background)\n"
        "    closed = analytic.moments(scn)\n"
        "    for f in ('mean1', 'mean2', 'var1', 'var2', 'cov', 'm22'):\n"
        "        a, b = getattr(closed, f), getattr(exact, f)\n"
        "        worst = max(worst, abs(a - b) / max(abs(a), abs(b)))\n"
        "print(worst)\n"
    )
    result = run_python(code)
    assert result.returncode == 0, result.stderr
    assert float(result.stdout.strip().splitlines()[-1]) < 1e-9
