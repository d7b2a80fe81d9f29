"""Sweep harness: determinism, consistency with direct estimator calls,
error flagging, and output formats."""
from __future__ import annotations

import dataclasses
import gc
import itertools

import numpy as np
import pytest

from qisim.estimator import epsilon_hat, frame_stats
from qisim.sampler import hypothesis_stream, sample_counts
from qisim.config import apply, default_config, load_config_file, sidecar_text
from qisim import analytic
from qisim import scenario as scenario_module
from qisim.scenario import (
    METRICS,
    PointPipeline,
    SweepRow,
    SweepSpec,
    run_figure,
    run_sweep,
    sweep_spec,
    write_sweep_csv,
)
from qisim.types import (
    ParameterError,
    SeedSpec,
    SourceKind,
    STREAM_IN,
    STREAM_OUT,
)

# Small mode count so the normally ordered variances are resolvable with a
# few thousand samples.
DESK = {
    "source.mu": "0.3", "source.modes": "60", "channel.eta1": "0.9", "channel.eta2": "0.9",
    "channel.reflectivity": "1.0", "scenario.images": "60", "scenario.pixel_pairs": "32",
}
# The grid each test sweeps unless it sets these keys itself.
GRID = {
    "sweep.parameter": "background_mean", "sweep.values": "0,200,2000",
    "sweep.sources": "twin_beam,split_thermal", "sweep.outputs": "epsilon", "run.seed": "42",
}
ALL_OUTPUTS = "epsilon,snr,covariance,perr"


def desk_spec(*layers) -> SweepSpec:
    """The sweep of the default configuration with DESK, GRID and then
    each {"section.key": raw} layer set."""
    return sweep_spec(apply(default_config(), DESK, GRID, *layers))


def test_sweep_spec_validation():
    with pytest.raises(ParameterError):
        desk_spec({"sweep.values": "3,1"})
    with pytest.raises(ParameterError):
        desk_spec({"sweep.values": ""})
    with pytest.raises(ParameterError):
        desk_spec({"sweep.outputs": "epsilon,wibble"})
    with pytest.raises(ParameterError):
        desk_spec({"sweep.sources": ""})


def test_images_per_decision_values_must_be_integers():
    ipd = {"sweep.parameter": "images_per_decision"}
    with pytest.raises(ParameterError):
        desk_spec(ipd, {"sweep.values": "1,2.5"})
    for values in ("0,5", "-3,5"):
        with pytest.raises(ParameterError, match="integers >= 1"):
            desk_spec(ipd, {"sweep.values": values})
    desk_spec(ipd, {"sweep.values": "1,3"})
    modes = {"sweep.parameter": "source.modes"}
    with pytest.raises(ParameterError, match="source.modes values must be integers >= 1"):
        desk_spec(modes, {"sweep.values": "30,60.5"})
    spec = desk_spec(modes, {"sweep.values": "30,60"})
    assert [point.scenario.source.modes for point in spec.points] == [30, 60, 30, 60]


def test_counts_that_would_wrap_flag_the_row(monkeypatch):
    def huge_counts(scn, seed, memo=None):
        return np.full((scn.images, scn.pixel_pairs), 2**31, dtype=np.int64), np.ones(
            (scn.images, scn.pixel_pairs), dtype=np.int64
        )

    monkeypatch.setattr("qisim.scenario.sample_counts", huge_counts)
    # 60 frames at 2 per decision make 30 batches, so the perr row too
    # reaches the wrap check rather than the batch check
    spec = desk_spec(
        {"sweep.values": "100", "sweep.outputs": ALL_OUTPUTS, "scenario.images_per_decision": "2"}
    )
    rows = run_sweep(spec).rows
    assert rows and all(r.flag == "error:ParameterError" and r.estimate is None for r in rows)


def counting_sample_counts(monkeypatch) -> list:
    """Record the hypothesis (target present or not) of every draw the
    sweep makes; the draws themselves are unchanged."""
    calls = []

    def counted(scn, seed, memo=None):
        calls.append(scn.channel.target_present)
        return sample_counts(scn, seed)

    monkeypatch.setattr("qisim.scenario.sample_counts", counted)
    return calls


def test_perr_point_with_too_few_batches_draws_nothing(monkeypatch):
    # 60 frames at 10 per decision make 6 batches, fewer than perr needs
    spec = desk_spec({"sweep.values": "100", "sweep.sources": "twin_beam", "sweep.outputs": "perr"})
    calls = counting_sample_counts(monkeypatch)
    (row,) = run_sweep(spec).rows
    assert calls == []
    scn = spec.points[0].scenario
    assert scn.background.mean_total == 100.0
    assert row == SweepRow(
        source="twin_beam",
        param="background_mean",
        value=100.0,
        metric="perr",
        estimate=None,
        uncertainty=None,
        analytic=analytic.error_probability(scn, 10),
        flag="error:InsufficientDataError",
    )


@pytest.mark.parametrize(
    "outputs, draws",
    [
        (("epsilon",), [True]),
        (("covariance", "snr", "perr"), [False, True]),
        (("epsilon", "covariance", "snr", "perr"), [False, True]),
    ],
)
def test_point_draws_each_hypothesis_once(monkeypatch, outputs, draws):
    spec = desk_spec({
        "sweep.values": "100", "sweep.sources": "twin_beam", "sweep.outputs": ",".join(outputs),
        "scenario.images_per_decision": "2",
    })
    expected = run_sweep(spec)
    calls = counting_sample_counts(monkeypatch)
    result = run_sweep(spec)
    assert sorted(calls) == draws
    assert result == expected
    assert not any(row.flag for row in result.rows)


def test_single_value_sweep_equals_direct_call():
    spec = desk_spec({"sweep.values": "500", "sweep.sources": "twin_beam"})
    row = run_sweep(spec).rows[0]

    scn = spec.points[0].scenario
    assert (scn.source.kind, scn.background.mean_total) == (SourceKind.TWIN_BEAM, 500.0)
    point_seed = SeedSpec(42).derive(0, 0)
    in_seed = point_seed.derive(1)
    n1, n2 = sample_counts(scn.with_target(True), in_seed)
    eps, sigma = epsilon_hat(frame_stats(n1, n2))
    assert row.estimate == eps
    assert row.uncertainty == sigma


def test_sweep_rows_are_the_point_pipeline_estimates():
    spec = desk_spec({
        "sweep.values": "100", "sweep.sources": "twin_beam", "sweep.outputs": ALL_OUTPUTS,
        "scenario.images_per_decision": "2",
    })
    rows = run_sweep(spec).rows
    scn = spec.points[0].scenario
    point = PointPipeline(scn, SeedSpec(42).derive(0, 0))
    assert [r.metric for r in rows] == ["epsilon", "snr", "covariance_in", "covariance_out", "perr"]
    for row in rows:
        estimate, uncertainty = point.estimate(row.metric)
        assert (repr(row.estimate), repr(row.uncertainty)) == (repr(estimate), repr(uncertainty))
        assert row.analytic == METRICS[row.metric].closed_form(scn)


@pytest.mark.parametrize(
    "grid", [{}, {"sweep.parameter": "channel.eta2", "sweep.values": "0.3,0.6,0.9"}]
)
def test_every_point_of_a_series_draws_on_the_series_seed(grid):
    # derive(si) == derive(si, 0), so only points past the first tell the
    # series seed from a seed per point.  A background sweep reuses the
    # series' source draws; a loss sweep must not.
    spec = desk_spec(
        {"sweep.outputs": ALL_OUTPUTS, "scenario.images_per_decision": "2"}, grid
    )
    rows = run_sweep(spec).rows
    assert rows and not any(row.flag for row in rows)
    per_point = len(rows) // len(spec.points)
    for index, point in enumerate(spec.points):
        si, vi = divmod(index, 3)
        assert point.seed == SeedSpec(42).derive(si)
        pipeline = PointPipeline(point.scenario, SeedSpec(42).derive(si))
        for row in rows[index * per_point : (index + 1) * per_point]:
            estimate, uncertainty = pipeline.estimate(row.metric)
            assert row.value == point.value
            assert (repr(row.estimate), repr(row.uncertainty)) == (
                repr(estimate), repr(uncertainty)
            )
        if vi >= 1:
            own = PointPipeline(point.scenario, SeedSpec(42).derive(si, vi))
            assert own.estimate("epsilon") != pipeline.estimate("epsilon")


def _distinct_preset_series(monkeypatch, extra: dict):
    """Each distinct series of the fig2..fig5 presets at 300 frames, so the
    last 256-frame block is partial, as (series seed, scenarios).  fig3..fig5
    sweep the same three series, which differ there only in frames per
    decision and seed, so each runs once: no draw reads the frames per
    decision.  The configs are `run_figure`'s, taken without running a
    sweep."""
    monkeypatch.setattr(scenario_module, "run_sweep", lambda spec: None)
    overrides = {"scenario.images": "300", **extra}
    seen = {}
    for figure in scenario_module.PRESETS:
        for config, _ in run_figure(figure, 3, overrides).values():
            for seed, points in itertools.groupby(sweep_spec(config).points, lambda p: p.seed):
                scenarios = tuple(point.scenario for point in points)
                drawn = tuple(dataclasses.replace(scn, images_per_decision=1) for scn in scenarios)
                seen.setdefault(drawn, (seed, scenarios))
    return list(seen.values())


@pytest.mark.parametrize(
    "extra", [{}, {"channel.mode_match": "0.7", "sampler.read_noise_sigma": "1.5"}]
)
def test_memoized_counts_are_the_direct_draws_on_every_preset(monkeypatch, extra):
    series = _distinct_preset_series(monkeypatch, extra)
    assert len(series) == 7
    # one memo per hypothesis label across every series, as a sweep keeps
    memos: dict = {"in": {}, "out": {}}
    for seed, scenarios in series:
        for scn in scenarios:
            for label, memo in memos.items():
                stream = hypothesis_stream(scn, seed, label)
                memoized, direct = sample_counts(*stream, memo), sample_counts(*stream)
                assert [n.tobytes() for n in memoized] == [n.tobytes() for n in direct]


def test_memo_holds_one_point_per_hypothesis_on_a_mu_sweep(monkeypatch):
    # after every draw, the memo it was given and the frame blocks of
    # source draws that memo holds: 600 frames are 3 blocks, and each
    # point's draws miss
    held = []

    def watched(scn, seed, memo):
        counts = sample_counts(scn, seed, memo)
        assert memo[seed][0] == (scn.source, scn.channel, scn.pixel_pairs, scn.images)
        held.append((id(memo), [len(blocks) for _, blocks in memo.values()]))
        return counts

    monkeypatch.setattr("qisim.scenario.sample_counts", watched)
    rows = run_sweep(desk_spec({
        "sweep.parameter": "mu", "sweep.values": "0.1,0.3,0.9", "sweep.outputs": "snr",
        "scenario.images": "600",
    })).rows
    assert len(rows) == 6 and not any(row.flag for row in rows)
    # one memo per hypothesis for the whole sweep, each holding one point
    assert len(held) == 12 and len({memo for memo, _ in held}) == 2
    assert [blocks for _, blocks in held] == [[3]] * 12


def test_background_series_draws_its_source_pairs_once(monkeypatch):
    streams = []
    frame_rng = SeedSpec.frame_rng

    def counted(self, target_present, block):
        streams.append((self, target_present, block))
        return frame_rng(self, target_present, block)

    monkeypatch.setattr(SeedSpec, "frame_rng", counted)
    spec = desk_spec({"sweep.outputs": "snr", "scenario.images": "600"})
    run_sweep(spec)
    # 2 series x 2 hypotheses x 3 blocks, not 3 points x 12
    assert len(streams) == len(set(streams)) == 12


def test_target_absent_sweep_memo_holds_one_draw_per_slot(monkeypatch):
    streams, memos, held = [], [], []
    frame_rng, point_rows = SeedSpec.frame_rng, scenario_module._point_rows

    def counted(self, target_present, block):
        streams.append((self, target_present, block))
        return frame_rng(self, target_present, block)

    def watched_rows(spec, point, memo):
        memos.append(memo)
        rows = point_rows(spec, point, memo)
        held.append({slot: len(entries) for slot, entries in memo.items()})
        return rows

    monkeypatch.setattr(SeedSpec, "frame_rng", counted)
    monkeypatch.setattr(scenario_module, "_point_rows", watched_rows)
    spec = desk_spec({
        "sweep.values": "200,2000,20000", "sweep.outputs": "snr,perr",
        "channel.target_present": "false", "scenario.images": "600",
        "scenario.images_per_decision": "2",
    })
    rows = run_sweep(spec).rows
    assert len(rows) == 12 and not any(row.flag for row in rows)
    # 2 series x 2 hypotheses x 3 blocks, each stream built once
    assert len(streams) == len(set(streams)) == 12
    assert {target for _, target, _ in streams} == {False}
    # one memo for the sweep, holding one source draw per hypothesis label
    # after every point
    assert len(memos) == 6 and len({id(memo) for memo in memos}) == 1
    assert held == [{"in": 1, "out": 1}] * 6


def test_frame_count_sweep_rows_are_the_memoless_estimates():
    # every point has its own frame counts, so each draws its own frames
    # and replaces the draw the memo holds
    spec = desk_spec({
        "sweep.parameter": "scenario.images", "sweep.values": "40,60,80",
        "sweep.outputs": ALL_OUTPUTS, "scenario.images_per_decision": "2",
        "background.mean_total": "200",
    })
    rows = run_sweep(spec).rows
    assert len(rows) == 30 and not any(row.flag for row in rows)
    for index, point in enumerate(spec.points):
        pipeline = PointPipeline(point.scenario, point.seed)
        for row in rows[index * 5 : (index + 1) * 5]:
            estimate, uncertainty = pipeline.estimate(row.metric)
            assert row.value == point.scenario.images and uncertainty > 0.0
            assert (repr(row.estimate), repr(row.uncertainty)) == (
                repr(estimate), repr(uncertainty)
            )


@pytest.mark.parametrize("master_seed", [0, 42, 2**63 + 5, 2**64 - 1])
def test_series_streams_are_distinct_and_trailing_zero_tags_ignored(master_seed):
    root = SeedSpec(master_seed)
    # the entropy is at most 2 + 2 words: a trailing zero tag is padding
    assert root.derive(3) == root.derive(3, 0)
    assert list(root.child_sequence(3).pool) == list(root.child_sequence(3, 0).pool)
    if master_seed >= 2**32:
        # 2 + 3 words: past the pad, the zero counts
        assert root.derive(3, 1) != root.derive(3, 1, 0)
    for si in range(4):
        series = root.derive(si)
        sequences = [series.child_sequence(STREAM_IN), series.child_sequence(STREAM_OUT)]
        for hypothesis in (series.derive(STREAM_IN), series.derive(STREAM_OUT)):
            sequences += [
                hypothesis.child_sequence(domain, block)
                for domain in (STREAM_IN, STREAM_OUT)
                for block in range(24)  # 6,000 frames
            ]
        states = {tuple(sequence.pool) for sequence in sequences}
        assert len(states) == len(sequences) == 2 + 2 * 2 * 24


@pytest.mark.parametrize("target_present", [True, False])
def test_sweep_leaves_no_reference_cycles(target_present):
    # the point pipeline holds every count array of a point; a cycle through
    # it would keep them alive until the cyclic collector runs.  With the
    # target absent and no background, epsilon and snr are flagged, so the
    # error path is covered too.
    spec = desk_spec({
        "channel.target_present": str(target_present), "sweep.values": "0,100",
        "sweep.outputs": ALL_OUTPUTS, "scenario.images_per_decision": "2",
    })
    gc.collect()
    gc.disable()
    try:
        rows = run_sweep(spec).rows
        unreachable = gc.collect()
    finally:
        gc.enable()
    assert unreachable == 0
    assert any(r.flag for r in rows) != target_present


def test_rerun_is_byte_identical():
    spec = desk_spec({"sweep.outputs": "epsilon,covariance"})
    assert run_sweep(spec).to_csv_text() == run_sweep(spec).to_csv_text()


def test_analytic_columns_do_not_depend_on_seed():
    rows_a = run_sweep(desk_spec({"run.seed": "1"})).rows
    rows_b = run_sweep(desk_spec({"run.seed": "2"})).rows
    assert [r.analytic for r in rows_a] == [r.analytic for r in rows_b]
    assert any(
        ra.estimate != rb.estimate
        for ra, rb in zip(rows_a, rows_b)
        if ra.estimate is not None and rb.estimate is not None
    )


def test_degenerate_point_is_flagged_not_fatal():
    spec = desk_spec({
        "scenario.images": "30", "scenario.pixel_pairs": "16", "channel.target_present": "false",
        "sweep.values": "0,100", "sweep.sources": "twin_beam",
        "sweep.outputs": "epsilon,covariance",
    })
    result = run_sweep(spec)
    flagged = [r for r in result.rows if r.metric == "epsilon" and r.value == 0.0]
    assert flagged and flagged[0].flag != "" and flagged[0].estimate is None
    covariance_rows = [r for r in result.rows if r.metric == "covariance_in"]
    assert covariance_rows and all(r.estimate is not None for r in covariance_rows)


def test_csv_schema_and_content(tmp_path):
    spec = desk_spec({"sweep.values": "100", "sweep.outputs": ALL_OUTPUTS})
    result = run_sweep(spec)
    path = tmp_path / "sweep.csv"
    write_sweep_csv(result, str(path))
    lines = path.read_text().splitlines()
    assert lines[0] == "source,param,value,metric,estimate,uncertainty,analytic,flag"
    metrics = {line.split(",")[3] for line in lines[1:]}
    assert metrics == {"epsilon", "snr", "covariance_in", "covariance_out", "perr"}
    for line in lines[1:]:
        fields = line.split(",")
        assert fields[0] in ("twin_beam", "split_thermal")
        float(fields[2])


def test_sidecar_records_resolved_config(tmp_path):
    config = default_config()
    config["source"]["mu"] = 0.3
    config["run"]["seed"] = 42
    text = sidecar_text(config)
    assert "seed = 42" in text
    assert "parameter = background_mean" in text
    assert "mu = 0.3" in text
    assert "values = 100.0,316.0,1000.0,3162.0,10000.0,31623.0,100000.0" in text
    assert "target_present = true" in text
    assert "\n# stream format 3: one stream per 256 frames, one seed per sweep series\n" in text
    path = tmp_path / "sweep.csv.meta.txt"
    path.write_text(text)
    assert load_config_file(str(path)) == config


def test_read_noise_flags_every_analytic_row():
    def rows(*layers):
        grid = {"sweep.values": "100", "sweep.outputs": ALL_OUTPUTS}
        return run_sweep(desk_spec(grid, *layers)).rows

    ipd2 = {"scenario.images_per_decision": "2"}
    noise = {"sampler.read_noise_sigma": "2"}
    quiet = rows(ipd2)
    assert quiet and all(r.flag == "" for r in quiet)
    noisy = rows(ipd2, noise)
    assert [r.metric for r in noisy] == [r.metric for r in quiet]
    assert all(r.analytic is not None for r in noisy)
    assert all(r.flag == "analytic_ignores_read_noise" for r in noisy)
    # 60 frames give too few batches of 10: the flags join
    assert rows(noise)[-1].flag == "error:InsufficientDataError;analytic_ignores_read_noise"
    assert all(r.flag == "" for r in rows(ipd2, noise, {"sweep.emit_analytic": "false"}))


def test_images_per_decision_sweep(monkeypatch):
    streams, built = [], []
    frame_rng, rng = SeedSpec.frame_rng, SeedSpec.rng

    def counted_frames(self, target_present, block):
        streams.append((self, target_present, block))
        return frame_rng(self, target_present, block)

    def counted(self, *tags):
        built.append((self, tags))
        return rng(self, *tags)

    monkeypatch.setattr(SeedSpec, "frame_rng", counted_frames)
    monkeypatch.setattr(SeedSpec, "rng", counted)
    spec = desk_spec({
        "scenario.images": "300", "scenario.pixel_pairs": "16", "background.mean_total": "300",
        "sweep.parameter": "images_per_decision", "sweep.values": "1,5",
        "sweep.sources": "twin_beam", "sweep.outputs": "perr",
    })
    assert [point.scenario.images_per_decision for point in spec.points] == [1, 5]
    rows = run_sweep(spec).rows
    assert all(r.estimate is not None for r in rows)
    # averaging more frames per decision cannot hurt the analytic error rate
    assert rows[1].analytic <= rows[0].analytic + 1e-12
    # the memo does not read the frames per decision: 2 hypotheses x 2
    # blocks of source draws, and perr builds no stream of its own
    assert len(streams) == len(set(streams)) == len(built) == 4


def test_mu_sweep_tracks_ideal_epsilon():
    spec = desk_spec({
        "sweep.parameter": "mu", "sweep.values": "0.1,0.3,0.9", "sweep.sources": "twin_beam",
        "scenario.images": "200", "scenario.pixel_pairs": "64",
    })
    rows = run_sweep(spec).rows
    for row in rows:
        ideal = (1.0 + row.value) / row.value
        assert row.analytic == pytest.approx(ideal, rel=1e-12)
        assert abs(row.estimate - ideal) <= 4.0 * row.uncertainty


def test_background_sweep_reproduces_nonclassicality_transition():
    # twin beams start at the ideal value and cross below 1 with enough
    # background; split thermal starts at the classical bound
    keys = {"scenario.images": "1000", "sweep.values": "0,60000", "run.seed": "9"}
    spec = sweep_spec(apply(default_config(), GRID, keys))
    rows = run_sweep(spec).rows
    by_key = {(r.source, r.value): r for r in rows}
    qi0 = by_key[("twin_beam", 0.0)]
    assert abs(qi0.estimate - 14.333333333333334) <= 3.0 * qi0.uncertainty
    assert by_key[("twin_beam", 60000.0)].estimate < 1.0
    ci0 = by_key[("split_thermal", 0.0)]
    assert abs(ci0.estimate - 1.0) <= 3.0 * ci0.uncertainty
    assert by_key[("split_thermal", 60000.0)].estimate < ci0.estimate


def test_run_figure_rejects_an_unknown_figure():
    with pytest.raises(ParameterError, match="unknown figure 'fig9'"):
        run_figure("fig9", 1)


def test_run_figure_builds_every_series_before_the_first_draw(monkeypatch):
    calls = []
    monkeypatch.setattr(scenario_module, "sweep_spec", lambda config: calls.append("build"))
    monkeypatch.setattr(scenario_module, "run_sweep", lambda spec: calls.append("run"))
    run_figure("fig5", 1)
    assert calls == ["build"] * 6 + ["run"] * 6
