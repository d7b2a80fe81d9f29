"""Covariance receiver estimators: hand-checked values, invariances, and
agreement with the closed forms on simulated data."""
from __future__ import annotations

import csv
import math

import numpy as np
import pytest

from conftest import make_scenario, per_iteration_bootstrap
from qisim import analytic
from qisim.estimator import (
    epsilon_hat,
    frame_covariance,
    frame_stats,
    perr_hat,
    snr_hat,
    write_records_csv,
)
from qisim.sampler import hypothesis_stream, sample_counts
from qisim.scenario import PointPipeline
from qisim.types import (
    DegenerateStatisticError,
    InsufficientDataError,
    ParameterError,
    SeedSpec,
    SourceKind,
)


def frame_of(n1, n2) -> np.ndarray:
    """The statistics table of one frame of counts n1, n2."""
    return frame_stats(np.asarray([n1]), np.asarray([n2]))


# ---------------------------------------------------------------------------
# frame_covariance
# ---------------------------------------------------------------------------
def test_covariance_hand_example():
    # E[N1 N2] = 7, E[N1] = 2, E[N2] = 3 -> 1
    assert frame_covariance(frame_of([1, 3], [2, 4]))[0] == 1.0


def test_covariance_constant_arm_is_zero():
    assert frame_covariance(frame_of([1, 5, 2, 9], [4, 4, 4, 4]))[0] == 0.0


def test_covariance_rejects_single_pixel():
    with pytest.raises(InsufficientDataError):
        frame_covariance(frame_of([1], [2]))


def test_covariance_permutation_invariant():
    rng = np.random.default_rng(5)
    n1 = rng.integers(0, 50, 40)
    n2 = rng.integers(0, 50, 40)
    perm = rng.permutation(40)
    assert frame_covariance(frame_of(n1, n2)) == frame_covariance(frame_of(n1[perm], n2[perm]))


def test_covariance_shift_invariant():
    rng = np.random.default_rng(6)
    n1 = rng.integers(0, 50, 40)
    n2 = rng.integers(0, 50, 40)
    base = frame_covariance(frame_of(n1, n2))
    assert frame_covariance(frame_of(n1 + 13, n2)) == base
    assert frame_covariance(frame_of(n1, n2 + 7)) == base


def test_covariance_statistics_match_moments():
    # mean of per-frame estimates within 3 SE of cov; their spread within
    # 10% of sqrt(var(dN1 dN2)/K)
    scn = make_scenario(background_mean=3000.0, images=2000)
    in_counts = sample_counts(*hypothesis_stream(scn, SeedSpec(404), "in"))
    deltas = frame_covariance(frame_stats(*in_counts))
    m = analytic.moments(scn)
    se = deltas.std(ddof=1) / np.sqrt(deltas.size)
    assert abs(deltas.mean() - m.cov) <= 3.0 * se
    predicted_sd = np.sqrt(m.delta_product_variance / scn.pixel_pairs)
    assert abs(deltas.std(ddof=1) - predicted_sd) / predicted_sd < 0.10


# ---------------------------------------------------------------------------
# epsilon_hat
# ---------------------------------------------------------------------------
def epsilon_of_counts(n1, n2) -> tuple[float, float]:
    """(epsilon, delta-method sigma) of the counts."""
    return epsilon_hat(frame_stats(n1, n2))


def test_epsilon_hat_twin_beam_reaches_ideal():
    scn = make_scenario(images=2000)
    in_counts = sample_counts(*hypothesis_stream(scn, SeedSpec(2001), "in"))
    eps, sigma = epsilon_of_counts(*in_counts)
    assert abs(eps - 14.333333333333334) <= 3.0 * sigma


def test_epsilon_hat_split_thermal_is_classical():
    scn = make_scenario(kind=SourceKind.SPLIT_THERMAL, images=2000)
    in_counts = sample_counts(*hypothesis_stream(scn, SeedSpec(2002), "in"))
    eps, sigma = epsilon_of_counts(*in_counts)
    assert abs(eps - 1.0) <= 3.0 * sigma


def test_epsilon_hat_crosses_classical_bound_with_background():
    scn = make_scenario(background_mean=60000.0, images=400)
    eps, _ = PointPipeline(scn, SeedSpec(2003)).estimate("epsilon")
    assert eps < 1.0


def test_epsilon_hat_degenerate_raises():
    n1 = n2 = np.zeros((4, 3), dtype=np.int64)
    with pytest.raises(DegenerateStatisticError):
        epsilon_of_counts(n1, n2)
    with pytest.raises(InsufficientDataError):
        epsilon_of_counts(n1[:1], n2[:1])


def test_epsilon_sigma_where_every_resample_is_degenerate():
    # two frames, each degenerate alone (a normally ordered variance of 0)
    # but not pooled: epsilon 3.  A bootstrap whose resamples all repeat one
    # frame has no resample to take a spread from; the delta method gives
    # the estimate its sigma
    n1 = n2 = np.array([[0, 0], [0, 2]])
    stats = frame_stats(n1, n2)
    for f in (0, 1):
        with pytest.raises(DegenerateStatisticError):
            epsilon_hat(stats[:, [f, f]])
    eps, sigma = epsilon_of_counts(n1, n2)
    assert eps == 3.0 and 0.0 < sigma < np.inf


# ---------------------------------------------------------------------------
# snr_hat, one sample per hypothesis
# ---------------------------------------------------------------------------
def test_snr_hat_identical_distributions_is_small():
    rng = np.random.default_rng(9)
    a = rng.normal(0.0, 1.0, 4000)
    b = rng.normal(0.0, 1.0, 4000)
    assert abs(snr_hat(a, b, 1)[0]) < 5.0 * np.sqrt(2.0 / 4000.0)


def test_snr_hat_swapped_hypotheses_negate_the_estimate():
    rng = np.random.default_rng(4)
    a = rng.normal(0.3, 1.0, 500)
    b = rng.normal(0.0, 2.0, 700)
    forward, backward = snr_hat(a, b, 80), snr_hat(b, a, 80)
    assert forward[0] > 0.0
    assert backward[0] == -forward[0]
    assert backward[1] == forward[1]


def test_snr_hat_equal_means_keep_their_sigma():
    # the folded estimate gave each influence the sign of m_in - m_out, 0 here
    estimate, sigma = snr_hat(np.array([1.0, 2.0, 3.0]), np.array([3.0, 2.0, 1.0]), 1)
    assert estimate == 0.0
    assert sigma == pytest.approx(1.0 / np.sqrt(3.0))


def test_snr_hat_constant_records_degenerate():
    with pytest.raises(DegenerateStatisticError):
        snr_hat(np.array([3.0, 3.0, 3.0]), np.array([1.0, 1.0, 1.0]), 1)


def test_snr_hat_needs_two_records():
    with pytest.raises(InsufficientDataError):
        snr_hat(np.array([1.0]), np.array([0.0, 0.1]), 1)


def test_snr_hat_accepts_records():
    recs_in = np.array([5.0, 6.0, 7.0])
    recs_out = np.array([0.0, 1.0, -1.0])
    assert snr_hat(recs_in, recs_out, 1)[0] == pytest.approx(6.0 / np.sqrt(2.0))


# ---------------------------------------------------------------------------
# perr_hat
# ---------------------------------------------------------------------------
def test_perr_perfectly_separated_batches():
    in_records = [10.0 + i * 0.01 for i in range(40)]
    out_records = [0.0 + i * 0.01 for i in range(40)]
    est = perr_hat(in_records, out_records, 2)
    assert est.p_err == 0.0 and est.sigma == 0.0
    assert est.batches_in == 20 and est.batches_out == 20


def test_perr_identical_distributions_is_half():
    values = [float(v) for v in range(30)]
    est = perr_hat(values, list(values), 1)
    # equal fits put the threshold at their mean, 14.5: half of each side errs
    assert est.p_err == 0.5 and est.threshold == 14.5
    assert est.sigma == 0.5 * math.sqrt(0.5 * 0.5 / 30 + 0.5 * 0.5 / 30)


def test_perr_zero_spread_batches_are_not_errors():
    # a width-0 fit puts tau just below its "in" mean, or at its "out"
    # mean, so the separated hypotheses do not err, whichever has zero spread
    for in_values, out_values in (([1.0] * 12, [0.0, 0.5] * 6), ([0.0, 0.5] * 6, [-1.0] * 12)):
        est = perr_hat(in_values, out_values, 1)
        assert est.p_err == 0.0 and est.sigma == 0.0


def test_perr_requires_ten_batches():
    with pytest.raises(InsufficientDataError):
        perr_hat(list(range(18)), list(range(18)), 2)


@pytest.mark.parametrize("images_per_decision", [0, -3])
def test_perr_rejects_images_per_decision_below_one(images_per_decision):
    with pytest.raises(ParameterError, match="images_per_decision must be >= 1"):
        perr_hat(list(range(40)), list(range(40)), images_per_decision)


def test_snr_hat_tracks_analytic_curve():
    # per-frame SNR over sqrt(K) against the closed form, pointwise
    for vi, nb in enumerate((1000.0, 5000.0, 30000.0)):
        scn = make_scenario(background_mean=nb, images=2000)
        seed = SeedSpec(606).derive(vi)
        f_hat = PointPipeline(scn, seed).estimate("snr")[0]
        f_ref = analytic.snr(scn)
        assert abs(f_hat - f_ref) / f_ref < 0.15


def test_snr_ratio_stable_under_doubled_background():
    # the quantum-over-classical SNR ratio sits near (1+mu)/mu and moves
    # by less than 10% when the dominant background doubles
    def scen(kind, nb):
        return make_scenario(
            kind=kind, mu=0.075, modes=20, eta1=1.0, eta2=1.0, reflectivity=1.0,
            modes_b=1000, background_mean=nb, pixel_pairs=3000, images=1500,
        )

    def ratio(nb, tag):
        seed = SeedSpec(909).derive(tag)
        out = []
        for kind_tag, kind in ((1, SourceKind.TWIN_BEAM), (2, SourceKind.SPLIT_THERMAL)):
            recs = {}
            for hyp_tag, target in ((1, True), (0, False)):
                s = seed.derive(kind_tag, hyp_tag)
                counts = sample_counts(scen(kind, nb).with_target(target), s)
                recs[target] = frame_covariance(frame_stats(*counts))
            out.append(snr_hat(recs[True], recs[False], 1)[0])
        return out[0] / out[1]

    base_nb = 10.0 * analytic.moments(scen(SourceKind.TWIN_BEAM, 0.0)).mean2
    r1 = ratio(base_nb, 1)
    r2 = ratio(2.0 * base_nb, 2)
    ideal = analytic.enhancement(0.075)
    assert abs(r1 - ideal) / ideal < 0.20
    assert abs(r2 - ideal) / ideal < 0.20
    assert abs(r2 - r1) / r1 < 0.10


# ---------------------------------------------------------------------------
# delta-method sigmas against a bootstrap of the same statistic
# ---------------------------------------------------------------------------
# what each delta-method sweep metric reads of the point, in the order its
# estimator takes them
SAMPLES = {
    "epsilon": lambda point: [point.table("in")],
    "covariance_in": lambda point: [point.deltas("in")],
    "covariance_out": lambda point: [point.deltas("out")],
    "snr": lambda point: [point.deltas("in"), point.deltas("out")],
}


def scalar_statistic(metric: str, scn):
    """The estimate of a delta-method sweep metric, of its samples."""
    if metric == "epsilon":
        return lambda table: epsilon_hat(table)[0]
    if metric == "snr":
        return lambda a, b: snr_hat(a, b, scn.pixel_pairs)[0]
    return np.mean


@pytest.mark.parametrize(
    "kind, modes_b, background, frames",
    [
        (SourceKind.TWIN_BEAM, 1300, 1000.0, 2000),
        (SourceKind.TWIN_BEAM, 57, 1e4, 4000),
        (SourceKind.SPLIT_THERMAL, 1300, 1000.0, 6000),
    ],
)
def test_delta_sigmas_agree_with_the_bootstrap(kind, modes_b, background, frames):
    # A sigma from 200 resamples has a relative sd of about 5 %: over seeds
    # 1-40 at these three points the ratio of the four metrics had sd
    # 0.04-0.06 and ranged 0.87-1.23, so the bounds sit 3.3-6 sds from 1.
    scn = make_scenario(kind=kind, modes_b=modes_b, background_mean=background, images=frames)
    for seed in (1, 2):
        point = PointPipeline(scn, SeedSpec(seed))
        for metric, samples in SAMPLES.items():
            _, resampled = per_iteration_bootstrap(
                scalar_statistic(metric, scn), samples(point), np.random.default_rng(seed), 200
            )
            _, delta = point.estimate(metric)
            assert 0.8 <= delta / resampled <= 1.25, (metric, seed, delta / resampled)


# ---------------------------------------------------------------------------
# the reference bootstrap and CSV plumbing
# ---------------------------------------------------------------------------
def test_bootstrap_sigma_scales_like_standard_error():
    # the reference that the delta-method sigmas are checked against above
    rng = np.random.default_rng(21)
    data = rng.normal(0.0, 2.0, 500)
    point, sigma = per_iteration_bootstrap(np.mean, [data], np.random.default_rng(0), 200)
    assert point == pytest.approx(data.mean())
    se = data.std(ddof=1) / np.sqrt(data.size)
    assert 0.5 * se < sigma < 2.0 * se


def test_records_csv_roundtrip(tmp_path):
    scn = make_scenario(images=4, pixel_pairs=8)
    point = PointPipeline(scn, SeedSpec(3))
    in_deltas, out_deltas = point.deltas("in"), point.deltas("out")
    records = [(i, "in", d) for i, d in enumerate(in_deltas)]
    records += [(i, "out", d) for i, d in enumerate(out_deltas)]
    path = tmp_path / "records.csv"
    write_records_csv(str(path), in_deltas, out_deltas)
    with open(path, newline="") as handle:
        loaded = [
            (int(row["frame"]), row["hypothesis"], float(row["delta12"]))
            for row in csv.DictReader(handle)
        ]
    assert loaded == records
    header = path.read_text().splitlines()[0]
    assert header == "frame,hypothesis,delta12"


@pytest.mark.parametrize(
    "n1, n2, message",
    [
        (np.zeros((3, 2)), np.zeros((3, 3)), "of equal shape"),
        (np.zeros((3, 2)), np.full((3, 2), -1), "counts must be non-negative"),
    ],
    ids=["unequal shapes", "negative count"],
)
def test_frame_stats_refuses_unequal_shapes_and_negative_counts(n1, n2, message):
    with pytest.raises(ParameterError, match=message):
        frame_stats(n1, n2)
