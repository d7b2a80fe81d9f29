"""Sampling laws, determinism, and stream-disjointness contracts."""
from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from scipy import stats

from conftest import make_scenario
from qisim import analytic
from qisim.estimator import covariance_hat
from qisim.sampler import (
    generate_frame,
    generate_image_set,
    sample_background,
    sample_pixel_pair,
)
from qisim.types import (
    BackgroundSpec,
    ChannelSpec,
    ParameterError,
    SeedSpec,
    SourceKind,
    SourceSpec,
)


def two_sample_chisquare_pvalue(a: np.ndarray, b: np.ndarray) -> float:
    """Two-sample chi-square over the pooled integer support, merging
    sparse tail bins so every bin holds at least 10 pooled counts."""
    hi = int(max(a.max(), b.max()))
    counts_a = np.bincount(a, minlength=hi + 1).astype(float)
    counts_b = np.bincount(b, minlength=hi + 1).astype(float)
    bins_a, bins_b = [], []
    acc_a = acc_b = 0.0
    for ca, cb in zip(counts_a, counts_b):
        acc_a += ca
        acc_b += cb
        if acc_a + acc_b >= 10.0:
            bins_a.append(acc_a)
            bins_b.append(acc_b)
            acc_a = acc_b = 0.0
    if acc_a + acc_b > 0.0:
        bins_a[-1] += acc_a
        bins_b[-1] += acc_b
    bins_a = np.asarray(bins_a)
    bins_b = np.asarray(bins_b)
    na, nb = bins_a.sum(), bins_b.sum()
    k1, k2 = np.sqrt(nb / na), np.sqrt(na / nb)
    statistic = float(np.sum((k1 * bins_a - k2 * bins_b) ** 2 / (bins_a + bins_b)))
    return float(stats.chi2.sf(statistic, len(bins_a) - 1))


# ---------------------------------------------------------------------------
# trivial limits
# ---------------------------------------------------------------------------
def test_vacuum_source_yields_zero():
    source = SourceSpec(SourceKind.TWIN_BEAM, mu=0.0, modes=5)
    channel = ChannelSpec(eta1=0.8, eta2=0.8)
    rng = np.random.default_rng(3)
    for _ in range(20):
        assert sample_pixel_pair(source, channel, rng) == (0, 0)


def test_opaque_detector_yields_zero_arm1():
    source = SourceSpec(SourceKind.TWIN_BEAM, mu=0.5, modes=5)
    channel = ChannelSpec(eta1=0.0, eta2=0.8)
    rng = np.random.default_rng(3)
    assert all(sample_pixel_pair(source, channel, rng)[0] == 0 for _ in range(50))


def test_zero_background_draws_zero():
    rng = np.random.default_rng(3)
    assert all(sample_background(BackgroundSpec(), rng) == 0 for _ in range(20))


def test_target_absent_no_background_gives_empty_arm2():
    scn = make_scenario(target_present=False, pixel_pairs=64)
    frame = generate_frame(scn, False, SeedSpec(5), 0)
    assert not frame.n2.any()
    assert frame.n1.any()


def test_overflow_guard():
    scn = make_scenario(mu=1e8, modes=90000, pixel_pairs=4)
    with pytest.raises(ParameterError):
        generate_frame(scn, True, SeedSpec(1), 0)


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------
def test_frame_generation_is_deterministic():
    scn = make_scenario(background_mean=100.0, pixel_pairs=32)
    seed = SeedSpec(123)
    a = generate_frame(scn, True, seed, 7)
    b = generate_frame(scn, True, seed, 7)
    assert np.array_equal(a.n1, b.n1) and np.array_equal(a.n2, b.n2)


def test_frames_identical_across_order_and_threads():
    scn = make_scenario(background_mean=50.0, pixel_pairs=16)
    seed = SeedSpec(11)
    sequential = [generate_frame(scn, True, seed, i) for i in range(24)]
    shuffled_order = [generate_frame(scn, True, seed, i) for i in reversed(range(24))][::-1]
    with ThreadPoolExecutor(max_workers=4) as pool:
        threaded = list(pool.map(lambda i: generate_frame(scn, True, seed, i), range(24)))
    for a, b, c in zip(sequential, shuffled_order, threaded):
        assert np.array_equal(a.n1, b.n1) and np.array_equal(a.n2, b.n2)
        assert np.array_equal(a.n1, c.n1) and np.array_equal(a.n2, c.n2)


def test_image_set_hypotheses_use_disjoint_streams():
    scn = make_scenario(images=50, pixel_pairs=16)
    (in_n1, _), (out_n1, _) = generate_image_set(scn, SeedSpec(77))
    in_rows = {tuple(row) for row in in_n1}
    out_rows = {tuple(row) for row in out_n1}
    assert not in_rows & out_rows


# ---------------------------------------------------------------------------
# sampled laws vs closed forms
# ---------------------------------------------------------------------------
def _assert_mean_var(samples: np.ndarray, mean_th: float, var_th: float) -> None:
    n = samples.size
    mean_hat = samples.mean()
    var_hat = samples.var(ddof=1)
    se_mean = np.sqrt(var_hat / n)
    m4 = np.mean((samples - mean_hat) ** 4)
    se_var = np.sqrt(max(m4 - var_hat**2, 0.0) / n)
    assert abs(mean_hat - mean_th) <= 3.0 * se_mean
    assert abs(var_hat - var_th) <= 3.0 * se_var


@pytest.mark.parametrize("kind", [SourceKind.TWIN_BEAM, SourceKind.SPLIT_THERMAL])
def test_sampled_arms_match_multithermal_law(kind):
    scn = make_scenario(kind=kind, reflectivity=1.0, pixel_pairs=100000)
    frame = generate_frame(scn, True, SeedSpec(2024), 0)
    m = analytic.moments(scn)
    _assert_mean_var(frame.n1.astype(float), m.mean1, m.var1)
    _assert_mean_var(frame.n2.astype(float), m.mean2, m.var2)
    # detected rate: <N> = M eta mu = 4185
    assert abs(m.mean1 - 4185.0) < 1e-6


def test_sampled_covariance_matches_mode_mismatch_model():
    scn = make_scenario(mode_match=0.7, reflectivity=1.0, pixel_pairs=100000)
    frame = generate_frame(scn, True, SeedSpec(31), 0)
    m = analytic.moments(scn)
    x = frame.n1.astype(float)
    y = frame.n2.astype(float)
    prod = (x - x.mean()) * (y - y.mean())
    se = prod.std(ddof=1) / np.sqrt(prod.size)
    assert abs(prod.mean() - m.cov) <= 3.0 * se


@pytest.mark.parametrize(
    "modes_b,mean_total,var_expected",
    [(1, 5.0, 30.0), (1300, 100.0, 100.0 * (1.0 + 100.0 / 1300.0))],
)
def test_sampled_background_matches_variance_law(modes_b, mean_total, var_expected):
    background = BackgroundSpec(modes_b=modes_b, mean_total=mean_total)
    rng = SeedSpec(99).rng(4)
    samples = np.array([sample_background(background, rng) for _ in range(10000)], float)
    # refine with a big vectorized draw through the public frame path
    scn = make_scenario(target_present=False, modes_b=modes_b,
                        background_mean=mean_total, pixel_pairs=100000)
    frame = generate_frame(scn, False, SeedSpec(7), 0)
    _assert_mean_var(frame.n2.astype(float), mean_total, var_expected)
    _assert_mean_var(samples, mean_total, var_expected)


def test_thinning_law_two_sample_chisquare():
    # Binomial(NegBin(M, mu), eta) is NegBin(M, eta*mu) in distribution
    modes, mu, eta = 3, 0.8, 0.6
    rng = SeedSpec(13).rng(0)
    n = rng.negative_binomial(modes, 1.0 / (1.0 + mu), size=10000)
    thinned = rng.binomial(n, eta)
    direct = rng.negative_binomial(modes, 1.0 / (1.0 + eta * mu), size=10000)
    assert two_sample_chisquare_pvalue(thinned, direct) > 0.001


def test_frame_covariances_uncorrelated_between_frames():
    scn = make_scenario(background_mean=2000.0, images=2000)
    in_counts, _ = generate_image_set(scn, SeedSpec(555))
    deltas = covariance_hat(*in_counts)
    x, y = deltas[:-1] - deltas.mean(), deltas[1:] - deltas.mean()
    lag1 = float(np.sum(x * y) / np.sum((deltas - deltas.mean()) ** 2))
    assert abs(lag1) <= 3.0 / np.sqrt(deltas.size)


def test_read_noise_keeps_counts_nonnegative_and_default_off():
    scn = make_scenario(pixel_pairs=256)
    seed = SeedSpec(8)
    clean = generate_frame(scn, True, seed, 0)
    noisy = generate_frame(scn, True, seed, 0, read_noise_sigma=4.0)
    again = generate_frame(scn, True, seed, 0)
    assert np.array_equal(clean.n1, again.n1)
    assert (noisy.n1 >= 0).all() and (noisy.n2 >= 0).all()
    assert not np.array_equal(clean.n1, noisy.n1)
