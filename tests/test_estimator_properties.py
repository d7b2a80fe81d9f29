"""Property tests: the array estimators against plain reference versions.

The references are the straightforward forms: a Python loop over every
candidate threshold for perr_hat, Python-int arithmetic for the
per-frame covariance, one index draw per sample per iteration for the
bootstrap, and finite-difference gradients for the delta-method sigmas.
"""
from __future__ import annotations

import functools
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qisim.estimator import (
    PerrEstimate,
    _epsilon_from_sums,
    bootstrap,
    covariance_hat,
    delta_method,
    epsilon_influence,
    epsilon_rows,
    frame_covariance,
    frame_stats,
    one_row,
    perr_hat,
    perr_rows,
    resample_indices,
    snr_influence,
    snr_rows,
)
from qisim.scenario import METRICS
from qisim.types import DegenerateStatisticError, ParameterError

PROPERTY_SETTINGS = settings(max_examples=150, deadline=None)


# ---------------------------------------------------------------------------
# perr_hat against a brute-force threshold scan
# ---------------------------------------------------------------------------
def brute_force_perr(in_values, out_values, images_per_decision: int) -> PerrEstimate:
    """Every candidate threshold in turn; the first strict minimum wins."""
    a = np.asarray(in_values, dtype=float)
    b = np.asarray(out_values, dtype=float)
    batches_in = a.size // images_per_decision
    batches_out = b.size // images_per_decision
    in_means = a[: batches_in * images_per_decision].reshape(batches_in, -1).mean(axis=1)
    out_means = b[: batches_out * images_per_decision].reshape(batches_out, -1).mean(axis=1)
    pooled = np.unique(np.concatenate([in_means, out_means]))
    candidates = [pooled[0] - 1.0]
    candidates.extend(0.5 * (pooled[:-1] + pooled[1:]))
    candidates.append(pooled[-1] + 1.0)
    best_p = math.inf
    best_tau = candidates[0]
    for tau in candidates:
        false_alarm = float(np.mean(out_means > tau))
        miss = float(np.mean(in_means <= tau))
        p = 0.5 * (false_alarm + miss)
        if p < best_p:
            best_p = p
            best_tau = float(tau)
    return PerrEstimate(best_p, best_tau, batches_in, batches_out)


# a coarse grid makes equal batch means, and so tied risks, common
_values = st.one_of(
    st.integers(-4, 4).map(lambda v: v * 0.1),
    st.floats(-50.0, 50.0, allow_nan=False),
)


@st.composite
def perr_inputs(draw):
    ipd = draw(st.sampled_from((1, 2, 3, 7, 10, 100)))
    sizes = [
        draw(st.integers(10, 40 if ipd < 100 else 12)) * ipd + draw(st.integers(0, ipd - 1))
        for _ in range(2)
    ]
    coarse = draw(st.booleans())
    arrays = []
    for size in sizes:
        if coarse:
            grid = draw(st.lists(st.integers(-3, 3), min_size=size, max_size=size))
            arrays.append(np.asarray(grid, dtype=float) * 0.1)
        else:
            arrays.append(np.asarray(draw(st.lists(_values, min_size=size, max_size=size))))
    return arrays[0], arrays[1], ipd


@PROPERTY_SETTINGS
@given(perr_inputs())
def test_perr_hat_equals_brute_force_scan(case):
    in_values, out_values, ipd = case
    assert perr_hat(in_values, out_values, ipd) == brute_force_perr(in_values, out_values, ipd)


def test_perr_hat_equals_brute_force_on_tied_batches():
    in_values = [1.0, 3.0] * 5 + [2.0] * 10
    out_values = [0.0, 2.0] * 5 + [2.0] * 10
    assert perr_hat(in_values, out_values, 1) == brute_force_perr(in_values, out_values, 1)


def test_perr_hat_counts_means_equal_to_a_rounded_midpoint():
    # x and y are adjacent doubles and 0.5 * (x + y) rounds to y, so the
    # threshold between them counts the means equal to y as at or below it
    x = 1.0 + 2.0**-52
    y = 1.0 + 2.0**-51
    assert 0.5 * (x + y) == y
    in_values = [y] * 10 + [x] * 5
    out_values = [x] * 10 + [y] * 3
    assert perr_hat(in_values, out_values, 1) == brute_force_perr(in_values, out_values, 1)


def test_perr_rows_equals_brute_force_on_stacked_edge_rows():
    # one call over rows whose candidate thresholds take every path of the
    # scan: ties, a midpoint that rounds onto the mean above it (adjacent
    # doubles, as in the test above), means past 2**53, where m - 1 == m
    # and midpoints round onto the mean above too, and midpoints whose sum
    # overflows to -inf
    x, y = 1.0 + 2.0**-52, 1.0 + 2.0**-51
    big = 2.0**55  # doubles 8 apart: (big + 8 + big + 16) / 2 rounds to big + 16
    huge = -1.7e308  # the sum of two such means is -inf
    rng = np.random.default_rng(5)
    steps = rng.integers(0, 5, (6, 20))
    rows = [
        (rng.normal(0.3, 1.0, 20), rng.normal(0.0, 1.0, 20)),
        (steps[0] * 0.1, steps[1] * 0.1),
        ([y] * 13 + [x] * 7, [x] * 14 + [y] * 6),
        (big + 8.0 * steps[2], big + 8.0 * steps[3] + 8.0),
        (-big - 8.0 * steps[3], -big - 8.0 * steps[2] - 8.0),
        (huge + 1e307 * steps[4], huge + 1e307 * steps[5]),
    ]
    in_rows, out_rows = (np.array([row[i] for row in rows], dtype=float) for i in (0, 1))
    assert in_rows.shape == out_rows.shape == (6, 20)
    assert 0.5 * (x + y) == y and big + 8.0 - 1.0 == big + 8.0
    assert 0.5 * ((big + 8.0) + (big + 16.0)) == big + 16.0
    assert {big + 8.0, big + 16.0} <= set(in_rows[3]) | set(out_rows[3])
    with np.errstate(over="ignore"):
        assert huge + huge == -np.inf
        got = perr_rows(in_rows, out_rows, 1)
        for i, (in_values, out_values) in enumerate(rows):
            row = PerrEstimate(float(got.p_err[i]), float(got.threshold[i]), *got[2:])
            assert row == brute_force_perr(in_values, out_values, 1)


# ---------------------------------------------------------------------------
# covariance_hat against Python-int arithmetic
# ---------------------------------------------------------------------------
@st.composite
def count_arrays(draw):
    images = draw(st.integers(1, 4))
    k = draw(st.integers(2, 8))
    # the largest count check_counts accepts for this shape
    peak = math.isqrt((2**63 - 1) // (k * max(images, k)))
    top = draw(st.sampled_from((50, 10**6, peak)))
    cells = st.lists(st.integers(0, top), min_size=images * k, max_size=images * k)
    n1 = np.asarray(draw(cells), dtype=np.int64).reshape(images, k)
    n2 = np.asarray(draw(cells), dtype=np.int64).reshape(images, k)
    return n1, n2


def python_int_covariance(n1: np.ndarray, n2: np.ndarray) -> list:
    out = []
    for row1, row2 in zip(n1.tolist(), n2.tolist()):
        k = len(row1)
        s1, s2 = sum(row1), sum(row2)
        s12 = sum(x * y for x, y in zip(row1, row2))
        out.append((k * s12 - s1 * s2) / k**2)
    return out


@PROPERTY_SETTINGS
@given(count_arrays())
def test_covariance_hat_is_exact(counts):
    assert covariance_hat(*counts).tolist() == python_int_covariance(*counts)


def test_counts_past_int64_limit_are_rejected():
    # rows x K = 2 x 2, so the limit is peak**2 * 2 * 2 < 2**63
    peak = math.isqrt((2**63 - 1) // 4)
    below = np.array([[peak, 1], [0, peak]], dtype=np.int64)
    assert covariance_hat(below, below).tolist() == python_int_covariance(below, below)
    past = below.copy()
    past[0, 0] = peak + 1
    with pytest.raises(ParameterError):
        covariance_hat(past, below)
    with pytest.raises(ParameterError):
        frame_stats(past, below)


# ---------------------------------------------------------------------------
# bootstrap against one index draw per sample per iteration
# ---------------------------------------------------------------------------
def per_iteration_bootstrap(stat, samples, rng, resamples):
    """(stat on the samples, sigma over resamples), one scalar `stat` call
    per resample; resamples where it raises DegenerateStatisticError or is
    not finite are dropped."""
    estimate = stat(*samples)
    draws = []
    for _ in range(resamples):
        picked = [s[..., rng.integers(0, s.shape[-1], s.shape[-1])] for s in samples]
        try:
            value = stat(*picked)
        except DegenerateStatisticError:
            continue
        if math.isfinite(value):
            draws.append(value)
    if len(draws) < 2:
        raise DegenerateStatisticError("bootstrap resamples all degenerate")
    return estimate, float(np.std(draws, ddof=1))


def _sigma_or_error(fn):
    try:
        return fn()
    except DegenerateStatisticError:
        return "degenerate"


def scalar_snr(a, b) -> float:
    """The per-frame SNR of one pair of samples, in scalar arithmetic."""
    denom_sq = a.var(ddof=1) + b.var(ddof=1)
    if denom_sq <= 0.0:
        raise DegenerateStatisticError("zero sample variance in both hypotheses")
    return float(abs(a.mean() - b.mean()) / math.sqrt(denom_sq))


def scalar_epsilon(stats) -> float:
    """Epsilon of one (6, frames) array of frame statistics, summed frame
    by frame in Python ints."""
    sums = np.asarray([[sum(int(v) for v in row) for row in stats]], dtype=np.int64)
    value = float(_epsilon_from_sums(sums)[0])
    if math.isnan(value):
        raise DegenerateStatisticError("normally ordered variance not positive")
    return value


def _row_mean(rows):
    return rows.mean(axis=-1)


def drawn(samples, seed, resamples):
    """The bootstrap indices of `samples` on the stream of `seed`."""
    return resample_indices([s.shape[-1] for s in samples], np.random.default_rng(seed), resamples)


_seeds = st.integers(0, 2**32 - 1)
_float_samples = st.lists(st.floats(-1e3, 1e3), min_size=2, max_size=60).map(np.asarray)
# few distinct values, so resamples with zero variance (degenerate SNR) occur
_coarse_samples = st.lists(st.integers(0, 2), min_size=2, max_size=6).map(
    lambda v: np.asarray(v, dtype=float)
)


@PROPERTY_SETTINGS
@given(_float_samples, _seeds, st.integers(2, 40))
def test_bootstrap_one_sample_matches_per_iteration_draws(sample, seed, resamples):
    got = bootstrap(_row_mean, [sample], drawn([sample], seed, resamples))
    want = per_iteration_bootstrap(np.mean, [sample], np.random.default_rng(seed), resamples)
    assert got == want


@PROPERTY_SETTINGS
@given(st.one_of(_float_samples, _coarse_samples), st.one_of(_float_samples, _coarse_samples),
       _seeds, st.integers(2, 40))
def test_bootstrap_two_samples_matches_per_iteration_draws(a, b, seed, resamples):
    got = _sigma_or_error(
        lambda: bootstrap(snr_rows, [a, b], drawn([a, b], seed, resamples))
    )
    want = _sigma_or_error(
        lambda: per_iteration_bootstrap(scalar_snr, [a, b], np.random.default_rng(seed), resamples)
    )
    assert got == want


@pytest.mark.parametrize("sizes", [(30000,), (20000, 13000)])
def test_bootstrap_blocks_match_per_iteration_draws(sizes):
    # samples this large leave room for 2 resamples per block (one sample)
    # or 1 (two samples), so 7 resamples take 4 or 7 blocks
    rng = np.random.default_rng(17)
    samples = [rng.normal(0.3 * i, 1.0, n) for i, n in enumerate(sizes)]
    stat_rows, stat = (_row_mean, np.mean) if len(sizes) == 1 else (snr_rows, scalar_snr)
    got = bootstrap(stat_rows, samples, drawn(samples, 18, 7))
    assert got == per_iteration_bootstrap(stat, samples, np.random.default_rng(18), 7)


@PROPERTY_SETTINGS
@given(st.integers(2, 40), st.integers(2, 6), st.sampled_from((0.2, 0.6, 0.95)), _seeds,
       st.integers(2, 40))
def test_bootstrap_epsilon_matches_per_iteration_draws(frames, k, p, seed, resamples):
    # at p = 0.95 most counts are 0, so some resamples (or the whole
    # sample) have a normally ordered variance that is not positive
    counts = np.random.default_rng(seed).negative_binomial(1, p, size=(2, frames, k))
    n1, n2 = counts.astype(np.int64)
    stats = np.stack(
        (n1.sum(1), n2.sum(1), (n1 * n1).sum(1), (n2 * n2).sum(1), (n1 * n2).sum(1),
         np.full(frames, k))
    )
    got = _sigma_or_error(
        lambda: bootstrap(epsilon_rows, [stats], drawn([stats], seed + 1, resamples))
    )
    want = _sigma_or_error(
        lambda: per_iteration_bootstrap(
            scalar_epsilon, [stats], np.random.default_rng(seed + 1), resamples
        )
    )
    assert got == want


@pytest.mark.parametrize("sizes", [(2,), (255, 256), (65535, 65536)])
def test_resample_indices_are_the_bootstrap_draws(sizes):
    picks = resample_indices(sizes, np.random.default_rng(4), 3)
    rng = np.random.default_rng(4)
    assert [pick.dtype for pick in picks] == [np.min_scalar_type(n) for n in sizes]
    for row in range(3):
        for pick, n in zip(picks, sizes):
            assert pick[row].tolist() == rng.integers(0, n, n).tolist()


@st.composite
def perr_bootstrap_inputs(draw):
    """Two samples, in general of unequal lengths, with 10 to 16 batches
    each; a coarse grid makes tied batch means common."""
    ipd = draw(st.integers(1, 100))
    rng = np.random.default_rng(draw(_seeds))
    samples = []
    for _ in range(2):
        size = draw(st.integers(10, 16)) * ipd + draw(st.integers(0, ipd - 1))
        if draw(st.booleans()):
            samples.append(rng.integers(-3, 4, size) * 0.1)
        else:
            samples.append(rng.normal(draw(st.floats(-1.0, 1.0)), 1.0, size))
    return samples[0], samples[1], ipd


@PROPERTY_SETTINGS
@given(perr_bootstrap_inputs(), _seeds, st.integers(2, 20))
def test_bootstrap_perr_matches_per_iteration_draws(case, seed, resamples):
    in_values, out_values, ipd = case

    def row_perr(a, b):
        return perr_rows(a, b, ipd).p_err

    def scalar_perr(a, b):
        return brute_force_perr(a, b, ipd).p_err

    samples = [in_values, out_values]
    got = bootstrap(row_perr, samples, drawn(samples, seed, resamples))
    want = per_iteration_bootstrap(
        scalar_perr, [in_values, out_values], np.random.default_rng(seed), resamples
    )
    assert got == want


# ---------------------------------------------------------------------------
# delta-method sigmas against finite-difference gradients
# ---------------------------------------------------------------------------
def _central_gradient(f, point, steps) -> np.ndarray:
    """Central differences of the scalar f at `point`, one step per axis."""
    gradient = []
    for axis, step in enumerate(steps):
        up, down = np.array(point, dtype=float), np.array(point, dtype=float)
        up[axis] += step
        down[axis] -= step
        gradient.append((f(up) - f(down)) / (2 * step))
    return np.array(gradient)


def _sd_of_mean(influence) -> float:
    return float(np.std(influence, ddof=1) / math.sqrt(influence.size))


@st.composite
def correlated_counts(draw):
    """(n1, n2) of 3 to 80 frames of 2 to 10 pixels: thermal-like counts
    with a shared part, so both normally ordered variances and the
    covariance are resolved."""
    frames, k = draw(st.integers(3, 80)), draw(st.integers(2, 10))
    rng = np.random.default_rng(draw(_seeds))
    shape, mean = draw(st.sampled_from((1, 3, 10))), draw(st.sampled_from((2.0, 20.0, 300.0)))
    shared = rng.gamma(shape, mean / shape, (frames, k))
    own = rng.gamma(shape, mean / shape, (2, frames, k))
    return rng.poisson(shared + own)


@PROPERTY_SETTINGS
@given(correlated_counts())
def test_epsilon_sigma_is_the_finite_difference_delta_method(counts):
    # the gradient of epsilon in the pooled means of x = (S1, S2, S11, S22,
    # S12) / K, taken by differences of `_epsilon_from_sums`, dotted with
    # each frame's centred x
    stats = frame_stats(*counts)
    estimate = float(epsilon_rows(stats[:, None])[0])
    assume(not math.isnan(estimate))
    sums = stats.sum(axis=-1)
    means = sums[:5] / sums[5]
    x = stats[:5] / stats[5]
    a, b, aa, bb, _ = means
    scale = min(aa - a**2 - a, bb - b**2 - b)
    # differences resolve the gradient only where the normally ordered
    # variances are not lost to cancellation
    assume(scale > 1e-4 * max(aa, bb))

    def epsilon_at(m):
        # pooled sums over one pixel are the means themselves
        return float(_epsilon_from_sums(np.append(m, 1.0)[None])[0])

    # each step moves a normally ordered variance by about 1e-4 of itself
    steps = [1e-4 * scale / (2 * abs(a) + 1), 1e-4 * scale / (2 * abs(b) + 1)] + [1e-4 * scale] * 3
    gradient = _central_gradient(epsilon_at, means, steps)
    centred = x - means[:, None]
    want = _sd_of_mean(gradient @ centred)
    # 1e-6 of the terms of the dot product, which may cancel
    terms = math.sqrt(np.mean((np.abs(gradient) @ np.abs(centred)) ** 2) / x.shape[1])
    got = delta_method(epsilon_rows, epsilon_influence, stats)
    assert got[0] == estimate
    assert got[1] == pytest.approx(want, rel=1e-6, abs=1e-6 * terms)


_snr_samples = st.builds(
    lambda n, shift, scale, seed: np.random.default_rng(seed).gamma(2.0, scale, n) + shift,
    st.integers(3, 80), st.floats(-5.0, 5.0), st.sampled_from((0.01, 1.0, 100.0)), _seeds,
)


@PROPERTY_SETTINGS
@given(_snr_samples, _snr_samples, st.integers(2, 100))
def test_snr_sigma_is_the_finite_difference_delta_method(in_values, out_values, pixel_pairs):
    # the gradient of `snr_rows` in each sample's mean and variance (ddof
    # 1), evaluated on two-value rows that have them, dotted with each
    # frame's (d - m, (d - m)^2 - v)
    samples = (in_values, out_values)
    moments = [(values.mean(), values.var(ddof=1)) for values in samples]
    total = moments[0][1] + moments[1][1]
    # away from the kink of |m_in - m_out|
    assume(abs(moments[0][0] - moments[1][0]) > 1e-3 * math.sqrt(total))

    def snr_at(p):
        rows = [np.array([[m - math.sqrt(v / 2), m + math.sqrt(v / 2)]]) for m, v in (p[:2], p[2:])]
        return float(snr_rows(*rows)[0])

    point = [c for pair in moments for c in pair]
    steps = [c for _, v in moments for c in (1e-6 * math.sqrt(total), 1e-6 * v)]
    gradient = _central_gradient(snr_at, point, steps).reshape(2, 2)
    want = math.hypot(*(
        _sd_of_mean(g[0] * (values - m) + g[1] * ((values - m) ** 2 - v))
        for g, values, (m, v) in zip(gradient, samples, moments)
    ))
    estimate, sigma = delta_method(snr_rows, snr_influence, in_values, out_values)
    assert estimate == one_row(snr_rows, in_values, out_values)
    assert sigma == pytest.approx(want, rel=1e-6)
    # the sweep metric is the per-pixel-pair SNR: both over sqrt(K)
    scn = SimpleNamespace(pixel_pairs=pixel_pairs)
    snr = METRICS["snr"]
    metric = [functools.partial(f, scn) for f in (snr.stat, snr.influence)]
    root = math.sqrt(pixel_pairs)
    assert delta_method(*metric, in_values, out_values) == pytest.approx(
        (estimate / root, sigma / root), rel=1e-12
    )


@PROPERTY_SETTINGS
@given(st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=300).map(np.asarray))
def test_covariance_sigma_is_the_standard_error(deltas):
    for metric in ("covariance_in", "covariance_out"):
        entry = METRICS[metric]
        stat, influence = (functools.partial(f, None) for f in (entry.stat, entry.influence))
        estimate, sigma = delta_method(stat, influence, deltas)
        assert estimate == deltas.mean()
        assert sigma == np.std(deltas, ddof=1) / math.sqrt(deltas.size)


def test_table_covariance_divides_numerators_past_2_53_exactly():
    # `test_covariance_hat_is_exact` holds the table path to the same
    # reference on random counts, since covariance_hat goes through it
    n1 = np.array([[2**29 + 3, 0, 1], [7, 7, 7]], dtype=np.int64)
    n2 = np.array([[2**29 + 2, 0, 0], [1, 2, 3]], dtype=np.int64)
    stats = frame_stats(n1, n2)
    numerator = 3 * int(stats[4, 0]) - int(stats[0, 0]) * int(stats[1, 0])
    # the numerator rounded to a double, then divided, rounds differently
    assert numerator > 2**53 and float(numerator) / 9 != numerator / 9
    assert frame_covariance(stats).tolist() == python_int_covariance(n1, n2)
    assert frame_covariance(stats).tolist() == covariance_hat(n1, n2).tolist()


# ---------------------------------------------------------------------------
# the one-row mean against .mean()
# ---------------------------------------------------------------------------
@settings(max_examples=300, deadline=None)
@given(
    st.one_of(st.integers(1, 300), st.sampled_from((7, 8, 9, 127, 128, 129, 4095, 4096, 4097))),
    st.floats(-3.0, 6.0).map(lambda exponent: 10.0**exponent),
    _seeds,
)
def test_one_row_mean_equals_mean(length, magnitude, seed):
    # a sweep's covariance metric is the one-row mean of the per-frame
    # covariances, and simulate prints it: it must be `.mean()` bit for
    # bit, across numpy's pairwise-summation blocks
    v = np.random.default_rng(seed).normal(0.5, 1.0, length) * magnitude
    assert v[None].mean(axis=-1)[0] == v.mean()
    assert one_row(lambda rows: rows.mean(axis=-1), v) == v.mean()
