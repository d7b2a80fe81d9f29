"""Property tests: the array estimators against plain reference versions.

The references are the straightforward forms: Python loops over every
decision batch for perr_hat, Python-int arithmetic for the per-frame
covariance, and finite-difference gradients for the delta-method sigmas.
"""
from __future__ import annotations

import math
import statistics
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from qisim.analytic import _min_error_two_gaussians
from qisim.estimator import (
    PerrEstimate,
    epsilon_hat,
    frame_covariance,
    frame_stats,
    perr_hat,
    snr_hat,
)
from qisim.scenario import METRICS
from qisim.types import DegenerateStatisticError, ParameterError

PROPERTY_SETTINGS = settings(max_examples=150, deadline=None)


def point_of(in_deltas, out_deltas=None, pixel_pairs=1):
    """A stand-in for a sweep point: its per-frame covariances and its
    pixel pairs, all that the covariance and snr metrics read of it."""
    deltas = {"in": in_deltas, "out": in_deltas if out_deltas is None else out_deltas}
    return SimpleNamespace(deltas=deltas.get, scenario=SimpleNamespace(pixel_pairs=pixel_pairs))


# ---------------------------------------------------------------------------
# perr_hat against a count in Python, batch by batch
# ---------------------------------------------------------------------------
def brute_force_perr(in_values, out_values, images_per_decision: int) -> PerrEstimate:
    """Each batch mean by `statistics.fmean`, the normal fit of each
    hypothesis by `statistics`, the threshold where the two fits cross,
    and the errors counted one batch at a time."""
    in_means, out_means = (
        [
            statistics.fmean(values[i * images_per_decision : (i + 1) * images_per_decision])
            for i in range(len(values) // images_per_decision)
        ]
        for values in (list(in_values), list(out_values))
    )
    fits = [(statistics.mean(m), statistics.stdev(m)) for m in (out_means, in_means)]
    _, tau = _min_error_two_gaussians(*fits[0], *fits[1])
    miss = sum(1 for m in in_means if m <= tau) / len(in_means)
    false_alarm = sum(1 for m in out_means if m > tau) / len(out_means)
    sigma = 0.5 * math.sqrt(
        miss * (1.0 - miss) / len(in_means) + false_alarm * (1.0 - false_alarm) / len(out_means)
    )
    return PerrEstimate(0.5 * (miss + false_alarm), tau, len(in_means), len(out_means), sigma)


@st.composite
def perr_inputs(draw):
    """Per-frame values of both hypotheses, 10 to 40 batches each plus a
    partial batch, on a grid of step 2**-e: every batch sum is then exact,
    so numpy's pairwise sum and `fmean`'s agree to the bit.  Each
    hypothesis is constant (zero spread), coarse (tied batch means) or
    fine, and the "in" values are shifted by up to 8 steps either way, so
    their means often lie below the "out" means."""
    ipd = draw(st.sampled_from((1, 2, 3, 7, 10, 100)))
    step = 2.0 ** -draw(st.sampled_from((0, 3, 10)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    arrays = []
    for shift in (draw(st.integers(-8, 8)), 0):
        size = draw(st.integers(10, 40 if ipd < 100 else 12)) * ipd + draw(st.integers(0, ipd - 1))
        top = draw(st.sampled_from((0, 3, 2**19)))
        arrays.append((rng.integers(-top, top + 1, size) + shift) * step)
    return arrays[0], arrays[1], ipd


@PROPERTY_SETTINGS
@given(perr_inputs())
@example(([1.0] * 12, [0.0, 0.5] * 6, 1))  # zero spread "in"
@example(([-1.0, 0.0] * 6, [0.0, 1.0] * 6, 1))  # "in" below "out"
@example(([0.25] * 20, [0.25] * 20, 1))  # zero spread and equal
def test_perr_hat_equals_brute_force_count(case):
    in_values, out_values, ipd = case
    assert perr_hat(in_values, out_values, ipd) == brute_force_perr(in_values, out_values, ipd)


def test_perr_hat_equals_brute_force_on_tied_batches():
    in_values = [1.0, 3.0] * 5 + [2.0] * 10
    out_values = [0.0, 2.0] * 5 + [2.0] * 10
    assert perr_hat(in_values, out_values, 1) == brute_force_perr(in_values, out_values, 1)


# ---------------------------------------------------------------------------
# frame_covariance against Python-int arithmetic
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
    assert frame_covariance(frame_stats(*counts)).tolist() == python_int_covariance(*counts)


def test_counts_past_int64_limit_are_rejected():
    # rows x K = 2 x 2, so the limit is peak**2 * 2 * 2 < 2**63
    peak = math.isqrt((2**63 - 1) // 4)
    below = np.array([[peak, 1], [0, peak]], dtype=np.int64)
    covariances = frame_covariance(frame_stats(below, below))
    assert covariances.tolist() == python_int_covariance(below, below)
    past = below.copy()
    past[0, 0] = peak + 1
    with pytest.raises(ParameterError):
        frame_stats(past, below)


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


_seeds = st.integers(0, 2**32 - 1)


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
    # S12) / K, taken by differences of `epsilon_hat`, dotted with each
    # frame's centred x
    stats = frame_stats(*counts)
    try:
        estimate, sigma = epsilon_hat(stats)
    except DegenerateStatisticError:
        assume(False)
    sums = stats.sum(axis=-1)
    means = sums[:5] / sums[5]
    x = stats[:5] / stats[5]
    a, b, aa, bb, _ = means
    scale = min(aa - a**2 - a, bb - b**2 - b)
    # differences resolve the gradient only where the normally ordered
    # variances are not lost to cancellation
    assume(scale > 1e-4 * max(aa, bb))

    def epsilon_at(m):
        # two equal one-pixel frames pool to the means themselves
        return epsilon_hat(np.repeat(np.append(m, 1.0)[:, None], 2, axis=1))[0]

    # each step moves a normally ordered variance by about 1e-4 of itself
    steps = [1e-4 * scale / (2 * abs(a) + 1), 1e-4 * scale / (2 * abs(b) + 1)] + [1e-4 * scale] * 3
    gradient = _central_gradient(epsilon_at, means, steps)
    centred = x - means[:, None]
    want = _sd_of_mean(gradient @ centred)
    # 1e-6 of the terms of the dot product, which may cancel
    terms = math.sqrt(np.mean((np.abs(gradient) @ np.abs(centred)) ** 2) / x.shape[1])
    assert epsilon_at(means) == estimate
    assert sigma == pytest.approx(want, rel=1e-6, abs=1e-6 * terms)


_snr_samples = st.builds(
    lambda n, shift, scale, seed: np.random.default_rng(seed).gamma(2.0, scale, n) + shift,
    st.integers(3, 80), st.floats(-5.0, 5.0), st.sampled_from((0.01, 1.0, 100.0)), _seeds,
)


@PROPERTY_SETTINGS
@given(_snr_samples, _snr_samples, st.integers(2, 100))
def test_snr_sigma_is_the_finite_difference_delta_method(in_values, out_values, pixel_pairs):
    # the gradient of the per-frame `snr_hat` (pixel_pairs 1) in each
    # sample's mean and variance (ddof 1), evaluated on two-value samples
    # that have them, dotted with each frame's (d - m, (d - m)^2 - v)
    samples = (in_values, out_values)
    moments = [(values.mean(), values.var(ddof=1)) for values in samples]
    total = moments[0][1] + moments[1][1]
    # away from the kink of |m_in - m_out|
    assume(abs(moments[0][0] - moments[1][0]) > 1e-3 * math.sqrt(total))

    def snr_at(p):
        pairs = [np.array([m - math.sqrt(v / 2), m + math.sqrt(v / 2)]) for m, v in (p[:2], p[2:])]
        return snr_hat(*pairs, 1)[0]

    point = [c for pair in moments for c in pair]
    steps = [c for _, v in moments for c in (1e-6 * math.sqrt(total), 1e-6 * v)]
    gradient = _central_gradient(snr_at, point, steps).reshape(2, 2)
    want = math.hypot(*(
        _sd_of_mean(g[0] * (values - m) + g[1] * ((values - m) ** 2 - v))
        for g, values, (m, v) in zip(gradient, samples, moments)
    ))
    estimate, sigma = snr_hat(in_values, out_values, 1)
    assert sigma == pytest.approx(want, rel=1e-6)
    # the sweep metric is the per-pixel-pair SNR: both over sqrt(K)
    per_pair = snr_hat(in_values, out_values, pixel_pairs)
    assert METRICS["snr"].estimate(point_of(in_values, out_values, pixel_pairs)) == per_pair
    root = math.sqrt(pixel_pairs)
    assert per_pair[0] == estimate / root
    # the influences are divided before their sd is taken: the last bits differ
    assert per_pair[1] == pytest.approx(sigma / root, rel=1e-12)


@PROPERTY_SETTINGS
@given(st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=300).map(np.asarray))
def test_covariance_sigma_is_the_standard_error(deltas):
    for metric in ("covariance_in", "covariance_out"):
        estimate, sigma = METRICS[metric].estimate(point_of(deltas))
        assert estimate == deltas.mean()
        assert sigma == np.std(deltas, ddof=1) / math.sqrt(deltas.size)


def test_table_covariance_divides_numerators_past_2_53_exactly():
    # `test_covariance_hat_is_exact` holds the same path to the same
    # reference on random counts
    n1 = np.array([[2**29 + 3, 0, 1], [7, 7, 7]], dtype=np.int64)
    n2 = np.array([[2**29 + 2, 0, 0], [1, 2, 3]], dtype=np.int64)
    stats = frame_stats(n1, n2)
    numerator = 3 * int(stats[4, 0]) - int(stats[0, 0]) * int(stats[1, 0])
    # the numerator rounded to a double, then divided, rounds differently
    assert numerator > 2**53 and float(numerator) / 9 != numerator / 9
    assert frame_covariance(stats).tolist() == python_int_covariance(n1, n2)


# ---------------------------------------------------------------------------
# the one-row mean against .mean()
# ---------------------------------------------------------------------------
@settings(max_examples=300, deadline=None)
@given(
    st.one_of(st.integers(2, 300), st.sampled_from((7, 8, 9, 127, 128, 129, 4095, 4096, 4097))),
    st.floats(-3.0, 6.0).map(lambda exponent: 10.0**exponent),
    _seeds,
)
def test_one_row_mean_equals_mean(length, magnitude, seed):
    # a sweep's covariance row reports the mean of the per-frame
    # covariances, and simulate prints it: it must be `.mean()` bit for
    # bit, across numpy's pairwise-summation blocks
    v = np.random.default_rng(seed).normal(0.5, 1.0, length) * magnitude
    for metric in ("covariance_in", "covariance_out"):
        assert METRICS[metric].estimate(point_of(v))[0] == v.mean()
