"""Property tests: the array estimators against plain reference versions.

The references are the straightforward forms: a Python loop over every
candidate threshold for perr_hat, Python-int arithmetic for the
per-frame covariance, and one index draw per sample per iteration for
the bootstrap.
"""
from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qisim.estimator import (
    PerrEstimate,
    _epsilon_from_sums,
    bootstrap,
    bootstrap_epsilon,
    covariance_hat,
    epsilon_hat,
    perr_hat,
    snr_hat,
)
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
    for estimator in (covariance_hat, epsilon_hat):
        with pytest.raises(ParameterError):
            estimator(past, below)


# ---------------------------------------------------------------------------
# bootstrap against one index draw per sample per iteration
# ---------------------------------------------------------------------------
def per_iteration_bootstrap(stat, samples, rng, resamples):
    draws = []
    for _ in range(resamples):
        picked = [s[rng.integers(0, s.size, s.size)] for s in samples]
        try:
            draws.append(stat(*picked))
        except DegenerateStatisticError:
            continue
    if len(draws) < 2:
        raise DegenerateStatisticError("bootstrap resamples all degenerate")
    return float(np.std(draws, ddof=1))


def _sigma_or_error(fn):
    try:
        return fn()
    except DegenerateStatisticError:
        return "degenerate"


_seeds = st.integers(0, 2**32 - 1)
_float_samples = st.lists(st.floats(-1e3, 1e3), min_size=2, max_size=60).map(np.asarray)
# few distinct values, so resamples with zero variance (degenerate SNR) occur
_coarse_samples = st.lists(st.integers(0, 2), min_size=2, max_size=6).map(
    lambda v: np.asarray(v, dtype=float)
)


@PROPERTY_SETTINGS
@given(_float_samples, _seeds, st.integers(2, 40))
def test_bootstrap_one_sample_matches_per_iteration_draws(sample, seed, resamples):
    got = bootstrap(np.mean, [sample], np.random.default_rng(seed), resamples)
    want = per_iteration_bootstrap(np.mean, [sample], np.random.default_rng(seed), resamples)
    assert got == want


@PROPERTY_SETTINGS
@given(st.one_of(_float_samples, _coarse_samples), st.one_of(_float_samples, _coarse_samples),
       _seeds, st.integers(2, 40))
def test_bootstrap_two_samples_matches_per_iteration_draws(a, b, seed, resamples):
    got = _sigma_or_error(lambda: bootstrap(snr_hat, [a, b], np.random.default_rng(seed), resamples))
    want = _sigma_or_error(
        lambda: per_iteration_bootstrap(snr_hat, [a, b], np.random.default_rng(seed), resamples)
    )
    assert got == want


@PROPERTY_SETTINGS
@given(st.integers(2, 40), st.integers(2, 6), _seeds)
def test_bootstrap_epsilon_matches_one_index_matrix(frames, k, seed):
    # the former vectorized form: one (resamples, frames) index draw
    counts = np.random.default_rng(seed).negative_binomial(3, 0.2, size=(2, frames, k))
    n1, n2 = counts.astype(np.int64)
    assume(_sigma_or_error(lambda: epsilon_hat(n1, n2)) != "degenerate")
    stats = np.column_stack(
        (n1.sum(1), n2.sum(1), (n1 * n1).sum(1), (n2 * n2).sum(1), (n1 * n2).sum(1),
         np.full(frames, k))
    )
    idx = np.random.default_rng(seed + 1).integers(0, frames, size=(200, frames))
    values = _epsilon_from_sums(stats[idx].sum(axis=1))
    good = values[np.isfinite(values)]
    want = float(np.std(good, ddof=1)) if good.size >= 2 else "degenerate"
    got = _sigma_or_error(lambda: bootstrap_epsilon(n1, n2, np.random.default_rng(seed + 1))[1])
    assert got == want
