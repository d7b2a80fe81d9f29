"""Measurement pipeline on count arrays: covariance, epsilon, SNR, error rate.

Each hypothesis's counts arrive as two (images, K) int64 arrays n1 and
n2, one row per frame.  `covariance_hat` turns them into one covariance
per frame; `snr_hat` and `perr_hat` work on those float arrays, and
`epsilon_hat` pools the integer sufficient statistics of all frames.

Conventions follow the receiver definition: the per-frame covariance uses
the plug-in estimator with divisor K, while SNR sample variances use
divisor n-1.  All pooled reductions run on exact integer sums of the
counts, so results are independent of summation order by construction
(we never accumulate in floating point until the final division); counts
large enough to wrap those int64 sums raise ParameterError.

Every uncertainty comes from `bootstrap`, which resamples whole frames.
"""
from __future__ import annotations

import csv
import math
from typing import NamedTuple

import numpy as np

from .types import (
    DegenerateStatisticError,
    InsufficientDataError,
    ParameterError,
)


class PerrEstimate(NamedTuple):
    p_err: float
    threshold: float
    batches_in: int
    batches_out: int


def _counts(n1, n2) -> tuple[np.ndarray, np.ndarray]:
    """n1 and n2 as (images, K) int64 arrays whose sums cannot wrap.

    Within a frame s1*s2 reaches K^2 max^2; pooled over the frames (or a
    bootstrap resample of them) S22 reaches images*K*max^2.  The bound is
    checked in Python ints, so the check itself cannot wrap.
    """
    n1 = np.asarray(n1, dtype=np.int64)
    n2 = np.asarray(n2, dtype=np.int64)
    if n1.shape != n2.shape or n1.ndim != 2 or n1.size == 0:
        raise ParameterError("n1 and n2 must be non-empty (images, K) arrays of equal shape")
    if min(n1.min(), n2.min()) < 0:
        raise ParameterError("counts must be non-negative")
    images, k = n1.shape
    peak = int(max(n1.max(), n2.max()))
    if peak**2 * k * max(images, k) >= 2**63:
        raise ParameterError(f"counts up to {peak} over {images} x {k} pixels overflow int64 sums")
    return n1, n2


def _row_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.einsum("ij,ij->i", a, b)


def covariance_hat(n1, n2) -> np.ndarray:
    """Plug-in covariance over the K pixel pairs of each frame (row):
    E[N1 N2] - E[N1] E[N2] with divisor K."""
    n1, n2 = _counts(n1, n2)
    k = n1.shape[1]
    if k < 2:
        raise InsufficientDataError(f"need at least 2 pixel pairs (got {k})")
    numerator = k * _row_dot(n1, n2) - n1.sum(axis=1) * n2.sum(axis=1)
    out = numerator / k**2
    # numerators past 2**53 round on conversion to float; divide those exactly
    for i in np.flatnonzero(np.abs(numerator) > 2**53):
        out[i] = int(numerator[i]) / k**2
    return out


def _frame_stats(n1, n2) -> np.ndarray:
    """Per-frame integer sufficient statistics (S1, S2, S11, S22, S12, K)
    of at least 2 frames."""
    n1, n2 = _counts(n1, n2)
    if n1.shape[0] < 2:
        raise InsufficientDataError("need at least 2 frames")
    dots = (_row_dot(n1, n1), _row_dot(n2, n2), _row_dot(n1, n2))
    pixels = np.full(n1.shape[0], n1.shape[1], dtype=np.int64)
    return np.column_stack((n1.sum(axis=1), n2.sum(axis=1), *dots, pixels))


def _epsilon_from_sums(sums: np.ndarray) -> np.ndarray:
    """Vectorized epsilon over rows of pooled sufficient statistics."""
    s1, s2, s11, s22, s12, n = (sums[..., i].astype(float) for i in range(6))
    mean1 = s1 / n
    mean2 = s2 / n
    var1 = s11 / n - mean1**2
    var2 = s22 / n - mean2**2
    cov = s12 / n - mean1 * mean2
    nv1 = var1 - mean1
    nv2 = var2 - mean2
    with np.errstate(invalid="ignore", divide="ignore"):
        out = np.where((nv1 > 0) & (nv2 > 0), cov / np.sqrt(nv1 * nv2), np.nan)
    return out


def _resampled_epsilon(stats: np.ndarray) -> float:
    # keepdims keeps array arithmetic: numpy's scalar x**2 calls pow(),
    # which can differ from the array square in the last bit
    return float(_epsilon_from_sums(stats.sum(axis=0, keepdims=True))[0])


def _pooled_epsilon(stats: np.ndarray) -> float:
    value = float(_epsilon_from_sums(stats.sum(axis=0)))
    if math.isnan(value):
        raise DegenerateStatisticError("estimated normally ordered variance is not positive")
    return value


def epsilon_hat(n1, n2) -> float:
    """Nonclassicality parameter from pooled sample moments over all
    pixels and frames; normally ordered variances are sample variance
    minus sample mean per arm."""
    return _pooled_epsilon(_frame_stats(n1, n2))


def bootstrap_epsilon(n1, n2, rng: np.random.Generator) -> tuple[float, float]:
    """(epsilon_hat, bootstrap sigma), resampling whole frames."""
    stats = _frame_stats(n1, n2)
    return _pooled_epsilon(stats), bootstrap(_resampled_epsilon, [stats], rng)


def bootstrap(stat, samples, rng: np.random.Generator, resamples: int = 200) -> float:
    """Bootstrap sigma of `stat(*samples)`.

    Each resample draws, sample by sample, `len(sample)` indices with
    replacement.  Draws where `stat` is not finite or raises
    DegenerateStatisticError are dropped; at least 2 must remain.
    """
    if any(len(sample) < 2 for sample in samples):
        raise InsufficientDataError("need at least 2 values per sample to bootstrap")
    draws = []
    for _ in range(resamples):
        picked = [sample[rng.integers(0, len(sample), len(sample))] for sample in samples]
        try:
            value = stat(*picked)
        except DegenerateStatisticError:
            continue
        if np.isfinite(value):
            draws.append(value)
    if len(draws) < 2:
        raise DegenerateStatisticError("bootstrap resamples all degenerate")
    return float(np.std(draws, ddof=1))


def snr_hat(in_values, out_values) -> float:
    """|mean(in) - mean(out)| / sqrt(var(in) + var(out)), variances with
    divisor n-1, over per-frame covariances.  This is the per-frame SNR;
    divide by sqrt(K) to compare against the per-pixel-pair analytic value."""
    a = np.asarray(in_values, dtype=float)
    b = np.asarray(out_values, dtype=float)
    if a.size < 2 or b.size < 2:
        raise InsufficientDataError("need at least 2 records per hypothesis")
    denom_sq = a.var(ddof=1) + b.var(ddof=1)
    if denom_sq <= 0.0:
        raise DegenerateStatisticError("zero sample variance in both hypotheses")
    return float(abs(a.mean() - b.mean()) / math.sqrt(denom_sq))


def perr_hat(in_values, out_values, images_per_decision: int) -> PerrEstimate:
    """Empirical minimum error probability of the threshold receiver.

    Per-frame covariances are batched into decisions of
    `images_per_decision` frames, batch covariances averaged, and every
    midpoint between adjacent pooled batch means is scanned; ties resolve
    to the smallest threshold.  The batch counts are reported alongside.
    """
    if images_per_decision < 1:
        raise ParameterError(f"images_per_decision must be >= 1 (got {images_per_decision})")
    a = np.asarray(in_values, dtype=float)
    b = np.asarray(out_values, dtype=float)
    batches_in = a.size // images_per_decision
    batches_out = b.size // images_per_decision
    if batches_in < 10 or batches_out < 10:
        raise InsufficientDataError(
            f"need >= 10 batches per hypothesis (got {batches_in}, {batches_out})"
        )
    in_means = a[: batches_in * images_per_decision].reshape(batches_in, -1).mean(axis=1)
    out_means = b[: batches_out * images_per_decision].reshape(batches_out, -1).mean(axis=1)

    pooled = np.unique(np.concatenate([in_means, out_means]))
    candidates = np.concatenate(
        ([pooled[0] - 1.0], 0.5 * (pooled[:-1] + pooled[1:]), [pooled[-1] + 1.0])
    )
    # counts of batch means above (false alarms) and at or below (misses)
    # each candidate threshold
    false_alarms = batches_out - np.searchsorted(np.sort(out_means), candidates, side="right")
    misses = np.searchsorted(np.sort(in_means), candidates, side="right")
    risk = 0.5 * (false_alarms / batches_out + misses / batches_in)
    best = int(np.argmin(risk))
    return PerrEstimate(float(risk[best]), float(candidates[best]), batches_in, batches_out)


def write_records_csv(path: str, in_values, out_values) -> None:
    """Per-frame covariances of both hypotheses; columns: frame,hypothesis,delta12."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["frame", "hypothesis", "delta12"])
        for label, values in (("in", in_values), ("out", out_values)):
            for frame, delta in enumerate(values):
                writer.writerow([frame, label, repr(float(delta))])
