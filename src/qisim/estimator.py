"""Measurement pipeline on count arrays: covariance, epsilon, SNR, error rate.

Each hypothesis's counts arrive as two (images, K) int64 arrays n1 and
n2, one row per frame, which `frame_stats` turns into one integer table,
(S1, S2, S11, S22, S12, K) per frame.  Epsilon pools the table over all
frames; SNR and the error rate read its `frame_covariance` per frame.

Each statistic has one row-wise form (`epsilon_rows`, `snr_rows`,
`perr_rows`): its samples carry the frames on their last axis and one
row per resample before it, and it returns one value per row, NaN where
the row is degenerate.  Its point estimate is `one_row`, its one-row case
on the samples themselves (`perr_hat` for the error rate, with its
threshold).

Conventions follow the receiver definition: the per-frame covariance uses
the plug-in estimator with divisor K, while SNR sample variances use
divisor n-1.  All pooled reductions run on exact integer sums of the
counts, so results are independent of summation order by construction
(we never accumulate in floating point until the final division); counts
large enough to wrap those int64 sums raise ParameterError.

Epsilon, SNR and the mean covariance are smooth functions of frame
means, so `delta_method` gives their sigma as sqrt(sum over samples of
sd(IF)^2 / n), IF being each frame's influence on the estimate:
- mean covariance: the per-frame covariance, up to an offset;
- epsilon = g = cov / r, from the pooled means (a, b, A, B, C) of x = (S1,
  S2, S11, S22, S12) / K, with cov = C - ab, nv1 = A - a^2 - a, nv2 =
  B - b^2 - b, r = sqrt(nv1 nv2): IF = (-b/r + g(2a+1)/(2 nv1), -a/r +
  g(2b+1)/(2 nv2), -g/(2 nv1), -g/(2 nv2), 1/r) . (x - (a, b, A, B, C));
- SNR f = |m_in - m_out| / sqrt(V) with V = v_in + v_out: on each
  hypothesis's covariances d, IF = s(d - m)/sqrt(V) - f((d - m)^2 - v)/(2V),
  s being the sign of m_in - m_out for "in" and its opposite for "out".

The error rate's sigma comes from `bootstrap`, which resamples whole
frames at the indices `resample_indices` drew, so a caller may draw a
stream's indices once and evaluate them on several samples of the same
sizes.
"""
from __future__ import annotations

import math
from itertools import chain
from typing import NamedTuple

import numpy as np

from .types import (
    DegenerateStatisticError,
    InsufficientDataError,
    ParameterError,
)


# Bootstrap resamples per uncertainty.
_RESAMPLES = 200
# Resampled cells (resamples times sample items) that `bootstrap` holds
# at once; bounds its memory whatever the sample size.
_BOOTSTRAP_BLOCK_CELLS = 2**16
# Frames of records.csv formatted by one `%` operation.
_WRITE_RECORDS = 1024


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


def frame_stats(n1, n2) -> np.ndarray:
    """The statistics table of a hypothesis: the integers (S1, S2, S11,
    S22, S12, K) of each frame, as a (6, images) int64 array."""
    n1, n2 = _counts(n1, n2)
    dots = (np.einsum("ij,ij->i", x, y) for x, y in ((n1, n1), (n2, n2), (n1, n2)))
    pixels = np.full(n1.shape[0], n1.shape[1], dtype=np.int64)
    return np.stack((n1.sum(axis=1), n2.sum(axis=1), *dots, pixels))


def frame_covariance(stats: np.ndarray) -> np.ndarray:
    """Plug-in covariance of each frame of a statistics table, (K S12 -
    S1 S2) / K^2: E[N1 N2] - E[N1] E[N2] over its K pixel pairs."""
    s1, s2, s12, k = stats[0], stats[1], stats[4], stats[5]
    if k.min() < 2:
        raise InsufficientDataError(f"need at least 2 pixel pairs (got {k.min()})")
    numerator = k * s12 - s1 * s2
    out = numerator / k**2
    # numerators past 2**53 round on conversion to float; divide those exactly
    for i in np.flatnonzero(np.abs(numerator) > 2**53):
        out[i] = int(numerator[i]) / int(k[i]) ** 2
    return out


def covariance_hat(n1, n2) -> np.ndarray:
    """`frame_covariance` of each frame (row) of the counts."""
    return frame_covariance(frame_stats(n1, n2))


def _epsilon_parts(sums: np.ndarray) -> tuple:
    """Of rows of pooled sums (S1, S2, S11, S22, S12, K): the means (a, b,
    A, B, C) per pixel, cov = C - ab, nv1 = A - a^2 - a, nv2 = B - b^2 - b."""
    a, b, aa, bb, c = means = [sums[..., i] / sums[..., 5] for i in range(5)]
    return means, c - a * b, aa - a**2 - a, bb - b**2 - b


def _epsilon_from_sums(sums: np.ndarray) -> np.ndarray:
    """Vectorized epsilon over rows of pooled sufficient statistics."""
    _, cov, nv1, nv2 = _epsilon_parts(sums)
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.where((nv1 > 0) & (nv2 > 0), cov / np.sqrt(nv1 * nv2), np.nan)


def epsilon_rows(stats: np.ndarray) -> np.ndarray:
    """Epsilon of each row of (6, rows, images) frame statistics, pooled
    over the row's frames in exact int64 sums; NaN where a normally
    ordered variance is not positive."""
    return _epsilon_from_sums(stats.sum(axis=-1).T)


def epsilon_influence(stats: np.ndarray) -> list:
    """[IF] of a statistics table whose epsilon is not NaN (module docstring)."""
    means, cov, nv1, nv2 = _epsilon_parts(stats.sum(axis=-1))
    a, b = means[:2]
    r = math.sqrt(nv1 * nv2)
    g = cov / r
    da, db = g * (2 * a + 1) / (2 * nv1) - b / r, g * (2 * b + 1) / (2 * nv2) - a / r
    centred = stats[:5] / stats[5] - np.array(means)[:, None]
    return [np.dot((da, db, -g / (2 * nv1), -g / (2 * nv2), 1 / r), centred)]


def one_row(stat, *samples) -> float:
    """The row-wise `stat` on the samples themselves, as one row; a
    degenerate sample raises DegenerateStatisticError."""
    value = float(stat(*(sample[..., None, :] for sample in samples))[0])
    if math.isnan(value):
        raise DegenerateStatisticError("a denominator of the statistic is not positive")
    return value


def resample_indices(sizes, rng: np.random.Generator, resamples: int = _RESAMPLES) -> list:
    """Frame indices of `resamples` bootstrap resamples of samples of n
    items each, for n in `sizes`: per sample a (resamples, n) array of the
    smallest unsigned dtype that holds n.  Each resample draws, sample by
    sample, n indices with replacement, one `rng.integers(0, n, n)` call
    each."""
    picks = [np.empty((resamples, n), np.min_scalar_type(n)) for n in sizes]
    for row in range(resamples):
        for pick, n in zip(picks, sizes):
            pick[row] = rng.integers(0, n, n)
    return picks


def bootstrap(stat, samples, picks) -> tuple[float, float]:
    """(estimate, bootstrap sigma) of the row-wise statistic `stat`,
    resampling the last axis of each sample at `picks`, what
    `resample_indices` drew: one (resamples, n) array per sample of n
    items.  Resamples are evaluated in blocks of at most
    `_BOOTSTRAP_BLOCK_CELLS` resampled cells (at least one resample a
    block); values that are not finite are dropped, and at least 2 must
    remain."""
    samples = [np.asarray(sample) for sample in samples]
    if min(sample.shape[-1] for sample in samples) < 2:
        raise InsufficientDataError("need at least 2 values per sample to bootstrap")
    estimate = one_row(stat, *samples)
    rows = max(1, _BOOTSTRAP_BLOCK_CELLS // sum(sample.size for sample in samples))
    values = np.concatenate([
        stat(*(np.take(s, pick[start : start + rows], axis=-1) for s, pick in zip(samples, picks)))
        for start in range(0, len(picks[0]), rows)
    ])
    values = values[np.isfinite(values)]
    if values.size < 2:
        raise DegenerateStatisticError("bootstrap resamples all degenerate")
    return estimate, float(np.std(values, ddof=1))


def delta_method(stat, influence, *samples) -> tuple[float, float]:
    """(estimate, sigma) of the row-wise `stat`: its one-row case, and
    sqrt(sum of sd(IF)^2 / n) over the per-item influences IF of each
    sample that `influence` returns, sd with divisor n-1."""
    if min(sample.shape[-1] for sample in samples) < 2:
        raise InsufficientDataError("need at least 2 values per sample")
    estimate = one_row(stat, *samples)
    sds = (np.std(values, ddof=1) / math.sqrt(values.size) for values in influence(*samples))
    return estimate, math.hypot(*sds)


def snr_rows(in_values: np.ndarray, out_values: np.ndarray) -> np.ndarray:
    """|mean(in) - mean(out)| / sqrt(var(in) + var(out)) of each row of
    (rows, n) per-frame covariances, variances with divisor n-1; NaN where
    both variances are 0.  This is the per-frame SNR; divide by sqrt(K)
    to compare against the per-pixel-pair analytic value."""
    if in_values.shape[-1] < 2 or out_values.shape[-1] < 2:
        raise InsufficientDataError("need at least 2 records per hypothesis")
    denom_sq = in_values.var(axis=-1, ddof=1) + out_values.var(axis=-1, ddof=1)
    contrast = np.abs(in_values.mean(axis=-1) - out_values.mean(axis=-1))
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.where(denom_sq > 0.0, contrast / np.sqrt(denom_sq), np.nan)


def snr_influence(in_values: np.ndarray, out_values: np.ndarray) -> list:
    """[IF_in, IF_out] of one row per hypothesis whose SNR is not NaN
    (module docstring)."""
    (m_in, v_in), (m_out, v_out) = ((d.mean(), d.var(ddof=1)) for d in (in_values, out_values))
    total = v_in + v_out
    snr, sign = abs(m_in - m_out) / math.sqrt(total), np.sign(m_in - m_out)
    return [
        s * (d - m) / math.sqrt(total) - snr * ((d - m) ** 2 - v) / (2 * total)
        for d, m, v, s in ((in_values, m_in, v_in, sign), (out_values, m_out, v_out, -sign))
    ]


def _batch_means(values: np.ndarray, batches: int, images_per_decision: int) -> np.ndarray:
    """Mean of each run of `images_per_decision` frames of each row."""
    frames = values[:, : batches * images_per_decision]
    frames = frames.reshape(len(values), batches, images_per_decision)
    # the sum and division of .mean(), without its overhead
    return frames.sum(axis=-1) / images_per_decision


def perr_batches(frames_in: int, frames_out: int, images_per_decision: int) -> tuple[int, int]:
    """Batches per hypothesis that `perr_rows` forms from these frame counts,
    checked before any frame is drawn: fewer than 10 raise InsufficientDataError."""
    if images_per_decision < 1:
        raise ParameterError(f"images_per_decision must be >= 1 (got {images_per_decision})")
    batches_in = frames_in // images_per_decision
    batches_out = frames_out // images_per_decision
    if batches_in < 10 or batches_out < 10:
        raise InsufficientDataError(
            f"need >= 10 batches per hypothesis (got {batches_in}, {batches_out})"
        )
    return batches_in, batches_out


def perr_rows(
    in_values: np.ndarray, out_values: np.ndarray, images_per_decision: int
) -> PerrEstimate:
    """Empirical minimum error probability of the threshold receiver on
    each row of (rows, n) per-frame covariances; p_err and threshold are
    arrays with one value per row.

    Per-frame covariances are batched into decisions of
    `images_per_decision` frames, batch covariances averaged, and every
    midpoint between adjacent pooled batch means is scanned; ties resolve
    to the smallest threshold.  The batch counts are reported alongside.
    """
    batches_in, batches_out = perr_batches(
        in_values.shape[-1], out_values.shape[-1], images_per_decision
    )
    means = np.concatenate(
        (
            _batch_means(in_values, batches_in, images_per_decision),
            _batch_means(out_values, batches_out, images_per_decision),
        ),
        axis=1,
    )
    order = np.argsort(means, axis=1)
    pooled = np.take_along_axis(means, order, axis=1)
    candidates = np.concatenate(
        (pooled[:, :1] - 1.0, 0.5 * (pooled[:, :-1] + pooled[:, 1:]), pooled[:, -1:] + 1.0),
        axis=1,
    )
    tied = pooled[:, 1:] == pooled[:, :-1]
    # Candidate j lies between the j lowest means and the rest, so j means
    # are at or below it and the misses are the "in" means among those j;
    # j never splits a run of equal means, so their sort order cannot
    # matter.  A candidate that rounds onto the mean above it (adjacent
    # doubles, or m - 1 == m past 2**53) or below the one under it (a sum
    # that overflows) is counted exactly instead.
    outside = np.zeros(candidates.shape, dtype=bool)
    outside[:, :-1] = candidates[:, :-1] >= pooled
    outside[:, 1:] |= candidates[:, 1:] < pooled
    outside[:, 1:-1] &= ~tied
    misses = np.zeros(candidates.shape, dtype=np.int64)
    np.cumsum(order < batches_in, axis=1, out=misses[:, 1:])
    at_or_below = np.arange(candidates.shape[1])
    fixes = np.nonzero(outside)
    if len(fixes[0]):
        at_or_below = np.repeat(at_or_below[None], len(candidates), axis=0)
        for row, j in zip(*fixes):
            at_or_below[row, j] = np.searchsorted(pooled[row], candidates[row, j], side="right")
        misses = np.take_along_axis(misses, at_or_below, axis=1)
    false_alarms = batches_out - (at_or_below - misses)
    risk = 0.5 * (false_alarms / batches_out + misses / batches_in)
    # candidates lie between distinct means, not between equal ones
    risk[:, 1:-1][tied] = np.inf
    best = np.argmin(risk, axis=1)[:, None]
    return PerrEstimate(
        np.take_along_axis(risk, best, axis=1)[:, 0],
        np.take_along_axis(candidates, best, axis=1)[:, 0],
        batches_in,
        batches_out,
    )


def perr_hat(in_values, out_values, images_per_decision: int) -> PerrEstimate:
    """`perr_rows` of one row of per-frame covariances per hypothesis."""
    rows = (np.asarray(values, dtype=float)[None] for values in (in_values, out_values))
    p_err, threshold, *batches = perr_rows(*rows, images_per_decision)
    return PerrEstimate(float(p_err[0]), float(threshold[0]), *batches)


def write_records_csv(path: str, in_values, out_values) -> None:
    """Per-frame covariances of both hypotheses; columns frame,hypothesis,delta12,
    lines ended by "\\r\\n".  Each block of `_WRITE_RECORDS` frames is one `%` of
    the row template "%d,<label>,%r\\r\\n"; `%r` is a float's shortest repr."""
    with open(path, "w", newline="") as handle:
        handle.write("frame,hypothesis,delta12\r\n")
        for label, values in (("in", in_values), ("out", out_values)):
            deltas = np.asarray(values, dtype=float)
            for start in range(0, deltas.size, _WRITE_RECORDS):
                block = deltas[start : start + _WRITE_RECORDS].tolist()
                cells = tuple(chain.from_iterable(enumerate(block, start)))
                handle.write(f"%d,{label},%r\r\n" * len(block) % cells)
