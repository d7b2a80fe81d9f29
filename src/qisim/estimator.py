"""Measurement pipeline on count arrays: covariance, epsilon, SNR, error rate.

Each hypothesis's counts arrive as (rows, K) int64 arrays n1 and n2, one
row per frame, whole or block by block, which `frame_stats` turns into
one integer table, (S1, S2, S11, S22, S12, K) per frame.  Epsilon pools the table over all
frames; SNR and the error rate read its `frame_covariance` per frame.

Conventions follow the receiver definition: the per-frame covariance uses
the plug-in estimator with divisor K, while SNR sample variances use
divisor n-1.  All pooled reductions run on exact integer sums of the
counts, so results are independent of summation order by construction
(we never accumulate in floating point until the final division); counts
large enough to wrap those int64 sums raise ParameterError.

Epsilon, SNR and the mean covariance are smooth functions of frame
means.  Each of `epsilon_hat`, `snr_hat` and `mean_covariance` returns
(estimate, sigma) in one pass, the delta method's sigma being sqrt(sum
over samples of sd(IF)^2 / n), sd with divisor n-1, IF being each frame's
influence on the estimate:
- mean covariance: the per-frame covariance, up to an offset;
- epsilon = g = cov / r, from the pooled means (a, b, A, B, C) of x = (S1,
  S2, S11, S22, S12) / K, with cov = C - ab, nv1 = A - a^2 - a, nv2 =
  B - b^2 - b, r = sqrt(nv1 nv2): IF = (-b/r + g(2a+1)/(2 nv1), -a/r +
  g(2b+1)/(2 nv2), -g/(2 nv1), -g/(2 nv2), 1/r) . (x - (a, b, A, B, C));
- SNR f = (m_in - m_out) / sqrt(V) with V = v_in + v_out, signed so that
  it has no kink at 0: on each hypothesis's covariances d, IF = s(d -
  m)/sqrt(V) - f((d - m)^2 - v)/(2V), s being +1 for "in" and -1 for
  "out"; the per-pixel-pair SNR f / sqrt(K) has IF / sqrt(K).

The error rate (`perr_hat`) is not smooth in the frames: it counts
decisions.  The per-frame covariances of each hypothesis are averaged
over batches of `images_per_decision` frames, one batch per decision.
The threshold tau is where two normal laws fitted to the batch means
cross at equal priors (`analytic._min_error_two_gaussians`, the Gaussian
receiver of Tan et al., PRL 101, 253601 (2008)): each law takes the mean
and the sd (divisor n-1) of its hypothesis's batch means, both correctly
rounded by `statistics`, so equal batch means fit a width of exactly 0.
An "in" mean at or below tau is a miss and an "out" mean above it a
false alarm; a fit of width 0 puts tau just below its "in" mean, or at
its "out" mean, so no batch at that mean counts as an error.  With p_m
and p_f those shares of B_in and B_out batches, the estimate is
(p_m + p_f)/2 and its binomial sigma is
sqrt(p_m(1 - p_m)/B_in + p_f(1 - p_f)/B_out)/2.  Two parameters fitted
from all batches barely bias the count, unlike a threshold chosen to
minimise the errors on the same batches.  Where the hypotheses cannot be
told apart, the estimate may exceed 0.5; where no batch is misclassified,
it is 0 with sigma 0.
"""
from __future__ import annotations

import math
from itertools import chain
from typing import NamedTuple

import numpy as np

from .analytic import _min_error_two_gaussians
from .types import (
    DegenerateStatisticError,
    InsufficientDataError,
    ParameterError,
)


# Frames of records.csv formatted by one `%` operation.
_WRITE_RECORDS = 1024


class PerrEstimate(NamedTuple):
    p_err: float
    threshold: float
    batches_in: int
    batches_out: int
    sigma: float


def _counts(n1, n2, images: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """n1 and n2 as (rows, K) int64 arrays whose sums cannot wrap, the
    rows being a block of a hypothesis of `images` frames (all of them if
    None).

    Within a frame s1*s2 reaches K^2 max^2; pooled over the frames S22
    reaches images*K*max^2.  The bound is checked in Python ints, so the
    check itself cannot wrap, and a block's bound holds over all `images`
    frames, so every block of a hypothesis passes exactly when the whole
    does.
    """
    n1 = np.asarray(n1, dtype=np.int64)
    n2 = np.asarray(n2, dtype=np.int64)
    if n1.shape != n2.shape or n1.ndim != 2 or n1.size == 0:
        raise ParameterError("n1 and n2 must be non-empty (images, K) arrays of equal shape")
    rows, k = n1.shape
    check_count_range(min(n1.min(), n2.min()), max(n1.max(), n2.max()), rows if images is None else images, k)
    return n1, n2


def check_count_range(low, peak, images: int, k: int) -> None:
    """Raise `ParameterError` unless counts from `low` to `peak` over
    `images` x `k` pixels are non-negative and their sums cannot wrap."""
    if low < 0:
        raise ParameterError("counts must be non-negative")
    peak = int(peak)
    if peak**2 * k * max(images, k) >= 2**63:
        raise ParameterError(f"counts up to {peak} over {images} x {k} pixels overflow int64 sums")


def frame_stats(n1, n2, images: int | None = None) -> np.ndarray:
    """The statistics table of (rows, K) counts: the integers (S1, S2,
    S11, S22, S12, K) of each frame, as a (6, rows) int64 array.  The rows
    may be one block of a hypothesis of `images` frames, whose tables
    side by side are the hypothesis's."""
    n1, n2 = _counts(n1, n2, images)
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


def _need_two(*samples) -> None:
    if min(sample.shape[-1] for sample in samples) < 2:
        raise InsufficientDataError("need at least 2 values per sample")


def _sigma(*influences) -> float:
    """sqrt(sum of sd(IF)^2 / n) over each sample's per-frame influences
    IF, sd with divisor n-1."""
    return math.hypot(*(np.std(f, ddof=1) / math.sqrt(f.size) for f in influences))


def mean_covariance(deltas: np.ndarray) -> tuple[float, float]:
    """(mean, standard error) of per-frame covariances."""
    _need_two(deltas)
    return float(deltas.mean()), _sigma(deltas)


def epsilon_hat(stats: np.ndarray) -> tuple[float, float]:
    """(epsilon, sigma) of a (6, images) statistics table, pooled over its
    frames in exact int64 sums; a normally ordered variance that is not
    positive raises DegenerateStatisticError."""
    _need_two(stats)
    sums = stats.sum(axis=-1)
    a, b, aa, bb, c = means = [sums[i] / sums[5] for i in range(5)]
    cov, nv1, nv2 = c - a * b, aa - a * a - a, bb - b * b - b
    if not (nv1 > 0 and nv2 > 0):
        raise DegenerateStatisticError("a normally ordered variance is not positive")
    r = math.sqrt(nv1 * nv2)
    g = cov / r
    da, db = g * (2 * a + 1) / (2 * nv1) - b / r, g * (2 * b + 1) / (2 * nv2) - a / r
    centred = stats[:5] / stats[5] - np.array(means)[:, None]
    return float(g), _sigma(np.dot((da, db, -g / (2 * nv1), -g / (2 * nv2), 1 / r), centred))


def snr_hat(in_values: np.ndarray, out_values: np.ndarray, pixel_pairs: int) -> tuple[float, float]:
    """(SNR, sigma) per pixel pair: (mean(in) - mean(out)) / sqrt(var(in) +
    var(out)) of per-frame covariances, variances with divisor n-1, over
    sqrt(pixel_pairs); negative where mean(in) < mean(out).  Both variances
    0 raise DegenerateStatisticError."""
    _need_two(in_values, out_values)
    (m_in, v_in), (m_out, v_out) = ((d.mean(), d.var(ddof=1)) for d in (in_values, out_values))
    total = v_in + v_out
    if not total > 0.0:
        raise DegenerateStatisticError("zero sample variance in both hypotheses")
    snr = (m_in - m_out) / math.sqrt(total)
    root = math.sqrt(pixel_pairs)
    return float(snr) / root, _sigma(*(
        (s * (d - m) / math.sqrt(total) - snr * ((d - m) ** 2 - v) / (2 * total)) / root
        for d, m, v, s in ((in_values, m_in, v_in, 1.0), (out_values, m_out, v_out, -1.0))
    ))


def perr_batches(frames_in: int, frames_out: int, images_per_decision: int) -> tuple[int, int]:
    """Batches per hypothesis that `perr_hat` forms from these frame counts,
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


def perr_hat(in_values, out_values, images_per_decision: int) -> PerrEstimate:
    """Error probability of the threshold receiver on per-frame covariances,
    with its threshold, the batch counts and its binomial sigma (module
    docstring)."""
    # imported here: with fractions and decimal it costs about 5 ms and
    # 0.5 MB, which only perr needs
    import statistics

    in_values, out_values = (np.asarray(values, dtype=float) for values in (in_values, out_values))
    batches_in, batches_out = perr_batches(in_values.size, out_values.size, images_per_decision)
    in_means, out_means = (
        values[: batches * images_per_decision].reshape(batches, images_per_decision).mean(axis=-1)
        for values, batches in ((in_values, batches_in), (out_values, batches_out))
    )
    (m_out, s_out), (m_in, s_in) = (
        (statistics.mean(means), statistics.stdev(means))
        for means in (out_means.tolist(), in_means.tolist())
    )
    _, tau = _min_error_two_gaussians(m_out, s_out, m_in, s_in)
    miss = int(np.count_nonzero(in_means <= tau)) / batches_in
    false_alarm = int(np.count_nonzero(out_means > tau)) / batches_out
    sigma = 0.5 * math.sqrt(
        miss * (1.0 - miss) / batches_in + false_alarm * (1.0 - false_alarm) / batches_out
    )
    return PerrEstimate(0.5 * (miss + false_alarm), tau, batches_in, batches_out, sigma)


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
