"""Closed-form photon-number moments and figures of merit.

The detected pair (N1, N2) is a sum of independent per-mode contributions,
so its bivariate cumulants are per-mode cumulants scaled by the mode
count.  Per mode, the probability generating function of the detected
pair is the thermal one, 1 / (1 - mu (z - 1)), taken at the thinned
arguments (Mandel and Wolf, *Optical Coherence and Quantum Optics*, 1995).
With x = z - 1 on each arm it is 1 / (1 - u), u = A x1 + B x2 + C x1 x2:
a twin pair thins the same photons on both arms, so (A, B, C) =
(mu e1, mu e2, mu e1 e2); a split beam routes each photon to arm 1 with
probability p1, to arm 2 with p2 or to neither, so (A, B, C) =
(nu p1, nu p2, 0).  The factorial cumulants are the Taylor coefficients of
-log(1 - u), Stirling numbers on each axis turn them into ordinary
cumulants, and the normally ordered variances are the factorial cumulants
k[2,0] and k[0,2] themselves.  Each is a sum of nonnegative products, so
nothing cancels, and the `oracle` module checks the moments by exhaustive
enumeration.

The per-mode factorial cumulants are cached: `_pair_cumulants` is an
`lru_cache` keyed on the plain scalars it reads (source kind, mu, split
ratio, and the two arm efficiencies, the second of which carries the
hypothesis).  Along a background sweep only the background changes, so
each (source, hypothesis) expands the generating function once.  The
mode count, `mode_match` and the background stay outside the key,
because `moments` applies them to the cached cumulants afterwards.
A hit returns the tuple a cold call with the same key built, so results
do not depend on the call history as long as equal keys compute equal
bits, which holds because the cache is keyed on the plain floats that
specs hold (see `types`).

All functions are pure and operate on immutable specs.
"""
from __future__ import annotations

import functools
import math

from .types import (
    DegenerateStatisticError,
    MomentSet,
    ParameterError,
    Scenario,
    SourceKind,
)

# Distinct (source, hypothesis) pair cumulants kept by `_pair_cumulants`.
_PAIR_CACHE_SIZE = 256


@functools.lru_cache(maxsize=_PAIR_CACHE_SIZE)
def _pair_cumulants(
    kind: SourceKind, mu: float, split_ratio: float, e1: float, e2: float
) -> tuple:
    """Per-mode factorial cumulants (k10, k01, k20, k02, k11, k12, k21, k22)
    of one detected mode pair: k_ij is i! j! times the x1^i x2^j
    coefficient of -log(1 - u) = u + u^2/2 + u^3/3 + u^4/4 + ..."""
    if kind is SourceKind.TWIN_BEAM:
        a, b, c = mu * e1, mu * e2, mu * e1 * e2
    else:
        # mu is arm 1's share t of the pre-split mean, so arm 2 gets mu (1 - t)/t;
        # dividing by t last keeps b = 0 where mu e2 = 0, whatever t
        a, b, c = mu * e1, mu * e2 * (1.0 - split_ratio) / split_ratio, 0.0
    ab = a * b
    return (
        a, b,  # k10, k01
        a * a, b * b,  # k20, k02
        c + ab,  # k11
        2.0 * (b * c + ab * b), 2.0 * (a * c + a * ab),  # k12, k21
        2.0 * c * c + 8.0 * ab * c + 6.0 * ab * ab,  # k22
    )


def variance_law(mean_total: float, modes: int) -> float:
    """Variance of a multithermal beam: mean_total * (1 + mean_total/modes)."""
    if not math.isfinite(mean_total) or mean_total < 0.0:
        raise ParameterError(f"mean_total must be finite and >= 0 (got {mean_total})")
    if modes < 1:
        raise ParameterError(f"modes must be >= 1 (got {modes})")
    return mean_total * (1.0 + mean_total / modes)


def moments(scenario: Scenario) -> MomentSet:
    """Exact detected-count moments of one pixel pair.

    Composition: every source mode contributes the cumulants of one mode
    pair to each arm's own cumulants (k10, k01, k20, k02), because
    mode-mismatched light has the local statistics of matched light; only
    the mode_match fraction of modes stays correlated across the arms and
    contributes the joint cumulants k11 and k22.  The background adds
    independently to arm 2, and the target hypothesis enters through
    `ChannelSpec.arm2_efficiency` alone.  Cumulants add across all of
    these, and the fourth-order central moment is reconstructed from
    them at the end.
    """
    return _moments(scenario, scenario.channel.arm2_efficiency)


def _moments(scenario: Scenario, arm2_efficiency: float) -> MomentSet:
    """`moments` with `arm2_efficiency` in place of the channel's own, so
    the other hypothesis needs no second `Scenario`."""
    source, channel, background = scenario.source, scenario.channel, scenario.background
    f10, f01, f20, f02, f11, f12, f21, f22 = _pair_cumulants(
        source.kind, source.mu, source.split_ratio, channel.eta1, arm2_efficiency
    )
    matched = channel.mode_match * source.modes
    # ordinary from factorial cumulants, by x^2 = (x)_2 + (x)_1 on each axis
    k10 = source.modes * f10
    k01 = source.modes * f01 + background.mean_total
    k20 = source.modes * (f20 + f10)
    k02 = source.modes * (f02 + f01) + variance_law(background.mean_total, background.modes_b)
    k11 = matched * f11
    k22 = matched * (f22 + f21 + f12 + f11)

    return MomentSet(
        mean1=k10,
        mean2=k01,
        var1=k20,
        var2=k02,
        cov=k11,
        m22=k22 + k20 * k02 + 2.0 * k11 * k11,
    )


def epsilon(scenario: Scenario) -> float:
    """Normally ordered cross correlation over the geometric mean of the
    normally ordered variances; > 1 certifies nonclassical correlation.

    The normally ordered variances are the second factorial cumulants:
    modes * k20 on arm 1, and modes * k02 plus the background's
    N_b^2 / M_b on arm 2.  Their product may underflow, so each is rooted.
    """
    source, channel, background = scenario.source, scenario.channel, scenario.background
    _, _, f20, f02, f11, _, _, _ = _pair_cumulants(
        source.kind, source.mu, source.split_ratio, channel.eta1, channel.arm2_efficiency
    )
    nv1 = source.modes * f20
    nv2 = source.modes * f02 + background.mean_total * background.mean_total / background.modes_b
    if nv1 <= 0.0 or nv2 <= 0.0:
        raise DegenerateStatisticError(
            f"normally ordered variances must be positive (got {nv1}, {nv2})"
        )
    cov = channel.mode_match * source.modes * f11  # bit for bit `moments(...).cov`
    return cov / (math.sqrt(nv1) * math.sqrt(nv2))


def snr(scenario: Scenario) -> float:
    """Contrast-to-noise ratio of the covariance receiver, per single
    pixel pair; multiply by sqrt(K * frames averaged) for an acquisition.
    Raises `DegenerateStatisticError` where neither hypothesis has a
    positive product variance: arm 1 dark, or arm 2 dark under both."""
    m_in = moments(scenario)
    m_out = _moments(scenario, 0.0)  # target absent: `arm2_efficiency` is 0
    denom_sq = m_in.delta_product_variance + m_out.delta_product_variance
    if denom_sq <= 0.0:
        raise DegenerateStatisticError("the product variance must be positive under a hypothesis")
    return m_in.cov / math.sqrt(denom_sq)


def snr_dominant_background(scenario: Scenario) -> float:
    """Large-background limit of `snr`: cov / sqrt(2 var1 var_b)."""
    m_in = moments(scenario)
    var_b = variance_law(scenario.background.mean_total, scenario.background.modes_b)
    denom_sq = 2.0 * m_in.var1 * var_b
    if denom_sq <= 0.0:
        raise DegenerateStatisticError(
            "dominant-background form needs fluctuating arm 1 and background"
        )
    return m_in.cov / math.sqrt(denom_sq)


def enhancement(mu: float) -> float:
    """Quantum-over-classical SNR ratio at equal local resources: (1+mu)/mu."""
    if not math.isfinite(mu) or mu <= 0.0:
        raise ParameterError(f"mu must be finite and > 0 (got {mu})")
    return (1.0 + mu) / mu


def _ndtr(a: float) -> float:
    """Standard normal CDF, from libm's erfc so that no scipy is loaded."""
    return 0.5 * math.erfc(-a * math.sqrt(0.5))


def _min_error_two_gaussians(
    m0: float, s0: float, m1: float, s1: float
) -> tuple[float, float]:
    """Minimum equal-prior error of a threshold test between
    Normal(m0, s0^2) (declare below) and Normal(m1, s1^2) (declare above),
    with the optimum at a likelihood-ratio crossing.

    Mirroring tau -> -tau swaps the roles of the laws, p(m0, s0, m1, s1) =
    p(-m1, s1, -m0, s0), so s1 <= s0 below.  The crossing is solved in the
    units of the narrower law, y = (tau - m1)/s1.  With r = s1/s0 <= 1 and
    d = (m1 - m0)/s0 > 0 it solves (1 - r^2) y^2 - 2 r d y - d^2 + 2 log r
    = 0, whose discriminant / 4, d^2 - 2 (1 - r^2) log r, is at least d^2.
    So the roots are real, and q = r d + sqrt(discriminant / 4) forms
    without cancellation.  They are (2 log r - d^2)/q and, for r < 1,
    q/(1 - r^2).  The error (Phi(-(d + r y)) + Phi(y))/2 falls to the first
    root, rises to the second and falls back towards 1/2 beyond it, so the
    first is the minimum.
    """
    if m1 <= m0:
        return 0.5, m0
    if s0 == 0.0 and s1 == 0.0:
        return 0.0, 0.5 * (m0 + m1)
    if s0 == 0.0:
        return 0.5 * _ndtr((m0 - m1) / s1), m0
    if s1 == 0.0:
        # just below m1, so that "at or below tau" takes no batch at m1
        return 0.5 * _ndtr(-((m1 - m0) / s0)), math.nextafter(m1, -math.inf)
    if s1 > s0:
        p, tau = _min_error_two_gaussians(-m1, s1, -m0, s0)
        return p, -tau

    d = (m1 - m0) / s0
    r = s1 / s0
    log_r = math.log(s1) - math.log(s0)  # finite where r underflows to 0
    q = r * d + math.sqrt(d * d - 2.0 * (1.0 - r * r) * log_r)
    if not math.isfinite(q):
        # d^2 overflows: the narrower width is negligible, take it as 0
        return _min_error_two_gaussians(m0, s0, m1, 0.0)
    if q == 0.0:
        # equal widths, and d underflows to 0: the laws cannot be told apart
        return 0.5, m1
    y = (2.0 * log_r - d * d) / q
    return 0.5 * (_ndtr(-(d + r * y)) + _ndtr(y)), m1 + s1 * y


def error_probability(scenario: Scenario, images_per_decision: int) -> float:
    """Equal-prior error probability of the covariance threshold receiver.

    The decision statistic (covariance averaged over images_per_decision
    frames of pixel_pairs pairs each) is treated as Gaussian under both
    hypotheses, with the threshold at the likelihood-ratio crossing that
    minimizes the average of false-alarm and miss probabilities.
    """
    if images_per_decision < 1:
        raise ParameterError(
            f"images_per_decision must be >= 1 (got {images_per_decision})"
        )
    m_in = moments(scenario)
    m_out = _moments(scenario, 0.0)  # target absent: `arm2_efficiency` is 0
    variances = (m_out.delta_product_variance, m_in.delta_product_variance)
    if not all(math.isfinite(v) for v in variances):
        return math.nan  # moments past the double range: laws this wide are not told apart
    n_eff = scenario.pixel_pairs * images_per_decision
    s_out, s_in = (math.sqrt(max(0.0, v) / n_eff) for v in variances)
    p_err, _ = _min_error_two_gaussians(0.0, s_out, m_in.cov, s_in)
    return p_err
