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
bits.  The key is `typed`: `np.float64(0.5)` and `0.5` compare equal but
give results of different types, so they get separate entries.  0.0 and
-0.0 share an entry, which is safe because `_pair_cumulants` adds 0.0 to
every cumulant it returns, which turns a signed zero into +0.0.

The normal CDF `_ndtr` is a port of the Cephes `ndtr`/`erf`/`erfc` that
`scipy.special.ndtr` runs, with the same constants, branches and operation
order (the polynomials are unrolled Horner forms of `polevl`/`p1evl`), so it
returns scipy's bits for every double, nan and +-inf included, while this
module and the CLI that imports it load no scipy.  The shorter
`0.5 * math.erfc(-a / math.sqrt(2))` is not used: it rounds differently from
scipy's ndtr on about a third of arguments and underflows differently in the
far lower tail, which would move every printed `error_probability`.

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


@functools.lru_cache(maxsize=_PAIR_CACHE_SIZE, typed=True)
def _pair_cumulants(
    kind: SourceKind, mu: float, split_ratio: float, e1: float, e2: float
) -> tuple:
    """Per-mode factorial cumulants (k10, k01, k20, k02, k11, k12, k21, k22)
    of one detected mode pair: k_ij is i! j! times the x1^i x2^j
    coefficient of -log(1 - u) = u + u^2/2 + u^3/3 + u^4/4 + ..."""
    if kind is SourceKind.TWIN_BEAM:
        a, b, c = mu * e1, mu * e2, mu * e1 * e2
    else:
        nu = mu / split_ratio  # the pre-split mean, as in SourceSpec
        a, b, c = nu * (split_ratio * e1), nu * ((1.0 - split_ratio) * e2), 0.0
    ab = a * b
    cumulants = (
        a, b,  # k10, k01
        a * a, b * b,  # k20, k02
        c + ab,  # k11
        2.0 * (b * c + ab * b), 2.0 * (a * c + a * ab),  # k12, k21
        2.0 * c * c + 8.0 * ab * c + 6.0 * ab * ab,  # k22
    )
    return tuple(k + 0.0 for k in cumulants)  # -0.0 -> +0.0


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
        m22=k22 + k20 * k02 + 2.0 * k11**2,
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
    nv2 = source.modes * f02 + background.mean_total**2 / background.modes_b
    if nv1 <= 0.0 or nv2 <= 0.0:
        raise DegenerateStatisticError(
            f"normally ordered variances must be positive (got {nv1}, {nv2})"
        )
    cov = channel.mode_match * source.modes * f11  # bit for bit `moments(...).cov`
    return cov / (math.sqrt(nv1) * math.sqrt(nv2))


def snr(scenario: Scenario) -> float:
    """Contrast-to-noise ratio of the covariance receiver, per single
    pixel pair; multiply by sqrt(K * frames averaged) for an acquisition."""
    m_in = moments(scenario)
    m_out = _moments(scenario, scenario.channel.arm2_efficiency_given(False))
    numerator = abs(m_in.cov)
    denom_sq = m_in.delta_product_variance + m_out.delta_product_variance
    if denom_sq <= 0.0:
        return 0.0
    return numerator / math.sqrt(denom_sq)


def snr_dominant_background(scenario: Scenario) -> float:
    """Large-background limit of `snr`: cov / sqrt(2 var1 var_b)."""
    m_in = moments(scenario)
    var_b = variance_law(scenario.background.mean_total, scenario.background.modes_b)
    denom_sq = 2.0 * m_in.var1 * var_b
    if denom_sq <= 0.0:
        raise DegenerateStatisticError(
            "dominant-background form needs fluctuating arm 1 and background"
        )
    return abs(m_in.cov) / math.sqrt(denom_sq)


def enhancement(mu: float) -> float:
    """Quantum-over-classical SNR ratio at equal local resources: (1+mu)/mu."""
    if not math.isfinite(mu) or mu <= 0.0:
        raise ParameterError(f"mu must be finite and > 0 (got {mu})")
    return (1.0 + mu) / mu


def _erf_small(x: float) -> float:
    """Cephes erf for abs(x) <= 1: x T(x^2) / U(x^2)."""
    z = x * x
    p = (((9.60497373987051638749e0 * z + 9.00260197203842689217e1) * z
          + 2.23200534594684319226e3) * z + 7.00332514112805075473e3) * z + 5.55923013010394962768e4
    q = ((((z + 3.35617141647503099647e1) * z + 5.21357949780152679795e2) * z
          + 4.59432382970980127987e3) * z + 2.26290000613890934246e4) * z + 4.92673942608635921086e4
    return x * p / q


def _erfc_large(x: float) -> float:
    """Cephes erfc for x >= 1 (and nan): exp(-x^2) P(x) / Q(x), or R / S from 8 up."""
    z = -x * x
    if z < -7.09782712893383996843e2:  # MAXLOG: exp(z) underflows
        return 0.0
    z = math.exp(z)
    if x < 8.0:
        p = ((((((((2.46196981473530512524e-10 * x + 5.64189564831068821977e-1) * x
                  + 7.46321056442269912687e0) * x + 4.86371970985681366614e1) * x
                + 1.96520832956077098242e2) * x + 5.26445194995477358631e2) * x
              + 9.34528527171957607540e2) * x + 1.02755188689515710272e3) * x
             + 5.57535335369399327526e2)
        q = (((((((x + 1.32281951154744992508e1) * x + 8.67072140885989742329e1) * x
                 + 3.54937778887819891062e2) * x + 9.75708501743205489753e2) * x
               + 1.82390916687909736289e3) * x + 2.24633760818710981792e3) * x
             + 1.65666309194161350182e3) * x + 5.57535340817727675546e2
    else:
        p = ((((5.64189583547755073984e-1 * x + 1.27536670759978104416e0) * x
               + 5.01905042251180477414e0) * x + 6.16021097993053585195e0) * x
             + 7.40974269950448939160e0) * x + 2.97886665372100240670e0
        q = (((((x + 2.26052863220117276590e0) * x + 9.39603524938001434673e0) * x
               + 1.20489539808096656605e1) * x + 1.70814450747565897222e1) * x
             + 9.60896809063285878198e0) * x + 3.36907645100081516050e0
    return (z * p) / q


def _ndtr(a: float) -> float:
    """Standard normal CDF, bit-identical to `scipy.special.ndtr`."""
    x = a * 0.70710678118654752440  # SQRT1_2
    z = abs(x)
    if z < 0.70710678118654752440:
        return 0.5 + 0.5 * _erf_small(x)
    # Cephes erfc(z) is 1 - erf(z) below 1
    y = 0.5 * ((1.0 - _erf_small(z)) if z < 1.0 else _erfc_large(z))
    return 1.0 - y if x > 0 else y


def _min_error_two_gaussians(
    m0: float, s0: float, m1: float, s1: float
) -> tuple[float, float]:
    """Minimum equal-prior error of a threshold test between
    Normal(m0, s0^2) (declare below) and Normal(m1, s1^2) (declare above),
    with the optimum at a likelihood-ratio crossing."""
    if m1 <= m0:
        return 0.5, m0
    if s0 == 0.0 and s1 == 0.0:
        return 0.0, 0.5 * (m0 + m1)
    # a width whose square underflows is taken as 0 (an exact-zero s1 goes below)
    if s0**2 == 0.0 and s1 != 0.0:
        return 0.5 * _ndtr((m0 - m1) / s1), m0
    if s1**2 == 0.0:
        return 0.5 * _ndtr(-((m1 - m0) / s0)), m1

    a = 1.0 / s1**2 - 1.0 / s0**2
    b = -2.0 * (m1 / s1**2 - m0 / s0**2)
    c = m1**2 / s1**2 - m0**2 / s0**2 - 2.0 * math.log(s0 / s1)
    if abs(a) < 1e-300:
        # equal widths: one crossing, none once b underflows (means a subnormal apart)
        candidates = [-c / b] if b != 0.0 else []
    else:
        disc = b * b - 4.0 * a * c
        if not math.isfinite(disc):
            # b*b or 4ac overflows: the narrower width is negligible, take it as 0
            narrow0 = s0 < s1
            return _min_error_two_gaussians(m0, 0.0 if narrow0 else s0, m1, s1 if narrow0 else 0.0)
        if disc < 0.0:
            candidates = [0.5 * (m0 + m1)]
        else:
            root = math.sqrt(disc)
            candidates = [(-b - root) / (2.0 * a), (-b + root) / (2.0 * a)]

    best_p, best_tau = 0.5, m1
    for tau in candidates:
        p = 0.5 * (_ndtr(-((tau - m0) / s0)) + _ndtr((tau - m1) / s1))
        if p < best_p:
            best_p, best_tau = float(p), float(tau)
    return best_p, best_tau


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
    m_out = _moments(scenario, scenario.channel.arm2_efficiency_given(False))
    n_eff = scenario.pixel_pairs * images_per_decision
    s_in = math.sqrt(max(0.0, m_in.delta_product_variance) / n_eff)
    s_out = math.sqrt(max(0.0, m_out.delta_product_variance) / n_eff)
    p_err, _ = _min_error_two_gaussians(0.0, s_out, m_in.cov, s_in)
    return p_err
