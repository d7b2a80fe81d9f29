"""Closed-form moments and figures of merit against the enumeration oracle
and against hand-checkable limits."""
from __future__ import annotations

import dataclasses
import hashlib
import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import make_scenario, rel_err
from qisim import analytic, oracle
from qisim.types import (
    DegenerateStatisticError,
    ParameterError,
    SourceKind,
)

MOMENT_FIELDS = ("mean1", "mean2", "var1", "var2", "cov", "m22")


# ---------------------------------------------------------------------------
# variance_law
# ---------------------------------------------------------------------------
def test_variance_law_vacuum():
    assert analytic.variance_law(0.0, 7) == 0.0


def test_variance_law_single_mode():
    assert analytic.variance_law(100.0, 1) == 10100.0


def test_variance_law_reference_point():
    # 4185 detected photons over 9e4 modes
    assert rel_err(analytic.variance_law(4185.0, 90000), 4379.6025) < 1e-12


def test_variance_law_rejects_bad_input():
    with pytest.raises(ParameterError):
        analytic.variance_law(-1.0, 5)
    with pytest.raises(ParameterError):
        analytic.variance_law(1.0, 0)


# ---------------------------------------------------------------------------
# moments
# ---------------------------------------------------------------------------
def test_reference_arm_mean_matches_detected_rate():
    scn = make_scenario(reflectivity=1.0)
    m = analytic.moments(scn)
    assert abs(m.mean1 - 4185.0) < 1e-6  # 9e4 * 0.62 * 0.075
    # the nominal detected rate sits within 1% of the round 4200 figure
    assert abs(4185.0 - 4200.0) / 4200.0 < 0.01


def test_target_absent_has_zero_covariance():
    for kind in SourceKind:
        scn = make_scenario(kind=kind, target_present=False, background_mean=3.0, modes_b=4)
        assert analytic.moments(scn).cov == 0.0


# Frozen from oracle.enumerate_moments (exact enumeration, tail 1e-12):
# twin beam, mu=0.2, M=3, eta=(0.7, 0.5), r=1, no background.
_TWIN_FROZEN = dict(
    mean1=0.42, mean2=0.3, var1=0.4788, var2=0.33, cov=0.252, m22=0.71442
)
# split thermal, mu=0.2, M=2, t=0.5, eta=(0.9, 0.8), r=1, background (2, 0.5).
_SPLIT_FROZEN = dict(
    mean1=0.36, mean2=0.82, var1=0.4248, var2=0.9962, cov=0.0576, m22=0.53654256
)


def test_twin_moments_match_frozen_oracle_values():
    scn = make_scenario(
        mu=0.2, modes=3, eta1=0.7, eta2=0.5, reflectivity=1.0, pixel_pairs=2
    )
    m = analytic.moments(scn)
    for field, expected in _TWIN_FROZEN.items():
        assert rel_err(getattr(m, field), expected) < 1e-9, field


def test_split_moments_match_frozen_oracle_values():
    scn = make_scenario(
        kind=SourceKind.SPLIT_THERMAL,
        mu=0.2,
        modes=2,
        eta1=0.9,
        eta2=0.8,
        reflectivity=1.0,
        modes_b=2,
        background_mean=0.5,
        pixel_pairs=2,
    )
    m = analytic.moments(scn)
    for field, expected in _SPLIT_FROZEN.items():
        assert rel_err(getattr(m, field), expected) < 1e-9, field


_GRID = [
    # (kind, M, mu, e1, e2, r, mm, (modes_b, mean_b), target)
    (SourceKind.TWIN_BEAM, 3, 0.2, 0.7, 0.5, 1.0, 1.0, (1, 0.0), True),
    (SourceKind.TWIN_BEAM, 5, 0.1, 0.7, 0.7, 0.5, 0.7, (2, 0.5), True),
    (SourceKind.TWIN_BEAM, 2, 0.4, 1.0, 0.3, 0.8, 0.6, (1, 1.0), True),
    (SourceKind.TWIN_BEAM, 4, 0.3, 0.3, 1.0, 1.0, 1.0, (4, 2.0), False),
    (SourceKind.SPLIT_THERMAL, 3, 0.2, 0.7, 0.5, 1.0, 1.0, (1, 0.0), True),
    (SourceKind.SPLIT_THERMAL, 5, 0.1, 0.7, 0.7, 0.5, 0.7, (2, 0.5), True),
    (SourceKind.SPLIT_THERMAL, 2, 0.4, 1.0, 0.3, 0.8, 0.6, (1, 1.0), True),
    (SourceKind.SPLIT_THERMAL, 4, 0.3, 0.3, 1.0, 1.0, 1.0, (4, 2.0), False),
]


@pytest.mark.parametrize("case", _GRID)
def test_moments_agree_with_oracle(case):
    kind, modes, mu, e1, e2, r, mm, (modes_b, mean_b), target = case
    scn = make_scenario(
        kind=kind,
        mu=mu,
        modes=modes,
        eta1=e1,
        eta2=e2,
        reflectivity=r,
        mode_match=mm,
        target_present=target,
        modes_b=modes_b,
        background_mean=mean_b,
        pixel_pairs=2,
    )
    assert_moments_agree_with_oracle(scn)


def assert_moments_agree_with_oracle(scn):
    m = analytic.moments(scn)
    ref = oracle.enumerate_moments(scn.source, scn.channel, scn.background)
    # hybrid tolerance: structural zeros (absent target) carry only
    # summation roundoff in the oracle, where a pure ratio is meaningless
    scale = max(1.0, ref.var1, ref.var2, abs(ref.m22))
    for field in MOMENT_FIELDS:
        a, b = getattr(m, field), getattr(ref, field)
        assert abs(a - b) <= 1e-9 * max(abs(a), abs(b)) + 1e-12 * scale, field
    m.check_consistency()
    ref.check_consistency()


_unit = st.floats(0.0, 1.0)


@settings(max_examples=100, deadline=None)
@given(
    kind=st.sampled_from(SourceKind),
    modes=st.integers(1, 5),
    mu=_unit,
    split_ratio=st.floats(0.25, 0.75),
    eta1=_unit,
    eta2=_unit,
    reflectivity=_unit,
    mode_match=_unit,
    target=st.booleans(),
    modes_b=st.integers(1, 5),
    background_mean=st.floats(0.0, 3.0),
)
# scipy's binomial pmf overflows at p near the smallest normal double,
# and its negative binomial pmf is nan for a subnormal mode count
@example(SourceKind.TWIN_BEAM, 1, 1.0, 0.5, 0.0, 1.0, 2.2250738585072014e-308, 0.0, True, 1, 0.0)
@example(SourceKind.TWIN_BEAM, 1, 1.0, 0.5, 0.0, 0.0, 0.0, 5e-324, False, 1, 0.0)
def test_moments_agree_with_oracle_over_parameter_box(
    kind, modes, mu, split_ratio, eta1, eta2, reflectivity, mode_match, target, modes_b,
    background_mean,
):
    scn = make_scenario(
        kind=kind,
        mu=mu,
        modes=modes,
        split_ratio=split_ratio,
        eta1=eta1,
        eta2=eta2,
        reflectivity=reflectivity,
        mode_match=mode_match,
        target_present=target,
        modes_b=modes_b,
        background_mean=background_mean,
        pixel_pairs=2,
    )
    assert_moments_agree_with_oracle(scn)


@settings(max_examples=200, deadline=None)
@given(
    kind=st.sampled_from(SourceKind),
    modes=st.integers(1, 5),
    mu=_unit,
    split_ratio=st.floats(0.25, 0.75),
    eta1=_unit,
    eta2=_unit,
    reflectivity=_unit,
    mode_match=_unit,
    target=st.booleans(),
    modes_b=st.integers(1, 5),
    background_mean=st.floats(0.0, 3.0),
)
@example(SourceKind.TWIN_BEAM, 5, 5e-324, 0.5, 1.0, 1.0, 1.0, 0.3, True, 1, 0.0)
def test_mode_match_moves_only_the_cross_moments(
    kind, modes, mu, split_ratio, eta1, eta2, reflectivity, mode_match, target, modes_b,
    background_mean,
):
    # README: mode_match rescales the cross correlation without touching
    # the local statistics
    scn = make_scenario(
        kind=kind,
        mu=mu,
        modes=modes,
        split_ratio=split_ratio,
        eta1=eta1,
        eta2=eta2,
        reflectivity=reflectivity,
        mode_match=mode_match,
        target_present=target,
        modes_b=modes_b,
        background_mean=background_mean,
    )
    matched = dataclasses.replace(
        scn, channel=dataclasses.replace(scn.channel, mode_match=1.0)
    )
    m, m1 = analytic.moments(scn), analytic.moments(matched)
    for field in ("mean1", "var1", "mean2", "var2"):
        assert getattr(m, field) == getattr(m1, field), field
    # plus an absolute floor: a subnormal cov carries no relative precision
    # plus an absolute floor: a subnormal cov carries no relative precision
    assert abs(m.cov - mode_match * m1.cov) <= 1e-12 * abs(mode_match * m1.cov) + 1e-300
    if not target:
        assert scn.channel.arm2_efficiency == 0.0


# ---------------------------------------------------------------------------
# pair-cumulant cache
# ---------------------------------------------------------------------------
def closed_form_reprs(scn) -> list:
    """repr, type included, of the moments, epsilon and snr (or the name of
    the exception of each), and error_probability at 10 and 100 images per
    decision."""
    m = analytic.moments(scn)
    reprs = [repr(getattr(m, field)) for field in MOMENT_FIELDS]
    for closed_form in (analytic.epsilon, analytic.snr):
        try:
            reprs.append(repr(closed_form(scn)))
        except DegenerateStatisticError as exc:
            reprs.append(type(exc).__name__)
    reprs.extend(repr(analytic.error_probability(scn, ipd)) for ipd in (10, 100))
    return reprs


# Ways to spell one value of mu, eta1, eta2 and reflectivity that compare
# equal and hash alike, but may not compute alike.
_SPELLINGS = {
    "float": float,
    "np.float64": np.float64,
    "-0.0": lambda x: -0.0 if x == 0.0 else float(x),
}
_PLAIN = ("float",) * 4


def _history_example(**overrides):
    case = dict(
        kind=SourceKind.TWIN_BEAM, modes=2, mu=0.5, split_ratio=0.5, eta1=0.7, eta2=0.6,
        reflectivity=0.5, mode_match=1.0, target=True, modes_b=1, background_mean=1.0,
        warm=_PLAIN, spelling=_PLAIN,
    )
    return example(**{**case, **overrides})


@settings(max_examples=200, deadline=None)
@given(
    kind=st.sampled_from(SourceKind),
    modes=st.integers(1, 5),
    mu=_unit,
    split_ratio=st.floats(0.25, 0.75),
    eta1=_unit,
    eta2=_unit,
    reflectivity=_unit,
    mode_match=_unit,
    target=st.booleans(),
    modes_b=st.integers(1, 5),
    background_mean=st.floats(0.0, 3.0),
    warm=st.tuples(*[st.sampled_from(sorted(_SPELLINGS))] * 4),
    spelling=st.tuples(*[st.sampled_from(sorted(_SPELLINGS))] * 4),
)
# np.float64 and float, in both orders: for mu, for the efficiencies
@_history_example(warm=("np.float64", "float", "float", "float"))
@_history_example(spelling=("np.float64", "float", "float", "float"))
@_history_example(kind=SourceKind.SPLIT_THERMAL, warm=("float", "np.float64", "np.float64", "float"))
@_history_example(kind=SourceKind.SPLIT_THERMAL, spelling=("float", "np.float64", "np.float64", "float"))
@_history_example(warm=("float", "float", "float", "np.float64"))
# 0.0 and -0.0, in both orders: for mu, for the efficiencies
@_history_example(mu=0.0, spelling=("-0.0", "float", "float", "float"))
@_history_example(mu=0.0, warm=("-0.0", "float", "float", "float"))
@_history_example(eta1=0.0, eta2=0.0, spelling=("float", "-0.0", "-0.0", "float"))
@_history_example(
    kind=SourceKind.SPLIT_THERMAL, eta1=0.0, eta2=0.0, warm=("float", "-0.0", "-0.0", "float")
)
@_history_example(reflectivity=0.0, warm=("float", "float", "float", "-0.0"))
def test_closed_forms_do_not_depend_on_call_history(
    kind, modes, mu, split_ratio, eta1, eta2, reflectivity, mode_match, target, modes_b,
    background_mean, warm, spelling,
):
    def spelled(spellings):
        values = (mu, eta1, eta2, reflectivity)
        mu_, eta1_, eta2_, reflectivity_ = (
            _SPELLINGS[name](value) for name, value in zip(spellings, values)
        )
        return make_scenario(
            kind=kind,
            mu=mu_,
            modes=modes,
            split_ratio=split_ratio,
            eta1=eta1_,
            eta2=eta2_,
            reflectivity=reflectivity_,
            mode_match=mode_match,
            target_present=target,
            modes_b=modes_b,
            background_mean=background_mean,
        )

    scn = spelled(spelling)
    analytic._pair_cumulants.cache_clear()
    closed_form_reprs(spelled(warm))
    warm_reprs = closed_form_reprs(scn)
    analytic._pair_cumulants.cache_clear()
    assert warm_reprs == closed_form_reprs(scn)


def test_pair_cumulants_built_once_per_source_kind_and_hypothesis():
    analytic._pair_cumulants.cache_clear()
    for kind in SourceKind:
        for background_mean in np.geomspace(10.0, 1e5, 400):
            scn = make_scenario(kind=kind, background_mean=float(background_mean))
            analytic.moments(scn)
            analytic.snr(scn)
            analytic.error_probability(scn, 10)
    assert analytic._pair_cumulants.cache_info().misses == 2 * len(SourceKind)


# ---------------------------------------------------------------------------
# epsilon
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("mu", [1e-100, 0.01, 0.075, 1.0])
def test_epsilon_twin_no_background_is_ideal(mu):
    scn = make_scenario(mu=mu)
    assert rel_err(analytic.epsilon(scn), (1.0 + mu) / mu) < 1e-12


def exact_epsilon_squared(scn) -> Fraction:
    """epsilon^2 in exact arithmetic from the scenario's floats.  Per mode,
    arm i sees a thermal law of mean n_i, whose normally ordered variance
    is n_i^2; a twin pair's covariance is e1 e2 mu (1 + mu), a split
    beam's n_1 n_2, and the background adds N_b^2 / M_b on arm 2."""
    source, channel, background = scn.source, scn.channel, scn.background
    mu, e1 = Fraction(source.mu), Fraction(channel.eta1)
    e2 = Fraction(channel.arm2_efficiency)
    if source.kind is SourceKind.TWIN_BEAM:
        n1, n2, cov = mu * e1, mu * e2, e1 * e2 * mu * (1 + mu)
    else:
        t = Fraction(source.split_ratio)
        n1, n2 = mu * e1, mu / t * (1 - t) * e2
        cov = n1 * n2
    cov *= Fraction(channel.mode_match) * source.modes
    nv1 = source.modes * n1**2
    nv2 = source.modes * n2**2 + Fraction(background.mean_total) ** 2 / background.modes_b
    return cov**2 / (nv1 * nv2)


@settings(max_examples=300, deadline=None)
@given(
    kind=st.sampled_from(SourceKind),
    mu=st.floats(1e-4, 10.0),
    modes=st.integers(1, 100_000),
    split_ratio=st.floats(0.25, 0.75),
    eta1=st.floats(1e-3, 1.0),
    eta2=st.floats(1e-3, 1.0),
    reflectivity=st.floats(1e-3, 1.0),
    # a subnormal cov carries no relative precision
    mode_match=st.one_of(st.just(0.0), st.floats(1e-6, 1.0)),
    modes_b=st.integers(1, 100_000),
    background_mean=st.one_of(st.just(0.0), st.floats(1e-3, 1e6)),
)
# e1 mu = 3e-4 at M = 9e4: the normally ordered variance M (e1 mu)^2 is
# 0.0081, and var1 - mean1 = 27.0081 - 27 would lose 12 bits to cancellation
@example(SourceKind.TWIN_BEAM, 0.075, 90000, 0.5, 0.004, 0.62, 0.5, 0.7, 1300, 0.0)
def test_epsilon_matches_exact_arithmetic(
    kind, mu, modes, split_ratio, eta1, eta2, reflectivity, mode_match, modes_b, background_mean
):
    scn = make_scenario(
        kind=kind,
        mu=mu,
        modes=modes,
        split_ratio=split_ratio,
        eta1=eta1,
        eta2=eta2,
        reflectivity=reflectivity,
        mode_match=mode_match,
        modes_b=modes_b,
        background_mean=background_mean,
    )
    exact = exact_epsilon_squared(scn)
    assert abs(Fraction(analytic.epsilon(scn)) ** 2 - exact) <= Fraction(1e-14) * exact


def test_epsilon_split_no_background_is_unity():
    for t in (0.3, 0.5, 0.8):
        scn = make_scenario(kind=SourceKind.SPLIT_THERMAL, split_ratio=t)
        assert abs(analytic.epsilon(scn) - 1.0) < 1e-12


def test_epsilon_loss_independent_without_background():
    for kind in SourceKind:
        reference = analytic.epsilon(make_scenario(kind=kind))
        for e1 in (0.05, 0.4, 1.0):
            for e2 in (0.3, 0.9):
                for r in (0.1, 0.6, 1.0):
                    scn = make_scenario(kind=kind, eta1=e1, eta2=e2, reflectivity=r)
                    assert rel_err(analytic.epsilon(scn), reference) < 1e-12


def test_epsilon_mode_match_scales_ideal_value():
    scn = make_scenario(mode_match=0.7)
    assert rel_err(analytic.epsilon(scn), 0.7 * (1.075 / 0.075)) < 1e-12


def test_epsilon_vanishes_under_dominant_background():
    scn = make_scenario(background_mean=1e7, modes_b=1300)
    assert analytic.epsilon(scn) < 1e-2


def test_epsilon_degenerate_cases_raise():
    with pytest.raises(DegenerateStatisticError):
        analytic.epsilon(make_scenario(mu=0.0))
    with pytest.raises(DegenerateStatisticError):
        analytic.epsilon(make_scenario(target_present=False))
    with pytest.raises(DegenerateStatisticError):
        analytic.epsilon(make_scenario(eta1=0.0))


def test_epsilon_ratio_equals_enhancement():
    for mu in (0.05, 0.075, 0.5):
        qi = analytic.epsilon(make_scenario(mu=mu))
        ci = analytic.epsilon(make_scenario(kind=SourceKind.SPLIT_THERMAL, mu=mu))
        assert rel_err(qi / ci, analytic.enhancement(mu)) < 1e-12


# ---------------------------------------------------------------------------
# snr
# ---------------------------------------------------------------------------
def test_snr_zero_when_target_absent_in_both():
    scn = make_scenario(target_present=False, background_mean=50.0)
    assert analytic.snr(scn) == 0.0


def test_snr_monotone_decreasing_in_background():
    values = [100.0, 500.0, 2000.0, 10000.0, 50000.0]
    f = [analytic.snr(make_scenario(background_mean=v)) for v in values]
    assert all(b < a for a, b in zip(f, f[1:]))


def test_snr_dominant_background_agrees_when_dominant():
    # condition: var1*var_b at least 100x the rest of the "in" noise
    for nb in (3e4, 1e5, 1e6):
        for modes_b in (57, 1300):
            scn = make_scenario(background_mean=nb, modes_b=modes_b)
            m_in = analytic.moments(scn)
            var_b = analytic.variance_law(nb, modes_b)
            rest = m_in.delta_product_variance - m_in.var1 * var_b
            if m_in.var1 * var_b < 100.0 * rest:
                continue
            exact = analytic.snr(scn)
            approx = analytic.snr_dominant_background(scn)
            assert abs(exact - approx) / approx < 0.05


def test_snr_dominant_background_requires_background():
    with pytest.raises(DegenerateStatisticError):
        analytic.snr_dominant_background(make_scenario(background_mean=0.0))


# ---------------------------------------------------------------------------
# enhancement
# ---------------------------------------------------------------------------
def test_enhancement_values():
    assert rel_err(analytic.enhancement(0.075), 14.333333333333334) < 1e-12
    assert analytic.enhancement(1.0) == 2.0
    assert abs(analytic.enhancement(1e9) - 1.0) < 1e-8


def test_enhancement_rejects_nonpositive():
    with pytest.raises(ParameterError):
        analytic.enhancement(0.0)
    with pytest.raises(ParameterError):
        analytic.enhancement(-0.1)


# ---------------------------------------------------------------------------
# error_probability
# ---------------------------------------------------------------------------
def test_error_probability_half_when_indistinguishable():
    scn = make_scenario(target_present=False, background_mean=100.0)
    assert analytic.error_probability(scn, 10) == 0.5


def test_error_probability_trivial_limits():
    # deterministic statistics: cov > 0 -> perfect decision, cov = 0 -> coin flip
    assert analytic._min_error_two_gaussians(0.0, 0.0, 1.0, 0.0) == (0.0, 0.5)
    assert analytic._min_error_two_gaussians(0.0, 0.0, 0.0, 0.0)[0] == 0.5
    p_small, _ = analytic._min_error_two_gaussians(0.0, 1e-9, 1.0, 1e-9)
    assert p_small < 1e-12


def test_error_probability_monotone_in_images():
    scn = make_scenario(background_mean=5000.0)
    p = [analytic.error_probability(scn, n) for n in (1, 3, 10, 30, 100)]
    assert all(b <= a + 1e-15 for a, b in zip(p, p[1:]))


def test_error_probability_monotone_in_background():
    p = [
        analytic.error_probability(make_scenario(background_mean=nb), 10)
        for nb in (100.0, 1000.0, 5000.0, 20000.0, 100000.0)
    ]
    assert all(b >= a - 1e-15 for a, b in zip(p, p[1:]))


def test_error_probability_bounded():
    for nb in (0.0, 100.0, 1e6):
        p = analytic.error_probability(make_scenario(background_mean=nb), 10)
        assert 0.0 <= p <= 0.5


def test_error_probability_rejects_bad_images():
    with pytest.raises(ParameterError):
        analytic.error_probability(make_scenario(), 0)


# unit roundoff of a double
_U = 2.0**-53


def assert_ndtr_near_mpmath(a):
    """`_ndtr(a)` within the error that rounding t = -a sqrt(1/2) allows.

    t is rounded twice (the constant and the product), so it is off by at
    most 2u |t|.  erfc's logarithmic derivative is below 2|t| + sqrt(2) in
    magnitude, since erfc(t) > 2 exp(-t^2) / (sqrt(pi) (t + sqrt(t^2 + 2)))
    for t >= 0, so the result moves by at most 2u |t| (2|t| + sqrt(2)) =
    2u (a^2 + |a|) relative.  4u more covers erfc's own error and the last
    rounding, and one subnormal quantum a result below the normal range.
    """
    got = analytic._ndtr(a)
    want = mpmath.ncdf(mpmath.mpf(a))
    bound = (2.0 * _U * (a * a + abs(a)) + 4.0 * _U) * want + 2.0**-1074
    assert abs(mpmath.mpf(got) - want) <= bound, f"_ndtr({a!r}) = {got!r}, Phi = {want}"


def test_ndtr_is_exact_at_zero_infinities_and_nan():
    assert analytic._ndtr(0.0) == analytic._ndtr(-0.0) == 0.5
    assert analytic._ndtr(math.inf) == 1.0
    assert analytic._ndtr(-math.inf) == 0.0
    assert math.isnan(analytic._ndtr(math.nan))


@settings(max_examples=1000, deadline=None)
@given(a=st.floats(-38.0, 38.0))
def test_ndtr_matches_mpmath(a):
    assert_ndtr_near_mpmath(a)


def _neighbours(x, steps=3):
    out = [x]
    for direction in (math.inf, -math.inf):
        y = x
        for _ in range(steps):
            y = math.nextafter(y, direction)
            out.append(y)
    return out


# branch edges of common erfc implementations (abs(a)/sqrt(2) crossing
# 1/sqrt(2), 1 and 8) and the lower tail, whose result turns subnormal near
# a = -37.5 and underflows to 0 near a = -38.5
_NDTR_EDGES = (
    [5e-324, -5e-324]
    + [s * x for edge in (1.0, math.sqrt(2.0), 8.0 * math.sqrt(2.0))
       for s in (1.0, -1.0) for x in _neighbours(edge)]
    + _neighbours(-math.sqrt(2.0 * 7.09782712893383996843e2), steps=8)
    + np.linspace(-38.6, -37.5, 1101).tolist()
)


def test_ndtr_matches_mpmath_at_edges():
    for a in _NDTR_EDGES:
        assert_ndtr_near_mpmath(a)
    # beyond |a| = 40 the exact value rounds to 0 or 1
    assert analytic._ndtr(-1e308) == analytic._ndtr(-40.0) == 0.0
    assert analytic._ndtr(1e308) == analytic._ndtr(40.0) == 1.0


def mpmath_ncdf(z):
    """mpmath's normal CDF, which overflows a float past |z| of about 1e154;
    from |z| = 1e5 on, Phi is 0 or 1 to more than a billion digits."""
    return mpmath.mpf(z > 0) if abs(z) > 1e5 else mpmath.ncdf(z)


def mpmath_min_error_two_gaussians(m0, s0, m1, s1):
    """The smaller error of the two likelihood-ratio crossings (and 1/2),
    from the threshold quadratic in tau.  Its constant term cancels in
    about 2 |log10| of the width and mean ratios digits, so every step
    carries 40 digits more than twice the largest |log10| of an input."""
    if m1 <= m0:
        return mpmath.mpf(0.5)
    if s0 == 0.0 and s1 == 0.0:
        return mpmath.mpf(0.0)
    magnitude = max(abs(math.log10(abs(x))) for x in (m0, s0, m1, s1) if x != 0.0)
    with mpmath.workdps(40 + 2 * math.ceil(magnitude)):
        m0, s0, m1, s1 = (mpmath.mpf(x) for x in (m0, s0, m1, s1))
        if s0 == 0:
            return +(mpmath_ncdf((m0 - m1) / s1) / 2)
        if s1 == 0:
            return +(mpmath_ncdf((m0 - m1) / s0) / 2)
        a = 1 / s1**2 - 1 / s0**2
        b = -2 * (m1 / s1**2 - m0 / s0**2)
        c = m1**2 / s1**2 - m0**2 / s0**2 - 2 * mpmath.log(s0 / s1)
        if a == 0:
            taus = [-c / b]
        else:
            root = mpmath.sqrt(b * b - 4 * a * c)
            taus = [(-b - root) / (2 * a), (-b + root) / (2 * a)]
        errors = [(mpmath_ncdf((m0 - t) / s0) + mpmath_ncdf((t - m1) / s1)) / 2 for t in taus]
        return +min([mpmath.mpf(0.5)] + errors)


def assert_min_error_near_mpmath(m0, s0, m1, s1):
    # 1e-12 relative, or 1e-24 absolute where the error is below 1e-12
    got, _ = analytic._min_error_two_gaussians(m0, s0, m1, s1)
    want = mpmath_min_error_two_gaussians(m0, s0, m1, s1)
    assert abs(got - want) <= 1e-12 * max(want, 1e-12), (got, want)


@pytest.mark.parametrize(
    "m0, s0, m1, s1",
    [
        (0.0, 0.0, 1.0, 0.5),  # s0 == 0
        (0.0, 0.0, 40.0, 1.0),  # s0 == 0, far tail
        (0.0, 0.5, 1.0, 0.0),  # s1 == 0
        (0.0, 0.0, 1.0, 0.0),  # both zero
        (1.0, 0.3, 0.5, 2.0),  # m1 <= m0
        (0.0, 1.0, 1.5, 3e-9),  # the tau quadratic's b^2 - 4ac rounds below zero
        (0.0, 1.0, 2.0, 1.0),  # equal widths: one root
        (0.0, 1.0, 2.0, 1.5),  # two roots
        (0.0, 2e-3, 1e-3, 1e-3),  # two roots, overlapping
    ],
)
def test_min_error_two_gaussians_matches_mpmath(m0, s0, m1, s1):
    assert_min_error_near_mpmath(m0, s0, m1, s1)


@settings(max_examples=200, deadline=None)
@given(
    m1=st.floats(-1.0, 10.0),
    s0=st.floats(0.0, 5.0),
    s1=st.floats(0.0, 5.0),
)
@example(m1=1.0, s0=1.0, s1=2.2e-313)
@example(m1=1.0, s0=2.2e-313, s1=1.0)
@example(m1=1.0, s0=2.2e-313, s1=2.2e-313)
@example(m1=1.0, s0=1.0, s1=1e-100)
@example(m1=1.0, s0=1e-160, s1=1.0)
@example(m1=5e-324, s0=2.0, s1=2.0)
def test_min_error_two_gaussians_matches_mpmath_over_box(m1, s0, s1):
    assert_min_error_near_mpmath(0.0, s0, m1, s1)


@pytest.mark.parametrize(
    "m0, s0, m1, s1",
    [(0.0, 1.0, 1.0, 1e-9), (0.0, 1.0, 1.0, 1e-12), (0.0, 1.0, 1.0, 1e-60), (0.0, 1.0, 1.5, 3e-9)],
)
def test_min_error_two_gaussians_at_extreme_width_ratios(m0, s0, m1, s1):
    # solved for tau, the quadratic's constant term rounds away its log term
    # here, and both roots landed on m1: p read 0.3293 and 0.1133, not about
    # 0.0793 and 0.0334
    assert_min_error_near_mpmath(m0, s0, m1, s1)


@pytest.mark.parametrize(
    "m0, s0, m1, s1",
    [(0.0, 1.0, 1.0, 1e-78), (0.0, 1.0, 1.0, 1e-100), (0.0, 1.0, 1.0, 1e-160), (0.0, 1e-160, 1.0, 1.0)],
)
def test_min_error_two_gaussians_tiny_width_takes_zero_width_limit(m0, s0, m1, s1):
    # one width 0, the other 1, means 1 apart: 0.5 * Phi(-1), within 2 ulp
    limit = mpmath.ncdf(-1) / 2
    got = analytic._min_error_two_gaussians(m0, s0, m1, s1)[0]
    assert abs(got - limit) <= 2.0 * math.ulp(float(limit))


@pytest.mark.parametrize("background_mean", [1e-308, 1e-315])
def test_error_probability_at_tiny_background_equals_zero_background(background_mean):
    at_zero = analytic.error_probability(make_scenario(background_mean=0.0), 10)
    tiny = analytic.error_probability(make_scenario(background_mean=background_mean), 10)
    assert tiny == at_zero


# ---------------------------------------------------------------------------
# covariance closed forms against effective efficiencies
# ---------------------------------------------------------------------------
def test_covariance_effective_efficiency_forms():
    mu, modes = 0.3, 4
    for r in (0.5, 1.0):
        for mm in (0.6, 1.0):
            twin = make_scenario(
                mu=mu, modes=modes, eta1=0.7, eta2=0.5, reflectivity=r, mode_match=mm
            )
            split = make_scenario(
                kind=SourceKind.SPLIT_THERMAL,
                mu=mu,
                modes=modes,
                eta1=0.7,
                eta2=0.5,
                reflectivity=r,
                mode_match=mm,
            )
            e1, e2 = 0.7, 0.5 * r * mm
            assert rel_err(analytic.moments(twin).cov, modes * e1 * e2 * mu * (1 + mu)) < 1e-12
            assert rel_err(analytic.moments(split).cov, modes * e1 * e2 * mu**2) < 1e-12


# ---------------------------------------------------------------------------
# closed-form pin over the figure presets
# ---------------------------------------------------------------------------
_PRESET_BACKGROUNDS = (0.0, 100.0, 316.0, 1000.0, 3162.0, 10000.0, 31623.0, 100000.0)

# sha256 of `closed_form_lines()` joined by newlines.  Re-pinned when the
# normal CDF moved to libm erfc and the crossing to the narrower law's
# units: 39 of the 64 error_probability lines moved, by roundoff alone.
CLOSED_FORM_SHA256 = "8a6f3c3d8e8e79aa6a4bd061e8c46a3d464f0a16900851e785cb3a9cbdb1fbc2"


def closed_form_lines() -> list:
    """repr of every closed-form number the fig2..fig5 presets print, at
    mode_match = 1: moments of both hypotheses, epsilon (or the name of
    its exception), snr, and error_probability at 10 and 100 images per
    decision, for both source kinds, M_b 57 and 1300 and each background."""
    lines = []
    for kind in SourceKind:
        for modes_b in (57, 1300):
            for background_mean in _PRESET_BACKGROUNDS:
                scn = make_scenario(
                    kind=kind, modes_b=modes_b, background_mean=background_mean, mode_match=1.0
                )
                for hypothesis in (scn, scn.with_target(False)):
                    m = analytic.moments(hypothesis)
                    lines.append(repr([getattr(m, field) for field in MOMENT_FIELDS]))
                try:
                    lines.append(repr(float(analytic.epsilon(scn))))
                except DegenerateStatisticError as exc:
                    lines.append(type(exc).__name__)
                lines.append(repr(float(analytic.snr(scn))))
                for ipd in (10, 100):
                    lines.append(repr(float(analytic.error_probability(scn, ipd))))
    return lines


def test_closed_forms_are_pinned():
    digest = hashlib.sha256("\n".join(closed_form_lines()).encode()).hexdigest()
    assert digest == CLOSED_FORM_SHA256, (
        "closed-form values changed: the closed forms use no library kernel but libm "
        "log, sqrt, erfc and pow (float **), so either the closed forms changed or this "
        "platform's libm rounds differently"
    )
