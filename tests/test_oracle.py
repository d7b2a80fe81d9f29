"""Exhaustive-enumeration reference: self-consistency and hand-checkable cases.

The table builders are also checked against brute-force references: a
Python loop over every photon number n for the mixtures, on the same
binomial pmf, and scipy's direct convolution for the uncorrelated
components.
"""
from __future__ import annotations

import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import signal, stats

from conftest import rel_err
from qisim import oracle
from qisim.types import (
    BackgroundSpec,
    ChannelSpec,
    InfeasibleInstanceError,
    SourceKind,
    SourceSpec,
)


def specs(kind, mu, modes, e1, e2, r=1.0, mm=1.0, bg=(1, 0.0), target=True, t=0.5):
    return (
        SourceSpec(kind=kind, mu=mu, modes=modes, split_ratio=t),
        ChannelSpec(eta1=e1, eta2=e2, reflectivity=r, target_present=target, mode_match=mm),
        BackgroundSpec(modes_b=bg[0], mean_total=bg[1]),
    )


@pytest.mark.parametrize("kind", [SourceKind.TWIN_BEAM, SourceKind.SPLIT_THERMAL])
def test_vacuum_gives_zero_moments(kind):
    m = oracle.enumerate_moments(*specs(kind, mu=0.0, modes=3, e1=0.7, e2=0.5))
    assert m.mean1 == 0.0 and m.mean2 == 0.0
    assert m.var1 == 0.0 and m.var2 == 0.0 and m.cov == 0.0 and m.m22 == 0.0


def test_single_mode_unit_efficiency_twin():
    # n1 = n2 = n exactly, so cov = var = mu(1+mu) = 0.24
    m = oracle.enumerate_moments(
        *specs(SourceKind.TWIN_BEAM, mu=0.2, modes=1, e1=1.0, e2=1.0)
    )
    assert rel_err(m.mean1, 0.2) < 1e-11
    assert rel_err(m.var1, 0.24) < 1e-11
    assert rel_err(m.var2, 0.24) < 1e-11
    assert rel_err(m.cov, 0.24) < 1e-11


def test_twin_covariance_formula_small():
    # cov = M eta1 eta2 mu (1 + mu)
    m = oracle.enumerate_moments(
        *specs(SourceKind.TWIN_BEAM, mu=0.2, modes=3, e1=0.7, e2=0.5)
    )
    assert rel_err(m.cov, 3 * 0.7 * 0.5 * 0.2 * 1.2) < 1e-10


def test_split_covariance_formula_small():
    # cov = M eta1 eta2 mu^2 at a 50:50 split
    m = oracle.enumerate_moments(
        *specs(SourceKind.SPLIT_THERMAL, mu=0.2, modes=3, e1=0.7, e2=0.5)
    )
    assert rel_err(m.cov, 3 * 0.7 * 0.5 * 0.04) < 1e-10


@pytest.mark.parametrize("kind", [SourceKind.TWIN_BEAM, SourceKind.SPLIT_THERMAL])
def test_arm1_marginal_is_thinned_multithermal(kind):
    source, channel, background = specs(kind, mu=0.3, modes=3, e1=0.7, e2=0.5)
    joint = oracle.joint_distribution(source, channel, background)
    marginal = joint.probs.sum(axis=1)
    eff_mu = 0.7 * 0.3
    p = 1.0 / (1.0 + eff_mu)
    expected = stats.nbinom.pmf(np.arange(marginal.size), 3, p)
    assert np.max(np.abs(marginal - expected)) < 1e-12


def test_moment_symmetry_under_efficiency_swap():
    a = oracle.enumerate_moments(*specs(SourceKind.TWIN_BEAM, 0.3, 3, e1=0.7, e2=0.3))
    b = oracle.enumerate_moments(*specs(SourceKind.TWIN_BEAM, 0.3, 3, e1=0.3, e2=0.7))
    assert rel_err(a.mean1, b.mean2) < 1e-12
    assert rel_err(a.var1, b.var2) < 1e-12
    assert rel_err(a.mean2, b.mean1) < 1e-12
    assert rel_err(a.cov, b.cov) < 1e-12


def test_moment_symmetry_swap_excludes_background():
    # with background on arm 2, the swap applies to the beam contribution only
    bg = (2, 1.5)
    a = oracle.enumerate_moments(*specs(SourceKind.TWIN_BEAM, 0.3, 3, e1=0.7, e2=0.3, bg=bg))
    b = oracle.enumerate_moments(*specs(SourceKind.TWIN_BEAM, 0.3, 3, e1=0.3, e2=0.7, bg=bg))
    bg_var = 1.5 * (1.0 + 1.5 / 2.0)
    assert rel_err(a.mean2 - 1.5, b.mean1) < 1e-10
    assert rel_err(a.var2 - bg_var, b.var1) < 1e-10
    assert rel_err(b.mean2 - 1.5, a.mean1) < 1e-10
    assert rel_err(a.cov, b.cov) < 1e-12


def test_target_absent_zeroes_arm2():
    m = oracle.enumerate_moments(
        *specs(SourceKind.TWIN_BEAM, 0.3, 3, e1=0.7, e2=0.7, bg=(2, 1.0), target=False)
    )
    assert abs(m.cov) < 1e-12  # summation roundoff only
    assert rel_err(m.mean2, 1.0) < 1e-10  # background only
    assert rel_err(m.var2, 1.5) < 1e-10  # 1*(1 + 1/2)


def test_distribution_is_normalized():
    source, channel, background = specs(
        SourceKind.SPLIT_THERMAL, 0.4, 4, e1=0.9, e2=0.8, bg=(3, 1.5), mm=0.7
    )
    joint = oracle.joint_distribution(source, channel, background)
    joint.validate()
    assert joint.tail_bound < 1e-12


def test_validate_rejects_mass_missing_from_the_table(monkeypatch):
    # P(N1 = 1) = 0.294 here; the tail bound must not absorb its loss
    convolve = oracle._convolve_axis

    def lossy_convolve(table, kernel, axis):
        out = convolve(table, kernel, axis)
        out[1] = 0.0
        return out

    monkeypatch.setattr(oracle, "_convolve_axis", lossy_convolve)
    joint = oracle.joint_distribution(
        *specs(SourceKind.TWIN_BEAM, 0.3, 3, e1=0.7, e2=0.5, bg=(2, 1.5))
    )
    assert joint.probs.sum() < 0.71
    with pytest.raises(AssertionError, match="not ~1"):
        joint.validate()


def test_support_guard_rejects_full_scale():
    with pytest.raises(InfeasibleInstanceError):
        oracle.enumerate_moments(
            *specs(SourceKind.TWIN_BEAM, mu=0.075, modes=90000, e1=0.62, e2=0.62)
        )


@pytest.mark.parametrize(
    "law",
    [
        lambda: oracle.enumerate_moments(
            *specs(SourceKind.TWIN_BEAM, mu=1e7, modes=1, e1=0.5, e2=0.5)
        ),
        lambda: oracle._negbin_weights(0.1, 1e6),
        lambda: oracle._negbin_weights(1e4, 1e8),
    ],
    ids=["twin mu 1e7", "0.1 modes", "mean 1e8"],
)
def test_law_past_the_state_budget_is_refused_before_it_is_evaluated(law):
    # each would evaluate tens of millions of counts before the table guard
    start = time.perf_counter()
    with pytest.raises(InfeasibleInstanceError, match="photon-number law"):
        law()
    assert time.perf_counter() - start < 1.0


def test_mix_max_counts_is_the_most_counts_within_the_mixture_cost_limit():
    def cost(counts):
        return sum((n + 1) ** 2 for n in range(counts))

    assert cost(oracle._MIX_MAX_COUNTS) <= oracle._MIX_COST_LIMIT < cost(oracle._MIX_MAX_COUNTS + 1)


def test_mixture_past_its_budget_is_refused_before_the_law_is_evaluated():
    # the shared law of mean 1e6 must keep about 1.05e6 counts: within
    # _MAX_STATES, far past _MIX_MAX_COUNTS.  Evaluated before the mixture
    # check, it took 3.8 s and 573 MB
    start = time.perf_counter()
    with pytest.raises(InfeasibleInstanceError, match="conditional mixture"):
        oracle.enumerate_moments(*specs(SourceKind.TWIN_BEAM, mu=100.0, modes=10000, e1=0.5, e2=0.5))
    assert time.perf_counter() - start < 1.0


def test_joint_support_past_the_state_budget_is_refused_before_the_table_is_built():
    # each law fits on its own: the shared one keeps 565 counts, the
    # background 27,752; the 565 x 28,316 table would take 128 MB
    start = time.perf_counter()
    with pytest.raises(InfeasibleInstanceError, match="joint support 565x28316 exceeds"):
        oracle.joint_distribution(
            *specs(SourceKind.TWIN_BEAM, mu=0.01, modes=30000, e1=0.5, e2=0.5, bg=(1300, 2e4))
        )
    assert time.perf_counter() - start < 1.0


# ---------------------------------------------------------------------------
# table builders against per-n loops and scipy's direct convolution
# ---------------------------------------------------------------------------
def loop_pair_table_twin(weights, e1, e2):
    n_max = weights.size - 1
    table = np.zeros((n_max + 1, n_max + 1))
    for n in range(n_max + 1):
        k = np.arange(n + 1)
        table[: n + 1, : n + 1] += weights[n] * np.outer(
            oracle._binom_pmf(k, n, e1), oracle._binom_pmf(k, n, e2)
        )
    return table


def loop_pair_table_split(weights, t, e1, e2):
    p1 = t * e1
    p2_given_not1 = (1.0 - t) * e2 / (1.0 - p1)
    n_max = weights.size - 1
    table = np.zeros((n_max + 1, n_max + 1))
    for n in range(n_max + 1):
        a = np.arange(n + 1)
        pa = oracle._binom_pmf(a, n, p1)
        pb = oracle._binom_pmf(a[None, :], (n - a)[:, None], p2_given_not1)
        table[: n + 1, : n + 1] += weights[n] * (pa[:, None] * pb)
    return table


def loop_thinned(weights, efficiency):
    n_max = weights.size - 1
    pmf = np.zeros(n_max + 1)
    k = np.arange(n_max + 1)
    for n in range(n_max + 1):
        pmf[: n + 1] += weights[n] * oracle._binom_pmf(k[: n + 1], n, efficiency)
    return pmf


def direct_convolve(table, kernel, axis):
    shape = (kernel.size, 1) if axis == 0 else (1, kernel.size)
    return signal.convolve(table, kernel.reshape(shape), method="direct")


# Each side sums the same n nonnegative products of at most three factors,
# in another order.  Every term passes through at most n + 1 roundings (two
# in its product, n - 1 in the additions, in any order or blocking), so each
# side is within gamma(n + 1) * S of the exact sum S of the terms, with
# gamma(k) = k u / (1 - k u) and u = 2**-53 (Higham, Accuracy and Stability
# of Numerical Algorithms, 2nd ed., Lemma 3.1 and eq. 3.4).  Below the
# normal range each product may also be off by half the smallest subnormal,
# absolutely, while sums of subnormals are exact (eq. 2.8): two products per
# term give at most 2n such halves per side, n + 1 smallest subnormals
# with the (1 + gamma) they meet in the sum.  The two sides differ by at
# most twice the total.
def table_atol(terms: int, total: float) -> float:
    """Bound on the difference of two sums of `terms` nonnegative products
    whose exact sum is at most `total`."""
    ku = (terms + 1) * np.finfo(float).eps / 2
    return 2 * (ku / (1 - ku) * total + (terms + 1) * np.finfo(float).smallest_subnormal)


TABLE_SETTINGS = settings(max_examples=100, deadline=None)
_probabilities = st.floats(0.0, 1.0)
_weights = st.lists(st.floats(0.0, 1.0), min_size=1, max_size=60).map(
    lambda w: np.asarray(w) / max(sum(w), 1.0)
)


@pytest.mark.parametrize("p", [0.0, 1.0])
def test_binom_pmf_puts_all_mass_on_the_certain_count(p):
    # all the mass sits at k = p n: none survive at p = 0, all n at p = 1
    k = np.arange(8)[None, :]
    n = np.arange(6)[:, None]
    np.testing.assert_array_equal(oracle._binom_pmf(k, n, p), k == p * n)


@TABLE_SETTINGS
@given(weights=_weights, e1=_probabilities, e2=_probabilities)
@example(weights=np.array([0.2, 0.3, 0.5]), e1=0.0, e2=1.0)
def test_twin_table_equals_per_n_loop(weights, e1, e2):
    table = oracle._pair_table_twin(weights, e1, e2)
    # entry (a, b) sums w[n] B1[n, a] B2[n, b] over n; each B is at most 1
    atol = table_atol(weights.size, weights.sum())
    np.testing.assert_allclose(table, loop_pair_table_twin(weights, e1, e2), rtol=0, atol=atol)


@TABLE_SETTINGS
@given(
    weights=_weights,
    t=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    e1=_probabilities,
    e2=_probabilities,
)
# subnormal weights: two entries differ by the smallest subnormal
@example(weights=np.array([0.0, 0.0, 0.0, 2.770888466262e-311]), t=0.5, e1=1.0, e2=0.25)
def test_split_table_equals_per_n_loop(weights, t, e1, e2):
    table = oracle._pair_table_split(weights, t * e1, (1.0 - t) * e2)
    # entry (a, b) sums w[a + m] P(a of a + m) P(b of m) over m
    atol = table_atol(weights.size, weights.sum())
    np.testing.assert_allclose(table, loop_pair_table_split(weights, t, e1, e2), rtol=0, atol=atol)


@TABLE_SETTINGS
@given(
    modes=st.floats(0.1, 20.0),
    mean_per_mode=st.floats(0.0, 1.0),
    efficiency=_probabilities,
)
# p = 1 / (1 + mean_per_mode) rounds to 1, where log1p(-p) is -inf
@example(modes=1.0, mean_per_mode=4.2e-134, efficiency=0.0)
# 122 weights summing past 1: the two sides of pmf[0] differ by 1.3e-15
@example(modes=14.969033611772126, mean_per_mode=0.7614106767488278, efficiency=0.0)
def test_thinned_component_equals_per_n_loop(modes, mean_per_mode, efficiency):
    pmf, _ = oracle._thinned_component(modes, mean_per_mode, efficiency)
    weights, _ = oracle._negbin_weights(modes, modes * mean_per_mode)
    # pmf[k] sums w[n] P(k of n) over n
    atol = table_atol(weights.size, weights.sum())
    np.testing.assert_allclose(pmf, loop_thinned(weights, efficiency), rtol=0, atol=atol)


@TABLE_SETTINGS
@given(
    rows=st.integers(1, 60),
    cols=st.integers(1, 60),
    kernel=_weights,
    axis=st.sampled_from([0, 1]),
    seed=st.integers(0, 2**32 - 1),
)
def test_convolve_axis_equals_direct_convolution(rows, cols, kernel, axis, seed):
    table = np.random.default_rng(seed).dirichlet(np.ones(rows * cols)).reshape(rows, cols)
    out = oracle._convolve_axis(table, kernel, axis)
    # each entry sums kernel[j] table[i - j] over the taps j
    atol = table_atol(kernel.size, kernel.sum() * table.max())
    np.testing.assert_allclose(out, direct_convolve(table, kernel, axis), rtol=0, atol=atol)

