"""Brute-force exact reference for small instances.

Builds the full joint probability table of the detected pair (N1, N2) by
mixing the conditional detection laws over the enumerated photon-number
distribution of the source, then convolving in uncorrelated components
(mode-mismatched light, background).  Moments are then plain weighted
sums over the table.  Nothing here shares code or algebra with the
closed-form `analytic` module, which is the point: the two must agree.

The mixture is a direct sum over every photon number n, written as
matrix products over one binomial table B[n, k] = P(k of n survive) per
thinning probability: the twin-beam table is (w B1)^T B2, the split-beam
table sums over the photons that miss arm 1, and a thinned component is
w B.  The convolutions are direct shift-and-add sums.  Every
intermediate is at most (size, size); no (n, a, b) cube is built.

The laws are built from log-factorials and log-gammas, one `math.lgamma`
call per count, and need numpy alone.  Each negative-binomial law (shared
beam, mode-mismatched light, background) is cut where its upper tail,
summed from its own pmf, falls below `_CUTOFF_TAIL`, plus a margin.  These
cuts are the only truncation: thinning and convolution are exact.  So
`tail_bound`, the summed mass the cuts leave out, bounds the mass missing
from the table.

Instances are small by contract; full-experiment mode counts are rejected by
the state budget guard.  `_negbin_weights` refuses a law before it
evaluates a range once the counts the law must keep exceed `_MAX_STATES`:
such a law spans an axis of the joint table, which would then exceed
`_MAX_STATES` cells, so no feasible instance is refused.  Before the first
range, mean + 10 sd + 10, the law must keep more than max(mean - sd - 1, 0)
+ 6 sd + 30 counts: it keeps 30 + int(6 sd) counts past the last n whose
mass in n <= N < range is above the cut, and by Cantelli's inequality
every n up to mean - sd has more than 1/2 - 1/101 there.  Before a doubled
range, it must keep what the range before it kept, more than that range's
half.  So no range over `4 * _MAX_STATES` counts is ever evaluated.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .types import (
    BackgroundSpec,
    ChannelSpec,
    InfeasibleInstanceError,
    MomentSet,
    SourceKind,
    SourceSpec,
)

# Cap on the terms of the conditional mixture (sum over n of (n+1)^2).
_MIX_COST_LIMIT = 2 * 10**8
# Cap on the cells of the joint table.
_MAX_STATES = 10**7
# Upper-tail mass of each enumerated photon-number law left out of it.
_CUTOFF_TAIL = 1e-12
# Mode counts below this change no table entry by more than 1e-290; they
# are taken as 0.
_NEGLIGIBLE = 1e-300


@dataclass(frozen=True)
class JointDistribution:
    """Probability table over (n1, n2); index equals count.  `tail_bound`
    is the summed upper-tail mass the truncated photon-number laws leave
    out, which is all the mass missing from the table."""

    probs: np.ndarray
    tail_bound: float

    def validate(self) -> None:
        if (self.probs < -1e-15).any():
            raise AssertionError("negative probability in joint table")
        total = float(self.probs.sum())
        if not (1.0 - 1e-12 <= total + self.tail_bound <= 1.0 + 1e-12):
            raise AssertionError(f"mass {total} + tail {self.tail_bound} not ~1")


def _lgamma(x: np.ndarray) -> np.ndarray:
    return np.array([math.lgamma(v) for v in x.tolist()])


def _xlogs(k, lost, p: float) -> np.ndarray:
    """k log p + lost log(1 - p), where 0 log 0 = 0 (also at p = 0 or 1)."""
    log_p = math.log(p) if p > 0.0 else -math.inf
    log_q = math.log1p(-p) if p < 1.0 else -math.inf
    terms = ((k, log_p), (lost, log_q))
    return sum(np.multiply(x, y, out=np.zeros(np.shape(x)), where=x != 0) for x, y in terms)


def _negbin_weights(modes: float, total_mean: float, cutoff: float) -> tuple[np.ndarray, float]:
    """pmf of an `modes`-mode thermal beam with the given total mean, and
    the upper-tail mass it leaves out.  It is cut where P(N > n), summed
    from the pmf over twice the kept range, falls below `cutoff`, plus
    margin so that fourth moments are unaffected by the truncation."""
    if total_mean == 0.0 or modes < _NEGLIGIBLE:
        return np.ones(1), 0.0
    mean_per_mode = total_mean / modes
    p = 1.0 / (1.0 + mean_per_mode)
    sd = math.sqrt(total_mean * (1.0 + mean_per_mode))
    size = int(total_mean + 10.0 * sd) + 10
    # counts the law must keep, as the module docstring derives
    kept = max(total_mean - sd - 1.0, 0.0) + 6.0 * sd + 30.0
    while kept <= _MAX_STATES:
        n = np.arange(size)
        log_pmf = _lgamma(n + modes) - math.lgamma(modes) - _lgamma(n + 1.0)
        pmf = np.exp(log_pmf + _xlogs(modes, n, p))
        at_least = np.cumsum(pmf[::-1])[::-1]  # P(n <= N < size)
        n_hi = np.count_nonzero(at_least[1:] > cutoff) + 30 + int(6.0 * sd)
        if 2 * (n_hi + 1) <= size:
            return pmf[: n_hi + 1], float(at_least[n_hi + 1])
        kept = n_hi + 1
        size *= 2
    raise InfeasibleInstanceError(
        f"photon-number law of mean {total_mean:g} must keep at least {kept:.0f} counts"
        f" (> {_MAX_STATES} states)"
    )


def _binom_pmf(k, n, p: float) -> np.ndarray:
    """P(k of n survive), each with probability p, from a log-factorial
    table; 0 where k > n."""
    k, n = np.broadcast_arrays(np.asarray(k, dtype=int), np.asarray(n, dtype=int))
    inside = k <= n
    lost = np.where(inside, n - k, 0)
    log_fact = _lgamma(np.arange(max(n.max(initial=0), k.max(initial=0)) + 1) + 1.0)
    log_pmf = log_fact[n] - log_fact[k] - log_fact[lost] + _xlogs(k, lost, p)
    return np.where(inside, np.exp(log_pmf), 0.0)


def _binomial_table(size: int, p: float) -> np.ndarray:
    """B[n, k] = P(k of n photons survive), each with probability p, for
    0 <= n, k < size; zero above the diagonal (k > n)."""
    k = np.arange(size)
    return _binom_pmf(k[None, :], k[:, None], p)


def _pair_table_twin(weights: np.ndarray, e1: float, e2: float) -> np.ndarray:
    """Joint table for a shared-photon-number pair: both arms see the same
    n photons, each independently thinned.  Summed over n as a matrix
    product: table[a, b] = sum_n w[n] B1[n, a] B2[n, b]."""
    size = weights.size
    return (weights[:, None] * _binomial_table(size, e1)).T @ _binomial_table(size, e2)


def _pair_table_split(weights: np.ndarray, p1: float, p2: float) -> np.ndarray:
    """Joint table for a split beam: each of the n photons is detected on
    arm 1 with probability p1, on arm 2 with probability p2, otherwise
    lost (exact per-photon trinomial).  Grouped by the m = n - a photons
    not detected on arm 1: A[a, m] = w[a+m] P(a of a+m on arm 1), and each
    of those m reaches arm 2 with probability p2 / (1 - p1)."""
    p2_given_not1 = p2 / (1.0 - p1)
    size = weights.size
    a = np.arange(size)[:, None]
    m = np.arange(size)[None, :]
    padded = np.concatenate([weights, np.zeros(size)])
    routed = padded[a + m] * _binom_pmf(a, a + m, p1)
    return routed @ _binomial_table(size, p2_given_not1)


def _thinned_component(
    modes: float, pre_detection_mean_per_mode: float, efficiency: float, cutoff: float
) -> tuple[np.ndarray, float]:
    """pmf of detected counts from `modes` thermal modes after binomial
    thinning, computed by explicit mixing (no thinning-closure shortcut),
    and the tail mass of the photon-number law left out."""
    weights, tail = _negbin_weights(modes, modes * pre_detection_mean_per_mode, cutoff)
    return weights @ _binomial_table(weights.size, efficiency), tail


def _convolve_axis(table: np.ndarray, kernel: np.ndarray, axis: int) -> np.ndarray:
    """Direct (full) convolution of every line of `table` along `axis`
    with `kernel`, summed tap by tap."""
    shape = list(table.shape)
    shape[axis] += kernel.size - 1
    out = np.zeros(shape)
    window = [slice(None), slice(None)]
    for shift, tap in enumerate(kernel):
        window[axis] = slice(shift, shift + table.shape[axis])
        out[tuple(window)] += tap * table
    return out


def joint_distribution(
    source: SourceSpec, channel: ChannelSpec, background: BackgroundSpec
) -> JointDistribution:
    """Enumerate the exact joint distribution of the detected pair.

    p1 and p2 are the chances that one source photon is detected on arm 1
    and on arm 2; the hypothesis enters through `arm2_efficiency` alone."""
    e1 = channel.eta1
    e2 = channel.arm2_efficiency
    matched = channel.mode_match * source.modes
    unmatched = (1.0 - channel.mode_match) * source.modes

    if source.kind is SourceKind.TWIN_BEAM:
        pre_mean, p1, p2, pair_table = source.mu, e1, e2, _pair_table_twin
    else:
        t = source.split_ratio
        pre_mean, p1, p2 = source.pre_split_mean, t * e1, (1.0 - t) * e2
        pair_table = _pair_table_split

    shared_weights, tail_bound = _negbin_weights(matched, matched * pre_mean, _CUTOFF_TAIL)
    mix_cost = int(np.sum((np.arange(shared_weights.size) + 1.0) ** 2))
    if mix_cost > _MIX_COST_LIMIT:
        raise InfeasibleInstanceError(
            f"conditional mixture needs {mix_cost} terms (> {_MIX_COST_LIMIT})"
        )

    laws = ([], [])  # (pmf, left-out tail) convolved along axis 0 and axis 1
    if unmatched > 0.0 and source.mu > 0.0:
        laws[0].append(_thinned_component(unmatched, pre_mean, p1, _CUTOFF_TAIL))
        if e2 > 0.0:
            laws[1].append(_thinned_component(unmatched, pre_mean, p2, _CUTOFF_TAIL))
    if background.mean_total > 0.0:
        laws[1].append(_negbin_weights(background.modes_b, background.mean_total, _CUTOFF_TAIL))

    size1, size2 = (shared_weights.size + sum(k.size - 1 for k, _ in axis) for axis in laws)
    if size1 * size2 > _MAX_STATES:
        raise InfeasibleInstanceError(
            f"joint support {size1}x{size2} exceeds {_MAX_STATES} states"
        )

    table = pair_table(shared_weights, p1, p2)
    for axis, axis_laws in enumerate(laws):
        for kernel, tail in axis_laws:
            table = _convolve_axis(table, kernel, axis)
            tail_bound += tail
    return JointDistribution(probs=table, tail_bound=tail_bound)


def enumerate_moments(
    source: SourceSpec, channel: ChannelSpec, background: BackgroundSpec
) -> MomentSet:
    """Exact MomentSet by direct summation over the enumerated joint."""
    joint = joint_distribution(source, channel, background)
    probs = joint.probs
    mass = probs.sum()
    n1 = np.arange(probs.shape[0], dtype=float)[:, None]
    n2 = np.arange(probs.shape[1], dtype=float)[None, :]
    mean1 = float((probs * n1).sum() / mass)
    mean2 = float((probs * n2).sum() / mass)
    d1 = n1 - mean1
    d2 = n2 - mean2
    var1 = float((probs * d1**2).sum() / mass)
    var2 = float((probs * d2**2).sum() / mass)
    cov = float((probs * d1 * d2).sum() / mass)
    m22 = float((probs * d1**2 * d2**2).sum() / mass)
    return MomentSet(mean1=mean1, mean2=mean2, var1=var1, var2=var2, cov=cov, m22=m22)
