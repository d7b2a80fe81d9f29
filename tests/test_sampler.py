"""Sampling laws, determinism, and stream-disjointness contracts."""
from __future__ import annotations

import dataclasses
import hashlib
import os
import subprocess
import sys
import textwrap
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from scipy import stats

from conftest import make_scenario
import qisim
from qisim import analytic, oracle, sampler
from qisim.estimator import frame_covariance, frame_stats
from qisim.sampler import _negbin, _sample_pair_counts, hypothesis_stream, sample_counts
from qisim.types import ParameterError, SeedSpec, SourceKind


def two_sample_chisquare_pvalue(a: np.ndarray, b: np.ndarray) -> float:
    """Two-sample chi-square over the pooled integer support, merging
    sparse tail bins so every bin holds at least 10 pooled counts."""
    hi = int(max(a.max(), b.max()))
    counts_a = np.bincount(a, minlength=hi + 1).astype(float)
    counts_b = np.bincount(b, minlength=hi + 1).astype(float)
    bins_a, bins_b = [], []
    acc_a = acc_b = 0.0
    for ca, cb in zip(counts_a, counts_b):
        acc_a += ca
        acc_b += cb
        if acc_a + acc_b >= 10.0:
            bins_a.append(acc_a)
            bins_b.append(acc_b)
            acc_a = acc_b = 0.0
    if acc_a + acc_b > 0.0:
        bins_a[-1] += acc_a
        bins_b[-1] += acc_b
    bins_a = np.asarray(bins_a)
    bins_b = np.asarray(bins_b)
    na, nb = bins_a.sum(), bins_b.sum()
    k1, k2 = np.sqrt(nb / na), np.sqrt(na / nb)
    statistic = float(np.sum((k1 * bins_a - k2 * bins_b) ** 2 / (bins_a + bins_b)))
    return float(stats.chi2.sf(statistic, len(bins_a) - 1))


# ---------------------------------------------------------------------------
# trivial limits
# ---------------------------------------------------------------------------
def test_vacuum_source_yields_zero():
    scn = make_scenario(mu=0.0, modes=5, eta1=0.8, eta2=0.8, pixel_pairs=1, images=20)
    n1, n2 = sample_counts(scn.with_target(True), SeedSpec(3))
    assert not n1.any() and not n2.any()


def test_opaque_detector_yields_zero_arm1():
    scn = make_scenario(mu=0.5, modes=5, eta1=0.0, eta2=0.8, pixel_pairs=1, images=50)
    n1, n2 = sample_counts(scn.with_target(True), SeedSpec(3))
    assert not n1.any() and n2.any()


def test_zero_background_draws_zero():
    # no source light reaches arm 2 without the target, so arm 2 holds
    # the background draws alone
    scn = make_scenario(target_present=False, background_mean=0.0, pixel_pairs=1, images=20)
    _, n2 = sample_counts(scn.with_target(False), SeedSpec(3))
    assert not n2.any()


def test_target_absent_no_background_gives_empty_arm2():
    scn = make_scenario(target_present=False, pixel_pairs=64)
    n1, n2 = sample_counts(scn.with_target(False), SeedSpec(5))
    assert not n2.any()
    assert n1.any()


def test_overflow_guard():
    scn = make_scenario(mu=1e8, modes=90000, pixel_pairs=4)
    with pytest.raises(ParameterError):
        sample_counts(scn.with_target(True), SeedSpec(1))


@pytest.mark.parametrize("target", [True, False])
def test_overflowed_pre_split_mean_is_refused(target):
    # at t = 5e-324 the pre-split mean mu / t is inf.  With no mode matched
    # the shared draw takes nothing (its mean 0 * inf is nan); arm 2's
    # unmatched mean is inf with the target, and 0 * inf = nan without it:
    # both are refused, not handed to numpy
    scn = make_scenario(
        kind=SourceKind.SPLIT_THERMAL, split_ratio=5e-324, mode_match=0.0, pixel_pairs=4
    )
    with pytest.raises(ParameterError, match="exceeds sampling limit"):
        sample_counts(scn.with_target(target), SeedSpec(1))


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------
def test_frame_generation_is_deterministic():
    scn = make_scenario(background_mean=100.0, pixel_pairs=32)
    seed = SeedSpec(123)
    a = sample_counts(scn.with_target(True), seed)
    b = sample_counts(scn.with_target(True), seed)
    assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])


def test_frames_identical_across_order_and_threads():
    # a (seed, hypothesis) stream is the unit of work: computed one after
    # another, in reverse order or on a thread pool, it gives the same arrays
    scn = make_scenario(background_mean=50.0, pixel_pairs=16, images=600)
    jobs = [(SeedSpec(11 + s), target) for s in range(3) for target in (True, False)]

    def draw(job):
        seed, target = job
        return sample_counts(scn.with_target(target), seed)

    sequential = [draw(job) for job in jobs]
    reversed_order = [draw(job) for job in reversed(jobs)][::-1]
    with ThreadPoolExecutor(max_workers=4) as pool:
        threaded = list(pool.map(draw, jobs))
    for a, b, c in zip(sequential, reversed_order, threaded):
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
        assert np.array_equal(a[0], c[0]) and np.array_equal(a[1], c[1])


def test_first_block_does_not_depend_on_total():
    def counts(images):
        scn = make_scenario(background_mean=50.0, pixel_pairs=8, images=images)
        return sample_counts(scn.with_target(True), SeedSpec(21))

    short, long = counts(256), counts(600)
    assert np.array_equal(short[0], long[0][:256]) and np.array_equal(short[1], long[1][:256])
    assert not np.array_equal(long[0][:256], long[0][256:512])


# sha256 of n1 then n2 (little-endian int64) from `sample_counts` on the
# scenario below, per (source kind, target present): two blocks, the
# second partial, with every draw of the stream format taking part (mode
# mismatch, background, read noise).
STREAM_FORMAT_SHA256 = {
    (SourceKind.TWIN_BEAM, True): "f8a95454e6ad7643e3740dc037a966cf4baf384a0c24d2458697d86411c4f4da",
    (SourceKind.TWIN_BEAM, False): "f217c8327a0b94757a02f45a025813b7b408085007f9a3812ee2c2c555a0bf6a",
    (SourceKind.SPLIT_THERMAL, True): "5324981a1d9d3c7494e3dbcac8789f09168822a9c066990cf301adc0d9d419dc",
    (SourceKind.SPLIT_THERMAL, False): "4a39409d135994be343f9ce2f551ff1bf8515a840b4bdfa8f1d1d83ad6e13e49",
}


def stream_digest(kind: SourceKind, target: bool) -> str:
    scn = make_scenario(
        kind=kind,
        mode_match=0.9,
        background_mean=100.0,
        pixel_pairs=4,
        images=300,
        read_noise_sigma=2.0,
    )
    n1, n2 = sample_counts(scn.with_target(target), SeedSpec(2013))
    return hashlib.sha256(n1.astype("<i8").tobytes() + n2.astype("<i8").tobytes()).hexdigest()


def test_stream_format_is_pinned():
    for (kind, target), expected in STREAM_FORMAT_SHA256.items():
        assert stream_digest(kind, target) == expected, (
            f"{kind.value} counts with target_present={target} changed under numpy "
            f"{np.__version__}: either the stream format (block size, draw order, stream "
            "keys) changed, or this numpy draws differently"
        )


def test_image_set_hypotheses_use_disjoint_streams():
    scn = make_scenario(images=50, pixel_pairs=16)
    in_n1, _ = sample_counts(*hypothesis_stream(scn, SeedSpec(77), "in"))
    out_n1, _ = sample_counts(*hypothesis_stream(scn, SeedSpec(77), "out"))
    in_rows = {tuple(row) for row in in_n1}
    out_rows = {tuple(row) for row in out_n1}
    assert not in_rows & out_rows


def test_hypothesis_from_scenario_keys_its_own_stream():
    # the same seed gives the two hypotheses different streams, so even
    # arm 1, which the target does not touch, differs between them
    scn = make_scenario(images=20, pixel_pairs=16)
    seed = SeedSpec(78)
    in_n1, _ = sample_counts(scn.with_target(True), seed)
    out_n1, _ = sample_counts(scn.with_target(False), seed)
    assert not np.array_equal(in_n1, out_n1)


# ---------------------------------------------------------------------------
# sampled laws vs closed forms
# ---------------------------------------------------------------------------
def _assert_mean_var(samples: np.ndarray, mean_th: float, var_th: float) -> None:
    n = samples.size
    mean_hat = samples.mean()
    var_hat = samples.var(ddof=1)
    se_mean = np.sqrt(var_hat / n)
    m4 = np.mean((samples - mean_hat) ** 4)
    se_var = np.sqrt(max(m4 - var_hat**2, 0.0) / n)
    assert abs(mean_hat - mean_th) <= 3.0 * se_mean
    assert abs(var_hat - var_th) <= 3.0 * se_var


@pytest.mark.parametrize("kind", [SourceKind.TWIN_BEAM, SourceKind.SPLIT_THERMAL])
def test_sampled_arms_match_multithermal_law(kind):
    scn = make_scenario(kind=kind, reflectivity=1.0, pixel_pairs=100000, images=1)
    n1, n2 = sample_counts(scn.with_target(True), SeedSpec(2024))
    m = analytic.moments(scn)
    _assert_mean_var(n1[0].astype(float), m.mean1, m.var1)
    _assert_mean_var(n2[0].astype(float), m.mean2, m.var2)
    # detected rate: <N> = M eta mu = 4185
    assert abs(m.mean1 - 4185.0) < 1e-6


def test_sampled_covariance_matches_mode_mismatch_model():
    scn = make_scenario(mode_match=0.7, reflectivity=1.0, pixel_pairs=100000, images=1)
    n1, n2 = sample_counts(scn.with_target(True), SeedSpec(31))
    m = analytic.moments(scn)
    x = n1[0].astype(float)
    y = n2[0].astype(float)
    prod = (x - x.mean()) * (y - y.mean())
    se = prod.std(ddof=1) / np.sqrt(prod.size)
    assert abs(prod.mean() - m.cov) <= 3.0 * se


@pytest.mark.parametrize(
    "modes_b,mean_total,var_expected",
    [(1, 5.0, 30.0), (1300, 100.0, 100.0 * (1.0 + 100.0 / 1300.0))],
)
def test_sampled_background_matches_variance_law(modes_b, mean_total, var_expected):
    # one pixel pair in each of 10000 frames, drawn across 40 blocks
    scn = make_scenario(target_present=False, modes_b=modes_b,
                        background_mean=mean_total, pixel_pairs=1, images=10000)
    samples = sample_counts(scn.with_target(False), SeedSpec(99))[1].astype(float)
    # refine with one big frame
    scn = make_scenario(target_present=False, modes_b=modes_b,
                        background_mean=mean_total, pixel_pairs=100000, images=1)
    _, n2 = sample_counts(scn.with_target(False), SeedSpec(7))
    _assert_mean_var(n2[0].astype(float), mean_total, var_expected)
    _assert_mean_var(samples, mean_total, var_expected)


# Bound on |z| = |sampled - oracle| / standard error for each of the six
# moments below, fixed before the first run: about 6e-5 two-sided per
# moment for a correct law, while a wrong one moves by many errors.
ORACLE_LAW_Z_BOUND = 4.0


@pytest.mark.parametrize("target", [True, False])
@pytest.mark.parametrize("kind", [SourceKind.TWIN_BEAM, SourceKind.SPLIT_THERMAL])
def test_sampled_moments_match_oracle(kind, target):
    # 200,000 pixel pairs of an instance small enough to enumerate, with
    # mode mismatch and background; every moment against the exact joint
    scn = make_scenario(
        kind=kind, mu=0.25, modes=20, mode_match=0.8, target_present=target,
        modes_b=5, background_mean=2.0, pixel_pairs=1000, images=200,
    )
    n1, n2 = sample_counts(scn, SeedSpec(4304))
    x = n1.ravel().astype(float)
    y = n2.ravel().astype(float)
    dx = x - x.mean()
    dy = y - y.mean()
    ref = oracle.enumerate_moments(scn.source, scn.channel, scn.background)
    per_pair = {
        "mean1": (x, ref.mean1),
        "mean2": (y, ref.mean2),
        "var1": (dx * dx, ref.var1),
        "var2": (dy * dy, ref.var2),
        "cov": (dx * dy, ref.cov),
        "m22": (dx * dx * dy * dy, ref.m22),
    }
    for field, (values, exact) in per_pair.items():
        z = (values.mean() - exact) / (values.std(ddof=1) / np.sqrt(values.size))
        assert abs(z) <= ORACLE_LAW_Z_BOUND, (field, z)


def test_thinning_law_two_sample_chisquare():
    # Binomial(NegBin(M, mu), eta) is NegBin(M, eta*mu) in distribution
    modes, mu, eta = 3, 0.8, 0.6
    rng = SeedSpec(13).rng(0)
    n = rng.negative_binomial(modes, 1.0 / (1.0 + mu), size=10000)
    thinned = rng.binomial(n, eta)
    direct = rng.negative_binomial(modes, 1.0 / (1.0 + eta * mu), size=10000)
    assert two_sample_chisquare_pvalue(thinned, direct) > 0.001


def test_frame_covariances_uncorrelated_between_frames():
    scn = make_scenario(background_mean=2000.0, images=2000)
    in_counts = sample_counts(*hypothesis_stream(scn, SeedSpec(555), "in"))
    deltas = frame_covariance(frame_stats(*in_counts))
    x, y = deltas[:-1] - deltas.mean(), deltas[1:] - deltas.mean()
    lag1 = float(np.sum(x * y) / np.sum((deltas - deltas.mean()) ** 2))
    assert abs(lag1) <= 3.0 / np.sqrt(deltas.size)


def test_read_noise_keeps_counts_nonnegative_and_default_off():
    scn = make_scenario(pixel_pairs=256, images=1)
    seed = SeedSpec(8)
    clean = sample_counts(scn.with_target(True), seed)
    noisy = sample_counts(dataclasses.replace(scn, read_noise_sigma=4.0).with_target(True), seed)
    again = sample_counts(scn.with_target(True), seed)
    assert np.array_equal(clean[0], again[0])
    assert (noisy[0] >= 0).all() and (noisy[1] >= 0).all()
    assert not np.array_equal(clean[0], noisy[0])


# ---------------------------------------------------------------------------
# the block pool
# ---------------------------------------------------------------------------
def serial_counts(scenario, seed):
    """The stream format drawn block after block on this thread, for a
    scenario with a background and read noise."""
    k, target = scenario.pixel_pairs, scenario.channel.target_present
    n1 = np.empty((scenario.images, k), np.int64)
    n2 = np.empty_like(n1)
    for block, start in enumerate(range(0, scenario.images, 256)):
        rng = seed.frame_rng(target, block)
        rows = slice(start, start + 256)
        size = n1[rows].size
        a1, a2 = _sample_pair_counts(scenario.source, scenario.channel, rng, size)
        n1[rows], n2[rows] = a1.reshape(-1, k), a2.reshape(-1, k)
        background = scenario.background
        n2[rows] += _negbin(rng, background.modes_b, background.mean_total, size).reshape(-1, k)
        for n in (n1, n2):
            noise = np.rint(rng.normal(0.0, scenario.read_noise_sigma, size)).astype(np.int64)
            n[rows] += noise.reshape(-1, k)
            np.maximum(n[rows], 0, out=n[rows])
    return n1, n2


def pool_scenario(kind=SourceKind.TWIN_BEAM, background_mean=300.0, images=700):
    # 700 frames are three blocks, the last one partial
    return make_scenario(
        kind=kind, background_mean=background_mean, mode_match=0.7, read_noise_sigma=1.5,
        pixel_pairs=6, images=images,
    )


@pytest.mark.parametrize("cores", ["pooled", "one core"])
@pytest.mark.parametrize("memo", ["none", "cold", "warm"])
@pytest.mark.parametrize("target", [True, False])
@pytest.mark.parametrize("kind", [SourceKind.TWIN_BEAM, SourceKind.SPLIT_THERMAL])
def test_pooled_blocks_are_the_serial_draws(monkeypatch, kind, target, memo, cores):
    monkeypatch.setattr(sampler, "_CORES", max(sampler._CORES, 2) if cores == "pooled" else 1)
    if cores == "one core":
        monkeypatch.setattr(sampler, "_POOL", None)
    scn = pool_scenario(kind).with_target(target)
    seed = SeedSpec(2026)
    memos = {"none": None, "cold": {}, "warm": {}}[memo]
    if memo == "warm":
        # the first point of a background series fills the memo
        sample_counts(pool_scenario(kind, background_mean=30.0).with_target(target), seed, memos)
    n1, n2 = sample_counts(scn, seed, memos)
    e1, e2 = serial_counts(scn, seed)
    assert np.array_equal(n1, e1) and np.array_equal(n2, e2)
    if memos is not None:
        (key, pairs), = memos.values()
        assert key == (scn.source, scn.channel, scn.pixel_pairs, scn.images)
        for block, (a1, a2, _, _) in enumerate(pairs):
            direct = _sample_pair_counts(scn.source, scn.channel, seed.frame_rng(target, block), a1.size)
            assert np.array_equal(a1, direct[0]) and np.array_equal(a2, direct[1])
        assert len(pairs) == 3
    if cores == "one core":
        assert sampler._POOL is None


# the parent draws 3 blocks on its pool, forks, and the child draws them
# again under an alarm; exit code 0 if the child returned the parent's bytes
_FORKED_DRAW = textwrap.dedent("""
    import os, signal
    from qisim import sampler
    from qisim.types import BackgroundSpec, ChannelSpec, Scenario, SeedSpec, SourceKind, SourceSpec

    sampler._CORES = 2
    scn = Scenario(
        SourceSpec(SourceKind.TWIN_BEAM, 0.3, 60), ChannelSpec(0.9, 0.9),
        BackgroundSpec(1, 200.0), pixel_pairs=4, images=600,
    )
    drawn = lambda: b"".join(n.tobytes() for n in sampler.sample_counts(scn, SeedSpec(5)))
    parent = drawn()
    pid = os.fork()
    if pid == 0:
        signal.alarm(5)
        os._exit(0 if drawn() == parent else 1)
    raise SystemExit(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))
""")


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_forked_child_draws_on_a_pool_of_its_own():
    # the child inherits the parent's pool object but none of its threads
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(qisim.__file__)))
    done = subprocess.run(
        [sys.executable, "-W", "ignore", "-c", _FORKED_DRAW],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert done.returncode == 0, done.stderr


def test_pooled_error_is_the_lowest_failing_block_after_every_block(monkeypatch):
    # blocks 1 and 2 fail, block 2 first; block 3 finishes last
    monkeypatch.setattr(sampler, "_CORES", max(sampler._CORES, 2))
    scn = pool_scenario(images=1000)
    seed = SeedSpec(7)
    # each block is told apart by the first number of its stream
    first = {seed.frame_rng(True, b).integers(1 << 62): b for b in range(4)}
    finished = []

    def failing_pairs(source, channel, rng, size):
        block = first[rng.integers(1 << 62)]
        time.sleep({1: 0.1, 3: 0.2}.get(block, 0.0))
        finished.append(block)
        if block in (1, 2):
            raise ParameterError(f"block {block}")
        return np.zeros(size, np.int64), np.zeros(size, np.int64)

    monkeypatch.setattr(sampler, "_sample_pair_counts", failing_pairs)
    memo = {}
    with pytest.raises(ParameterError, match="block 1"):
        sample_counts(scn, seed, memo)
    assert sorted(finished) == [0, 1, 2, 3]
    # the memo keeps the series' key and no block of it
    assert [pairs for _, pairs in memo.values()] == [[]]
