"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL
line with the measured figures.  Tolerances are fixed here and nowhere else.

Run with `pytest -s tests/test_acceptance.py` to see the report lines.
"""
from __future__ import annotations

import contextlib
import dataclasses
import time

import numpy as np
import pytest

from conftest import make_scenario, rel_err
from qisim import analytic, oracle
from qisim.cli import main as cli_main
from qisim.estimator import (
    epsilon_hat,
    frame_covariance,
    frame_stats,
    perr_hat,
    snr_hat,
)
from qisim.sampler import hypothesis_stream, sample_counts
from qisim.types import SeedSpec, SourceKind

MOMENT_FIELDS = ("mean1", "mean2", "var1", "var2", "cov", "m22")


@contextlib.contextmanager
def criterion(number: int, description: str):
    details: list[str] = []
    try:
        yield details
    except BaseException:
        print(f"ACCEPTANCE {number}: FAIL - {description}")
        raise
    suffix = f" ({'; '.join(details)})" if details else ""
    print(f"ACCEPTANCE {number}: PASS - {description}{suffix}")


def reference_scenario(**overrides):
    defaults = dict(modes_b=1300, pixel_pairs=80, images=10)
    defaults.update(overrides)
    return make_scenario(**defaults)


def records_for(scn, target, seed, count):
    scn = dataclasses.replace(scn, images=count).with_target(target)
    return frame_covariance(frame_stats(*sample_counts(scn, seed)))


# ---------------------------------------------------------------------------
# 1. closed-form moments match exhaustive enumeration
# ---------------------------------------------------------------------------
def test_criterion_1_oracle_equivalence():
    grid = [
        # (M, mu, eta1, eta2, r, (modes_b, mean_b))
        (1, 0.10, 0.3, 0.7, 1.0, (1, 0.0)),
        (1, 0.50, 1.0, 1.0, 0.5, (1, 0.5)),
        (2, 0.25, 0.7, 0.3, 1.0, (2, 2.0)),
        (3, 0.10, 0.3, 0.3, 0.7, (1, 0.0)),
        (3, 0.50, 0.7, 1.0, 1.0, (4, 1.0)),
        (4, 0.25, 1.0, 0.3, 0.5, (2, 0.5)),
        (5, 0.10, 0.7, 0.7, 1.0, (3, 2.0)),
        (5, 0.50, 0.3, 1.0, 1.0, (1, 1.0)),
        (2, 0.40, 1.0, 0.7, 0.9, (2, 0.0)),
        (4, 0.30, 0.7, 0.3, 1.0, (5, 1.5)),
    ]
    with criterion(1, "analytic moments equal enumeration on all six fields to 1e-9") as details:
        worst = 0.0
        instances = 0
        for kind in SourceKind:
            for modes, mu, e1, e2, r, (modes_b, mean_b) in grid:
                scn = make_scenario(
                    kind=kind, mu=mu, modes=modes, eta1=e1, eta2=e2,
                    reflectivity=r, modes_b=modes_b, background_mean=mean_b,
                    pixel_pairs=2,
                )
                m = analytic.moments(scn)
                ref = oracle.enumerate_moments(scn.source, scn.channel, scn.background)
                for field in MOMENT_FIELDS:
                    err = rel_err(getattr(m, field), getattr(ref, field))
                    worst = max(worst, err)
                    assert err <= 1e-9, (kind, modes, mu, field, err)
                instances += 1
        assert instances == 20
        details.append(f"{instances} instances, worst relative error {worst:.2e}")


# ---------------------------------------------------------------------------
# 2. nonclassicality parameter: exact values and Monte Carlo
# ---------------------------------------------------------------------------
def test_criterion_2_epsilon_ideal_values():
    with criterion(2, "epsilon ideal values exact to 1e-12; MC within 3 delta-method sigma") as details:
        for mu in (0.01, 0.075, 1.0):
            twin = analytic.epsilon(reference_scenario(mu=mu))
            assert rel_err(twin, (1.0 + mu) / mu) <= 1e-12
            split = analytic.epsilon(reference_scenario(kind=SourceKind.SPLIT_THERMAL, mu=mu))
            assert abs(split - 1.0) <= 1e-12

        scn = reference_scenario(images=2000)
        in_counts = sample_counts(*hypothesis_stream(scn, SeedSpec(2024), "in"))
        eps_q, sig_q = epsilon_hat(frame_stats(*in_counts))
        assert abs(eps_q - 14.333333333333334) <= 3.0 * sig_q

        scn_ci = reference_scenario(kind=SourceKind.SPLIT_THERMAL, images=2000)
        in_counts = sample_counts(*hypothesis_stream(scn_ci, SeedSpec(2025), "in"))
        eps_c, sig_c = epsilon_hat(frame_stats(*in_counts))
        assert abs(eps_c - 1.0) <= 3.0 * sig_c
        details.append(
            f"MC: twin {eps_q:.2f}+-{sig_q:.2f}, split {eps_c:.3f}+-{sig_c:.3f}"
        )


# ---------------------------------------------------------------------------
# 3. loss independence of epsilon and the enhancement
# ---------------------------------------------------------------------------
def test_criterion_3_loss_independence():
    with criterion(3, "epsilon and R invariant to 1e-12 under eta1/eta2/r sweeps") as details:
        mu = 0.075
        ideal = (1.0 + mu) / mu
        checked = 0
        for e1 in (0.1, 0.3, 0.62, 1.0):
            for e2 in (0.2, 0.7, 1.0):
                for r in (0.05, 0.5, 1.0):
                    twin = analytic.epsilon(reference_scenario(eta1=e1, eta2=e2, reflectivity=r))
                    split = analytic.epsilon(
                        reference_scenario(kind=SourceKind.SPLIT_THERMAL, eta1=e1, eta2=e2, reflectivity=r)
                    )
                    assert rel_err(twin, ideal) <= 1e-12
                    assert abs(split - 1.0) <= 1e-12
                    assert rel_err(twin / split, analytic.enhancement(mu)) <= 1e-12
                    checked += 1
        details.append(f"{checked} efficiency/reflectivity combinations")


# ---------------------------------------------------------------------------
# 4. quantum enhancement of the SNR at dominant background
# ---------------------------------------------------------------------------
def test_criterion_4_enhancement_window():
    # equal local resources, mu = 0.075; background at 10x the probe-arm
    # mean, i.e. inside the dominant-background regime
    with criterion(4, "MC snr ratio in [11.5, 17.2]; decision-budget ratio in [100, 260]") as details:
        def scen(kind, nb):
            return make_scenario(
                kind=kind, mu=0.075, modes=20, eta1=1.0, eta2=1.0, reflectivity=1.0,
                modes_b=1000, background_mean=nb, pixel_pairs=3000, images=1,
            )

        mean2 = analytic.moments(scen(SourceKind.TWIN_BEAM, 0.0)).mean2
        nb = 10.0 * mean2
        qi = scen(SourceKind.TWIN_BEAM, nb)
        ci = scen(SourceKind.SPLIT_THERMAL, nb)

        seed = SeedSpec(20240805)
        frames = 2000
        ratio = snr_hat(
            records_for(qi, True, seed.derive(1, 1), frames),
            records_for(qi, False, seed.derive(1, 0), frames), 1,
        )[0] / snr_hat(
            records_for(ci, True, seed.derive(2, 1), frames),
            records_for(ci, False, seed.derive(2, 0), frames), 1,
        )[0]
        assert 11.5 <= ratio <= 17.2

        # frames needed to reach unit SNR scale as 1/f^2, so the classical
        # over quantum budget ratio is the squared analytic SNR ratio
        budget_ratio = (analytic.snr(qi) / analytic.snr(ci)) ** 2
        assert 100.0 <= budget_ratio <= 260.0
        details.append(f"MC ratio {ratio:.2f}; budget ratio {budget_ratio:.1f}")


# ---------------------------------------------------------------------------
# 5. covariance level flat in background, its noise growing as predicted
# ---------------------------------------------------------------------------
def test_criterion_5_covariance_versus_background():
    with criterion(5, "flat covariance, monotone noise growth matching sqrt(var1*var_b/K)") as details:
        values = np.geomspace(2e3, 2e5, 8)  # two decades
        seed = SeedSpec(20240805)
        frames = 1500
        k = 80
        means, sds, ses = [], [], []
        for vi, nb in enumerate(values):
            scn = reference_scenario(background_mean=float(nb), images=1)
            recs = records_for(scn, True, seed.derive(5, vi), frames)
            sd = float(recs.std(ddof=1))
            means.append(recs.mean())
            sds.append(sd)
            ses.append(sd / np.sqrt(frames))
        means, sds, ses = map(np.array, (means, sds, ses))

        weights = 1.0 / ses**2
        x_bar = np.sum(weights * values) / np.sum(weights)
        y_bar = np.sum(weights * means) / np.sum(weights)
        slope = np.sum(weights * (values - x_bar) * (means - y_bar)) / np.sum(
            weights * (values - x_bar) ** 2
        )
        slope_se = np.sqrt(1.0 / np.sum(weights * (values - x_bar) ** 2))
        assert abs(slope) <= slope_se

        assert np.all(np.diff(sds) > 0.0)

        dominant_checked = 0
        for vi, nb in enumerate(values):
            scn = reference_scenario(background_mean=float(nb), images=1)
            m_in = analytic.moments(scn)
            var_b = analytic.variance_law(float(nb), 1300)
            rest = m_in.delta_product_variance - m_in.var1 * var_b
            if m_in.var1 * var_b < 100.0 * rest:
                continue
            predicted = np.sqrt(m_in.var1 * var_b / k)
            assert abs(sds[vi] - predicted) / predicted < 0.15
            dominant_checked += 1
        assert dominant_checked >= 3
        details.append(
            f"slope z = {abs(slope) / slope_se:.2f}; {dominant_checked} dominant points within 15%"
        )


# ---------------------------------------------------------------------------
# 6. error-probability separation and MC agreement
# ---------------------------------------------------------------------------
def test_criterion_6_error_probability_separation():
    started = time.monotonic()
    with criterion(6, "background tolerance at equal error >= 10x; MC within factor 3") as details:
        def scen(kind, nb):
            return reference_scenario(kind=kind, background_mean=nb, images=1)

        def tolerable_background(kind, level):
            # largest background with P_err <= level (0 when unattainable)
            lo, hi = 1e-3, 1e8
            if analytic.error_probability(scen(kind, lo), 10) >= level:
                return 0.0
            for _ in range(200):
                mid = float(np.sqrt(lo * hi))
                if analytic.error_probability(scen(kind, mid), 10) < level:
                    lo = mid
                else:
                    hi = mid
            return float(np.sqrt(lo * hi))

        # Gaussian-model curves are evaluated in closed form, i.e. the
        # infinite-decision-batch limit of the 5000-batch requirement.
        nq_005 = tolerable_background(SourceKind.TWIN_BEAM, 0.05)
        nc_005 = tolerable_background(SourceKind.SPLIT_THERMAL, 0.05)
        assert nq_005 >= 10.0 * nc_005 and nq_005 > 0.0
        # strengthened equal-error comparison at a level both protocols reach
        nq_02 = tolerable_background(SourceKind.TWIN_BEAM, 0.2)
        nc_02 = tolerable_background(SourceKind.SPLIT_THERMAL, 0.2)
        assert nc_02 > 0.0 and nq_02 >= 10.0 * nc_02

        seed = SeedSpec(20240805)
        batches, ipd = 600, 10
        frames = batches * ipd
        points = [
            (SourceKind.TWIN_BEAM, nq_005),
            (SourceKind.TWIN_BEAM, 1.6 * nq_005),
            (SourceKind.SPLIT_THERMAL, nc_02),
            (SourceKind.SPLIT_THERMAL, 2.0 * nc_02),
        ]
        checked = 0
        for tag, (kind, nb) in enumerate(points):
            scn = scen(kind, nb)
            p_model = analytic.error_probability(scn, ipd)
            p_mc = perr_hat(
                records_for(scn, True, seed.derive(6, tag, 1), frames),
                records_for(scn, False, seed.derive(6, tag, 0), frames),
                ipd,
            ).p_err
            if 1e-2 <= p_model <= 0.5 and 1e-2 <= p_mc <= 0.5:
                assert max(p_model, p_mc) / min(p_model, p_mc) <= 3.0
                checked += 1
        assert checked >= 3
        elapsed = time.monotonic() - started
        assert elapsed < 600.0
        details.append(
            f"tolerance at 5%: twin {nq_005:.0f} vs split {nc_005:.0f}; "
            f"at 20%: {nq_02:.0f} vs {nc_02:.0f} ({nq_02 / nc_02:.0f}x); "
            f"{checked} MC points within factor 3; {elapsed:.0f}s"
        )


# ---------------------------------------------------------------------------
# 7. sampled beams obey the multithermal law
# ---------------------------------------------------------------------------
def test_criterion_7_sampler_laws():
    with criterion(7, "sampled means/variances within 3 SE of M*eta*mu and the variance law") as details:
        def assert_mean_var(samples, mean_th, var_th):
            n = samples.size
            mean_hat = samples.mean()
            var_hat = samples.var(ddof=1)
            se_mean = np.sqrt(var_hat / n)
            m4 = np.mean((samples - mean_hat) ** 4)
            se_var = np.sqrt(max(m4 - var_hat**2, 0.0) / n)
            assert abs(mean_hat - mean_th) <= 3.0 * se_mean
            assert abs(var_hat - var_th) <= 3.0 * se_var

        checked = []
        for kind in SourceKind:
            scn = make_scenario(
                kind=kind, reflectivity=1.0, pixel_pairs=100000, images=1,
            )
            n1, n2 = sample_counts(scn.with_target(True), SeedSpec(2024))
            m = analytic.moments(scn)
            assert_mean_var(n1[0].astype(float), m.mean1, m.var1)
            assert_mean_var(n2[0].astype(float), m.mean2, m.var2)
            checked.append(f"{kind.value} arms")

        for modes_b, mean_total in ((1, 5.0), (1300, 100.0)):
            scn = make_scenario(
                target_present=False, modes_b=modes_b, background_mean=mean_total,
                pixel_pairs=100000, images=1,
            )
            _, n2 = sample_counts(scn.with_target(False), SeedSpec(7))
            assert_mean_var(
                n2[0].astype(float),
                mean_total,
                analytic.variance_law(mean_total, modes_b),
            )
            checked.append(f"background M_b={modes_b}")

        # detected-rate consistency: M eta mu = 4185 within 1% of the
        # nominal 4200 photons per pixel
        mean1 = analytic.moments(make_scenario()).mean1
        assert abs(mean1 - 4185.0) < 1e-6
        assert abs(mean1 - 4200.0) / 4200.0 < 0.01
        details.append(f"{len(checked)} beams at 1e5 samples; <N> = {mean1:.0f} vs nominal 4200")


# ---------------------------------------------------------------------------
# 8. byte-identical figure reproduction across reruns and sidecar replays
# ---------------------------------------------------------------------------
def test_criterion_8_reproduction_determinism(tmp_path, capsys):
    with criterion(8, "reproduce fig2 byte-identical across reruns and sidecar replays") as details:
        for name in ("a", "b"):
            code = cli_main(
                ["reproduce", "fig2", "--seed", "9001", "--frames", "60",
                 "--out", str(tmp_path / name)]
            )
            assert code == 0
        compared = 0
        for stem in ("fig2_mb57", "fig2_mb1300"):
            sidecar = str(tmp_path / "a" / f"{stem}.csv.meta.txt")
            replay = tmp_path / f"replay_{stem}"
            assert cli_main(["sweep", "--config", sidecar, "--out", str(replay)]) == 0
            for suffix in (".csv", ".csv.meta.txt"):
                blob_a = (tmp_path / "a" / f"{stem}{suffix}").read_bytes()
                assert blob_a == (tmp_path / "b" / f"{stem}{suffix}").read_bytes()
                assert blob_a == (replay / f"sweep{suffix}").read_bytes()
                compared += 1
        capsys.readouterr()
        details.append(f"{compared} output files identical across 3 runs")
