"""Shared factories for test scenarios, and a reference bootstrap."""
from __future__ import annotations

import math

import numpy as np

from qisim.types import (
    BackgroundSpec,
    ChannelSpec,
    DegenerateStatisticError,
    Scenario,
    SourceKind,
    SourceSpec,
)


def make_scenario(
    kind: SourceKind = SourceKind.TWIN_BEAM,
    mu: float = 0.075,
    modes: int = 90000,
    split_ratio: float = 0.5,
    eta1: float = 0.62,
    eta2: float = 0.62,
    reflectivity: float = 0.5,
    target_present: bool = True,
    mode_match: float = 1.0,
    modes_b: int = 1300,
    background_mean: float = 0.0,
    pixel_pairs: int = 80,
    images: int = 10,
    read_noise_sigma: float = 0.0,
) -> Scenario:
    return Scenario(
        source=SourceSpec(kind=kind, mu=mu, modes=modes, split_ratio=split_ratio),
        channel=ChannelSpec(
            eta1=eta1,
            eta2=eta2,
            reflectivity=reflectivity,
            target_present=target_present,
            mode_match=mode_match,
        ),
        background=BackgroundSpec(modes_b=modes_b, mean_total=background_mean),
        pixel_pairs=pixel_pairs,
        images=images,
        read_noise_sigma=read_noise_sigma,
    )


def rel_err(a: float, b: float) -> float:
    scale = max(abs(a), abs(b))
    return abs(a - b) / scale if scale > 0.0 else abs(a - b)


def per_iteration_bootstrap(stat, samples, rng, resamples):
    """(stat on the samples, sigma over resamples) of the scalar `stat`:
    each resample draws, sample by sample, n indices with replacement,
    one `rng.integers(0, n, n)` call each.  Resamples where `stat` raises
    DegenerateStatisticError or is not finite are dropped."""
    estimate = stat(*samples)
    draws = []
    for _ in range(resamples):
        picked = [s[..., rng.integers(0, s.shape[-1], s.shape[-1])] for s in samples]
        try:
            value = stat(*picked)
        except DegenerateStatisticError:
            continue
        if math.isfinite(value):
            draws.append(value)
    if len(draws) < 2:
        raise DegenerateStatisticError("bootstrap resamples all degenerate")
    return estimate, float(np.std(draws, ddof=1))
