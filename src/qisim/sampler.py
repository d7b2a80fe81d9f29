"""Seeded Monte Carlo generation of photon-count frames.

Counts are drawn at the aggregate level: the total photon number of M
i.i.d. thermal modes is negative binomial, and binomial thinning encodes
losses, reflectivity and the classical splitter.  This is exact (sums of
independent thermal modes stay negative binomial; thinning a thermal beam
keeps it thermal) and removes any per-mode loop, which is what makes
full-experiment mode counts (~1e5 modes per pixel) affordable.

Stream format: pixel pairs are i.i.d. across pixels and frames, so frames
are drawn in blocks of `_BLOCK_FRAMES`.  Block b holds frames 256*b to
256*b + 255 (the last block may be shorter) and draws from its own child
stream keyed by (master_seed, hypothesis, b), in the fixed sequence that
`sample_counts` states.  So a block's counts do not depend on how many
frames follow it, on which block is drawn first or on the number of
cores.  A sweep draws every point of a series on the series seed
(`scenario.sweep_spec`), so points that share the source and channel
share their pixel pairs.

`sample_counts` fills the counts of the hypothesis its `Scenario` names
(`channel.target_present`), read noise included, into two preallocated
(images, K) int64 arrays n1 and n2, row i holding frame i; the
estimators take those arrays directly.  `hypothesis_stream` names the
(scenario, seed) each of a point's hypotheses, "in" and "out", is drawn
on.
"""
from __future__ import annotations

import functools
import os

import numpy as np

from .types import (
    _MEAN_PHOTON_LIMIT,
    ChannelSpec,
    ParameterError,
    Scenario,
    SeedSpec,
    SourceKind,
    SourceSpec,
    STREAM_IN,
    STREAM_OUT,
)

# Frames per random stream.  Part of the stream format: changing it
# changes every sampled value.
_BLOCK_FRAMES = 256
# Named in every sweep sidecar, so an output can be traced to its format.
STREAM_FORMAT = (
    f"stream format 3: one stream per {_BLOCK_FRAMES} frames, one seed per sweep series"
)
# Frames of frames.csv formatted as one byte table.
_WRITE_FRAMES = 256
# Cores this process may run on: the width of the block pool, which
# `_executor` makes on the first call with two or more blocks.
_CORES = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _negbin(
    rng: np.random.Generator, modes: float, total_mean: float, size: int
) -> np.ndarray:
    """Total counts of `modes` i.i.d. thermal modes with the given total
    mean: zeros, drawing nothing, when there are no modes or no photons."""
    if modes == 0.0 or total_mean == 0.0:
        return np.zeros(size, dtype=np.int64)
    if not total_mean <= _MEAN_PHOTON_LIMIT:  # a nan mean (0 * inf) too
        raise ParameterError(
            f"expected photon number {total_mean} exceeds sampling limit"
        )
    p = modes / (modes + total_mean)
    return rng.negative_binomial(modes, p, size=size)


def _sample_pair_counts(
    source: SourceSpec,
    channel: ChannelSpec,
    rng: np.random.Generator,
    size: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Vector draw of `size` pixel pairs (n1, n2_correlated).

    Draw order is fixed: shared component, arm-1 thinning, arm-2 thinning,
    then the mode-mismatched replacements. Changing it changes every
    downstream stream, so treat it as part of the wire format.  With the
    target absent, `arm2_efficiency` is 0 and the arm-2 draws take
    nothing from the stream (numpy's binomial draws nothing at p = 0).
    """
    e1 = channel.eta1
    e2 = channel.arm2_efficiency
    matched = channel.mode_match * source.modes
    unmatched = source.modes - matched
    twin = source.kind is SourceKind.TWIN_BEAM
    nu = source.mu if twin else source.pre_split_mean
    shared = _negbin(rng, matched, matched * nu, size)

    if twin:
        n1 = rng.binomial(shared, e1)
        n2 = rng.binomial(shared, e2)
        arm2_per_mode = e2 * nu
    else:
        t = source.split_ratio
        to_arm1 = rng.binomial(shared, t)
        n1 = rng.binomial(to_arm1, e1)
        n2 = rng.binomial(shared - to_arm1, e2)
        arm2_per_mode = e2 * (1.0 - t) * nu

    if unmatched > 0.0:
        n1 += _negbin(rng, unmatched, unmatched * e1 * source.mu, size)
        n2 += _negbin(rng, unmatched, unmatched * arm2_per_mode, size)
    return n1, n2


def _fill_block(
    scenario: Scenario, n1: np.ndarray, n2: np.ndarray, rows: slice, rng, pairs, keep: bool
) -> tuple | None:
    """Fill rows `rows` of n1 and n2 with one block's counts, drawn on its
    Generator `rng`: its pixel pairs, then the background on arm 2, then
    read noise on arm 1 and on arm 2.

    `pairs` is None, or the block's memo entry (a1, a2, rng, state): its
    pixel pairs and the state of `rng` right after them, which is restored
    in place of a draw.  Returns the block's entry: `pairs` as given, or
    one made from the fresh draw if `keep`, else None, so that no second
    copy of the counts lives on."""
    k = scenario.pixel_pairs
    size = n1[rows].size
    if pairs is None:
        a1, a2 = _sample_pair_counts(scenario.source, scenario.channel, rng, size)
        pairs = (a1, a2, rng, rng.bit_generator.state) if keep else None
    else:
        a1, a2, _, state = pairs
        rng.bit_generator.state = state
    n1[rows] = a1.reshape(-1, k)
    n2[rows] = a2.reshape(-1, k)
    background = scenario.background
    if background.mean_total > 0.0:
        n2[rows] += _negbin(rng, background.modes_b, background.mean_total, size).reshape(-1, k)
    sigma = scenario.read_noise_sigma
    if sigma > 0.0:
        for n in (n1, n2):
            n[rows] += np.rint(rng.normal(0.0, sigma, size)).astype(np.int64).reshape(-1, k)
            np.maximum(n[rows], 0, out=n[rows])
    return pairs


@functools.cache
def _executor():
    """The module's block pool, one thread per core, made on first use.

    A forked child drops the cached pool, whose copy has no worker
    threads, and makes its own on first use.  If two threads make the
    very first call at once, each may make a pool; the one not cached
    serves its caller and is then garbage-collected, and its workers
    exit.  qisim calls this only from the thread that calls
    `sample_counts`."""
    from concurrent.futures import ThreadPoolExecutor

    return ThreadPoolExecutor(_CORES, thread_name_prefix="qisim-block")


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_executor.cache_clear)


def sample_counts(
    scenario: Scenario, seed: SeedSpec, memo: dict | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """(n1, n2) of `scenario.images` frames, each of shape (images, K),
    under the hypothesis `scenario.channel.target_present`.

    Block b of `_BLOCK_FRAMES` rows draws from `seed.frame_rng(target_present, b)`:
    the pixel pairs, then the background on arm 2, then read noise on
    arm 1 and on arm 2, each as one call over the whole block.  With two
    or more blocks and cores, the blocks are drawn concurrently on a pool
    of one thread per core, each into its own rows; every block keeps its
    own stream, so the counts do not depend on the number of cores.  An
    error raised in a block is raised once every block has finished, the
    lowest failing block's.

    `memo` maps the draw key (seed, source, channel, pixel_pairs, images),
    everything a block's pixel pairs depend on, to the `_fill_block` memo
    entry of each block.  A call on a key the memo holds reuses its
    Generators, restores each stream right after its pairs and draws only
    the background and read noise; a call on any other key empties the
    memo before it draws.  The memo is written only after a draw that
    returns, so a call that misses and raises leaves it empty.  The reuse
    rule is README "Reproducibility"'s, so the counts are those of a call
    without a memo."""
    target = scenario.channel.target_present
    key = (seed, scenario.source, scenario.channel, scenario.pixel_pairs, scenario.images)
    if memo is not None and key not in memo:
        memo.clear()
    n1 = np.empty((scenario.images, scenario.pixel_pairs), dtype=np.int64)
    n2 = np.empty_like(n1)
    starts = range(0, scenario.images, _BLOCK_FRAMES)
    held = memo[key] if memo else [None] * len(starts)
    # streams are made on the calling thread, and only on a miss: perfbench's
    # tracer wraps `SeedSpec.frame_rng` on one span stack
    blocks = [
        (scenario, n1, n2, slice(start, start + _BLOCK_FRAMES),
         seed.frame_rng(target, b) if pairs is None else pairs[2], pairs, memo is not None)
        for b, (start, pairs) in enumerate(zip(starts, held))
    ]
    if len(blocks) < 2 or _CORES < 2:
        drawn = [_fill_block(*block) for block in blocks]
    else:
        from concurrent.futures import wait

        pool = _executor()
        futures = [pool.submit(_fill_block, *block) for block in blocks]
        wait(futures)
        drawn = [future.result() for future in futures]
    if memo is not None:
        memo[key] = drawn
    return n1, n2


def hypothesis_stream(scenario: Scenario, seed: SeedSpec, label: str) -> tuple[Scenario, SeedSpec]:
    """The (scenario, seed) `sample_counts` draws hypothesis `label` from, a
    rule of the stream format: "in" is `scenario` as configured, target
    present or not, on `seed.derive(STREAM_IN)`; "out" is
    `scenario.with_target(False)` on `seed.derive(STREAM_OUT)`."""
    if label == "in":
        return scenario, seed.derive(STREAM_IN)
    if label == "out":
        return scenario.with_target(False), seed.derive(STREAM_OUT)
    raise ParameterError(f"hypothesis must be 'in' or 'out' (got {label!r})")


def _decimal(values: np.ndarray) -> np.ndarray:
    """Non-negative `values` in decimal as uint8 digits on a new last axis, as
    many as the largest value has: right-aligned, NUL left of a leading digit."""
    digits = np.zeros((*values.shape, len(str(int(values.max())))), np.uint8)
    shown = True
    for column in reversed(range(digits.shape[-1])):
        quotient = values // 10
        digits[..., column] = (values - 10 * quotient + 48) * shown
        values, shown = quotient, quotient > 0
    return digits


def write_frames_csv(path: str, in_counts, out_counts) -> None:
    """Dump one image set of (n1, n2) count arrays: columns
    frame,pixel,n1,n2,hypothesis, lines ended by "\\r\\n".

    Each block of `_WRITE_FRAMES` frames is one (frames, K, width) uint8
    table, a row per line: the `_decimal` digits of frame, n1 and n2 between
    the constant bytes `,<pixel>,` (a per-pixel template), `,` and
    `,<hypothesis>\\r\\n`.  No NUL occurs in the CSV, so the table less
    its NULs is the block's lines.  A negative count raises
    `ParameterError` before the file is opened."""
    hypotheses = (("in", in_counts), ("out", out_counts))
    if any((n < 0).any() for _, counts in hypotheses for n in counts):
        raise ParameterError("counts must be non-negative")
    with open(path, "wb") as handle:
        handle.write(b"frame,pixel,n1,n2,hypothesis\r\n")
        for label, (n1, n2) in hypotheses:
            k = n1.shape[1]
            pixels = np.array([f",{pixel},".encode() for pixel in range(k)])
            pixels = pixels.view(np.uint8).reshape(k, -1)
            comma, tail = (np.frombuffer(text.encode(), np.uint8) for text in (",", f",{label}\r\n"))
            for start in range(0, n1.shape[0], _WRITE_FRAMES):
                b1, b2 = n1[start : start + _WRITE_FRAMES], n2[start : start + _WRITE_FRAMES]
                frame = _decimal(np.arange(start, start + len(b1)))[:, None]
                parts = (frame, pixels, _decimal(b1), comma, _decimal(b2), tail)
                cuts = np.cumsum([0] + [part.shape[-1] for part in parts])
                table = np.zeros((*b1.shape, cuts[-1]), np.uint8)
                for part, left, right in zip(parts, cuts, cuts[1:]):
                    table[..., left:right] = part
                handle.write(table[table != 0].tobytes())
