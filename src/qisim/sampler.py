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
`sample_blocks` states.  So a block's counts do not depend on how many
frames follow it, on which block is drawn first, on the number of cores
or on how far ahead blocks are drawn.  A sweep draws every point of a
series on the series seed (`scenario.sweep_spec`), so points that share
the source and channel share their pixel pairs.

Each hypothesis is one ordered stream of blocks: `sample_blocks` yields
the (n1, n2) counts of the hypothesis its `Scenario` names
(`channel.target_present`), read noise included, block by block in frame
order, drawing a few blocks ahead on a pool, so no consumer need hold
every frame.  `write_frames_csv` writes blocks as they arrive, and
`scenario.PointPipeline` reduces them to statistics tables;
`sample_counts` is the same stream gathered into two (images, K) int64
arrays, row i holding frame i.  `hypothesis_stream` names the (scenario,
seed) each of a point's hypotheses, "in" and "out", is drawn on.
"""
from __future__ import annotations

import collections
import functools
import itertools
import os
from typing import Iterator

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
# `_executor` makes on the first stream with two or more blocks.
_CORES = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
# Blocks a stream draws ahead of its consumer on the pool, at most: two
# per core, so every core has a block to draw while its last one is taken.
_LOOKAHEAD = max(4, 2 * _CORES)


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


def _draw_block(scenario: Scenario, size: int, rng, pairs, keep: bool) -> tuple:
    """One block's (n1, n2, entry): `size` counts per arm as (rows, K) int64
    arrays, drawn on its Generator `rng`: its pixel pairs, then the
    background on arm 2, then read noise on arm 1 and on arm 2.

    `pairs` is None, or the block's memo entry (a1, a2, rng, state): its
    pixel pairs and the state of `rng` right after them, which is restored
    in place of a draw.  `entry` is `pairs` as given, or one made from the
    fresh draw if `keep`, else None.  The counts are copies, so no block
    aliases a memo entry."""
    if pairs is None:
        a1, a2 = _sample_pair_counts(scenario.source, scenario.channel, rng, size)
        pairs = (a1, a2, rng, rng.bit_generator.state) if keep else None
    else:
        a1, a2, _, state = pairs
        rng.bit_generator.state = state
    k = scenario.pixel_pairs
    n1, n2 = a1.reshape(-1, k).copy(), a2.reshape(-1, k).copy()
    background = scenario.background
    if background.mean_total > 0.0:
        n2 += _negbin(rng, background.modes_b, background.mean_total, size).reshape(-1, k)
    sigma = scenario.read_noise_sigma
    if sigma > 0.0:
        for n in (n1, n2):
            n += np.rint(rng.normal(0.0, sigma, size)).astype(np.int64).reshape(-1, k)
            np.maximum(n, 0, out=n)
    return n1, n2, pairs


@functools.cache
def _executor():
    """The module's block pool, one thread per core, made on first use.

    A forked child drops the cached pool, whose copy has no worker
    threads, and makes its own on first use.  If two threads make the
    very first call at once, each may make a pool; the one not cached
    serves its caller and is then garbage-collected, and its workers
    exit.  qisim calls this only from the thread that iterates
    `sample_blocks`."""
    from concurrent.futures import ThreadPoolExecutor

    return ThreadPoolExecutor(_CORES, thread_name_prefix="qisim-block")


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_executor.cache_clear)


def sample_blocks(
    scenario: Scenario, seed: SeedSpec, memo: dict | None = None
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The `scenario.images` frames of the hypothesis
    `scenario.channel.target_present` as one stream of (n1, n2) blocks in
    frame order, block b holding frames 256*b to 256*b + 255 as two
    (rows, K) int64 arrays.

    Block b draws from `seed.frame_rng(target_present, b)`: the pixel
    pairs, then the background on arm 2, then read noise on arm 1 and on
    arm 2, each as one call over the whole block.  With two or more blocks
    and cores, blocks are drawn ahead of the consumer on a pool of one
    thread per core, at most `_LOOKAHEAD` (two per core, and at least
    four) at a time; every block keeps its
    own stream, so the counts depend neither on the number of cores nor on
    the lookahead.  Streams are made on the iterating thread.  An error
    raised in block b is raised when the stream reaches block b, once the
    blocks in flight have finished; no later block is started.  A stream
    closed early likewise waits for its blocks in flight and starts none.

    `memo` maps the draw key (seed, source, channel, pixel_pairs, images),
    everything a block's pixel pairs depend on, to the `_draw_block` memo
    entry of each block.  A stream on a key the memo holds reuses its
    Generators, restores each stream right after its pairs and draws only
    the background and read noise; a stream on any other key empties the
    memo before it draws.  The memo is written only once the last block
    has passed, so a stream that raises or is closed early adds nothing to
    it.  The reuse rule is README "Reproducibility"'s, so the counts are
    those of a stream without a memo."""
    target = scenario.channel.target_present
    key = (seed, scenario.source, scenario.channel, scenario.pixel_pairs, scenario.images)
    if memo is not None and key not in memo:
        memo.clear()
    starts = range(0, scenario.images, _BLOCK_FRAMES)
    held = memo[key] if memo else [None] * len(starts)
    # streams are made on the iterating thread, and only on a miss:
    # perfbench's tracer wraps `SeedSpec.frame_rng` on one span stack
    jobs = (
        (scenario, min(_BLOCK_FRAMES, scenario.images - start) * scenario.pixel_pairs,
         seed.frame_rng(target, b) if pairs is None else pairs[2], pairs, memo is not None)
        for b, (start, pairs) in enumerate(zip(starts, held))
    )
    drawn = []
    if len(starts) < 2 or _CORES < 2:
        for job in jobs:
            n1, n2, entry = _draw_block(*job)
            drawn.append(entry)
            yield n1, n2
    else:
        from concurrent.futures import wait

        pool = _executor()
        submit = lambda count: [pool.submit(_draw_block, *job) for job in itertools.islice(jobs, count)]
        in_flight = collections.deque(submit(_LOOKAHEAD))
        try:
            while in_flight:
                n1, n2, entry = in_flight.popleft().result()
                in_flight.extend(submit(1))
                drawn.append(entry)
                yield n1, n2
        finally:
            for future in in_flight:
                future.cancel()
            wait(in_flight)
    if memo is not None:
        memo[key] = drawn


def sample_counts(
    scenario: Scenario, seed: SeedSpec, memo: dict | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """(n1, n2) of `scenario.images` frames, each of shape (images, K):
    the blocks of `sample_blocks` gathered into two arrays, row i holding
    frame i."""
    n1 = np.empty((scenario.images, scenario.pixel_pairs), dtype=np.int64)
    n2 = np.empty_like(n1)
    start = 0
    for b1, b2 in sample_blocks(scenario, seed, memo):
        n1[start : start + len(b1)], n2[start : start + len(b2)] = b1, b2
        start += len(b1)
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


def write_frames_csv(path: str, in_blocks, out_blocks) -> None:
    """Dump one image set, each hypothesis an iterable of (n1, n2) count
    blocks in frame order, such as `sample_blocks` yields or a list of one
    pair of (images, K) arrays: columns frame,pixel,n1,n2,hypothesis,
    lines ended by "\\r\\n".  Each block is written as it arrives.

    Each `_WRITE_FRAMES` frames of a block are one (frames, K, width) uint8
    table, a row per line: the `_decimal` digits of frame, n1 and n2 between
    the constant bytes `,<pixel>,` (a per-pixel template), `,` and
    `,<hypothesis>\\r\\n`.  No NUL occurs in the CSV, so the table less
    its NULs is the lines.  A negative count raises `ParameterError`, and
    any error once the file is open, a block's included, removes it.  The
    file is opened, so any file at `path` is replaced, before the first
    block is read: a caller that must keep an existing file on failure
    writes to another name and renames it on success, as `qisim simulate`
    does."""
    handle = open(path, "wb")
    try:
        with handle:
            handle.write(b"frame,pixel,n1,n2,hypothesis\r\n")
            for label, blocks in (("in", in_blocks), ("out", out_blocks)):
                comma, tail = (np.frombuffer(text.encode(), np.uint8) for text in (",", f",{label}\r\n"))
                frame = 0
                for n1, n2 in blocks:
                    if (n1 < 0).any() or (n2 < 0).any():
                        raise ParameterError("counts must be non-negative")
                    k = n1.shape[1]
                    pixels = np.array([f",{pixel},".encode() for pixel in range(k)])
                    pixels = pixels.view(np.uint8).reshape(k, -1)
                    for start in range(0, len(n1), _WRITE_FRAMES):
                        b1, b2 = n1[start : start + _WRITE_FRAMES], n2[start : start + _WRITE_FRAMES]
                        first = frame + start
                        parts = (_decimal(np.arange(first, first + len(b1)))[:, None], pixels,
                                 _decimal(b1), comma, _decimal(b2), tail)
                        cuts = np.cumsum([0] + [part.shape[-1] for part in parts])
                        table = np.zeros((*b1.shape, cuts[-1]), np.uint8)
                        for part, left, right in zip(parts, cuts, cuts[1:]):
                            table[..., left:right] = part
                        handle.write(table[table != 0].tobytes())
                    frame += len(n1)
    except BaseException:
        os.remove(path)
        raise
