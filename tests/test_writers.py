"""Property tests: the frames.csv and records.csv writers against csv.writer.

The references are the plain forms: one `csv.writer` row per pixel pair
or per frame, which is the byte contract the writers keep (lines ended by
"\r\n", integers as `str`, each delta as `repr(float(delta))`).
"""
from __future__ import annotations

import csv
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from qisim.estimator import _WRITE_RECORDS, write_records_csv
from qisim.sampler import _WRITE_FRAMES, write_frames_csv
from qisim.types import ParameterError

WRITER_SETTINGS = settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)


def reference_frames_csv(path, in_counts, out_counts) -> None:
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["frame", "pixel", "n1", "n2", "hypothesis"])
        for label, (n1, n2) in (("in", in_counts), ("out", out_counts)):
            for frame in range(n1.shape[0]):
                for pixel in range(n1.shape[1]):
                    writer.writerow([frame, pixel, int(n1[frame, pixel]), int(n2[frame, pixel]), label])


def reference_records_csv(path, in_values, out_values) -> None:
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["frame", "hypothesis", "delta12"])
        for label, values in (("in", in_values), ("out", out_values)):
            for frame, delta in enumerate(values):
                writer.writerow([frame, label, repr(float(delta))])


@st.composite
def count_arrays(draw, frames: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """(n1, n2) of shape (frames, k), drawn up to a random bound in [0, 2**63 - 1],
    with the bound itself and 0 planted in n1."""
    high = draw(st.one_of(st.integers(0, 2**63 - 1), st.sampled_from([0, 1, 9, 10, 2**63 - 1])))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n1, n2 = rng.integers(0, high, size=(2, frames, k), dtype=np.int64, endpoint=True)
    n1[-1, -1] = high
    n1[0, 0] = 0
    return n1, n2


@st.composite
def image_sets(draw):
    """Both hypotheses with their own frame counts, each from 1 to past two
    write blocks, and a shared K from 2 to 100."""
    k = draw(st.integers(2, 100))
    frames = st.one_of(
        st.integers(1, 2 * _WRITE_FRAMES + 7),
        st.sampled_from([_WRITE_FRAMES - 1, _WRITE_FRAMES, _WRITE_FRAMES + 1, 2 * _WRITE_FRAMES + 1]),
    )
    return draw(count_arrays(draw(frames), k)), draw(count_arrays(draw(frames), k))


def planted(frames: int, k: int, high: int = 12_345) -> tuple[np.ndarray, np.ndarray]:
    """(n1, n2) of shape (frames, k) with values in [0, high], 0 and `high` included."""
    n1, n2 = np.random.default_rng(frames * k).integers(0, high, size=(2, frames, k), endpoint=True)
    n1[0, 0], n2[-1, -1] = 0, high
    return n1, n2


@WRITER_SETTINGS
@given(image_sets())
# frame numbers that gain a digit inside one formatting block
@example((planted(9, 3), planted(10, 3)))
@example((planted(11, 3), planted(99, 3)))
@example((planted(100, 3), planted(101, 3)))
@example((planted(999, 2), planted(1001, 2)))
# a 3-digit pixel index
@example((planted(3, 101), planted(2, 101)))
# an all-zero block, and a block whose n2 mixes 0 and the largest int64 beside an n1 of 0
@example((planted(5, 4, high=0), (np.zeros((5, 4), np.int64), np.resize([0, 2**63 - 1], (5, 4)))))
def test_frames_csv_matches_csv_writer_bytes(tmp_path, counts):
    in_counts, out_counts = counts
    write_frames_csv(str(tmp_path / "frames.csv"), in_counts, out_counts)
    reference_frames_csv(str(tmp_path / "reference.csv"), in_counts, out_counts)
    assert (tmp_path / "frames.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()


@pytest.mark.parametrize("side", [0, 1])
def test_frames_csv_refuses_negative_counts(tmp_path, side):
    counts = [planted(3, 4), planted(3, 4)]
    counts[side][1][2, 1] = -1
    path = tmp_path / "frames.csv"
    with pytest.raises(ParameterError, match="non-negative"):
        write_frames_csv(str(path), *counts)
    assert not path.exists()


def frames_csv_traced_peak(tmp_path, frames: int) -> int:
    counts = planted(frames, 80, high=9_999), planted(frames, 80, high=9_999)
    tracemalloc.start()
    try:
        write_frames_csv(str(tmp_path / "frames.csv"), *counts)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_frames_csv_memory_does_not_grow_with_frames(tmp_path):
    """The writer formats bounded blocks: its traced peak (numpy buffers
    included) at 4,096 frames per hypothesis stays within 10 % of the peak at
    1,024 frames, and under 4 MB."""
    small = frames_csv_traced_peak(tmp_path, 1024)
    large = frames_csv_traced_peak(tmp_path, 4096)
    assert large <= 1.1 * small
    assert large < 4 * 2**20


SPECIAL_DELTAS = [
    math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324, 2.225e-308, 1e300, -1e300, 0.1, 1 / 3,
]


@st.composite
def deltas(draw) -> np.ndarray:
    """Per-frame values cycled to a length from 0 to past two write blocks."""
    values = draw(st.lists(st.one_of(st.floats(), st.sampled_from(SPECIAL_DELTAS)), min_size=1))
    size = draw(
        st.one_of(
            st.integers(0, 2 * _WRITE_RECORDS + 7),
            st.sampled_from([_WRITE_RECORDS - 1, _WRITE_RECORDS, _WRITE_RECORDS + 1]),
        )
    )
    return np.resize(np.asarray(values, dtype=float), size)


@WRITER_SETTINGS
@given(deltas(), deltas())
@example(np.asarray(SPECIAL_DELTAS), np.asarray(SPECIAL_DELTAS[::-1] + [7.0]))
def test_records_csv_matches_csv_writer_bytes(tmp_path, in_values, out_values):
    write_records_csv(str(tmp_path / "records.csv"), in_values, out_values)
    reference_records_csv(str(tmp_path / "reference.csv"), in_values, out_values)
    assert (tmp_path / "records.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()
