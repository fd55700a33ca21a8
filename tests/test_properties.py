"""Property tests: the vectorised labelling against brute-force scans."""

import logging

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from oracles import brute_force_chunk_labels, brute_force_interval_mask  # noqa: E402
from trn import dataio as dio  # noqa: E402


@st.composite
def labelling_cases(draw):
    """(intervals, fps, chunk_size, num_chunks) with overlaps, equal starts,
    edges exactly on chunk centers and boundaries, and intervals that lie
    partly or wholly outside the video."""
    fps = draw(st.sampled_from([30.0, 29.97, 25.0, 12.5]) | st.floats(0.5, 60.0))
    chunk_size = draw(st.integers(1, 8))
    num_chunks = draw(st.integers(0, 30))
    duration = chunk_size / fps
    grid = st.integers(-3, num_chunks + 3)
    point = st.one_of(
        grid.map(lambda k: k * duration),  # chunk boundaries
        grid.map(lambda k: (k + 0.5) * duration),  # chunk centers
        st.floats(-3 * duration, (num_chunks + 3) * duration),
    )
    intervals = []
    for _ in range(draw(st.integers(0, 8))):
        a, b = draw(point), draw(point)
        if a == b:
            b = a + duration
        intervals.append((draw(st.integers(1, 4)), min(a, b), max(a, b)))
    return intervals, fps, chunk_size, num_chunks


@settings(max_examples=300, deadline=None)
@given(labelling_cases())
def test_chunk_labels_match_brute_force(case):
    intervals, fps, chunk_size, num_chunks = case
    logging.disable(logging.WARNING)  # clipped intervals warn by design
    try:
        got = dio.chunk_labels(intervals, fps, chunk_size, num_chunks)
    finally:
        logging.disable(logging.NOTSET)
    want = brute_force_chunk_labels(intervals, fps, chunk_size, num_chunks)
    assert got.dtype == np.int64
    assert np.array_equal(got, want)


@settings(max_examples=300, deadline=None)
@given(labelling_cases())
def test_interval_chunk_mask_matches_brute_force(case):
    intervals, fps, chunk_size, num_chunks = case
    spans = [(start, end) for _, start, end in intervals]
    got = dio.interval_chunk_mask(spans, fps, chunk_size, num_chunks)
    assert got.dtype == bool
    assert np.array_equal(got, brute_force_interval_mask(spans, fps, chunk_size, num_chunks))
