"""Property tests: the vectorised labelling against brute-force scans,
and prediction dumps against their own writer."""

import json
import logging
import os
import tempfile

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from hypothesis.extra.numpy import arrays  # noqa: E402

from oracles import brute_force_chunk_labels, brute_force_interval_mask  # noqa: E402
from trn import dataio as dio  # noqa: E402
from trn import evaluate as ev  # noqa: E402


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


# ---------------------------------------------------------------------------
# prediction dumps

TINY = 5e-324  # the smallest subnormal
SPECIAL_FLOATS = [
    0.0, -0.0, TINY, -TINY, 2.2250738585072014e-308, 2.225073858507201e-308,
    np.nextafter(1.0, 0.0), np.nextafter(1.0, 2.0), 1.0, np.nextafter(0.5, 1.0),
    1.7976931348623157e308,
]
FINITE = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(SPECIAL_FLOATS)


@st.composite
def dumps(draw):
    """A PredictionDump of random videos, lengths, classes and steps whose
    values include subnormals and floats 1 ulp from 0.5 and 1."""
    classes, steps = draw(st.integers(1, 5)), draw(st.integers(1, 3))
    dump = ev.PredictionDump(
        chunk_size=draw(st.integers(1, 8)), fps=draw(st.sampled_from([30.0, 29.97, 25.0])),
        decoder_steps=steps, classes=classes,
    )
    for video_id in draw(st.lists(st.text(min_size=1, max_size=4), max_size=3, unique=True)):
        t_len = draw(st.integers(1, 4))
        dump.videos[video_id] = ev.VideoPredictions(
            draw(arrays(np.float64, (t_len, classes), elements=FINITE)),
            draw(arrays(np.float64, (t_len, steps, classes), elements=FINITE)),
        )
    return dump


def written(dump):
    """The dump's file lines, as write_prediction_dump writes them."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "dump.jsonl")
        ev.write_prediction_dump(path, dump)
        with open(path, encoding="utf-8") as f:
            return f.read().splitlines()


def read_lines(lines):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "dump.jsonl")
        with open(path, "w", encoding="utf-8") as f:
            f.write("".join(line + "\n" for line in lines))
        return ev.read_prediction_dump(path)


@settings(max_examples=150, deadline=None)
@given(dumps())
def test_prediction_dump_roundtrip_is_bitwise(dump):
    back = read_lines(written(dump))
    assert (back.chunk_size, back.fps, back.decoder_steps, back.classes) == (
        dump.chunk_size, dump.fps, dump.decoder_steps, dump.classes
    )
    assert list(back.videos) == list(dump.videos)
    for video_id, pred in dump.videos.items():
        got = back.videos[video_id]
        assert got.present.dtype == got.anticipated.dtype == np.float64
        assert got.present.tobytes() == pred.present.tobytes()
        assert got.anticipated.tobytes() == pred.anticipated.tobytes()


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-(2**70), 2**70) | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)


@st.composite
def mutations(draw, line):
    """``line`` with one random edit: a span of characters replaced, one
    field set to a random JSON value (NaN included) or removed, or the
    whole line replaced by a JSON value."""
    kind = draw(st.sampled_from(["text", "field", "drop", "line"]))
    if kind == "text":
        i = draw(st.integers(0, len(line)))
        j = draw(st.integers(i, min(len(line), i + 6)))
        junk = draw(st.text(alphabet='{}[]",:-.0123456789eEaNInfinity tl', max_size=6))
        return line[:i] + junk + line[j:]
    if kind == "line":
        return json.dumps(draw(JSON_VALUES))
    doc = json.loads(line)
    key = draw(st.sampled_from(sorted(doc)))
    if kind == "drop":
        del doc[key]
    else:
        doc[key] = draw(JSON_VALUES | FINITE | st.sampled_from([float("nan"), float("inf")]))
    return json.dumps(doc)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_mutated_dump_reads_back_or_raises_format_error(data):
    lines = written(data.draw(dumps()))
    at = data.draw(st.integers(0, len(lines) - 1))
    lines[at] = data.draw(mutations(lines[at]))
    try:
        back = read_lines(lines)
    except dio.FormatError:
        return
    for pred in back.videos.values():
        t_len = pred.num_chunks
        assert pred.present.shape == (t_len, back.classes)
        assert pred.anticipated.shape == (t_len, back.decoder_steps, back.classes)
        assert np.isfinite(pred.present).all() and np.isfinite(pred.anticipated).all()
