"""Property tests: the vectorised labelling against brute-force scans,
prediction dumps and checkpoints against their own writers, and the one
clock a split must share."""

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
from trn import cli  # noqa: E402
from trn import dataio as dio  # noqa: E402
from trn import evaluate as ev  # noqa: E402
from trn import training as tr  # noqa: E402
from trn.model import FusionVariant, TrnConfig, TrnParams  # noqa: E402
from trn.numeric import ValidationError  # noqa: E402


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
    """The dump's file bytes, as write_prediction_dump writes them."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "dump.trnd")
        ev.write_prediction_dump(path, dump)
        with open(path, "rb") as f:
            return f.read()


def read_bytes(blob, read=ev.read_prediction_dump):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "file")
        with open(path, "wb") as f:
            f.write(blob)
        return read(path)


@settings(max_examples=150, deadline=None)
@given(dumps())
def test_prediction_dump_roundtrip_is_bitwise(dump):
    back = read_bytes(written(dump))
    assert (back.chunk_size, back.fps, back.decoder_steps, back.classes) == (
        dump.chunk_size, dump.fps, dump.decoder_steps, dump.classes
    )
    assert list(back.videos) == list(dump.videos)
    for video_id, pred in dump.videos.items():
        got = back.videos[video_id]
        assert got.present.dtype == got.anticipated.dtype == np.float64
        assert got.present.tobytes() == pred.present.tobytes()
        assert got.anticipated.tobytes() == pred.anticipated.tobytes()


def checkpoint_bytes(variant, adam):
    """A tiny checkpoint of ``variant``, with Adam state when ``adam``."""
    cfg = TrnConfig.for_streams(
        variant, {"appearance": 3, "motion": 2, "pose": 4}, hidden_size=3, decoder_steps=2,
        num_actions=2, chunk_size=6, fps=29.97,
    )
    params = TrnParams.init(cfg, np.random.default_rng(0))
    state = tr.AdamState.init(params) if adam else None
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "m.trnc")
        tr.save_checkpoint(path, params, state, meta={"epochs": 1})
        with open(path, "rb") as f:
            return f.read()


CHECKPOINTS = [checkpoint_bytes(v, adam) for v in FusionVariant for adam in (False, True)]


def check_checkpoint(blob):
    params, adam, _ = read_bytes(blob, tr.load_checkpoint)
    arrays = [t.data for t in params.named().values()]
    if adam is not None:
        arrays += list(adam.m.values()) + list(adam.v.values())
    assert all(a.dtype == np.float64 and np.isfinite(a).all() for a in arrays)
    fresh = TrnParams.zeros(params.config).named()
    assert {k: t.data.shape for k, t in params.named().items()} == {
        k: t.data.shape for k, t in fresh.items()
    }


def check_dump(blob):
    back = read_bytes(blob)
    for pred in back.videos.values():
        t_len = pred.num_chunks
        assert pred.present.shape == (t_len, back.classes)
        assert pred.anticipated.shape == (t_len, back.decoder_steps, back.classes)
        assert np.isfinite(pred.present).all() and np.isfinite(pred.anticipated).all()


@st.composite
def containers(draw):
    """(file bytes, checker): a valid dump or checkpoint."""
    if draw(st.booleans()):
        return written(draw(dumps())), check_dump
    return draw(st.sampled_from(CHECKPOINTS)), check_checkpoint


@settings(max_examples=300, deadline=None)
@given(containers(), st.data())
def test_mutated_container_reads_back_or_raises_its_format_error(container, data):
    """Changed bytes read back as a well-formed value or raise a FormatError
    subclass, never another exception: a changed magic BadMagicError, a
    changed version HeaderError. Cut bytes raise TruncatedFileError and
    appended bytes TrailingDataError."""
    blob, check = container
    kind = data.draw(st.sampled_from(["change", "cut", "append"]))
    if kind == "cut":
        blob, error = blob[: data.draw(st.integers(0, len(blob) - 1))], dio.TruncatedFileError
    elif kind == "append":
        blob, error = blob + data.draw(st.binary(min_size=1, max_size=16)), dio.TrailingDataError
    else:
        at = data.draw(st.integers(0, len(blob) - 1))
        byte = data.draw(st.integers(0, 255).filter(lambda b: b != blob[at]))
        blob = blob[:at] + bytes([byte]) + blob[at + 1 :]
        error = dio.BadMagicError if at < 4 else dio.HeaderError if at < 8 else dio.FormatError
    try:
        check(blob)
    except dio.FormatError as e:
        assert isinstance(e, error), (type(e), error)
        return
    assert kind == "change" and error is dio.FormatError


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-(2**70), 2**70) | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_mutated_dump_reads_back_or_raises_format_error(data):
    """A dump whose index has one field set to a random JSON value (NaN
    included) or removed reads back well formed or raises a FormatError."""
    dump = data.draw(dumps())
    doc = {
        "chunk_size": dump.chunk_size, "fps": dump.fps, "decoder_steps": dump.decoder_steps,
        "classes": dump.classes, "dtype": "float64",
        "videos": [[v, p.num_chunks] for v, p in dump.videos.items()],
    }
    key = data.draw(st.sampled_from(sorted(doc)))
    if data.draw(st.booleans()):
        del doc[key]
    else:
        doc[key] = data.draw(
            JSON_VALUES | FINITE | st.sampled_from([float("nan"), float("inf")])
        )
    arrays = [a for p in dump.videos.values() for a in (p.present, p.anticipated)]
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "dump.trnd")
        dio.write_container(path, ev.DUMP_MAGIC, doc, arrays)
        with open(path, "rb") as f:
            blob = f.read()
    try:
        check_dump(blob)
    except dio.FormatError:
        pass


# ---------------------------------------------------------------------------
# clocks

CLOCKS = st.tuples(st.sampled_from([4, 6]), st.sampled_from([25.0, 29.97, 30.0]))


@pytest.fixture(scope="module")
def clock_dataset(tmp_path_factory):
    """A 4-video manifest (2 train, 2 test) as a JSON document, and a
    checkpoint that runs on it."""
    root = tmp_path_factory.mktemp("clocks")
    spec = dio.SyntheticSpec(
        num_classes=2, appearance_dim=3, motion_dim=2, num_videos=4, video_len=6,
        train_fraction=0.5,
    )
    manifest_path = dio.generate_synthetic(spec, str(root))
    with open(manifest_path) as f:
        doc = json.load(f)
    cfg = TrnConfig.for_streams(
        FusionVariant.TWO_STREAM, {"appearance": 3, "motion": 2}, hidden_size=3,
        decoder_steps=2, num_actions=2,
    )
    ckpt = str(root / "m.trnc")
    tr.save_checkpoint(ckpt, TrnParams.init(cfg, np.random.default_rng(0)))
    return manifest_path, doc, ckpt


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_a_split_runs_on_one_clock(clock_dataset, data):
    """Random per-video clocks: split_clock, predict_manifest, trn infer and
    trn train reject exactly the splits whose videos disagree, and a dump
    carries the clock its videos share."""
    manifest_path, doc, ckpt = clock_dataset
    base = data.draw(CLOCKS)
    for video in doc["videos"]:
        video["chunk_size"], video["fps"] = data.draw(st.just(base) | CLOCKS)
    with open(manifest_path, "w") as f:
        json.dump(doc, f)
    manifest = dio.load_manifest(manifest_path)
    test = manifest.split("test")
    for videos in (test, manifest.videos):
        clocks = {(v.chunk_size, v.fps) for v in videos}
        if len(clocks) > 1:
            with pytest.raises(ValidationError, match="clock"):
                dio.split_clock(videos, base)
        else:
            assert dio.split_clock(videos, (1, 1.0)) == clocks.pop()
    test_clocks = {(v.chunk_size, v.fps) for v in test}
    all_agree = len({(v.chunk_size, v.fps) for v in manifest.videos}) == 1

    params, _, _ = tr.load_checkpoint(ckpt)
    out = os.path.join(os.path.dirname(manifest_path), "dump.trnd")
    if os.path.exists(out):
        os.remove(out)
    rc = cli.main(["infer", "--ckpt", ckpt, "--manifest", manifest_path, "--out", out])
    if len(test_clocks) > 1:
        with pytest.raises(ValidationError, match="clock"):
            tr.predict_manifest(params, manifest, "test")
        assert rc == 1 and not os.path.exists(out)
    else:
        clock = test_clocks.pop()
        dump = tr.predict_manifest(params, manifest, "test")
        assert rc == 0 and (dump.chunk_size, dump.fps) == clock
        written = ev.read_prediction_dump(out)
        assert (written.chunk_size, written.fps) == clock
    ckpt_out = os.path.join(os.path.dirname(manifest_path), "trained.trnc")
    rc = cli.main(["train", "--manifest", manifest_path, "--out", ckpt_out, "--epochs", "1",
                   "--hidden-size", "3", "--seq-len", "6", "--decoder-steps", "2",
                   "--eval-every", "0"])
    assert rc == (0 if all_agree else 1)
