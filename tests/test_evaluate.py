import numpy as np
import pytest

from oracles import (
    brute_force_ap, brute_force_map, ground_truth, labels_to_intervals, random_instance,
    shuffled_ap,
)
from trn import dataio as dio
from trn import evaluate as ev
from trn.numeric import ValidationError


# ---------------------------------------------------------------------------
# average_precision


def test_ap_spec_example():
    ap = ev.average_precision([0.9, 0.8, 0.7, 0.6], [True, False, True, False])
    assert abs(ap - (1.0 + 2.0 / 3.0) / 2.0) < 1e-12


def test_ap_perfect_ranking():
    assert ev.average_precision([0.9, 0.8, 0.2, 0.1], [True, True, False, False]) == 1.0


def test_ap_single_positive():
    assert ev.average_precision([0.5], [True]) == 1.0


def test_ap_zero_positives_rejected():
    with pytest.raises(ValidationError):
        ev.average_precision([0.5, 0.2], [False, False])
    with pytest.raises(ValidationError):
        ev.average_precision([], [])


def test_ap_monotone_transform_invariance():
    rng = np.random.default_rng(0)
    for _ in range(20):
        n = int(rng.integers(2, 30))
        scores = rng.random(n)
        positives = rng.random(n) < 0.4
        if not positives.any():
            positives[0] = True
        base = ev.average_precision(scores, positives)
        assert ev.average_precision(2.0 * scores + 3.0, positives) == pytest.approx(base, abs=1e-12)
        assert ev.average_precision(np.exp(scores), positives) == pytest.approx(base, abs=1e-12)


def test_ap_ties_deterministic_and_match_oracle():
    rng = np.random.default_rng(1)
    for _ in range(50):
        n = int(rng.integers(1, 20))
        scores = rng.integers(0, 3, size=n).astype(float)  # heavy ties
        positives = rng.random(n) < 0.5
        if not positives.any():
            positives[int(rng.integers(0, n))] = True
        a = ev.average_precision(scores, positives)
        assert a == ev.average_precision(scores, positives)
        assert abs(a - brute_force_ap(scores, positives)) < 1e-12


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_ap_refuses_non_finite_scores(bad):
    # a NaN was ranked last and a number came back
    scores = np.array([0.9, bad, 0.4, bad, 0.1])
    with pytest.raises(ValidationError, match="needs finite scores, got 2 non-finite"):
        ev.average_precision(scores, [True, False, True, False, False])


def test_ap_bits_match_the_always_shuffled_ranking():
    # an untied pool has one descending order, so ranking it without the
    # shuffle must give the shuffled ranking's bits
    rng = np.random.default_rng(28)
    pools = {
        "untied": lambda n: rng.random(n),
        "heavy ties": lambda n: rng.integers(0, 3, size=n).astype(float),
        "signed zeros": lambda n: rng.choice([-0.0, 0.0, 0.5], size=n),
        "length 1": lambda n: rng.random(1),
    }
    for name, make in pools.items():
        for _ in range(2500):
            scores = make(int(rng.integers(2, 40)))
            positives = rng.random(scores.size) < 0.4
            positives[int(rng.integers(0, scores.size))] = True
            assert ev.average_precision(scores, positives) == shuffled_ap(scores, positives), name


# ---------------------------------------------------------------------------
# pooled mAP


def one_hot_dump(labels_by_video, classes, steps=2, chunk_size=6):
    """Predictions that equal the one-hot ground truth at every position."""
    dump = ev.PredictionDump(chunk_size=chunk_size, fps=30, decoder_steps=steps, classes=classes)
    for vid, labels in labels_by_video.items():
        t = len(labels)
        present = np.eye(classes)[labels]
        anticipated = np.zeros((t, steps, classes))
        for tt in range(t):
            for i in range(1, steps + 1):
                target = labels[min(tt + i, t - 1)]
                anticipated[tt, i - 1, target] = 1.0
        dump.videos[vid] = ev.VideoPredictions(present=present, anticipated=anticipated)
    return dump


def test_per_frame_map_perfect_predictions():
    cmap = dio.ClassMap(["Background", "class_1", "class_2"])
    labels = {"a": [0, 1, 1, 0, 2], "b": [2, 2, 0, 1, 0]}
    dump = one_hot_dump(labels, classes=3)
    duration = dump.chunk_size / dump.fps
    gt = ground_truth({v: labels_to_intervals(l, duration, cmap) for v, l in labels.items()}, cmap)
    result = ev.per_frame_map(dump, gt)
    assert result.mean_ap == 1.0
    assert result.per_class == {"class_1": 1.0, "class_2": 1.0}
    assert result.skipped == []


def test_anticipation_map_perfect_predictions():
    cmap = dio.ClassMap(["Background", "class_1", "class_2"])
    labels = {"a": [0, 1, 1, 0, 2], "b": [2, 2, 0, 1, 0]}
    dump = one_hot_dump(labels, classes=3)
    duration = dump.chunk_size / dump.fps
    gt = ground_truth({v: labels_to_intervals(l, duration, cmap) for v, l in labels.items()}, cmap)
    for step in (1, 2):
        assert ev.anticipation_map(dump, gt, step).mean_ap == 1.0


def test_anticipation_single_chunk_video_contributes_nothing():
    cmap = dio.ClassMap(["Background", "class_1"])
    dump = ev.PredictionDump(chunk_size=6, fps=30, decoder_steps=2, classes=2)
    dump.videos["solo"] = ev.VideoPredictions(
        present=np.array([[0.2, 0.8]]), anticipated=np.full((1, 2, 2), 0.5)
    )
    gt = ground_truth({"solo": [dio.Interval("class_1", 0.0, 0.2)]}, cmap)
    result = ev.anticipation_map(dump, gt, 1)
    assert result.per_class == {}
    assert result.skipped == ["class_1"]


def test_anticipation_step_out_of_range():
    dump, gt = random_instance(np.random.default_rng(2))
    with pytest.raises(ValidationError):
        ev.anticipation_map(dump, gt, 0)
    with pytest.raises(ValidationError):
        ev.anticipation_map(dump, gt, dump.decoder_steps + 1)


@pytest.mark.parametrize("step", [0, 3, True, 1.0])
def test_anticipation_step_is_checked_before_any_video(step):
    # on a dump with no videos, steps 0 and 3 scored 0.0, and True passed as step 1
    dump = ev.PredictionDump(chunk_size=6, fps=30.0, decoder_steps=2, classes=2)
    gt = ground_truth({}, dio.ClassMap(["Background", "class_1"]))
    with pytest.raises(ValidationError, match=rf"step must be an integer in \[1, 2\], got {step!r}"):
        ev.anticipation_map(dump, gt, step)


def test_map_matches_brute_force_oracle():
    rng = np.random.default_rng(3)
    for _ in range(200):
        dump, gt = random_instance(rng)
        got = ev.per_frame_map(dump, gt)
        want_map, want_classes, want_skipped = brute_force_map(dump, gt)
        assert abs(got.mean_ap - want_map) < 1e-12
        assert set(got.skipped) == set(want_skipped)
        for name, val in want_classes.items():
            assert abs(got.per_class[name] - val) < 1e-12
        for step in range(1, dump.decoder_steps + 1):
            got_s = ev.anticipation_map(dump, gt, step)
            want_s, _, _ = brute_force_map(dump, gt, step)
            assert abs(got_s.mean_ap - want_s) < 1e-12


def test_anticipation_equals_per_frame_on_shifted_data():
    rng = np.random.default_rng(4)
    for _ in range(20):
        dump, gt = random_instance(rng)
        step = dump.decoder_steps
        aligned = ev.PredictionDump(
            chunk_size=dump.chunk_size,
            fps=dump.fps,
            decoder_steps=dump.decoder_steps,
            classes=dump.classes,
        )
        duration = dump.chunk_size / dump.fps
        shifted_intervals = {}
        for vid, pred in dump.videos.items():
            t = pred.num_chunks
            if t <= step:
                continue
            aligned.videos[vid] = ev.VideoPredictions(
                present=pred.anticipated[: t - step, step - 1, :],
                anticipated=pred.anticipated[: t - step],
            )
            moved = []
            for cls, start, end in gt.intervals.get(vid, []):
                start -= step * duration
                end -= step * duration
                if end > 0:
                    moved.append((cls, max(start, 0.0), end))
            shifted_intervals[vid] = moved
        if not aligned.videos:
            continue
        got = ev.anticipation_map(dump, gt, step)
        want = ev.per_frame_map(
            aligned, ev.GroundTruth(intervals=shifted_intervals, cmap=gt.cmap)
        )
        assert abs(got.mean_ap - want.mean_ap) < 1e-12


def test_ambiguous_chunks_excluded():
    cmap = dio.ClassMap(["Background", "class_1"])
    dump = ev.PredictionDump(chunk_size=6, fps=30, decoder_steps=1, classes=2)
    present = np.array([[0.1, 0.9], [0.05, 0.95], [0.9, 0.1]])
    dump.videos["v"] = ev.VideoPredictions(
        present=present, anticipated=np.full((3, 1, 2), 0.5)
    )
    base_iv = [dio.Interval("class_1", 0.0, 0.2)]
    gt = ground_truth({"v": base_iv}, cmap)
    base = ev.per_frame_map(dump, gt).mean_ap
    # marking chunk 1 ambiguous removes a negative; perturbing its
    # prediction must no longer matter
    amb = base_iv + [dio.Interval(dio.AMBIGUOUS, 0.2, 0.4)]
    gt_amb = ground_truth({"v": amb}, cmap)
    with_amb = ev.per_frame_map(dump, gt_amb).mean_ap
    dump.videos["v"].present[1] = [0.5, 0.5]
    assert ev.per_frame_map(dump, gt_amb).mean_ap == with_amb
    assert with_amb != base  # the excluded chunk was load-bearing


def test_expand_to_frames():
    cmap = dio.ClassMap(["Background", "class_1"])
    dump = ev.PredictionDump(chunk_size=3, fps=30, decoder_steps=1, classes=2)
    dump.videos["v"] = ev.VideoPredictions(
        present=np.array([[0.1, 0.9], [0.9, 0.1]]), anticipated=np.full((2, 1, 2), 0.5)
    )
    gt = ground_truth({"v": [dio.Interval("class_1", 0.0, 0.1)]}, cmap)
    assert ev.per_frame_map(dump, gt, expand_to_frames=True).mean_ap == 1.0
    # a mis-ranked pool changes value under replication, by pool-size math
    dump.videos["v"].present = np.array([[0.1, 0.9], [0.9, 0.1]])
    gt2 = ground_truth({"v": [dio.Interval("class_1", 0.1, 0.2)]}, cmap)
    plain = ev.per_frame_map(dump, gt2).mean_ap
    expanded = ev.per_frame_map(dump, gt2, expand_to_frames=True).mean_ap
    assert plain == 0.5
    assert abs(expanded - (1 / 4 + 2 / 5 + 3 / 6) / 3) < 1e-12


# ---------------------------------------------------------------------------
# report rendering


def test_render_report_avg_arithmetic():
    table = ev.render_report(0.55, [i / 10 for i in range(1, 9)])
    assert "45.00" in table
    assert "Encoder" in table and "Avg" in table


def test_render_report_reference_rows():
    steps = [0.5257, 0.4669, 0.4194, 0.3839, 0.3590, 0.3422, 0.3300, 0.3208]
    table = ev.render_report(0.5525, steps)
    row = [l for l in table.splitlines() if l.startswith("mAP")][0]
    cells = row.split()[2:]  # drop the "mAP (%)" label tokens
    assert cells[0] == "55.25"
    assert cells[-1] == "39.35"
    assert cells[1:-1] == ["52.57", "46.69", "41.94", "38.39", "35.90", "34.22", "33.00", "32.08"]

    base_steps = [0.2615, 0.2589, 0.2579, 0.2573, 0.2566, 0.2568, 0.2566, 0.2557]
    table = ev.render_report(0.2593, base_steps)
    row = [l for l in table.splitlines() if l.startswith("mAP")][0]
    cells = row.split()[2:]
    assert cells[0] == "25.93"
    assert cells[-1] == "25.77"


def test_render_report_both_horizon_conventions():
    table = ev.render_report(0.5, [0.4] * 8, chunk_size=6, fps=30)
    lines = table.splitlines()
    horizon = [l for l in lines if l.startswith("horizon")][0]
    grid = [l for l in lines if l.startswith("grid")][0]
    assert "0.20" in horizon and "1.60" in horizon
    assert "0.25" in grid and "2.00" in grid
    table16 = ev.render_report(0.5, [0.4] * 3, chunk_size=16, fps=30)
    assert "1.60" in [l for l in table16.splitlines() if l.startswith("horizon")][0]


# ---------------------------------------------------------------------------
# dump files


def test_prediction_dump_roundtrip(tmp_path):
    dump, gt = random_instance(np.random.default_rng(5))
    path = str(tmp_path / "dump.trnd")
    ev.write_prediction_dump(path, dump)
    back = ev.read_prediction_dump(path)
    assert back.classes == dump.classes and back.decoder_steps == dump.decoder_steps
    assert back.videos.keys() == dump.videos.keys()
    for vid in dump.videos:
        assert np.array_equal(back.videos[vid].present, dump.videos[vid].present)
        assert np.array_equal(back.videos[vid].anticipated, dump.videos[vid].anticipated)
    # evaluation agrees bit-for-bit after a file roundtrip
    assert ev.per_frame_map(back, gt).mean_ap == ev.per_frame_map(dump, gt).mean_ap


# the index of a one-video, one-chunk, two-class, one-step dump
DUMP_INDEX = {
    "chunk_size": 6, "classes": 2, "decoder_steps": 1, "dtype": "float64", "fps": 30,
    "videos": [["v", 1]],
}
HALF = np.full((1, 2), 0.5)  # present; HALF[:, None] is anticipated
OLD_JSONL_DUMP = (
    '{"chunk_size": 6, "classes": 2, "decoder_steps": 1, "fps": 30, "type": "config"}\n'
    '{"type": "chunk", "video": "v", "chunk": 0, "present": [0.5, 0.5], '
    '"anticipated": [[0.5, 0.5]]}\n'
)


def write_raw_dump(path, arrays=(HALF, HALF[:, None]), **index):
    """A TRND container with DUMP_INDEX updated by ``index`` (a key set to
    None is dropped) and ``arrays`` as its payload, written without the
    dump writer's checks."""
    doc = {k: v for k, v in {**DUMP_INDEX, **index}.items() if v is not None}
    dio.write_container(str(path), ev.DUMP_MAGIC, doc, arrays)


def test_prediction_dump_rejects_malformed(tmp_path):
    path = tmp_path / "bad.trnd"
    path.write_text(OLD_JSONL_DUMP)
    with pytest.raises(dio.BadMagicError, match="not a TRND file"):
        ev.read_prediction_dump(str(path))  # a JSON-lines dump of earlier versions
    path.write_text("not json\n")
    with pytest.raises(dio.TruncatedFileError):
        ev.read_prediction_dump(str(path))  # shorter than the header
    write_raw_dump(path, videos=[["v", 2]])
    with pytest.raises(dio.TruncatedFileError):
        ev.read_prediction_dump(str(path))  # the index declares more chunks than the payload
    write_raw_dump(path, arrays=[np.full((1, 3), 0.5), np.full((1, 1, 3), 0.5)])
    with pytest.raises(dio.TrailingDataError):
        ev.read_prediction_dump(str(path))  # distribution width mismatch


# one malformed container each, under the names of the JSON-lines record
# cases they replace; each raises its FormatError subclass naming the file
MALFORMED_RECORDS = {
    "not an object": (
        dio.HeaderError, lambda path: dio.write_container(path, ev.DUMP_MAGIC, [1, 2], [])
    ),
    "missing anticipated": (dio.TruncatedFileError, lambda path: write_raw_dump(path, [HALF])),
    "scalar present": (
        dio.TruncatedFileError, lambda path: write_raw_dump(path, [np.array(0.5), HALF[:, None]])
    ),
    "ragged present": (dio.HeaderError, lambda path: write_raw_dump(path, videos=[["v"], ["w", 1]])),
    "NaN": (
        dio.NonFiniteValueError,
        lambda path: write_raw_dump(path, [np.array([[np.nan, 0.5]]), HALF[:, None]]),
    ),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_RECORDS))
def test_prediction_dump_malformed_record_names_its_line(tmp_path, case):
    error, write = MALFORMED_RECORDS[case]
    path = tmp_path / "bad.trnd"
    write(str(path))
    detail = "video 'v' present holds a non-finite value" if case == "NaN" else ""
    with pytest.raises(error, match=f"{path}: {detail}"):
        ev.read_prediction_dump(str(path))


def test_prediction_dump_rejects_bad_header_and_order(tmp_path):
    path = tmp_path / "bad.trnd"
    for index in [
        dict(classes=0),
        dict(fps=float("nan")),
        dict(chunk_size="6"),
        dict(dtype="float32"),
        dict(decoder_steps=None),
        dict(videos=None),
        dict(videos=[["v", 1], ["v", 1]]),  # a video listed twice
        dict(videos=[["v", 1.0]]),  # a chunk count must be an integer
        dict(videos=[["v", -1]]),
        dict(videos=[[7, 1]]),
        dict(videos={"v": 1}),
    ]:
        write_raw_dump(path, **index)
        with pytest.raises(dio.HeaderError, match=f"{path}: "):
            ev.read_prediction_dump(str(path))
    index = b'{"chunk_size": "\xff"}'
    path.write_bytes(dio.CONTAINER_HEADER.pack(ev.DUMP_MAGIC, 1, len(index)) + index)
    with pytest.raises(dio.HeaderError, match=f"{path}: "):
        ev.read_prediction_dump(str(path))
    path.write_bytes(dio.CONTAINER_HEADER.pack(ev.DUMP_MAGIC, 2, 2) + b"{}")
    with pytest.raises(dio.HeaderError, match=f"{path}: unsupported TRND version 2"):
        ev.read_prediction_dump(str(path))


def test_write_rejects_non_finite_naming_video_and_chunk(tmp_path):
    # the writer used to write NaN as a JSON token its own reader rejects
    dump = ev.PredictionDump(chunk_size=6, fps=30.0, decoder_steps=2, classes=3)
    dump.videos["a"] = ev.VideoPredictions(np.full((4, 3), 0.25), np.full((4, 2, 3), 0.25))
    for name, bad in (("present", np.nan), ("anticipated", np.inf), ("anticipated", -np.inf)):
        present, anticipated = np.full((5, 3), 0.25), np.full((5, 2, 3), 0.25)
        (present if name == "present" else anticipated)[3, ..., 1] = bad
        dump.videos["b"] = ev.VideoPredictions(present, anticipated)
        path = tmp_path / "dump.trnd"
        with pytest.raises(ValidationError, match=f"video 'b' chunk 3: {name} holds a non-finite"):
            ev.write_prediction_dump(str(path), dump)
        assert list(tmp_path.iterdir()) == []  # neither the dump nor its temporary file


def test_write_rejects_misshapen_distributions(tmp_path):
    dump = ev.PredictionDump(chunk_size=6, fps=30.0, decoder_steps=2, classes=3)
    path = tmp_path / "dump.trnd"
    for present, anticipated in [
        (np.full((4, 2), 0.5), np.full((4, 2, 3), 0.5)),  # too few classes
        (np.full((4, 3), 0.5), np.full((4, 1, 3), 0.5)),  # too few steps
        (np.full((4, 3), 0.5), np.full((3, 2, 3), 0.5)),  # chunk counts disagree
    ]:
        dump.videos["v"] = ev.VideoPredictions(present, anticipated)
        with pytest.raises(ValidationError, match="video 'v'"):
            ev.write_prediction_dump(str(path), dump)
        assert list(tmp_path.iterdir()) == []  # neither the dump nor its temporary file


@pytest.mark.parametrize("videos", [
    [(103, 4)],  # not a string id
    [("v", 4), ("v", 2)],  # a repeated id
    [("v", -1)],  # a negative chunk count
])
def test_writer_refuses_a_videos_list_the_reader_refuses(tmp_path, videos):
    with pytest.raises(ValidationError, match=r"is not a new \[id, chunks\]"):
        with ev.prediction_dump_writer(str(tmp_path / "dump.trnd"), 6, 30.0, 2, 3, videos):
            pass
    assert list(tmp_path.iterdir()) == []  # neither the dump nor its temporary file


def test_ground_truth_from_files(tmp_path):
    ann = tmp_path / "ann.tsv"
    cm = tmp_path / "classes.tsv"
    dio.write_annotations(str(ann), {"v": [dio.Interval("jump", 0.0, 1.0)],
                                     "w": [dio.Interval(dio.AMBIGUOUS, 0.5, 2.0)]})
    dio.write_class_map(str(cm), dio.ClassMap(["Background", "jump"]))
    gt = ev.ground_truth_from_files(str(ann), str(cm))
    assert gt.cmap.names == ["Background", "jump"]
    assert gt.intervals == {"v": [(1, 0.0, 1.0)], "w": [(dio.AMBIGUOUS_LABEL, 0.5, 2.0)]}
