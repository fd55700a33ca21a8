import filecmp
import json
import logging
import os
import re
import struct
import tracemalloc

import numpy as np
import pytest

from trn import dataio as dio
from trn.numeric import ValidationError


def write_valid(path, t=5, d=7, seed=0):
    rng = np.random.default_rng(seed)
    data = rng.normal(size=(t, d)).astype(np.float32).astype(np.float64)
    dio.write_features(str(path), data)
    return data


# ---------------------------------------------------------------------------
# feature files


def test_feature_roundtrip_bit_exact(tmp_path):
    path = tmp_path / "a.trnf"
    data = write_valid(path, t=5, d=7)
    back = dio.read_features(str(path))
    assert back.dtype == np.float32 and back.flags.writeable
    assert np.array_equal(back, data)


def test_feature_header_probe(tmp_path):
    path = tmp_path / "a.trnf"
    write_valid(path, t=9, d=3)
    assert dio.read_feature_header(str(path)) == (9, 3)


def test_feature_large_dim_loads(tmp_path):
    path = tmp_path / "c3d.trnf"
    data = write_valid(path, t=2, d=4096)
    assert dio.read_features(str(path)).shape == (2, 4096)
    assert np.array_equal(dio.read_features(str(path)), data)


def test_write_rejects_bad_input(tmp_path):
    path = str(tmp_path / "x.trnf")
    with pytest.raises(ValidationError):
        dio.write_features(path, np.zeros(5))
    with pytest.raises(ValidationError):
        dio.write_features(path, np.zeros((0, 4)))
    with pytest.raises(ValidationError):
        dio.write_features(path, np.array([[np.nan, 1.0]]))
    with pytest.raises(ValidationError):
        dio.write_features(path, np.array([[1e300, 1.0]]))  # overflows float32


def test_read_rejects_bad_magic(tmp_path):
    path = tmp_path / "x.trnf"
    write_valid(path)
    blob = bytearray(path.read_bytes())
    blob[:4] = b"NOPE"
    path.write_bytes(bytes(blob))
    with pytest.raises(dio.BadMagicError):
        dio.read_features(str(path))
    with pytest.raises(dio.BadMagicError):
        dio.read_feature_header(str(path))


def test_read_rejects_bad_version(tmp_path):
    path = tmp_path / "x.trnf"
    write_valid(path)
    blob = bytearray(path.read_bytes())
    struct.pack_into("<I", blob, 4, 99)
    path.write_bytes(bytes(blob))
    with pytest.raises(dio.HeaderError):
        dio.read_features(str(path))


def test_read_rejects_truncation(tmp_path):
    path = tmp_path / "x.trnf"
    write_valid(path, t=4, d=4)
    blob = path.read_bytes()
    for cut in (0, 3, 15, 16, len(blob) - 1):
        path.write_bytes(blob[:cut])
        with pytest.raises(dio.TruncatedFileError):
            dio.read_features(str(path))


def test_read_rejects_header_claiming_more_than_payload(tmp_path):
    path = tmp_path / "x.trnf"
    write_valid(path, t=4, d=4)
    blob = bytearray(path.read_bytes())
    struct.pack_into("<I", blob, 8, 400)  # T
    path.write_bytes(bytes(blob))
    with pytest.raises(dio.TruncatedFileError):
        dio.read_features(str(path))


def test_header_claiming_more_rows_allocates_nothing_large(tmp_path):
    # the size check comes before any buffer: a header claiming a 1 GB
    # payload over 64 KB of data raises with less than the file in memory
    path = tmp_path / "x.trnf"
    write_valid(path, t=64, d=256)
    blob = bytearray(path.read_bytes())
    struct.pack_into("<I", blob, 8, 1_000_000)  # T
    path.write_bytes(bytes(blob))
    tracemalloc.start()
    try:
        with pytest.raises(dio.TruncatedFileError, match="header declares 1024000000"):
            dio.read_features(str(path))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < len(blob), (peak, len(blob))


def test_read_rejects_trailing_data(tmp_path):
    path = tmp_path / "x.trnf"
    write_valid(path)
    path.write_bytes(path.read_bytes() + b"\x00\x01\x02")
    with pytest.raises(dio.TrailingDataError):
        dio.read_features(str(path))


def test_read_rejects_zero_shape_header(tmp_path):
    path = tmp_path / "x.trnf"
    write_valid(path, t=1, d=1)
    blob = bytearray(path.read_bytes())
    struct.pack_into("<I", blob, 8, 0)
    path.write_bytes(bytes(blob))
    with pytest.raises(dio.HeaderError):
        dio.read_features(str(path))


def test_read_rejects_nonfinite_payload(tmp_path):
    path = tmp_path / "x.trnf"
    write_valid(path, t=2, d=2)
    blob = bytearray(path.read_bytes())
    struct.pack_into("<f", blob, 16, np.inf)
    path.write_bytes(bytes(blob))
    with pytest.raises(dio.NonFiniteValueError):
        dio.read_features(str(path))


@pytest.mark.parametrize("value", [np.nan, -np.inf, np.inf])
def test_read_rejects_each_nonfinite_value_anywhere(tmp_path, value):
    path = tmp_path / "x.trnf"
    write_valid(path, t=3, d=5)
    for at in (0, 7, 14):
        blob = bytearray(path.read_bytes())
        struct.pack_into("<f", blob, 16 + 4 * at, value)
        bad = tmp_path / f"bad{at}.trnf"
        bad.write_bytes(bytes(blob))
        with pytest.raises(dio.NonFiniteValueError, match="non-finite"):
            dio.read_features(str(bad))


def test_error_taxonomy_is_format_error():
    for cls in (
        dio.BadMagicError,
        dio.TruncatedFileError,
        dio.TrailingDataError,
        dio.HeaderError,
        dio.NonFiniteValueError,
    ):
        assert issubclass(cls, dio.FormatError)


def test_container_short_write_leaves_no_file(tmp_path, monkeypatch):
    # each block's rows go out in one pwrite at their offset: one that
    # writes short must fail the build, not leave a hole in the file
    pwrite = os.pwrite
    monkeypatch.setattr(os, "pwrite", lambda fd, data, at: pwrite(fd, bytes(data)[:-8], at))
    with pytest.raises(OSError, match="short write of array 1"):
        dio.write_container(str(tmp_path / "c.trnc"), b"TRNC", {}, [np.zeros(0), np.ones(3)])
    assert list(tmp_path.iterdir()) == []  # neither the file nor its temporary file


# ---------------------------------------------------------------------------
# class map / annotations


def test_class_map_roundtrip(tmp_path):
    cmap = dio.ClassMap(["Background", "jump", "run"])
    path = str(tmp_path / "classes.tsv")
    dio.write_class_map(path, cmap)
    back = dio.read_class_map(path)
    assert back.names == cmap.names
    assert back.num_actions == 2


def test_class_map_validation(tmp_path):
    with pytest.raises(ValidationError):
        dio.ClassMap(["Background"])
    with pytest.raises(ValidationError):
        dio.ClassMap(["Background", "a", "a"])
    bad = tmp_path / "bad.tsv"
    bad.write_text("0\tBackground\n5\tjump\n")
    with pytest.raises(dio.FormatError):
        dio.read_class_map(str(bad))


@pytest.mark.parametrize("text", [
    "0\tBackground\n\n2\tjump\n3\trun\n",  # jump and run loaded as 1 and 2
    "0\tBackground\n\n1\tjump\n",  # the indices agree, but the gap is not a row
    "0\tBackground\n2\tjump\n",  # a skipped index
], ids=["gap-hides-skipped-index", "gap", "skipped-index"])
def test_class_map_index_is_the_row_count(tmp_path, text):
    path = tmp_path / "classes.tsv"
    path.write_text(text)
    with pytest.raises(dio.FormatError, match="classes.tsv:2:"):
        dio.read_class_map(str(path))


def test_class_map_trailing_blank_lines_are_accepted(tmp_path):
    path = tmp_path / "classes.tsv"
    path.write_text("0\tBackground\n1\tjump\n\n\n")
    assert dio.read_class_map(str(path)).names == ["Background", "jump"]


def test_annotations_roundtrip(tmp_path):
    rows = {
        "vid_a": [dio.Interval("jump", 0.0, 1.5), dio.Interval("Ambiguous", 2.0, 2.5)],
        "vid_b": [dio.Interval("run", 0.4, 9.25)],
    }
    path = str(tmp_path / "ann.tsv")
    dio.write_annotations(path, rows)
    back = dio.read_annotations(path, dio.ClassMap(["Background", "jump", "run"]))
    assert back == {
        "vid_a": [(1, 0.0, 1.5), (dio.AMBIGUOUS_LABEL, 2.0, 2.5)],
        "vid_b": [(2, 0.4, 9.25)],
    }


def test_interval_validation():
    with pytest.raises(ValidationError):
        dio.Interval("jump", 2.0, 2.0)
    with pytest.raises(ValidationError):
        dio.Interval("jump", 3.0, 1.0)


def test_annotations_reject_malformed(tmp_path):
    # each fault is a FormatError naming path:line, wherever in the file it sits
    cmap = dio.ClassMap(["Background", "jump", "run"])
    bad = tmp_path / "ann.tsv"
    for row in [
        "vid\tjump\t1.0",  # three fields
        "vid\tjump\tx\t2.0",  # a start that is no number
        "vid\tjump\t2.0\t1.0",  # a span that ends before it starts
        "vid\tjmup\t1.0\t2.0",  # a class name the class map lacks
        "vid\tambiguous\t1.0\t2.0",  # names match exactly
    ]:
        bad.write_text(f"vid\tjump\t0.0\t1.0\n\nother\trun\t0.0\t1.0\n{row}\n")
        with pytest.raises(dio.FormatError, match=f"^{re.escape(str(bad))}:4: "):
            dio.read_annotations(str(bad), cmap)


# ---------------------------------------------------------------------------
# chunk labeling


def test_chunk_labels_worked_example():
    labels = dio.chunk_labels([(3, 0.0, 1.0)], fps=30, chunk_size=6, num_chunks=10)
    assert labels.tolist() == [3, 3, 3, 3, 3, 0, 0, 0, 0, 0]


def test_chunk_labels_no_intervals():
    assert dio.chunk_labels([], fps=30, chunk_size=6, num_chunks=4).tolist() == [0, 0, 0, 0]


def test_chunk_labels_overlap_earliest_start_wins():
    labels = dio.chunk_labels(
        [(2, 0.5, 2.0), (1, 0.0, 1.5)], fps=30, chunk_size=6, num_chunks=10
    )
    # class 1 starts earlier and owns every contested center
    assert labels.tolist() == [1, 1, 1, 1, 1, 1, 1, 2, 2, 2]


def test_chunk_labels_malformed_interval():
    with pytest.raises(ValidationError):
        dio.chunk_labels([(1, 2.0, 1.0)], fps=30, chunk_size=6, num_chunks=4)


def test_chunk_labels_clips_out_of_range(caplog):
    with caplog.at_level(logging.WARNING, logger="trn.dataio"):
        labels = dio.chunk_labels([(1, -1.0, 99.0)], fps=30, chunk_size=6, num_chunks=5)
    assert labels.tolist() == [1, 1, 1, 1, 1]
    assert any("clipped" in r.message for r in caplog.records)


def test_interval_chunk_mask():
    mask = dio.interval_chunk_mask([(0.0, 0.5)], fps=30, chunk_size=6, num_chunks=5)
    assert mask.tolist() == [True, True, False, False, False]


# ---------------------------------------------------------------------------
# manifest


def build_dataset(tmp_path, t_app=6, t_mot=6):
    rng = np.random.default_rng(0)
    os.makedirs(tmp_path / "features", exist_ok=True)
    dio.write_features(str(tmp_path / "features/v_app.trnf"), rng.normal(size=(t_app, 3)))
    dio.write_features(str(tmp_path / "features/v_mot.trnf"), rng.normal(size=(t_mot, 4)))
    dio.write_class_map(str(tmp_path / "classes.tsv"), dio.ClassMap(["Background", "jump"]))
    dio.write_annotations(
        str(tmp_path / "ann.tsv"), {"v": [dio.Interval("jump", 0.0, 0.4)]}
    )
    manifest = dio.Manifest(
        root=str(tmp_path),
        class_map="classes.tsv",
        videos=[
            dio.VideoEntry(
                video_id="v",
                fps=30,
                chunk_size=6,
                split="train",
                streams={
                    "appearance": dio.StreamRef("features/v_app.trnf", 3),
                    "motion": dio.StreamRef("features/v_mot.trnf", 4),
                },
                annotations="ann.tsv",
                num_chunks=min(t_app, t_mot),
            )
        ],
    )
    path = str(tmp_path / "manifest.json")
    dio.save_manifest(path, manifest)
    return path


def manifest_labels(m, cmap):
    """video id -> (labels, ambiguous mask), over one read of the
    manifest's annotation file."""
    (path,) = {v.annotations for v in m.videos}
    rows = dio.read_annotations(m.resolve(path), cmap)
    return {
        v.video_id: dio.labels_from_intervals(
            rows.get(v.video_id, []), v.fps, v.chunk_size, v.num_chunks
        )
        for v in m.videos
    }


def test_manifest_roundtrip(tmp_path):
    path = build_dataset(tmp_path)
    m = dio.load_manifest(path)
    assert len(m.videos) == 1
    v = m.videos[0]
    assert v.video_id == "v" and v.num_chunks == 6
    assert v.streams["appearance"].dim == 3
    streams = dio.load_video_streams(m, v)
    assert streams["appearance"].shape == (6, 3)
    cmap = dio.read_class_map(m.resolve(m.class_map))
    labels, mask = manifest_labels(m, cmap)["v"]
    assert labels.tolist() == [1, 1, 0, 0, 0, 0]
    assert not mask.any()


def test_manifest_dim_mismatch_rejected(tmp_path):
    path = build_dataset(tmp_path)
    text = open(path).read().replace('"dim": 3', '"dim": 5')
    open(path, "w").write(text)
    with pytest.raises(ValidationError):
        dio.load_manifest(path)


def rewrite_manifest(path, edit):
    """Apply ``edit`` to the manifest document at ``path``, in place."""
    with open(path) as f:
        doc = json.load(f)
    edit(doc)
    with open(path, "w") as f:
        json.dump(doc, f)


@pytest.mark.parametrize("key, value", [
    ("fps", float("nan")),  # valid JSON (NaN): every chunk centre would be NaN
    ("fps", float("inf")),
    ("fps", "thirty"),
    ("fps", 0),
    ("fps", -30),
    ("chunk_size", 6.5),  # int() would silently make it 6
    ("chunk_size", True),  # float(True) is 1.0: one-frame chunks
    ("fps", True),  # 1.0 fps
])
def test_manifest_clock_values_are_format_errors(tmp_path, key, value):
    path = build_dataset(tmp_path)
    rewrite_manifest(path, lambda doc: doc["videos"][0].update({key: value}))
    with pytest.raises(dio.FormatError, match=r"videos\[0\]") as exc:
        dio.load_manifest(path)
    assert path in str(exc.value) and key in str(exc.value)


def test_manifest_integral_clock_values_load(tmp_path):
    # a whole-number chunk_size written as a float is still that integer
    path = build_dataset(tmp_path)
    rewrite_manifest(path, lambda doc: doc["videos"][0].update({"chunk_size": 6.0, "fps": 29.97}))
    (video,) = dio.load_manifest(path).videos
    assert video.chunk_size == 6 and type(video.chunk_size) is int and video.fps == 29.97


def set_stream_key(key, value):
    return lambda doc: doc["videos"][0]["streams"]["appearance"].update({key: value})


@pytest.mark.parametrize("key, edit", [
    ("id", lambda doc: doc["videos"][0].update(id=103)),  # a dump could not record it
    ("split", lambda doc: doc["videos"][0].update(split=["train"])),  # in no split
    ("annotations", lambda doc: doc["videos"][0].update(annotations=7)),
    ("streams.appearance.path", set_stream_key("path", 5)),
    ("streams.appearance.dim", set_stream_key("dim", "three")),
    ("streams.appearance.dim", set_stream_key("dim", 3.5)),
    ("streams.appearance.dim", set_stream_key("dim", 0)),
    ("streams.appearance.dim", set_stream_key("dim", None)),
    ("streams.appearance.dim", set_stream_key("dim", True)),
], ids=["id", "split", "annotations", "path", "dim-text", "dim-fraction", "dim-zero", "dim-null",
        "dim-bool"])
def test_manifest_entry_of_the_wrong_kind_is_a_format_error(tmp_path, key, edit):
    path = build_dataset(tmp_path)
    rewrite_manifest(path, edit)
    with pytest.raises(dio.FormatError, match=re.escape(f"videos[0]: {key} must be")) as exc:
        dio.load_manifest(path)
    assert path in str(exc.value)


def test_manifest_integral_dims_load(tmp_path):
    # dims are read as chunk_size is: "3" and 4.0 are the integers 3 and 4
    def edit(doc):
        streams = doc["videos"][0]["streams"]
        streams["appearance"]["dim"], streams["motion"]["dim"] = "3", 4.0

    path = build_dataset(tmp_path)
    rewrite_manifest(path, edit)
    (video,) = dio.load_manifest(path).videos
    dims = [ref.dim for ref in video.streams.values()]
    assert dims == [3, 4] and all(type(d) is int for d in dims)


def test_manifest_without_class_map_is_a_format_error(tmp_path):
    path = build_dataset(tmp_path)
    rewrite_manifest(path, lambda doc: doc.pop("class_map"))
    with pytest.raises(dio.FormatError, match="class_map") as exc:
        dio.load_manifest(path)
    assert path in str(exc.value)


def test_manifest_missing_file_is_io_error(tmp_path):
    path = build_dataset(tmp_path)
    os.remove(tmp_path / "features/v_app.trnf")
    with pytest.raises(OSError):
        dio.load_manifest(path)


def test_manifest_chunk_count_rules(tmp_path, caplog):
    path = build_dataset(tmp_path, t_app=6, t_mot=5)
    with caplog.at_level(logging.WARNING, logger="trn.dataio"):
        m = dio.load_manifest(path)
    assert m.videos[0].num_chunks == 5
    assert any("truncated" in r.message for r in caplog.records)
    streams = dio.load_video_streams(m, m.videos[0])
    assert streams["appearance"].shape[0] == 5

    path2 = build_dataset(tmp_path, t_app=8, t_mot=5)
    with pytest.raises(ValidationError):
        dio.load_manifest(path2)


def test_manifest_malformed_json(tmp_path):
    bad = tmp_path / "m.json"
    bad.write_text("{")
    with pytest.raises(dio.FormatError):
        dio.load_manifest(str(bad))


def test_ambiguous_intervals_masked(tmp_path):
    path = build_dataset(tmp_path)
    dio.write_annotations(
        str(tmp_path / "ann.tsv"),
        {"v": [dio.Interval("jump", 0.0, 0.4), dio.Interval("Ambiguous", 0.4, 0.8)]},
    )
    m = dio.load_manifest(path)
    cmap = dio.read_class_map(m.resolve(m.class_map))
    labels, mask = manifest_labels(m, cmap)["v"]
    assert labels.tolist() == [1, 1, 0, 0, 0, 0]
    assert mask.tolist() == [False, False, True, True, False, False]


# ---------------------------------------------------------------------------
# synthetic generator


def small_spec(**kw):
    base = dict(
        num_classes=3,
        appearance_dim=5,
        motion_dim=4,
        sigma_ratio=0.1,
        mean_segment_len=4,
        background_prior=0.4,
        num_videos=6,
        video_len=12,
        train_fraction=0.5,
        seed=11,
    )
    base.update(kw)
    return dio.SyntheticSpec(**base)


def tree_bytes(root):
    out = {}
    for dirpath, _, files in os.walk(root):
        for name in files:
            full = os.path.join(dirpath, name)
            out[os.path.relpath(full, root)] = open(full, "rb").read()
    return out


def test_synthetic_deterministic(tmp_path):
    dio.generate_synthetic(small_spec(), str(tmp_path / "a"))
    dio.generate_synthetic(small_spec(), str(tmp_path / "b"))
    a, b = tree_bytes(tmp_path / "a"), tree_bytes(tmp_path / "b")
    assert a.keys() == b.keys()
    for key in a:
        assert a[key] == b[key], key


def test_synthetic_structure(tmp_path):
    path = dio.generate_synthetic(small_spec(), str(tmp_path))
    m = dio.load_manifest(path)
    assert len(m.videos) == 6
    assert len(m.split("train")) == 3 and len(m.split("test")) == 3
    cmap = dio.read_class_map(m.resolve(m.class_map))
    assert cmap.names == ["Background", "class_1", "class_2", "class_3"]
    for v in m.videos:
        streams = dio.load_video_streams(m, v)
        assert streams["appearance"].shape == (12, 5)
        assert streams["motion"].shape == (12, 4)
        assert streams["pose"].shape == (12, 134)
        assert np.any(streams["pose"] != 0)


def test_synthetic_all_background(tmp_path):
    path = dio.generate_synthetic(small_spec(background_prior=1.0), str(tmp_path))
    m = dio.load_manifest(path)
    cmap = dio.read_class_map(m.resolve(m.class_map))
    ann = dio.read_annotations(m.resolve("annotations.tsv"), cmap)
    assert all(len(v) == 0 for v in ann.values()) or not ann
    for labels, _ in manifest_labels(m, cmap).values():
        assert not labels.any()


def test_synthetic_relabeling_matches_and_separable(tmp_path):
    # near-zero noise: annotations -> chunk_labels must reproduce the
    # generator's own labels, and a nearest-mean classifier is perfect
    path = dio.generate_synthetic(small_spec(sigma_ratio=1e-6, num_videos=8), str(tmp_path))
    m = dio.load_manifest(path)
    cmap = dio.read_class_map(m.resolve(m.class_map))
    feats, labels = [], []
    by_video = manifest_labels(m, cmap)
    for v in m.videos:
        streams = dio.load_video_streams(m, v)
        lab, _ = by_video[v.video_id]
        feats.append(np.concatenate([streams["appearance"], streams["motion"]], axis=1))
        labels.append(lab)
    x = np.concatenate(feats)
    y = np.concatenate(labels)
    assert set(np.unique(y)) <= {0, 1, 2, 3}
    means = np.stack([x[y == c].mean(axis=0) for c in range(4)])
    pred = np.argmin(((x[:, None, :] - means[None]) ** 2).sum(axis=2), axis=1)
    assert np.array_equal(pred, y)


def test_synthetic_pose_carries_class_signal(tmp_path):
    path = dio.generate_synthetic(
        small_spec(sigma_ratio=0.01, num_videos=8, background_prior=0.3), str(tmp_path)
    )
    m = dio.load_manifest(path)
    cmap = dio.read_class_map(m.resolve(m.class_map))
    feats, labels = [], []
    by_video = manifest_labels(m, cmap)
    for v in m.videos:
        feats.append(dio.load_video_streams(m, v)["pose"])
        labels.append(by_video[v.video_id][0])
    x = np.concatenate(feats)
    y = np.concatenate(labels)
    means = np.stack([x[y == c].mean(axis=0) for c in range(4)])
    pred = np.argmin(((x[:, None, :] - means[None]) ** 2).sum(axis=2), axis=1)
    assert (pred == y).mean() > 0.95
