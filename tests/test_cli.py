import json
import os
import re
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from oracles import tape_chunks
from trn import cli
from trn import dataio as dio
from trn import evaluate as ev
from trn import model as md
from trn import numeric as nm
from trn import training as tr
from trn.model import FusionVariant, TrnConfig, TrnParams
from trn.numeric import ValidationError
from trn.streaming import OnlineDetector


def run(argv):
    return cli.main(argv)


def tiny_ckpt(tmp_path, **kw):
    base = dict(
        fusion_variant=FusionVariant.TWO_STREAM,
        appearance_dim=3,
        motion_dim=2,
        pose_dim=None,
        hidden_size=4,
        decoder_steps=2,
        num_actions=2,
    )
    base.update(kw)
    cfg = TrnConfig(**base)
    params = TrnParams.init(cfg, np.random.default_rng(0))
    path = str(tmp_path / "model.trnc")
    tr.save_checkpoint(path, params)
    return path, cfg


def tiny_features(tmp_path, cfg, t=5, seed=1):
    rng = np.random.default_rng(seed)
    paths = {}
    for name in ("appearance", "motion"):
        dim = getattr(cfg, f"{name}_dim")
        p = str(tmp_path / f"{name}.trnf")
        dio.write_features(p, rng.normal(size=(t, dim)))
        paths[name] = p
    return paths


def synth_args(out_dir, **kw):
    base = dict(
        num_classes=2,
        appearance_dim=5,
        motion_dim=4,
        num_videos=4,
        video_len=12,
        train_fraction=0.5,
        seed=3,
    )
    base.update(kw)
    argv = ["synth", "--out", str(out_dir)]
    for k, v in base.items():
        argv += ["--" + k.replace("_", "-"), str(v)]
    return argv


# ---------------------------------------------------------------------------
# parser behavior


def test_help_exits_zero_and_lists_defaults(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["train", "--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert "--learning-rate" in out
    assert "0.0005" in out
    assert "--decoder-steps" in out


def test_unknown_flag_exits_1():
    with pytest.raises(SystemExit) as exc:
        run(["train", "--bogus-flag", "3"])
    assert exc.value.code == 1


def test_missing_subcommand_exits_1():
    with pytest.raises(SystemExit) as exc:
        run([])
    assert exc.value.code == 1


def test_train_echoes_hyperparameter_defaults(caplog):
    with caplog.at_level("INFO", logger="trn.cli"):
        rc = run(["train"])  # no manifest: fails after the echo
    assert rc == 1
    text = caplog.text
    assert "learning_rate = 0.0005" in text
    assert "weight_decay = 0.0005" in text
    assert "batch_size = 2" in text
    assert "seq_len = 64" in text
    assert "decoder_steps = 8" in text


def test_log_level_env_silences_echo(monkeypatch, caplog):
    # the env var sets the logger level itself, so the info echo is
    # filtered before any handler (including caplog's) sees it
    monkeypatch.setenv("TRN_LOG_LEVEL", "WARNING")
    rc = run(["train"])
    assert rc == 1
    assert "learning_rate" not in caplog.text


def test_unknown_log_level_exits_1_without_traceback(tmp_path):
    env = {**os.environ, "TRN_LOG_LEVEL": "loud"}
    proc = subprocess.run(
        [sys.executable, "-m", "trn.cli", "eval", "--dump", str(tmp_path / "x.trnd"),
         "--gt", str(tmp_path / "gt.tsv"), "--classmap", str(tmp_path / "classes.tsv")],
        capture_output=True, text=True, timeout=120, env=env,
    )
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    (line,) = proc.stderr.splitlines()
    assert "TRN_LOG_LEVEL" in line and "'loud'" in line
    assert all(level in line for level in ("DEBUG", "INFO", "WARNING", "ERROR"))


# ---------------------------------------------------------------------------
# synth


def test_synth_writes_dataset(tmp_path, capsys):
    rc = run(synth_args(tmp_path / "data"))
    assert rc == 0
    manifest_path = capsys.readouterr().out.strip()
    manifest = dio.load_manifest(manifest_path)
    assert len(manifest.videos) == 4
    cmap = dio.read_class_map(manifest.resolve(manifest.class_map))
    assert len(cmap.names) == 3  # background + 2


def test_synth_three_classes_gives_four_map_entries(tmp_path, capsys):
    rc = run(synth_args(tmp_path / "data", num_classes=3))
    assert rc == 0
    manifest = dio.load_manifest(capsys.readouterr().out.strip())
    cmap = dio.read_class_map(manifest.resolve(manifest.class_map))
    assert len(cmap.names) == 4


def test_synth_same_seed_identical_bytes(tmp_path, capsys):
    run(synth_args(tmp_path / "a"))
    run(synth_args(tmp_path / "b"))
    capsys.readouterr()
    a_files = sorted(p.relative_to(tmp_path / "a") for p in (tmp_path / "a").rglob("*") if p.is_file())
    b_files = sorted(p.relative_to(tmp_path / "b") for p in (tmp_path / "b").rglob("*") if p.is_file())
    assert a_files == b_files and a_files
    for rel in a_files:
        assert (tmp_path / "a" / rel).read_bytes() == (tmp_path / "b" / rel).read_bytes(), rel


def test_synth_spec_file_with_flag_override(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"num_videos": 6, "video_len": 10, "seed": 1}))
    rc = run(["synth", "--spec", str(spec), "--out", str(tmp_path / "d"), "--num-videos", "4"])
    assert rc == 0
    manifest = dio.load_manifest(capsys.readouterr().out.strip())
    assert len(manifest.videos) == 4  # flag beats file
    assert manifest.videos[0].num_chunks == 10  # file beats default


def test_synth_refuses_a_zero_fps_before_writing(tmp_path):
    # a ZeroDivisionError traceback, after the class map was written
    out = tmp_path / "bad"
    proc = subprocess.run(
        [sys.executable, "-m", "trn.cli", *synth_args(out, fps=0)],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 1 and "Traceback" not in proc.stderr, proc.stderr
    assert "fps must be a finite positive number, got 0.0" in proc.stderr
    assert not out.exists() or not any(out.rglob("*"))


def test_config_file_unknown_key_rejected(tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"num_videos": 4, "frobnicate": 1}))
    rc = run(["synth", "--spec", str(spec), "--out", str(tmp_path / "d")])
    assert rc == 1


def test_config_file_malformed_json(tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text("{not json")
    rc = run(["synth", "--spec", str(spec), "--out", str(tmp_path / "d")])
    assert rc == 1


# ---------------------------------------------------------------------------
# train


def train_argv(manifest, ckpt, **kw):
    base = dict(epochs=1, hidden_size=8, seq_len=6, eval_every=0, decoder_steps=2)
    base.update(kw)
    argv = ["train", "--manifest", str(manifest), "--out", str(ckpt)]
    for k, v in base.items():
        argv += ["--" + k.replace("_", "-"), str(v)]
    return argv


@pytest.fixture()
def dataset(tmp_path, capsys):
    rc = run(synth_args(tmp_path / "data"))
    assert rc == 0
    return capsys.readouterr().out.strip()


def test_train_writes_loadable_checkpoint(dataset, tmp_path, capsys):
    ckpt = tmp_path / "m.trnc"
    metrics = tmp_path / "metrics.json"
    rc = run(train_argv(dataset, ckpt) + ["--metrics-out", str(metrics)])
    assert rc == 0
    params, meta = tr.load_checkpoint(str(ckpt))
    assert meta["epochs"] == 1
    assert meta["final_loss"] > 0
    rows = json.loads(metrics.read_text())
    assert len(rows) == 1 and rows[0]["epoch"] == 1
    assert "final loss" in capsys.readouterr().out


def test_train_seed_reproducible_bytes(dataset, tmp_path):
    a, b = tmp_path / "a.trnc", tmp_path / "b.trnc"
    assert run(train_argv(dataset, a, seed=7)) == 0
    assert run(train_argv(dataset, b, seed=7)) == 0
    assert a.read_bytes() == b.read_bytes()


def test_train_config_file_precedence(dataset, tmp_path, caplog):
    cfgfile = tmp_path / "train.json"
    cfgfile.write_text(json.dumps({"epochs": 3, "hidden_size": 8, "seq_len": 6,
                                   "eval_every": 0, "decoder_steps": 2}))
    ckpt = tmp_path / "m.trnc"
    with caplog.at_level("INFO", logger="trn.cli"):
        rc = run(["train", "--manifest", dataset, "--out", str(ckpt),
                  "--config", str(cfgfile), "--epochs", "1"])
    assert rc == 0
    assert "config epochs = 1" in caplog.text  # flag wins
    assert "config hidden_size = 8" in caplog.text  # file wins
    _, meta = tr.load_checkpoint(str(ckpt))
    assert meta["epochs"] == 1


@pytest.mark.parametrize("cmd, key, value, kind", [
    ("train", "epochs", 1.9, "an integer or a string"),  # trained 1 epoch
    ("train", "hidden_size", True, "an integer or a string"),  # trained hidden size 1
    ("train", "batch_size", 2.5, "an integer or a string"),  # trained batch 2
    ("train", "epochs", None, "an integer or a string"),  # a traceback
    ("train", "learning_rate", False, "a number or a string"),  # trained at 0.0
    ("train", "out", 5, "a string"),  # wrote a file named 5
    ("eval", "expand_to_frames", "no", "a boolean"),  # ranked frames
])
def test_config_file_value_of_another_json_kind_is_refused(tmp_path, caplog, cmd, key, value, kind):
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({key: value}))
    assert run([cmd, "--config", str(cfgfile)]) == 1
    assert f"{cfgfile}: {key} must be {kind}, got {json.dumps(value)}" in caplog.text


def test_config_file_features_paths_must_be_strings(tmp_path, caplog, monkeypatch):
    # a path of 0 opened file descriptor 0: stdin was read, closed, and
    # reported as a feature file shorter than its header (exit 2)
    ckpt, _ = tiny_ckpt(tmp_path)
    opened = []
    read = dio.read_features
    monkeypatch.setattr(dio, "read_features", lambda path: opened.append(path) or read(path))
    cfgfile, out = tmp_path / "cfg.json", str(tmp_path / "d.trnd")
    for bad in (0, "", None, ["a.trnf"]):
        cfgfile.write_text(json.dumps({"features": {"appearance": bad, "motion": "m.trnf"}}))
        assert run(["stream", "--ckpt", ckpt, "--out", out, "--config", str(cfgfile)]) == 1
        want = f"the appearance features path must be a non-empty string, got {json.dumps(bad)}"
        assert want in caplog.text
    assert opened == [] and not (tmp_path / "d.trnd").exists()


def test_config_file_text_parses_as_the_flag_would(tmp_path, caplog):
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"epochs": "3", "learning_rate": "0.01", "metrics_out": None}))
    with caplog.at_level("INFO", logger="trn.cli"):
        rc = run(["train", "--config", str(cfgfile)])
    assert rc == 1  # no manifest; the config is read and echoed first
    assert "config epochs = 3\n" in caplog.text + "\n"
    assert "config learning_rate = 0.01" in caplog.text


@pytest.mark.parametrize("key, text, kind", [("epochs", "2.5", "int"), ("learning_rate", "abc", "float")])
def test_a_value_that_does_not_parse_names_its_flag_or_key(tmp_path, caplog, key, text, kind):
    # the message read "invalid literal for int() with base 10: '2.5'"
    flag = "--" + key.replace("_", "-")
    assert run(["train", flag, text]) == 1
    assert f"{flag} must parse as {kind}, got {text!r}" in caplog.text
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({key: text}))
    assert run(["train", "--config", str(cfgfile)]) == 1
    assert f"{cfgfile}: {key} must parse as {kind}, got {text!r}" in caplog.text


def test_train_heldout_metric_reported(dataset, tmp_path):
    ckpt = tmp_path / "m.trnc"
    rc = run(train_argv(dataset, ckpt, eval_every=1))
    assert rc == 0
    _, meta = tr.load_checkpoint(str(ckpt))
    assert 0.0 <= meta["heldout_map"] <= 1.0


def test_train_missing_manifest_exits_2(tmp_path):
    rc = run(["train", "--manifest", str(tmp_path / "nope.json"), "--out", str(tmp_path / "m")])
    assert rc == 2


def test_malformed_manifest_is_a_format_error(tmp_path):
    # an entry without its streams, videos given as an object, and a stream
    # ref given as a bare path: each names the file, none is a traceback
    entry = {"id": "v", "fps": 30, "chunk_size": 6, "split": "train", "annotations": "a.tsv"}
    docs = [
        {"videos": [{"id": "v"}]},
        {"videos": {"id": "v"}},
        {"videos": [dict(entry, streams={"appearance": "a.trnf"})]},
    ]
    for n, doc in enumerate(docs):
        path = tmp_path / f"manifest{n}.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(dio.FormatError) as exc:
            dio.load_manifest(str(path))
        assert str(path) in str(exc.value)
    rc = run(["train", "--manifest", str(tmp_path / "manifest2.json"), "--out", str(tmp_path / "m")])
    assert rc == 2


def test_repeated_video_id_exits_2(dataset, tmp_path, caplog):
    # a second synth_0000 entry on synth_0003's features trained on
    # synth_0000's labels and exited 0; a dump keyed by id kept one of the two
    with open(dataset) as f:
        doc = json.load(f)
    doc["videos"][3]["id"] = doc["videos"][0]["id"]
    with open(dataset, "w") as f:
        json.dump(doc, f)
    with pytest.raises(dio.FormatError, match=r"videos\[0\] and videos\[3\] share the id "
                                              r"'synth_0000'") as exc:
        dio.load_manifest(dataset)
    assert dataset in str(exc.value)
    ckpt, _ = tiny_ckpt(tmp_path, appearance_dim=5, motion_dim=4)
    for argv in (train_argv(dataset, tmp_path / "m.trnc"),
                 ["infer", "--batch", "--ckpt", ckpt, "--manifest", dataset,
                  "--out", str(tmp_path / "i.trnd")],
                 ["stream", "--ckpt", ckpt, "--manifest", dataset,
                  "--out", str(tmp_path / "s.trnd")]):
        caplog.clear()
        assert run(argv) == 2, argv[0]
        assert "share the id" in caplog.text
    assert sorted(p.name for p in tmp_path.glob("*.trn?")) == ["model.trnc"]


def test_train_on_a_non_finite_fps_exits_2(dataset, tmp_path, caplog):
    # NaN is valid JSON; training on it used to exit 0 with held-out mAP 0
    with open(dataset) as f:
        doc = json.load(f)
    doc["videos"][1]["fps"] = float("nan")
    with open(dataset, "w") as f:
        json.dump(doc, f)
    rc = run(train_argv(dataset, tmp_path / "m.trnc", eval_every=1))
    assert rc == 2
    assert "videos[1]: fps must be a finite positive number" in caplog.text


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("field", ["learning_rate", "weight_decay", "lambda_enc", "lambda_dec"])
def test_train_non_finite_hyperparameter_exits_1_before_reading_features(
    dataset, tmp_path, caplog, monkeypatch, field, value
):
    # a NaN learning rate trained one step, then exited 1 naming fusion.w's gradient
    reads = []
    read = dio.read_features
    monkeypatch.setattr(dio, "read_features", lambda *a, **k: reads.append(a) or read(*a, **k))
    ckpt = tmp_path / "m.trnc"
    assert run(train_argv(dataset, ckpt, **{field: value})) == 1
    assert re.search(f"{field} must be a finite (positive )?number.*, got {value}", caplog.text)
    assert not reads and not ckpt.exists()


def test_train_fused_variant_uses_pose_stream(dataset, tmp_path):
    ckpt = tmp_path / "m.trnc"
    rc = run(train_argv(dataset, ckpt, variant="fused_two_stream"))
    assert rc == 0
    params, _ = tr.load_checkpoint(str(ckpt))
    assert params.config.fusion_variant is FusionVariant.FUSED_TWO_STREAM
    assert params.config.pose_dim == 134  # dim read from the manifest


def test_train_missing_stream_exits_1(dataset, tmp_path):
    rc = run(train_argv(dataset, tmp_path / "m.trnc", variant="one_stream",
                        one_stream="flow"))
    assert rc == 1  # no stream of that name in the manifest


# ---------------------------------------------------------------------------
# stream / infer


def test_stream_dump_structure(tmp_path, capsys):
    ckpt, cfg = tiny_ckpt(tmp_path)
    feats = tiny_features(tmp_path, cfg, t=5)
    out = tmp_path / "dump.trnd"
    rc = run(["stream", "--ckpt", ckpt, "--out", str(out),
              "--features", f"appearance={feats['appearance']}", f"motion={feats['motion']}"])
    assert rc == 0
    assert out.read_bytes()[:4] == b"TRND"
    dump = ev.read_prediction_dump(str(out))
    assert dump.decoder_steps == 2
    assert list(dump.videos) == ["video"]
    pred = dump.videos["video"]
    assert pred.num_chunks == 5  # chunk count equals feature file T
    assert pred.anticipated.shape == (5, 2, cfg.num_actions + 1)
    assert pred.present.shape == (5, cfg.num_actions + 1)
    assert np.abs(pred.present.sum(axis=1) - 1.0).max() < 1e-9


def test_stream_equals_infer_batch(tmp_path, capsys):
    ckpt, cfg = tiny_ckpt(tmp_path)
    feats = tiny_features(tmp_path, cfg, t=7)
    features_argv = ["--features", f"appearance={feats['appearance']}", f"motion={feats['motion']}"]
    a, b = tmp_path / "stream.trnd", tmp_path / "batch.trnd"
    assert run(["stream", "--ckpt", ckpt, "--out", str(a)] + features_argv) == 0
    assert run(["infer", "--batch", "--ckpt", ckpt, "--out", str(b)] + features_argv) == 0
    assert a.read_bytes() == b.read_bytes()


def test_stream_from_manifest_split(dataset, tmp_path):
    manifest = dio.load_manifest(dataset)
    first = manifest.videos[0]
    cfg = TrnConfig(
        fusion_variant=FusionVariant.TWO_STREAM,
        appearance_dim=first.streams["appearance"].dim,
        motion_dim=first.streams["motion"].dim,
        pose_dim=None,
        hidden_size=4,
        decoder_steps=2,
        num_actions=2,
    )
    params = TrnParams.init(cfg, np.random.default_rng(0))
    ckpt = str(tmp_path / "m.trnc")
    tr.save_checkpoint(ckpt, params)
    out = tmp_path / "dump.trnd"
    rc = run(["stream", "--ckpt", ckpt, "--manifest", dataset, "--split", "test",
              "--out", str(out)])
    assert rc == 0
    dump = ev.read_prediction_dump(str(out))
    assert set(dump.videos) == {v.video_id for v in manifest.split("test")}


def set_manifest_fps(manifest_path, *fps):
    """Rewrite the manifest's per-video fps, cycling through ``fps``."""
    with open(manifest_path) as f:
        doc = json.load(f)
    for i, video in enumerate(doc["videos"]):
        video["fps"] = fps[i % len(fps)]
    with open(manifest_path, "w") as f:
        json.dump(doc, f)


def test_fractional_fps_reaches_checkpoint_and_dump(dataset, tmp_path):
    set_manifest_fps(dataset, 29.97)
    ckpt = tmp_path / "m.trnc"
    assert run(train_argv(dataset, ckpt)) == 0
    params, _ = tr.load_checkpoint(str(ckpt))
    assert params.config.fps == 29.97
    manifest = dio.load_manifest(dataset)
    video = manifest.videos[0]
    feats = [f"{n}={manifest.resolve(video.streams[n].path)}" for n in ("appearance", "motion")]
    out = tmp_path / "dump.trnd"
    assert run(["stream", "--ckpt", str(ckpt), "--out", str(out), "--features"] + feats) == 0
    assert ev.read_prediction_dump(str(out)).fps == 29.97


def test_infer_mixed_clocks_exits_1(dataset, tmp_path):
    set_manifest_fps(dataset, 30, 25)  # the two test videos disagree
    ckpt, _ = tiny_ckpt(tmp_path, appearance_dim=5, motion_dim=4)
    out = tmp_path / "dump.trnd"
    rc = run(["infer", "--ckpt", ckpt, "--manifest", dataset, "--split", "test",
              "--out", str(out)])
    assert rc == 1
    assert not out.exists()
    params, _ = tr.load_checkpoint(ckpt)
    with pytest.raises(ValidationError, match="clock"):
        tr.predict_manifest(params, dio.load_manifest(dataset), "test")


def test_infer_names_the_video_whose_streams_do_not_fit(dataset, tmp_path, caplog):
    # the last test video declares an appearance dim of 3, and its file
    # matches, against a checkpoint of dim 5: the refusal named no video
    ckpt, _ = tiny_ckpt(tmp_path, appearance_dim=5, motion_dim=4)
    with open(dataset) as f:
        doc = json.load(f)
    odd = [v for v in doc["videos"] if v["split"] == "test"][-1]
    folder = os.path.dirname(dataset)
    chunks = len(dio.read_features(os.path.join(folder, odd["streams"]["appearance"]["path"])))
    dio.write_features(os.path.join(folder, "odd.trnf"), np.ones((chunks, 3)))
    odd["streams"]["appearance"] = {"path": "odd.trnf", "dim": 3}
    with open(dataset, "w") as f:
        json.dump(doc, f)
    before = sorted(os.listdir(tmp_path))
    rc = run(["infer", "--batch", "--ckpt", ckpt, "--manifest", dataset, "--out",
              str(tmp_path / "d.trnd")])
    assert rc == 1
    assert f"{odd['id']}: appearance stream has shape ({chunks}, 3), config requires (T, 5)" in caplog.text
    assert sorted(os.listdir(tmp_path)) == before


def test_train_mixed_clocks_exits_1(dataset, tmp_path):
    set_manifest_fps(dataset, 30, 25)  # the two train videos disagree
    ckpt = tmp_path / "m.trnc"
    assert run(train_argv(dataset, ckpt)) == 1
    assert not ckpt.exists()


def test_infer_batch_ragged_split_matches_stream(tmp_path):
    # columns run as one matrix product where streaming multiplies vectors:
    # the dumps agree to float64 rounding, in manifest order
    rc = run(synth_args(tmp_path / "data", num_classes=9, num_videos=6, train_fraction=0.2))
    manifest_path = str(tmp_path / "data" / "manifest.json")
    manifest = dio.load_manifest(manifest_path)
    for video, length in zip(manifest.split("test"), (7, 1, 12, 4, 9)):
        for ref in video.streams.values():
            path = manifest.resolve(ref.path)
            dio.write_features(path, dio.read_features(path)[:length])
    ckpt, _ = tiny_ckpt(tmp_path, appearance_dim=5, motion_dim=4, num_actions=9)
    argv = ["--ckpt", ckpt, "--manifest", manifest_path, "--split", "test"]
    a, b = tmp_path / "stream.trnd", tmp_path / "batch.trnd"
    assert rc == 0
    assert run(["stream", "--out", str(a)] + argv) == 0
    assert run(["infer", "--batch", "--out", str(b)] + argv) == 0
    streamed, batched = ev.read_prediction_dump(str(a)), ev.read_prediction_dump(str(b))
    order = [v.video_id for v in manifest.split("test")]
    assert list(streamed.videos) == list(batched.videos) == order
    for vid in order:
        s, t = streamed.videos[vid], batched.videos[vid]
        assert s.num_chunks == t.num_chunks
        assert np.abs(s.present - t.present).max() <= 1e-12
        assert np.abs(s.anticipated - t.anticipated).max() <= 1e-12


def test_infer_without_batch_equals_stream(tmp_path):
    # the two subcommands run one function; without --batch, trn infer
    # takes the push-by-push path, so its dump is trn stream's, byte for byte
    rc = run(synth_args(tmp_path / "data", num_classes=9, num_videos=6, train_fraction=0.2))
    manifest_path = str(tmp_path / "data" / "manifest.json")
    manifest = dio.load_manifest(manifest_path)
    for video, length in zip(manifest.split("test"), (7, 1, 12, 4, 9)):
        for ref in video.streams.values():
            path = manifest.resolve(ref.path)
            dio.write_features(path, dio.read_features(path)[:length])
    ckpt, _ = tiny_ckpt(tmp_path, appearance_dim=5, motion_dim=4, num_actions=9)
    argv = ["--ckpt", ckpt, "--manifest", manifest_path, "--split", "test"]
    a, b = tmp_path / "stream.trnd", tmp_path / "infer.trnd"
    assert rc == 0
    assert run(["stream", "--out", str(a)] + argv) == 0
    assert run(["infer", "--out", str(b)] + argv) == 0
    assert len(ev.read_prediction_dump(str(a)).videos) == 5
    assert a.read_bytes() == b.read_bytes()


def test_inference_holds_one_block_of_outputs(tmp_path, capsys):
    # 4,000 chunks of 9 distributions over 21 classes are 6 MB of outputs;
    # both commands write each block (each push) as it is computed, so
    # neither holds the video's outputs, nor a detection's predicted
    # features, beyond one block
    cfg = TrnConfig(fusion_variant=FusionVariant.TWO_STREAM, appearance_dim=8, motion_dim=8,
                    pose_dim=None, hidden_size=16, decoder_steps=8, num_actions=20)
    ckpt = str(tmp_path / "m.trnc")
    tr.save_checkpoint(ckpt, TrnParams.init(cfg, np.random.default_rng(0)))
    rng = np.random.default_rng(1)
    feats = []
    for name in ("appearance", "motion"):
        dio.write_features(str(tmp_path / f"{name}.trnf"), rng.normal(size=(4000, 8)))
        feats.append(f"{name}={tmp_path / f'{name}.trnf'}")
    loaded = 2 * 4000 * 8 * 4  # the two streams, float32
    dumps = []
    for command in (["infer", "--batch"], ["stream"]):
        dumps.append(tmp_path / f"{command[0]}.trnd")
        argv = command + ["--ckpt", ckpt, "--out", str(dumps[-1]), "--features"] + feats
        tracemalloc.start()
        try:
            assert run(argv) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < loaded + 2_000_000, (command, peak)
    assert dumps[0].stat().st_size > 6_000_000
    assert dumps[0].read_bytes() == dumps[1].read_bytes()


@pytest.mark.parametrize("command", [["infer", "--batch"], ["stream"]])
@pytest.mark.parametrize("error", [ValidationError("boom"), KeyboardInterrupt()])
def test_inference_that_fails_midway_leaves_the_old_dump(tmp_path, monkeypatch, command, error):
    # the dump is built under a temporary name: a failure on the third
    # block removes it and leaves the file already at --out as it was
    ckpt, cfg = tiny_ckpt(tmp_path)
    feats = tiny_features(tmp_path, cfg, t=5)
    out = tmp_path / "dump.trnd"
    out.write_bytes(b"an earlier dump")
    before = sorted(os.listdir(tmp_path))
    calls = []
    detect_block = md.detect_block

    def failing(*args):
        calls.append(1)
        if len(calls) == 3:
            raise error
        return detect_block(*args)

    monkeypatch.setattr(md, "detect_block", failing)
    argv = command + ["--ckpt", ckpt, "--out", str(out),
                      "--features", f"appearance={feats['appearance']}", f"motion={feats['motion']}"]
    if isinstance(error, KeyboardInterrupt):
        with pytest.raises(KeyboardInterrupt):
            run(argv)
    else:
        assert run(argv) == 1
    assert len(calls) == 3
    assert sorted(os.listdir(tmp_path)) == before
    assert out.read_bytes() == b"an earlier dump"


def test_dump_target_symlink_is_followed_and_a_directory_refused(tmp_path):
    # the dump is renamed into place: a symlink at --out keeps pointing at
    # the file it names, which gets the dump, and a target that is not a
    # regular file (a directory, a device such as /dev/null) is refused
    # rather than replaced
    ckpt, cfg = tiny_ckpt(tmp_path)
    feats = tiny_features(tmp_path, cfg, t=3)
    argv = ["stream", "--ckpt", ckpt, "--features",
            f"appearance={feats['appearance']}", f"motion={feats['motion']}", "--out"]
    real, link, folder = tmp_path / "real.trnd", tmp_path / "link.trnd", tmp_path / "folder"
    real.write_bytes(b"old")
    link.symlink_to(real)
    folder.mkdir()
    before = sorted(os.listdir(tmp_path))
    assert run(argv + [str(link)]) == 0
    assert link.is_symlink() and ev.read_prediction_dump(str(real)).videos["video"].num_chunks == 3
    assert run(argv + [str(folder)]) == 2
    assert folder.is_dir() and list(folder.iterdir()) == []
    assert sorted(os.listdir(tmp_path)) == before


@pytest.fixture()
def no_tape(monkeypatch):
    """The tape's step and constructors, and the parameter table's tape
    view, patched to raise: no Tensor is built at all."""
    def tape(*args, **kw):
        raise AssertionError("a production path ran the tape")

    monkeypatch.setattr(md, "chunk_step", tape)
    monkeypatch.setattr(nm, "tensor", tape)
    monkeypatch.setattr(nm.Tensor, "__init__", tape)
    monkeypatch.setattr(TrnParams, "named", tape)


def test_inference_paths_run_no_tape(dataset, tmp_path, no_tape):
    ckpt, cfg = tiny_ckpt(tmp_path, appearance_dim=5, motion_dim=4)
    params, _ = tr.load_checkpoint(ckpt)
    manifest = dio.load_manifest(dataset)
    videos = [dio.load_video_streams(manifest, v, cfg.streams) for v in manifest.split("test")]
    assert len(videos) == 2
    sequence = tape_chunks(cfg, videos[0])
    OnlineDetector(params).push_chunk(sequence[0])
    md.trn_forward(params, sequence)
    md.forward_videos(params, videos[:1])
    md.forward_videos(params, videos)
    tr.predict_manifest(params, manifest, "test")
    argv = ["--ckpt", ckpt, "--manifest", dataset, "--split", "test"]
    assert run(["stream", "--out", str(tmp_path / "s.trnd")] + argv) == 0
    assert run(["infer", "--batch", "--out", str(tmp_path / "b.trnd")] + argv) == 0


def test_training_paths_run_no_tape(dataset, tmp_path, no_tape, capsys):
    cfg = TrnConfig(appearance_dim=5, motion_dim=4, pose_dim=None, hidden_size=4,
                    decoder_steps=2, num_actions=2)
    _, metrics = tr.train(dio.load_manifest(dataset), cfg,
                          tr.TrainConfig(seq_len=6, epochs=1, eval_every=1))
    assert metrics[0].heldout_map is not None
    assert run(train_argv(dataset, tmp_path / "m.trnc", eval_every=1)) == 0
    assert run(["gradcheck"]) == 0
    assert "PASS" in capsys.readouterr().out


def test_stream_mismatched_lengths_exits_1(tmp_path):
    ckpt, cfg = tiny_ckpt(tmp_path)
    rng = np.random.default_rng(0)
    a, m = str(tmp_path / "a.trnf"), str(tmp_path / "m.trnf")
    dio.write_features(a, rng.normal(size=(5, 3)))
    dio.write_features(m, rng.normal(size=(4, 2)))
    rc = run(["stream", "--ckpt", ckpt, "--out", str(tmp_path / "d.trnd"),
              "--features", f"appearance={a}", f"motion={m}"])
    assert rc == 1


def test_stream_corrupt_features_exits_2(tmp_path):
    ckpt, cfg = tiny_ckpt(tmp_path)
    bad = tmp_path / "bad.trnf"
    bad.write_bytes(b"NOPE" + b"\x00" * 32)
    rc = run(["stream", "--ckpt", ckpt, "--out", str(tmp_path / "d.trnd"),
              "--features", f"appearance={bad}", f"motion={bad}"])
    assert rc == 2


def test_stream_missing_ckpt_exits_2(tmp_path):
    rc = run(["stream", "--ckpt", str(tmp_path / "nope.trnc"),
              "--out", str(tmp_path / "d.trnd"), "--features", "appearance=x"])
    assert rc == 2


def test_infer_without_input_exits_1(tmp_path):
    ckpt, _ = tiny_ckpt(tmp_path)
    rc = run(["infer", "--ckpt", ckpt, "--out", str(tmp_path / "d.trnd")])
    assert rc == 1


# ---------------------------------------------------------------------------
# eval


def test_eval_perfect_dump_scores_100(dataset, tmp_path, capsys):
    manifest = dio.load_manifest(dataset)
    cmap = dio.read_class_map(manifest.resolve(manifest.class_map))
    classes = cmap.num_actions + 1
    steps = 2
    videos = manifest.split("test")
    dump = ev.PredictionDump(
        chunk_size=videos[0].chunk_size, fps=videos[0].fps, decoder_steps=steps, classes=classes
    )
    eye = np.eye(classes)
    rows = dio.read_annotations(manifest.resolve(videos[0].annotations), cmap)
    for video in videos:
        labels, _ = dio.labels_from_intervals(
            rows.get(video.video_id, []), video.fps, video.chunk_size, video.num_chunks
        )
        t_len = len(labels)
        present = eye[labels]
        anticipated = np.zeros((t_len, steps, classes))
        for t in range(t_len):
            for i in range(1, steps + 1):
                anticipated[t, i - 1] = eye[labels[min(t + i, t_len - 1)]]
        dump.videos[video.video_id] = ev.VideoPredictions(
            present=present, anticipated=anticipated
        )
    dump_path = tmp_path / "perfect.trnd"
    ev.write_prediction_dump(str(dump_path), dump)
    annotations = manifest.resolve(videos[0].annotations)
    rc = run(["eval", "--dump", str(dump_path), "--gt", annotations,
              "--classmap", manifest.resolve(manifest.class_map)])
    assert rc == 0
    table = capsys.readouterr().out
    cells = table.strip().splitlines()[-1].split()[2:]
    assert cells and all(c == "100.00" for c in cells)


def test_synth_then_eval_logs_no_clip_warning(tmp_path, capsys, caplog, monkeypatch):
    # interval ends written as t * (chunk_size / fps) landed one ulp past the
    # video span t * chunk_size / fps, so the README walkthrough's eval
    # warned about clipping for every video that ends in an action
    drawn = []
    segment_labels = dio._segment_labels
    monkeypatch.setattr(dio, "_segment_labels", lambda *a: drawn.append(segment_labels(*a)) or drawn[-1])
    readme = dict(num_videos=8, video_len=48, appearance_dim=8, motion_dim=8, seed=7,
                  train_fraction=0.8)
    assert run(synth_args(tmp_path / "data", **readme)) == 0
    manifest_path = capsys.readouterr().out.strip()
    manifest = dio.load_manifest(manifest_path)
    cmap = dio.read_class_map(manifest.resolve(manifest.class_map))
    # the written annotations label every chunk as the generator drew it
    assert len(drawn) == len(manifest.videos)
    rows = dio.read_annotations(manifest.resolve("annotations.tsv"), cmap)
    for video, want in zip(manifest.videos, drawn):
        labels, ambiguous = dio.labels_from_intervals(
            rows.get(video.video_id, []), video.fps, video.chunk_size, video.num_chunks
        )
        assert np.array_equal(labels, want) and not ambiguous.any()
    ckpt, _ = tiny_ckpt(tmp_path, appearance_dim=8, motion_dim=8)
    dump = str(tmp_path / "dump.trnd")
    assert run(["infer", "--batch", "--ckpt", ckpt, "--manifest", manifest_path,
                "--out", dump]) == 0
    assert run(["eval", "--dump", dump, "--gt", manifest.resolve("annotations.tsv"),
                "--classmap", manifest.resolve(manifest.class_map)]) == 0
    assert not [r for r in caplog.records if r.levelname == "WARNING"], caplog.text


def test_eval_labels_each_video_once(dataset, tmp_path, monkeypatch):
    manifest = dio.load_manifest(dataset)
    videos = manifest.videos[:3]
    classes = dio.read_class_map(manifest.resolve(manifest.class_map)).num_actions + 1
    rng = np.random.default_rng(0)
    dump = ev.PredictionDump(chunk_size=6, fps=30.0, decoder_steps=3, classes=classes)
    for video in videos:
        scores = rng.dirichlet(np.ones(classes), size=(video.num_chunks, 4))
        dump.videos[video.video_id] = ev.VideoPredictions(scores[:, 0], scores[:, 1:])
    dump_path = tmp_path / "dump.trnd"
    ev.write_prediction_dump(str(dump_path), dump)
    argv = ["eval", "--dump", str(dump_path), "--gt", manifest.resolve(videos[0].annotations),
            "--classmap", manifest.resolve(manifest.class_map)]
    calls = []
    label = dio.labels_from_intervals
    monkeypatch.setattr(dio, "labels_from_intervals", lambda *a: calls.append(a) or label(*a))
    assert run(argv) == 0
    assert len(calls) == 3  # one per video, shared by the encoder and all 3 steps


def test_eval_logs_each_skipped_class_once_per_head(tmp_path, caplog):
    # "kick" never occurs: the encoder and both steps skip it, and each of
    # the three facts is logged once, naming its head
    gt, classmap = tmp_path / "gt.tsv", tmp_path / "classes.tsv"
    dio.write_annotations(str(gt), {"v": [dio.Interval("jump", 0.0, 0.4)]})
    dio.write_class_map(str(classmap), dio.ClassMap(["Background", "jump", "kick"]))
    scores = np.random.default_rng(0).dirichlet(np.ones(3), size=(6, 3))
    dump = ev.PredictionDump(chunk_size=6, fps=30.0, decoder_steps=2, classes=3)
    dump.videos["v"] = ev.VideoPredictions(scores[:, 0], scores[:, 1:])
    ev.write_prediction_dump(str(tmp_path / "dump.trnd"), dump)
    caplog.set_level("DEBUG")
    assert run(["eval", "--dump", str(tmp_path / "dump.trnd"), "--gt", str(gt),
                "--classmap", str(classmap)]) == 0
    skips = [r.getMessage() for r in caplog.records if "kick" in r.getMessage()
             and "AP[" not in r.getMessage()]
    assert sorted(m.split(":")[0] for m in skips) == ["encoder", "step 1", "step 2"], skips


def misspell_a_row(src, dst, video_ids):
    """Copy the annotation file ``src`` to ``dst`` with the class name of
    the first row of one of ``video_ids`` misspelled; returns its line."""
    lines = open(src).read().splitlines(keepends=True)
    line = next(n for n, row in enumerate(lines, 1) if row.split("\t")[0] in video_ids)
    video_id, _, start, end = lines[line - 1].split("\t")
    lines[line - 1] = "\t".join([video_id, "class_nope", start, end])
    with open(dst, "w") as f:
        f.writelines(lines)
    return line


@pytest.mark.parametrize("split", ["test", "train"])
def test_eval_unknown_class_name_exits_2(dataset, tmp_path, caplog, split):
    # the dump holds the test split: a misspelled row of one of its videos
    # exited 1 without naming the file, one of a train video exited 0
    manifest = dio.load_manifest(dataset)
    ckpt, _ = tiny_ckpt(tmp_path, appearance_dim=5, motion_dim=4)
    dump = str(tmp_path / "dump.trnd")
    assert run(["infer", "--batch", "--ckpt", ckpt, "--manifest", dataset, "--out", dump]) == 0
    gt = str(tmp_path / "gt.tsv")
    line = misspell_a_row(manifest.resolve("annotations.tsv"), gt,
                          {v.video_id for v in manifest.split(split)})
    rc = run(["eval", "--dump", dump, "--gt", gt,
              "--classmap", manifest.resolve(manifest.class_map)])
    assert rc == 2
    assert f"{gt}:{line}: unknown class name 'class_nope'" in caplog.text


def test_train_unknown_class_name_exits_2_before_training(dataset, tmp_path, caplog, monkeypatch):
    # in a held-out video's row, the name was looked up only for the first
    # held-out score, after an epoch of training, and exited 1
    manifest = dio.load_manifest(dataset)
    path = manifest.resolve("annotations.tsv")
    line = misspell_a_row(path, path, {v.video_id for v in manifest.split("test")})
    steps = []
    adam_step = tr.adam_step
    monkeypatch.setattr(tr, "adam_step", lambda *a: steps.append(a) or adam_step(*a))
    assert run(train_argv(dataset, tmp_path / "m.trnc", eval_every=1)) == 2
    assert not steps and not (tmp_path / "m.trnc").exists()
    assert f"{path}:{line}: unknown class name 'class_nope'" in caplog.text


def test_repeated_class_name_exits_2(dataset, tmp_path, caplog):
    # ClassMap's own duplicate check exited 1, naming neither file nor line
    manifest = dio.load_manifest(dataset)
    classmap = manifest.resolve(manifest.class_map)
    with open(classmap, "a") as f:
        f.write("3\tclass_1\n")
    dump = ev.PredictionDump(chunk_size=6, fps=30.0, decoder_steps=1, classes=4)
    dump.videos["v"] = ev.VideoPredictions(np.full((2, 4), 0.25), np.full((2, 1, 4), 0.25))
    ev.write_prediction_dump(str(tmp_path / "dump.trnd"), dump)
    assert run(["eval", "--dump", str(tmp_path / "dump.trnd"),
                "--gt", manifest.resolve("annotations.tsv"), "--classmap", classmap]) == 2
    assert run(train_argv(dataset, tmp_path / "m.trnc")) == 2
    assert caplog.text.count(f"{classmap}:4: class name 'class_1' repeats line 2") == 2


@pytest.mark.parametrize("names", [["Background", "class_1", "class_2", "class_3"],
                                   ["Background", "class_1"]], ids=["wider", "narrower"])
def test_eval_class_map_must_match_the_dump(dataset, tmp_path, caplog, monkeypatch, names):
    # a wider map ended in an IndexError traceback (the rows of class_2 are
    # read as class_3 here), a narrower one left the dump's last column
    # unscored and exited 0
    manifest = dio.load_manifest(dataset)
    ckpt, _ = tiny_ckpt(tmp_path, appearance_dim=5, motion_dim=4)
    dump = str(tmp_path / "dump.trnd")
    assert run(["infer", "--batch", "--ckpt", ckpt, "--manifest", dataset, "--out", dump]) == 0
    gt, classmap = str(tmp_path / "gt.tsv"), str(tmp_path / "classes.tsv")
    with open(manifest.resolve("annotations.tsv")) as src, open(gt, "w") as dst:
        for row in src:
            video_id, name, start, end = row.split("\t")
            name = {"class_2": "class_3"}.get(name, name)
            if name in names:
                dst.write("\t".join([video_id, name, start, end]))
    dio.write_class_map(classmap, dio.ClassMap(names))
    scored = []
    ap = ev.average_precision
    monkeypatch.setattr(ev, "average_precision", lambda *a: scored.append(a) or ap(*a))
    assert run(["eval", "--dump", dump, "--gt", gt, "--classmap", classmap]) == 1
    assert not scored
    assert f"class map has {len(names)} classes, the dump scores 3" in caplog.text


def test_eval_warns_once_of_dumped_videos_without_rows(tmp_path, capsys, caplog):
    # a --gt that matched no dumped video scored a table of zeros without a word
    readme = dict(num_videos=8, video_len=48, appearance_dim=8, motion_dim=8, seed=7,
                  train_fraction=0.8)
    assert run(synth_args(tmp_path / "data", **readme)) == 0
    manifest = dio.load_manifest(capsys.readouterr().out.strip())
    ckpt, _ = tiny_ckpt(tmp_path, appearance_dim=8, motion_dim=8)
    dump = str(tmp_path / "dump.trnd")
    assert run(["infer", "--batch", "--ckpt", ckpt, "--manifest", manifest.resolve("manifest.json"),
                "--out", dump]) == 0
    foreign = str(tmp_path / "foreign.tsv")
    dio.write_annotations(foreign, {"other": [dio.Interval("class_1", 0.0, 1.0)]})

    def unannotated(gt):
        caplog.clear()
        assert run(["eval", "--dump", dump, "--gt", gt,
                    "--classmap", manifest.resolve(manifest.class_map)]) == 0
        return [r.getMessage() for r in caplog.records if "no row" in r.getMessage()]

    assert unannotated(manifest.resolve("annotations.tsv")) == []
    assert unannotated(foreign) == [
        f"2 of 2 dumped videos have no row in {foreign}; they score as all background"
    ]


def test_eval_missing_dump_exits_2(tmp_path):
    rc = run(["eval", "--dump", str(tmp_path / "nope.trnd"), "--gt", "x", "--classmap", "y"])
    assert rc == 2


def test_eval_malformed_dump_exits_2(tmp_path, caplog):
    # a JSON-lines dump of earlier versions is not a TRND container
    dump = tmp_path / "dump.jsonl"
    dump.write_text(
        '{"chunk_size": 6, "classes": 2, "decoder_steps": 1, "fps": 30, "type": "config"}\n'
        '{"type": "chunk", "video": "v", "chunk": 0, "present": [0.5, 0.5]}\n'
    )
    gt, classmap = tmp_path / "gt.tsv", tmp_path / "classes.tsv"
    dio.write_annotations(str(gt), {"v": [dio.Interval("jump", 0.0, 1.0)]})
    dio.write_class_map(str(classmap), dio.ClassMap(["Background", "jump"]))
    rc = run(["eval", "--dump", str(dump), "--gt", str(gt), "--classmap", str(classmap)])
    assert rc == 2
    assert "not a TRND file" in caplog.text


@pytest.mark.parametrize("error, code", [
    (dio.HeaderError("a header fault"), 2),
    (IsADirectoryError("a directory"), 2),
    (ValidationError("a bad value"), 1),
    (ValueError("a value of no known kind"), 1),
])
def test_each_error_kind_maps_to_its_exit_code(monkeypatch, caplog, error, code):
    # I/O and file format faults exit 2, every other ValueError exits 1,
    # each logged as one line without a traceback
    def failing(cfg):
        raise error

    monkeypatch.setattr(cli, "cmd_eval", failing)
    assert run(["eval"]) == code
    assert str(error) in caplog.text and "Traceback" not in caplog.text


# ---------------------------------------------------------------------------
# gradcheck


def test_gradcheck_passes(capsys):
    rc = run(["gradcheck"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "max relative error" in out
    assert "PASS" in out


def test_gradcheck_other_variants_pass(capsys):
    assert run(["gradcheck", "--variant", "fused_two_stream", "--seq-len", "2"]) == 0
    assert run(["gradcheck", "--variant", "one_stream", "--one-stream", "motion",
                "--seq-len", "2"]) == 0
    capsys.readouterr()


def test_gradcheck_corrupted_gradient_fails(monkeypatch, capsys):
    # offset one analytic coordinate: the audit must catch a wrong gradient
    grads = tr.WindowLoss.grads

    def corrupted(self):
        out = grads(self)
        next(iter(out.values())).reshape(-1)[0] += 0.01
        return out

    monkeypatch.setattr(tr.WindowLoss, "grads", corrupted)
    rc = run(["gradcheck"])
    assert rc == 1
    assert "FAIL" in capsys.readouterr().out


def test_gradcheck_bad_variant_exits_1(capsys):
    rc = run(["gradcheck", "--variant", "three_stream"])
    assert rc == 1


@pytest.mark.parametrize("key, value, message", [
    ("tolerance", float("nan"), "tolerance must be a finite positive number, got nan"),
    ("tolerance", -1.0, "tolerance must be a finite positive number, got -1.0"),
    ("seed", -1, "seed must be an integer >= 0, got -1"),
])
def test_gradcheck_range_checks_its_tolerance_and_seed(tmp_path, capsys, caplog,
                                                        key, value, message):
    # the tolerances ran the whole audit and printed FAIL; the seed failed
    # with numpy's "expected non-negative integer", which names no flag
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({key: value}))
    for argv in (["--" + key, str(value)], ["--config", str(cfgfile)]):
        caplog.clear()
        assert run(["gradcheck"] + argv) == 1
        assert message in caplog.text
        assert capsys.readouterr().out == ""


def test_module_entrypoint(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "trn.cli", "gradcheck", "--hidden-size", "2", "--seq-len", "2"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "PASS" in proc.stdout
