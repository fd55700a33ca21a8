import dataclasses
import hashlib
import itertools
import json
import math

import numpy as np
import pytest

from oracles import tape_forward
from trn import dataio as dio
from trn import evaluate as ev
from trn import model as md
from trn import numeric as nm
from trn import training as tr
from trn.model import ChunkStreams, FusionVariant, TrnConfig, TrnParams
from trn.numeric import ValidationError
from trn.streaming import OnlineDetector


def tiny_model(**kw):
    base = dict(
        fusion_variant=FusionVariant.TWO_STREAM,
        appearance_dim=3,
        motion_dim=2,
        pose_dim=None,
        hidden_size=4,
        decoder_steps=2,
        num_actions=2,
        chunk_size=6,
        fps=30,
    )
    base.update(kw)
    return TrnConfig(**base)


def tiny_train(**kw):
    base = dict(seq_len=4, batch_size=2, epochs=1, seed=0, eval_every=0)
    base.update(kw)
    return tr.TrainConfig(**base)


def random_sequence(rng, cfg, t):
    return [
        ChunkStreams(
            appearance=rng.normal(size=cfg.appearance_dim),
            motion=rng.normal(size=cfg.motion_dim),
        )
        for _ in range(t)
    ]


# ---------------------------------------------------------------------------
# loss


def test_train_config_defaults():
    cfg = tr.TrainConfig()
    assert cfg.learning_rate == 5e-4
    assert cfg.weight_decay == 5e-4
    assert cfg.batch_size == 2
    assert cfg.seq_len == 64


def test_decoder_target_pairs_masking_example():
    pairs = tr.decoder_target_pairs(4, 8)
    assert len(pairs) == 6
    assert pairs == [(0, 1), (0, 2), (0, 3), (1, 1), (1, 2), (2, 1)]


def test_sequence_loss_uniform_is_two_log_classes():
    cfg = tiny_model(num_actions=20)
    params = TrnParams.zeros(cfg)
    rng = np.random.default_rng(0)
    seq = random_sequence(rng, cfg, 4)
    labels = rng.integers(0, 21, size=4)
    loss = tr.sequence_loss(params, tiny_train(), seq, labels)
    assert abs(loss.item() - 2.0 * math.log(21)) < 1e-12


def test_sequence_loss_nonnegative_random():
    cfg = tiny_model()
    params = TrnParams.init(cfg, np.random.default_rng(1))
    rng = np.random.default_rng(2)
    for t in (1, 2, 5):
        seq = random_sequence(rng, cfg, t)
        labels = rng.integers(0, 3, size=t)
        assert tr.sequence_loss(params, tiny_train(), seq, labels).item() >= 0.0


def test_sequence_loss_single_chunk_has_no_decoder_term():
    cfg = tiny_model(num_actions=20)
    params = TrnParams.zeros(cfg)
    seq = random_sequence(np.random.default_rng(3), cfg, 1)
    loss = tr.sequence_loss(params, tiny_train(), seq, np.array([5]))
    assert abs(loss.item() - math.log(21)) < 1e-12  # encoder head only


def test_sequence_loss_label_out_of_range():
    cfg = tiny_model()
    params = TrnParams.zeros(cfg)
    seq = random_sequence(np.random.default_rng(4), cfg, 2)
    with pytest.raises(ValidationError):
        tr.sequence_loss(params, tiny_train(), seq, np.array([0, 3]))
    with pytest.raises(ValidationError):
        tr.sequence_loss(params, tiny_train(), seq, np.array([-1, 0]))


def test_sequence_loss_batch_equals_mean_of_singles():
    cfg = tiny_model()
    params = TrnParams.init(cfg, np.random.default_rng(6))
    rng = np.random.default_rng(7)
    t, b = 4, 3
    singles = [random_sequence(rng, cfg, t) for _ in range(b)]
    labels = rng.integers(0, 3, size=(t, b))
    batched = [
        ChunkStreams(
            appearance=np.stack([singles[j][tt].appearance for j in range(b)], axis=1),
            motion=np.stack([singles[j][tt].motion for j in range(b)], axis=1),
        )
        for tt in range(t)
    ]
    tc = tiny_train()
    batch_loss = tr.sequence_loss(params, tc, batched, labels).item()
    single_losses = [
        tr.sequence_loss(params, tc, singles[j], labels[:, j]).item() for j in range(b)
    ]
    assert abs(batch_loss - np.mean(single_losses)) < 1e-12


def test_sequence_loss_gradient_matches_finite_differences():
    cfg = tiny_model()
    params = TrnParams.init(cfg, np.random.default_rng(8))
    rng = np.random.default_rng(9)
    seq = random_sequence(rng, cfg, 3)
    labels = rng.integers(0, 3, size=3)
    tc = tiny_train()
    err = nm.grad_check(
        lambda: tr.sequence_loss(params, tc, seq, labels), list(params.named().values())
    )
    assert err < 1e-4


def test_sequence_loss_lambda_weights():
    cfg = tiny_model(num_actions=20)
    params = TrnParams.zeros(cfg)
    rng = np.random.default_rng(10)
    seq = random_sequence(rng, cfg, 4)
    labels = rng.integers(0, 21, size=4)
    loss = tr.sequence_loss(
        params, tiny_train(lambda_enc=2.0, lambda_dec=0.5), seq, labels
    )
    assert abs(loss.item() - 2.5 * math.log(21)) < 1e-12


# ---------------------------------------------------------------------------
# fused loss against the tape


STREAM_DIMS = {
    FusionVariant.ONE_STREAM: dict(appearance_dim=None, motion_dim=3, pose_dim=None),
    FusionVariant.TWO_STREAM: dict(appearance_dim=3, motion_dim=2, pose_dim=None),
    FusionVariant.FUSED_TWO_STREAM: dict(appearance_dim=3, motion_dim=2, pose_dim=4),
}


def tape_loss(params, tc, sequence, labels, ambiguous=None):
    """The two-head window loss built op by op on the tape, through the
    inference cell: the reference the fused kernel must reproduce.
    Columns that ``ambiguous`` marks leave the head means."""
    def as_cols(v):
        return None if v is None else np.asarray(v).reshape(len(v), -1)

    sequence = [
        ChunkStreams(appearance=as_cols(s.appearance), motion=as_cols(s.motion),
                     pose=as_cols(s.pose))
        for s in sequence
    ]
    labels = np.asarray(labels).reshape(len(sequence), -1)
    t_len, batch = labels.shape
    ignored = np.zeros(labels.shape, dtype=bool)
    if ambiguous is not None:
        ignored = np.asarray(ambiguous).reshape(labels.shape)
    enc, dec, _, _ = md.forward_sequence_logits(params, sequence)

    def column(m, j):
        # column j of a matrix as a tape op: m @ e_j
        return nm.linear(m, nm.tensor(np.zeros(m.shape[0])), nm.tensor(np.eye(batch)[j]))

    def mean(weight, logits_labels_ignored):
        # weight times the mean cross-entropy over the kept columns, or
        # None when no column is kept
        total, count = None, 0
        for logits, row, skip in logits_labels_ignored:
            p = nm.softmax(logits)
            for j in range(batch):
                if skip[j]:
                    continue
                ce = nm.cross_entropy(column(p, j), row[j])
                total = ce if total is None else nm.add(total, ce)
                count += 1
        return None if total is None else nm.scale(total, weight / count)

    loss = mean(tc.lambda_enc, zip(enc, labels, ignored))
    pairs = tr.decoder_target_pairs(t_len, params.config.decoder_steps)
    dec_mean = mean(tc.lambda_dec, ((dec[t][i - 1], labels[t + i], ignored[t + i]) for t, i in pairs))
    if dec_mean is not None:
        loss = dec_mean if loss is None else nm.add(loss, dec_mean)
    return loss


def loss_and_grads(loss_fn, params):
    named = params.named()
    for t in named.values():
        t.zero_grad()
    loss = loss_fn()
    loss.backward()
    return loss.item(), {
        k: np.zeros_like(t.data) if t.grad is None else t.grad.copy() for k, t in named.items()
    }


def assert_matches_tape(params, tc, sequence, labels, ambiguous=None):
    fused, fused_grads = loss_and_grads(
        lambda: tr.sequence_loss(params, tc, sequence, labels, ambiguous), params
    )
    tape, tape_grads = loss_and_grads(
        lambda: tape_loss(params, tc, sequence, labels, ambiguous), params
    )
    assert abs(fused - tape) <= 1e-12
    for name, want in tape_grads.items():
        err = np.abs(fused_grads[name] - want).max()
        assert err <= 1e-10 * np.abs(want).max(), (name, err)
    return fused_grads


def fused_setup(variant, batch, t_len, steps, seed):
    cfg = TrnConfig(
        fusion_variant=variant, hidden_size=4, decoder_steps=steps, num_actions=2,
        **STREAM_DIMS[variant],
    )
    rng = np.random.default_rng(seed)
    params = TrnParams.init(cfg, rng)
    for t in params.named().values():  # off the ReLU kinks of a fresh init
        t.data = rng.uniform(-0.5, 0.5, size=t.data.shape)
    shape = () if batch == 1 else (batch,)
    sequence = [
        ChunkStreams(**{n: rng.normal(size=(getattr(cfg, f"{n}_dim"),) + shape)
                        for n in cfg.streams})
        for _ in range(t_len)
    ]
    labels = rng.integers(0, cfg.classes, size=(t_len,) + shape)
    tc = tiny_train(lambda_enc=1.5, lambda_dec=0.75)
    return params, tc, sequence, labels


def test_fused_loss_matches_tape():
    for n, (variant, batch, t_len, steps) in enumerate(
        itertools.product(FusionVariant, (1, 3), (1, 5), (1, 3))
    ):
        params, tc, sequence, labels = fused_setup(variant, batch, t_len, steps, 100 + n)
        grads = assert_matches_tape(params, tc, sequence, labels)
        if steps == 1:  # the last predicted feature feeds nothing
            assert not grads["decoder.feat.w"].any() and not grads["decoder.feat.b"].any()
        if t_len == 1:  # no (t, i) pair stays inside the window
            assert not grads["decoder.cls.w"].any() and not grads["decoder.cls.b"].any()


def test_fused_loss_clamped_columns_match_tape():
    params, tc, sequence, labels = fused_setup(FusionVariant.TWO_STREAM, 3, 5, 3, 7)
    # background (label 0) is pushed below the 1e-12 clamp in both heads
    params.encoder_cls.b.data[0] = -40.0
    params.decoder_cls.b.data[0] = -40.0
    labels[:, 0] = 0
    assert_matches_tape(params, tc, sequence, labels)


def test_fused_loss_ambiguous_columns_match_tape():
    for n, (variant, batch) in enumerate(itertools.product(FusionVariant, (1, 3))):
        params, tc, sequence, labels = fused_setup(variant, batch, 6, 3, 200 + n)
        rng = np.random.default_rng(300 + n)
        ambiguous = rng.random(labels.shape) < 0.4
        ambiguous[0] = True  # a chunk no pair targets
        ambiguous[-1] = True  # the target of the last chunks' step-1 pairs
        assert_matches_tape(params, tc, sequence, labels, ambiguous)


def test_fused_loss_head_with_every_column_ambiguous_contributes_zero():
    params, tc, sequence, labels = fused_setup(FusionVariant.TWO_STREAM, 3, 4, 2, 9)
    # chunk 0 is no pair's target, so the decoder head keeps its pairs
    ambiguous = np.zeros(labels.shape, dtype=bool)
    ambiguous[1:] = True
    enc_only = dataclasses.replace(tc, lambda_dec=0.0)
    want, _ = loss_and_grads(
        lambda: tr.sequence_loss(params, enc_only, sequence, labels, ambiguous), params
    )
    dec_only = dataclasses.replace(tc, lambda_enc=0.0)
    loss, grads = loss_and_grads(
        lambda: tr.sequence_loss(params, dec_only, sequence, labels, ambiguous), params
    )
    assert loss == 0.0 and not any(g.any() for g in grads.values())
    assert want > 0.0  # the encoder head still scores chunk 0
    loss, grads = loss_and_grads(
        lambda: tr.sequence_loss(params, tc, sequence, labels, np.ones(labels.shape, bool)), params
    )
    assert loss == 0.0 and not any(g.any() for g in grads.values())


def test_fused_loss_without_ambiguous_chunks_is_bitwise_unmasked():
    params, tc, sequence, labels = fused_setup(FusionVariant.FUSED_TWO_STREAM, 3, 5, 3, 10)
    want, want_grads = loss_and_grads(lambda: tr.sequence_loss(params, tc, sequence, labels), params)
    got, got_grads = loss_and_grads(
        lambda: tr.sequence_loss(params, tc, sequence, labels, np.zeros(labels.shape, bool)), params
    )
    assert got == want
    for name, g in want_grads.items():
        assert np.array_equal(got_grads[name], g), name


def test_sequence_loss_rejects_misshapen_ambiguous_mask():
    params, tc, sequence, labels = fused_setup(FusionVariant.TWO_STREAM, 3, 5, 3, 11)
    with pytest.raises(ValidationError, match="ambiguous"):
        tr.sequence_loss(params, tc, sequence, labels, np.zeros(labels.shape[0], bool))


def test_fused_loss_under_no_grad_has_no_backward():
    params, tc, sequence, labels = fused_setup(FusionVariant.TWO_STREAM, 3, 5, 3, 8)
    with nm.no_grad():
        loss = tr.sequence_loss(params, tc, sequence, labels)
    assert loss._backward is None and loss._parents == ()
    # with gradients on, the whole window is one node over the parameters
    loss = tr.sequence_loss(params, tc, sequence, labels)
    assert loss._backward is not None
    assert list(loss._parents) == list(params.named().values())


# ---------------------------------------------------------------------------
# optimizer


def one_param_setup(theta):
    cfg = tiny_model(hidden_size=1, appearance_dim=1, motion_dim=1, num_actions=1, decoder_steps=1)
    params = TrnParams.zeros(cfg)
    params.embed.b.data[:] = theta
    return params


def test_adam_zero_grad_zero_decay_is_identity():
    params = one_param_setup(1.0)
    state = tr.AdamState.init(params)
    zeros = {k: np.zeros_like(t.data) for k, t in params.named().items()}
    before = {k: t.data.copy() for k, t in params.named().items()}
    tr.adam_step(params, zeros, state, tiny_train(weight_decay=0.0))
    for k, t in params.named().items():
        assert np.array_equal(t.data, before[k])


def test_adam_single_step_hand_example():
    # f(theta) = theta^2 / 2, theta = 1, grad = 1, lr = 0.1: after bias
    # correction the first update magnitude is ~lr
    params = one_param_setup(1.0)
    state = tr.AdamState.init(params)
    grads = {k: np.zeros_like(t.data) for k, t in params.named().items()}
    grads["embed.b"] = np.array([1.0])
    tc = tiny_train(learning_rate=0.1, weight_decay=0.0)
    tr.adam_step(params, grads, state, tc)
    theta = params.embed.b.data[0]
    assert abs(theta - 0.9) < 1e-6
    assert state.t == 1


def test_adam_first_update_magnitude_is_lr_for_any_scale():
    for g in (1e-6, 1.0, 1e6):
        params = one_param_setup(0.0)
        state = tr.AdamState.init(params)
        grads = {k: np.zeros_like(t.data) for k, t in params.named().items()}
        grads["embed.b"] = np.array([g])
        tr.adam_step(
            params, grads, state, tiny_train(learning_rate=0.01, weight_decay=0.0)
        )
        assert abs(abs(params.embed.b.data[0]) - 0.01) < 1e-4


def test_adam_nonfinite_gradient_names_parameter():
    params = one_param_setup(1.0)
    state = tr.AdamState.init(params)
    grads = {k: np.zeros_like(t.data) for k, t in params.named().items()}
    grads["decoder.cls.b"] = np.array([np.nan])
    with pytest.raises(ValidationError) as exc:
        tr.adam_step(params, grads, state, tiny_train())
    assert "decoder.cls.b" in str(exc.value)


def test_adam_decay_only_shrinks_monotonically():
    params = one_param_setup(1.0)
    state = tr.AdamState.init(params)
    zeros = {k: np.zeros_like(t.data) for k, t in params.named().items()}
    tc = tiny_train(learning_rate=0.1, weight_decay=0.5)
    norms = [abs(params.embed.b.data[0])]
    for _ in range(5):
        tr.adam_step(params, zeros, state, tc)
        norms.append(abs(params.embed.b.data[0]))
    assert all(b < a for a, b in zip(norms, norms[1:]))
    assert norms[1] == pytest.approx(1.0 - 0.1 * 0.5)


def test_adam_deterministic():
    results = []
    for _ in range(2):
        params = one_param_setup(1.0)
        state = tr.AdamState.init(params)
        rng = np.random.default_rng(0)
        tc = tiny_train()
        for _ in range(10):
            grads = {k: rng.normal(size=t.data.shape) for k, t in params.named().items()}
            tr.adam_step(params, grads, state, tc)
        results.append({k: t.data.copy() for k, t in params.named().items()})
    for k in results[0]:
        assert np.array_equal(results[0][k], results[1][k])


# ---------------------------------------------------------------------------
# end-to-end training


def synth_manifest(tmp_path, **kw):
    base = dict(
        num_classes=2,
        appearance_dim=5,
        motion_dim=4,
        sigma_ratio=0.15,
        mean_segment_len=4,
        background_prior=0.4,
        num_videos=4,
        video_len=12,
        train_fraction=0.5,
        seed=3,
    )
    base.update(kw)
    path = dio.generate_synthetic(dio.SyntheticSpec(**base), str(tmp_path))
    return dio.load_manifest(path)


def test_load_split_reads_shared_annotation_file_once(tmp_path, monkeypatch):
    manifest = synth_manifest(tmp_path, num_videos=3, train_fraction=1.0)
    videos = manifest.split("train")
    assert len(videos) == 3 and len({v.annotations for v in videos}) == 1
    cmap = dio.read_class_map(manifest.resolve(manifest.class_map))
    want = [dio.load_video_labels(manifest, v, cmap)[0] for v in videos]
    calls = []
    read = dio.read_annotations
    monkeypatch.setattr(dio, "read_annotations", lambda path: calls.append(path) or read(path))
    got = tr.load_split(manifest, cmap, "train")
    assert len(calls) == 1
    assert [vid for vid, *_ in got] == [v.video_id for v in videos]
    for (_, _, labels, _), expected in zip(got, want):
        assert np.array_equal(labels, expected)


def test_load_split_carries_the_ambiguous_mask_into_windows(tmp_path):
    manifest = synth_manifest(tmp_path, num_videos=2, train_fraction=1.0)
    video = manifest.split("train")[0]
    path = manifest.resolve(video.annotations)
    rows = dio.read_annotations(path)
    chunk_s = video.chunk_size / video.fps
    # chunks 2 and 3 of the first video become ambiguous
    rows[video.video_id].append(dio.Interval(dio.AMBIGUOUS, 2 * chunk_s, 4 * chunk_s))
    dio.write_annotations(path, rows)
    cmap = dio.read_class_map(manifest.resolve(manifest.class_map))
    videos = tr.load_split(manifest, cmap, "train")
    _, _, labels, ambiguous = videos[0]
    assert ambiguous.shape == labels.shape
    assert np.flatnonzero(ambiguous).tolist() == [2, 3]
    assert not videos[1][3].any()
    windows = tr.make_windows(videos, 3)
    assert [w.ambiguous.tolist() for w in windows[:2]] == [[False, False, True], [True, False, False]]


def test_train_loss_decreases(tmp_path):
    manifest = synth_manifest(tmp_path)
    mc = tiny_model(appearance_dim=5, motion_dim=4, hidden_size=8, decoder_steps=2)
    tc = tiny_train(seq_len=6, epochs=3, learning_rate=5e-3)
    params, metrics = tr.train(manifest, mc, tc)
    assert len(metrics) == 3
    assert metrics[-1].mean_loss < metrics[0].mean_loss


def test_train_deterministic(tmp_path):
    manifest = synth_manifest(tmp_path)
    mc = tiny_model(appearance_dim=5, motion_dim=4, hidden_size=6, decoder_steps=2)
    tc = tiny_train(seq_len=6, epochs=2)
    params1, metrics1 = tr.train(manifest, mc, tc)
    params2, metrics2 = tr.train(manifest, mc, tc)
    for k, t in params1.named().items():
        assert np.array_equal(t.data, params2.named()[k].data), k
    assert [m.mean_loss for m in metrics1] == [m.mean_loss for m in metrics2]


def test_train_heldout_metrics(tmp_path):
    manifest = synth_manifest(tmp_path)
    mc = tiny_model(appearance_dim=5, motion_dim=4, hidden_size=6, decoder_steps=2)
    tc = tiny_train(seq_len=6, epochs=2, eval_every=2)
    _, metrics = tr.train(manifest, mc, tc)
    assert metrics[0].heldout_map is None
    assert metrics[1].heldout_map is not None
    assert 0.0 <= metrics[1].heldout_map <= 1.0


def test_train_heldout_map_reads_every_annotation_file(tmp_path):
    # one annotation file per video: every held-out video must be scored
    # against its own file, not the first video's
    manifest = synth_manifest(tmp_path, num_videos=6, video_len=16)
    intervals = dio.read_annotations(manifest.resolve(manifest.videos[0].annotations))
    videos = []
    for video in manifest.videos:
        name = f"annotations-{video.video_id}.tsv"
        dio.write_annotations(
            manifest.resolve(name), {video.video_id: intervals.get(video.video_id, [])}
        )
        videos.append(dataclasses.replace(video, annotations=name))
    split = dataclasses.replace(manifest, videos=videos)
    assert len(split.split("test")) == 3
    mc = tiny_model(appearance_dim=5, motion_dim=4, hidden_size=6, decoder_steps=2)
    params, metrics = tr.train(split, mc, tiny_train(seq_len=6, epochs=1, eval_every=1))
    cmap = dio.read_class_map(split.resolve(split.class_map))
    dump = tr.predict_manifest(params, split, "test")
    expected = ev.per_frame_map(dump, ev.GroundTruth(intervals=intervals, cmap=cmap)).mean_ap
    assert metrics[0].heldout_map == expected


def test_train_class_map_mismatch(tmp_path):
    manifest = synth_manifest(tmp_path)
    mc = tiny_model(appearance_dim=5, motion_dim=4, num_actions=7)
    with pytest.raises(ValidationError):
        tr.train(manifest, mc, tiny_train())


def test_predict_manifest_matches_streaming(tmp_path):
    manifest = synth_manifest(tmp_path)
    mc = tiny_model(appearance_dim=5, motion_dim=4, hidden_size=6, decoder_steps=2)
    params = TrnParams.init(mc, np.random.default_rng(0))
    dump = tr.predict_manifest(params, manifest, "test")
    videos = manifest.split("test")
    assert set(dump.videos.keys()) == {v.video_id for v in videos}
    det = OnlineDetector(params)
    for video in videos:
        det.reset()
        streams = dio.load_video_streams(manifest, video)
        pred = dump.videos[video.video_id]
        for t in range(video.num_chunks):
            out = det.push_chunk(
                ChunkStreams(appearance=streams["appearance"][t], motion=streams["motion"][t])
            )
            assert np.allclose(out.present, pred.present[t], atol=1e-12)
            for i in range(mc.decoder_steps):
                assert np.allclose(out.anticipated[i], pred.anticipated[t, i], atol=1e-12)


def test_predict_manifest_ragged_split_keeps_order_and_column_cap(tmp_path, monkeypatch):
    manifest = synth_manifest(tmp_path, num_videos=20, video_len=8, train_fraction=0.1)
    # cut the 18 test videos to ragged lengths, the longest in the middle
    lengths = iter([3, 1, 8, 5, 2, 7, 8, 4, 6, 1, 8, 3, 5, 2, 7, 6, 4, 8])
    videos = [
        v if v.split != "test" else dataclasses.replace(v, num_chunks=next(lengths))
        for v in manifest.videos
    ]
    split = dataclasses.replace(manifest, videos=videos)
    test_videos = split.split("test")
    assert len(test_videos) == 18
    mc = tiny_model(appearance_dim=5, motion_dim=4, hidden_size=6, decoder_steps=2)
    params = TrnParams.init(mc, np.random.default_rng(0))
    widths = []
    window = md.window_forward

    def counting(params, raw, h, c, *args, **kw):
        widths.extend([h.shape[1]] * (raw.shape[1] // h.shape[1]))
        return window(params, raw, h, c, *args, **kw)

    monkeypatch.setattr(md, "window_forward", counting)
    dump = tr.predict_manifest(params, split, "test")
    assert max(widths) == 16  # the 16 longest run together, then the last 2
    assert sum(widths) == sum(v.num_chunks for v in test_videos)
    assert list(dump.videos) == [v.video_id for v in test_videos]
    monkeypatch.setattr(md, "window_forward", window)
    for video in test_videos:
        streams = dio.load_video_streams(split, video, mc.streams)
        present, anticipated, _, _ = tape_forward(params, md.chunk_sequence(mc, streams))
        pred = dump.videos[video.video_id]
        assert pred.num_chunks == video.num_chunks
        assert np.abs(pred.present - present).max() <= 1e-12
        assert np.abs(pred.anticipated - anticipated).max() <= 1e-12


# ---------------------------------------------------------------------------
# checkpoints


def test_checkpoint_roundtrip(tmp_path):
    cfg = tiny_model(hidden_size=5, decoder_steps=2)
    params = TrnParams.init(cfg, np.random.default_rng(11))
    adam = tr.AdamState.init(params)
    rng = np.random.default_rng(12)
    tc = tiny_train()
    for _ in range(3):
        grads = {k: rng.normal(size=t.data.shape) for k, t in params.named().items()}
        tr.adam_step(params, grads, adam, tc)
    path = str(tmp_path / "model.trnc")
    tr.save_checkpoint(path, params, adam, meta={"note": "unit"})
    loaded, adam2, meta = tr.load_checkpoint(path)
    assert meta == {"note": "unit"}
    assert loaded.config == cfg
    for k, t in params.named().items():
        assert np.array_equal(loaded.named()[k].data, t.data)
    assert adam2.t == adam.t
    for k in adam.m:
        assert np.array_equal(adam2.m[k], adam.m[k])
        assert np.array_equal(adam2.v[k], adam.v[k])


def test_checkpoint_with_integer_fps_loads(tmp_path):
    # checkpoints written while fps was an int store e.g. "fps": 30
    params = TrnParams.init(tiny_model(), np.random.default_rng(3))
    path = tmp_path / "model.trnc"
    tr.save_checkpoint(str(path), params)
    blob = path.read_bytes()
    magic, version, json_len = dio.CONTAINER_HEADER.unpack(blob[: dio.CONTAINER_HEADER.size])
    at = dio.CONTAINER_HEADER.size
    doc = json.loads(blob[at : at + json_len])
    assert doc["config"]["fps"] == 30.0
    doc["config"]["fps"] = 30
    index = json.dumps(doc, sort_keys=True).encode("utf-8")
    path.write_bytes(dio.CONTAINER_HEADER.pack(magic, version, len(index)) + index
                     + blob[at + json_len :])
    loaded, _, _ = tr.load_checkpoint(str(path))
    assert loaded.config.fps == 30.0 and isinstance(loaded.config.fps, float)
    for k, t in params.named().items():
        assert np.array_equal(loaded.named()[k].data, t.data)


def test_checkpoint_without_adam(tmp_path):
    cfg = tiny_model()
    params = TrnParams.init(cfg, np.random.default_rng(13))
    path = str(tmp_path / "m.trnc")
    tr.save_checkpoint(path, params)
    loaded, adam, _ = tr.load_checkpoint(path)
    assert adam is None
    for k, t in params.named().items():
        assert np.array_equal(loaded.named()[k].data, t.data)


def test_checkpoint_deterministic_bytes(tmp_path):
    cfg = tiny_model()
    params = TrnParams.init(cfg, np.random.default_rng(14))
    a, b = str(tmp_path / "a.trnc"), str(tmp_path / "b.trnc")
    tr.save_checkpoint(a, params, meta={"x": 1})
    tr.save_checkpoint(b, params, meta={"x": 1})
    assert open(a, "rb").read() == open(b, "rb").read()


# sha256 of pinned_checkpoint's bytes, without and with Adam state, as
# written by the checkpoint writer before it moved onto dataio's container
PINNED_CHECKPOINT_SHA256 = {
    False: "fee2953c5799146ed4a8d29772f965a13415e354f82150ec1a24a33f18d0a7f9",
    True: "094b1619118d26a5016bd6d886e85f3672d065fe373f58faa1defc6fd6cdeaad",
}


@pytest.mark.parametrize("with_adam", [False, True])
def test_checkpoint_bytes_are_pinned(tmp_path, with_adam):
    cfg = tiny_model(fusion_variant=FusionVariant.FUSED_TWO_STREAM, pose_dim=5, fps=29.97)
    params = TrnParams.init(cfg, np.random.default_rng(2024))
    adam = tr.AdamState.init(params)
    rng = np.random.default_rng(2025)
    for _ in range(2):
        grads = {k: rng.normal(size=t.data.shape) for k, t in params.named().items()}
        tr.adam_step(params, grads, adam, tr.TrainConfig(seq_len=4))
    path = tmp_path / "m.trnc"
    tr.save_checkpoint(str(path), params, adam if with_adam else None,
                       meta={"epochs": 2, "note": "pin"})
    assert hashlib.sha256(path.read_bytes()).hexdigest() == PINNED_CHECKPOINT_SHA256[with_adam]


def test_checkpoint_writer_refuses_non_finite_values(tmp_path):
    # the reader refuses non-finite payloads, so the writer must not make one
    params = TrnParams.init(tiny_model(), np.random.default_rng(17))
    path = tmp_path / "m.trnc"
    params.named()["embed.w"].data[1, 2] = np.nan
    with pytest.raises(ValidationError, match="embed.w holds a non-finite value"):
        tr.save_checkpoint(str(path), params)
    assert not path.exists()
    params.named()["embed.w"].data[1, 2] = 0.0
    adam = tr.AdamState.init(params)
    adam.v["decoder.cls.b"][0] = np.inf
    with pytest.raises(ValidationError, match="decoder.cls.b holds a non-finite value"):
        tr.save_checkpoint(str(path), params, adam)
    assert not path.exists()


def test_checkpoint_corruption_errors(tmp_path):
    cfg = tiny_model()
    params = TrnParams.init(cfg, np.random.default_rng(15))
    path = tmp_path / "m.trnc"
    tr.save_checkpoint(str(path), params)
    blob = path.read_bytes()

    path.write_bytes(b"XXXX" + blob[4:])
    with pytest.raises(dio.BadMagicError):
        tr.load_checkpoint(str(path))
    path.write_bytes(blob[: len(blob) // 2])
    with pytest.raises(dio.TruncatedFileError):
        tr.load_checkpoint(str(path))
    path.write_bytes(blob + b"\x00")
    with pytest.raises(dio.TrailingDataError):
        tr.load_checkpoint(str(path))
    magic, version, index_len = dio.CONTAINER_HEADER.unpack(blob[: dio.CONTAINER_HEADER.size])
    path.write_bytes(dio.CONTAINER_HEADER.pack(magic, version, index_len + 2)
                     + blob[dio.CONTAINER_HEADER.size :])
    with pytest.raises(dio.HeaderError):  # the index runs into the payload
        tr.load_checkpoint(str(path))


def test_checkpoint_preserves_predictions(tmp_path):
    manifest = synth_manifest(tmp_path / "data")
    mc = tiny_model(appearance_dim=5, motion_dim=4, hidden_size=6, decoder_steps=2)
    params = TrnParams.init(mc, np.random.default_rng(16))
    path = str(tmp_path / "m.trnc")
    tr.save_checkpoint(path, params)
    loaded, _, _ = tr.load_checkpoint(path)
    a = tr.predict_manifest(params, manifest, "test")
    b = tr.predict_manifest(loaded, manifest, "test")
    for vid in a.videos:
        assert np.array_equal(a.videos[vid].present, b.videos[vid].present)
        assert np.array_equal(a.videos[vid].anticipated, b.videos[vid].anticipated)
