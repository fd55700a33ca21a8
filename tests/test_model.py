import math
import os
import tracemalloc

import numpy as np
import pytest

from oracles import add, cross_entropy, tape_chunks, tape_forward, tape_grad_check
from trn import evaluate as ev
from trn import model as md
from trn import numeric as nm
from trn import training as tr
from trn.model import ChunkStreams, FusionVariant, TrnConfig, TrnParams, TrnState
from trn.streaming import OnlineDetector


def tiny_config(variant=FusionVariant.TWO_STREAM, **kw):
    base = dict(
        fusion_variant=variant,
        appearance_dim=3,
        motion_dim=4,
        pose_dim=6 if variant is FusionVariant.FUSED_TWO_STREAM else None,
        hidden_size=5,
        decoder_steps=2,
        num_actions=2,
        seq_len=4,
        chunk_size=6,
        fps=30,
    )
    if variant is FusionVariant.ONE_STREAM:
        base.update(appearance_dim=3, motion_dim=None, pose_dim=None)
    base.update(kw)
    return TrnConfig(**base)


def random_streams(rng, config, batch=None):
    def draw(dim):
        if dim is None:
            return None
        shape = (dim,) if batch is None else (dim, batch)
        return rng.normal(size=shape)

    return ChunkStreams(
        appearance=draw(config.appearance_dim),
        motion=draw(config.motion_dim),
        pose=draw(config.pose_dim),
    )


# ---------------------------------------------------------------------------
# config


def test_config_validation():
    with pytest.raises(nm.ValidationError):
        tiny_config(hidden_size=0)
    with pytest.raises(nm.ValidationError):
        tiny_config(decoder_steps=0)
    with pytest.raises(nm.ValidationError):
        tiny_config(num_actions=0)
    with pytest.raises(nm.ValidationError):
        tiny_config(motion_dim=None)  # two-stream needs motion
    with pytest.raises(nm.ValidationError):
        tiny_config(FusionVariant.ONE_STREAM, motion_dim=2)  # two streams set
    with pytest.raises(nm.ValidationError):
        tiny_config(FusionVariant.FUSED_TWO_STREAM, pose_dim=None)


@pytest.mark.parametrize("fps", [float("nan"), float("inf"), 0.0])
def test_config_rejects_an_fps_that_is_not_finite_and_positive(fps):
    with pytest.raises(nm.ValidationError, match="fps must be a finite positive number"):
        tiny_config(fps=fps)


@pytest.mark.parametrize("value", [16.0, True])
@pytest.mark.parametrize("key", [
    "hidden_size", "decoder_steps", "num_actions", "seq_len", "chunk_size", "appearance_dim", "motion_dim",
])
def test_config_refuses_a_size_that_is_not_an_integer(key, value):
    with pytest.raises(nm.ValidationError, match=f"integer.*{key}|{key}.*integer"):
        tiny_config(**{key: value})


def test_config_classes_is_actions_plus_background():
    assert tiny_config(num_actions=20).classes == 21


def test_fused_concat_dim_arithmetic():
    cfg = TrnConfig(
        fusion_variant=FusionVariant.FUSED_TWO_STREAM,
        appearance_dim=1024,
        pose_dim=134,
        motion_dim=1024,
        hidden_size=8,
    )
    assert cfg.concat_dim() == 2182


def test_param_count_pure_function_of_config():
    cfg = tiny_config()
    rng = np.random.default_rng(0)
    def count(params):
        return sum(t.data.size for t in params.named().values())

    a = count(TrnParams.init(cfg, rng))
    b = count(TrnParams.init(cfg, np.random.default_rng(99)))
    assert a == b
    h, cat, cls = 5, 7, 3
    expected = (
        (h * cat + h)  # fusion
        + (h * h + h)  # embed
        + (4 * h * (h + h) + 4 * h)  # decoder lstm
        + (cls * h + cls)  # decoder classifier
        + (h * h + h)  # decoder feature predictor
        + (4 * h * (2 * h + h) + 4 * h)  # encoder lstm
        + (cls * h + cls)  # encoder classifier
    )
    assert a == expected


def test_config_for_streams_sets_only_consumed_dims():
    dims = {"appearance": 3, "motion": 4, "pose": 6}
    two = TrnConfig.for_streams(FusionVariant.TWO_STREAM, dims)
    assert two.streams == ("appearance", "motion") and two.pose_dim is None
    fused = TrnConfig.for_streams(FusionVariant.FUSED_TWO_STREAM, dims)
    assert fused.streams == ("appearance", "pose", "motion") and fused.concat_dim() == 13
    one = TrnConfig.for_streams(FusionVariant.ONE_STREAM, dims, one_stream="pose")
    assert one.streams == ("pose",) and one.appearance_dim is None
    with pytest.raises(nm.ValidationError):
        TrnConfig.for_streams(FusionVariant.ONE_STREAM, dims, one_stream="flow")


def test_stack_block_keeps_consumed_streams_t_major():
    cfg = tiny_config()
    rng = np.random.default_rng(0)
    videos = [
        {"appearance": rng.normal(size=(4, 3)), "motion": rng.normal(size=(4, 4)),
         "pose": rng.normal(size=(4, 6))}
        for _ in range(2)
    ]
    assert [md.check_streams(cfg, v) for v in videos] == [4, 4]
    raw = md.stack_block(cfg, videos, 1, 3)
    assert raw.shape == (7, 4) and raw.dtype == np.float64
    for t in (1, 2):
        for b in range(2):
            want = np.concatenate([videos[b]["appearance"][t], videos[b]["motion"][t]])
            assert np.array_equal(raw[:, (t - 1) * 2 + b], want)
    assert raw.T.flags.c_contiguous  # each chunk's column is contiguous
    app, mot = videos[0]["appearance"], videos[0]["motion"]
    with pytest.raises(nm.ValidationError, match="lacks motion"):
        md.check_streams(cfg, {"appearance": app})
    with pytest.raises(nm.DimensionError, match="disagree"):
        md.check_streams(cfg, {"appearance": app, "motion": mot[:3]})
    for bad in (mot[:, :3], mot[0]):
        with pytest.raises(nm.DimensionError, match=r"config requires \(T, 4\)"):
            md.check_streams(cfg, {"appearance": app, "motion": bad})
    with pytest.raises(nm.ValidationError, match="empty"):
        md.check_streams(cfg, {"appearance": app[:0], "motion": mot[:0]})


# ---------------------------------------------------------------------------
# fuse


def test_fuse_one_stream_passthrough():
    cfg = TrnConfig(
        fusion_variant=FusionVariant.ONE_STREAM,
        appearance_dim=4096,
        pose_dim=None,
        hidden_size=4,
    )
    params = TrnParams.zeros(cfg)
    v = np.random.default_rng(0).normal(size=4096)
    out = md.fuse(params, ChunkStreams(appearance=v))
    assert np.array_equal(out.data, v)
    assert not cfg.has_fusion_layer and "fusion.w" not in params.named()


def test_fuse_two_stream_zero_weights():
    cfg = tiny_config()
    params = TrnParams.zeros(cfg)
    rng = np.random.default_rng(1)
    out = md.fuse(params, random_streams(rng, cfg))
    assert np.array_equal(out.data, np.zeros(5))


def test_fuse_missing_stream_rejected():
    cfg = tiny_config()
    params = TrnParams.zeros(cfg)
    with pytest.raises(nm.ValidationError):
        md.fuse(params, ChunkStreams(appearance=np.zeros(3)))


def test_fuse_wrong_dim_rejected():
    cfg = tiny_config()
    params = TrnParams.zeros(cfg)
    with pytest.raises(nm.DimensionError):
        md.fuse(params, ChunkStreams(appearance=np.zeros(9), motion=np.zeros(4)))


def test_fuse_fused_two_stream_orders_appearance_pose_motion():
    cfg = tiny_config(FusionVariant.FUSED_TWO_STREAM)
    params = TrnParams.zeros(cfg)
    # identity-like fusion to expose the concatenation order
    cat = cfg.concat_dim()
    w = np.zeros((cfg.hidden_size, cat))
    taps = [0, 3, 3 + 6]  # first entry of appearance, pose, motion blocks
    for row, col in enumerate(taps):
        w[row, col] = 1.0
    params.named()["fusion.w"].data[:] = w
    s = ChunkStreams(
        appearance=np.full(3, 2.0), motion=np.full(4, 5.0), pose=np.full(6, 3.0)
    )
    out = md.fuse(params, s)
    assert np.array_equal(out.data[:3], [2.0, 3.0, 5.0])


# ---------------------------------------------------------------------------
# decoder rollout / future gate / encoder step


def test_rollout_single_step_boundary():
    cfg = tiny_config(decoder_steps=1)
    params = TrnParams.init(cfg, np.random.default_rng(0))
    z = nm.tensor(np.zeros(5))
    hid, logits, feats = md.decoder_rollout(params, z, z, nm.tensor(np.ones(5)), 1)
    assert len(hid) == len(logits) == len(feats) == 1


def test_rollout_zero_params_uniform():
    cfg = tiny_config()
    params = TrnParams.zeros(cfg)
    z = nm.tensor(np.zeros(5))
    hid, logits, feats = md.decoder_rollout(params, z, z, z, 4)
    for h, lg, f in zip(hid, logits, feats):
        assert np.array_equal(h.data, np.zeros(5))
        assert np.array_equal(lg.data, np.zeros(3))
        assert np.array_equal(f.data, np.zeros(5))
        assert np.allclose(nm.softmax(lg).data, 1.0 / 3.0, atol=1e-15)


def test_rollout_autoregressive_self_consistency():
    cfg = tiny_config(decoder_steps=3)
    params = TrnParams.init(cfg, np.random.default_rng(5))
    rng = np.random.default_rng(6)
    h0 = nm.tensor(rng.normal(size=5))
    c0 = nm.tensor(rng.normal(size=5))
    x = nm.tensor(rng.normal(size=5))
    hid, logits, feats = md.decoder_rollout(params, h0, c0, x, 3)
    # replay step 2 by hand from step 1's state and emitted feature
    t = params.named()
    h1, c1 = nm.lstm_step(t["decoder.lstm.w"], t["decoder.lstm.b"], x, h0, c0)
    assert np.array_equal(h1.data, hid[0].data)
    f1 = nm.relu(nm.linear(t["decoder.feat.w"], t["decoder.feat.b"], h1))
    assert np.array_equal(f1.data, feats[0].data)
    h2, _ = nm.lstm_step(t["decoder.lstm.w"], t["decoder.lstm.b"], f1, h1, c1)
    assert np.array_equal(h2.data, hid[1].data)


def test_rollout_length_property():
    cfg = tiny_config()
    params = TrnParams.init(cfg, np.random.default_rng(2))
    z = nm.tensor(np.zeros(5))
    for steps in range(1, 17):
        hid, logits, feats = md.decoder_rollout(params, z, z, z, steps)
        assert len(hid) == len(logits) == len(feats) == steps


def test_future_gate_constant_and_hand_case():
    v = nm.tensor([1.0, -2.0, 3.0])
    assert np.array_equal(md.future_gate([v, v, v]).data, v.data)
    a = nm.tensor([0.0, 2.0])
    b = nm.tensor([2.0, 0.0])
    assert np.array_equal(md.future_gate([a, b]).data, [1.0, 1.0])
    assert np.array_equal(md.future_gate([b, a]).data, [1.0, 1.0])


def test_future_gate_empty_rejected():
    with pytest.raises(nm.ValidationError):
        md.future_gate([])


def test_encoder_step_zero_params():
    cfg = tiny_config()
    params = TrnParams.zeros(cfg)
    z = nm.tensor(np.zeros(5))
    h, c, logits = md.encoder_step(params, z, z, z, z)
    assert np.array_equal(h.data, np.zeros(5))
    assert np.array_equal(c.data, np.zeros(5))
    assert np.allclose(nm.softmax(logits).data, 1.0 / 3.0, atol=1e-15)


def test_encoder_step_is_stateful():
    cfg = tiny_config()
    params = TrnParams.init(cfg, np.random.default_rng(3))
    rng = np.random.default_rng(4)
    x = nm.tensor(rng.normal(size=5))
    ctx = nm.tensor(rng.normal(size=5))
    h, c, logits1 = md.encoder_step(params, x, ctx, nm.tensor(np.zeros(5)), nm.tensor(np.zeros(5)))
    _, _, logits2 = md.encoder_step(params, x, ctx, h, c)
    assert not np.array_equal(logits1.data, logits2.data)


# ---------------------------------------------------------------------------
# scalar oracle for the whole cell


def _sig(z):
    return 1.0 / (1.0 + math.exp(-z))


def _scalar_lstm(w, b, x, h_prev, c_prev):
    hs = len(h_prev)
    xh = list(x) + list(h_prev)
    h_out, c_out = [], []
    for k in range(hs):
        z = [sum(w[g * hs + k][j] * xh[j] for j in range(len(xh))) + b[g * hs + k] for g in range(4)]
        i, f, g_, o = _sig(z[0]), _sig(z[1]), math.tanh(z[2]), _sig(z[3])
        c = f * c_prev[k] + i * g_
        h_out.append(o * math.tanh(c))
        c_out.append(c)
    return h_out, c_out


def _scalar_linear(w, b, x):
    return [sum(w[r][j] * x[j] for j in range(len(x))) + b[r] for r in range(len(b))]


def _scalar_relu(x):
    return [max(0.0, v) for v in x]


def _scalar_cell(params, app, mot, h, c):
    """Pure-python re-implementation of one chunk pass (two-stream)."""
    p = {k: t.data.tolist() for k, t in params.named().items()}
    fused = _scalar_relu(_scalar_linear(p["fusion.w"], p["fusion.b"], list(app) + list(mot)))
    x = _scalar_relu(_scalar_linear(p["embed.w"], p["embed.b"], fused))
    dh, dc = list(h), list(c)
    inp = x
    hiddens = []
    dec_logits = []
    for _ in range(params.config.decoder_steps):
        dh, dc = _scalar_lstm(p["decoder.lstm.w"], p["decoder.lstm.b"], inp, dh, dc)
        hiddens.append(dh)
        dec_logits.append(_scalar_linear(p["decoder.cls.w"], p["decoder.cls.b"], dh))
        inp = _scalar_relu(_scalar_linear(p["decoder.feat.w"], p["decoder.feat.b"], dh))
    ctx = [sum(col) / len(hiddens) for col in zip(*hiddens)]
    h2, c2 = _scalar_lstm(p["encoder.lstm.w"], p["encoder.lstm.b"], x + ctx, h, c)
    logits = _scalar_linear(p["encoder.cls.w"], p["encoder.cls.b"], h2)
    return logits, dec_logits, h2, c2


def test_cell_matches_scalar_reference():
    cfg = tiny_config(hidden_size=2, num_actions=1, appearance_dim=2, motion_dim=2, decoder_steps=2)
    params = TrnParams.init(cfg, np.random.default_rng(8))
    rng = np.random.default_rng(9)
    h = rng.normal(size=2)
    c = rng.normal(size=2)
    app = rng.normal(size=2)
    mot = rng.normal(size=2)
    logits, dec_logits, _, h2, c2 = md.chunk_step(
        params, ChunkStreams(appearance=app, motion=mot), nm.tensor(h), nm.tensor(c)
    )
    ref_logits, ref_dec, ref_h, ref_c = _scalar_cell(params, app, mot, h, c)
    assert np.max(np.abs(logits.data - ref_logits)) < 1e-12
    assert np.max(np.abs(h2.data - ref_h)) < 1e-12
    assert np.max(np.abs(c2.data - ref_c)) < 1e-12
    for got, want in zip(dec_logits, ref_dec):
        assert np.max(np.abs(got.data - want)) < 1e-12


# ---------------------------------------------------------------------------
# full forward


def test_trn_forward_shapes_and_distributions():
    cfg = tiny_config()
    params = TrnParams.init(cfg, np.random.default_rng(10))
    rng = np.random.default_rng(11)
    seq = [random_streams(rng, cfg) for _ in range(4)]
    outputs, state = md.trn_forward(params, seq)
    assert len(outputs) == 4
    for out in outputs:
        assert out.present.shape == (3,)
        assert len(out.anticipated) == cfg.decoder_steps
        assert len(out.predicted_features) == cfg.decoder_steps
        for dist in [out.present, *out.anticipated]:
            assert abs(dist.sum() - 1.0) <= 1e-6
            assert np.all(dist >= 0)
    assert state.h.shape == (5,)


def test_trn_forward_t1_boundary():
    cfg = tiny_config()
    params = TrnParams.init(cfg, np.random.default_rng(12))
    rng = np.random.default_rng(13)
    outputs, _ = md.trn_forward(params, [random_streams(rng, cfg)])
    assert len(outputs) == 1


def test_trn_forward_deterministic():
    cfg = tiny_config()
    params = TrnParams.init(cfg, np.random.default_rng(14))
    rng = np.random.default_rng(15)
    seq = [random_streams(rng, cfg) for _ in range(3)]
    a, _ = md.trn_forward(params, seq)
    b, _ = md.trn_forward(params, seq)
    for x, y in zip(a, b):
        assert np.array_equal(x.present, y.present)
        for u, v in zip(x.anticipated, y.anticipated):
            assert np.array_equal(u, v)


def test_trn_forward_split_state_threading_bitwise():
    cfg = tiny_config()
    params = TrnParams.init(cfg, np.random.default_rng(16))
    rng = np.random.default_rng(17)
    seq = [random_streams(rng, cfg) for _ in range(8)]
    whole, _ = md.trn_forward(params, seq)
    state = TrnState.zero(cfg.hidden_size)
    for t, streams in enumerate(seq):
        outs, state = md.trn_forward(params, [streams], state)
        assert np.array_equal(outs[0].present, whole[t].present)
        for u, v in zip(outs[0].anticipated, whole[t].anticipated):
            assert np.array_equal(u, v)


@pytest.mark.parametrize("variant", list(FusionVariant))
def test_trn_forward_matches_tape_oracle(variant):
    # the window kernel against the op-by-op tape cell, from a nonzero
    # state: distributions, every predicted feature (the last one too),
    # and the carried state
    cfg = tiny_config(variant, decoder_steps=3, num_actions=4)
    params = TrnParams.init(cfg, np.random.default_rng(40))
    rng = np.random.default_rng(41)
    seq = [random_streams(rng, cfg) for _ in range(6)]
    state0 = TrnState(rng.normal(size=5), rng.normal(size=5))
    outputs, state = md.trn_forward(params, seq, state0)
    present, anticipated, features, (h, c) = tape_forward(params, seq, state0)
    assert np.abs(np.stack([o.present for o in outputs]) - present).max() <= 1e-12
    assert np.abs(np.array([o.anticipated for o in outputs]) - anticipated).max() <= 1e-12
    got_features = np.array([o.predicted_features for o in outputs])
    assert got_features.shape == features.shape == (6, 3, 5)
    assert np.abs(got_features - features).max() <= 1e-12
    assert np.abs(state.h - h).max() <= 1e-12 and np.abs(state.c - c).max() <= 1e-12


def test_trn_forward_rejects_wrong_size_state():
    cfg = tiny_config()
    params = TrnParams.init(cfg, np.random.default_rng(42))
    seq = [random_streams(np.random.default_rng(43), cfg)]
    with pytest.raises(nm.DimensionError):
        md.trn_forward(params, seq, TrnState(np.zeros(6), np.zeros(5)))
    # a size-1 c would broadcast against the gates
    with pytest.raises(nm.DimensionError):
        md.trn_forward(params, seq, TrnState(np.zeros(5), np.zeros(1)))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_trn_forward_rejects_non_finite_input_naming_the_stream(bad):
    cfg = tiny_config(FusionVariant.FUSED_TWO_STREAM)
    params = TrnParams.init(cfg, np.random.default_rng(44))
    rng = np.random.default_rng(45)
    seq = [random_streams(rng, cfg) for _ in range(3)]
    pose = seq[1].pose.copy()
    pose[2] = bad
    seq[1] = ChunkStreams(appearance=seq[1].appearance, motion=seq[1].motion, pose=pose)
    with pytest.raises(nm.ValidationError, match="pose stream holds a non-finite"):
        md.trn_forward(params, seq)


def test_forward_batch_columns_match_single_sequences():
    cfg = tiny_config()
    params = TrnParams.init(cfg, np.random.default_rng(18))
    rng = np.random.default_rng(19)
    T, B = 3, 4
    singles = [[random_streams(rng, cfg) for _ in range(T)] for _ in range(B)]
    batched = [
        ChunkStreams(
            appearance=np.stack([singles[b][t].appearance for b in range(B)], axis=1),
            motion=np.stack([singles[b][t].motion for b in range(B)], axis=1),
        )
        for t in range(T)
    ]
    enc, dec, h, c = md.forward_sequence_logits(params, batched)
    for b in range(B):
        enc_s, dec_s, h_s, c_s = md.forward_sequence_logits(params, singles[b])
        for t in range(T):
            assert np.allclose(enc[t].data[:, b], enc_s[t].data, atol=1e-12)
            for i in range(cfg.decoder_steps):
                assert np.allclose(dec[t][i].data[:, b], dec_s[t][i].data, atol=1e-12)
        assert np.allclose(h.data[:, b], h_s.data, atol=1e-12)


def test_gradient_flows_through_whole_cell():
    cfg = tiny_config(hidden_size=3, appearance_dim=2, motion_dim=2, decoder_steps=2, num_actions=2)
    params = TrnParams.init(cfg, np.random.default_rng(20))
    rng = np.random.default_rng(21)
    seq = [random_streams(rng, cfg) for _ in range(2)]

    def loss():
        enc, dec, _, _ = md.forward_sequence_logits(params, seq)
        total = cross_entropy(nm.softmax(enc[0]), 1)
        total = add(total, cross_entropy(nm.softmax(enc[1]), 0))
        total = add(total, cross_entropy(nm.softmax(dec[0][1]), 2))
        return total

    err = tape_grad_check(loss, list(params.named().values()), h=1e-5)
    assert err < 1e-4


def test_one_stream_full_forward():
    cfg = tiny_config(FusionVariant.ONE_STREAM, decoder_steps=2)
    params = TrnParams.init(cfg, np.random.default_rng(22))
    rng = np.random.default_rng(23)
    seq = [ChunkStreams(appearance=rng.normal(size=3)) for _ in range(3)]
    outputs, _ = md.trn_forward(params, seq)
    assert len(outputs) == 3
    assert all(abs(o.present.sum() - 1.0) <= 1e-6 for o in outputs)


# ---------------------------------------------------------------------------
# ragged multi-video inference


def random_video(rng, config, t_len):
    return {n: rng.normal(size=(t_len, getattr(config, f"{n}_dim"))) for n in config.streams}


def reference_outputs(params, video):
    """Per-video (present, anticipated) arrays from the tape oracle."""
    present, anticipated, _, _ = tape_forward(params, tape_chunks(params.config, video))
    return present, anticipated


def record_widths(monkeypatch):
    """Column width per chunk of every forward_videos call from now on:
    each window_forward block counts once per chunk, a group of one video
    included."""
    widths = []
    window = md.window_forward

    def counting_window(params, raw, h, c, *args, **kw):
        widths.extend([h.shape[1]] * (raw.shape[1] // h.shape[1]))
        return window(params, raw, h, c, *args, **kw)

    monkeypatch.setattr(md, "window_forward", counting_window)
    return widths


@pytest.mark.parametrize("variant", list(FusionVariant))
def test_forward_videos_ragged_matches_trn_forward(variant):
    # columns run as one matrix product where trn_forward multiplies
    # vectors; the two agree to float64 rounding (measured: ~2e-17)
    cfg = tiny_config(variant, decoder_steps=3, num_actions=9)
    params = TrnParams.init(cfg, np.random.default_rng(30))
    rng = np.random.default_rng(31)
    videos = [random_video(rng, cfg, t) for t in (4, 1, 7)]
    results = md.forward_videos(params, videos)
    assert len(results) == 3
    for video, (present, anticipated) in zip(videos, results):
        want_present, want_anticipated = reference_outputs(params, video)
        assert present.shape == want_present.shape
        assert anticipated.shape == want_anticipated.shape
        assert np.abs(present - want_present).max() <= 1e-12
        assert np.abs(anticipated - want_anticipated).max() <= 1e-12


@pytest.mark.parametrize("variant", list(FusionVariant))
def test_forward_videos_blocks_cross_the_block_length_and_retire_inside(variant, monkeypatch):
    # 40 and 17 cross the 16-chunk block boundary; 3, 16 and 17 retire
    # inside blocks, which end where they do
    cfg = tiny_config(variant, decoder_steps=3, num_actions=4)
    params = TrnParams.init(cfg, np.random.default_rng(38))
    rng = np.random.default_rng(39)
    videos = [random_video(rng, cfg, t) for t in (16, 40, 3, 17)]
    blocks = []
    window = md.window_forward

    def recording(params, raw, h, c, *args, **kw):
        blocks.append((h.shape[1], raw.shape[1] // h.shape[1]))  # (columns, chunks)
        return window(params, raw, h, c, *args, **kw)

    monkeypatch.setattr(md, "window_forward", recording)
    results = md.forward_videos(params, videos)
    monkeypatch.undo()
    assert md.BLOCK_CHUNKS == 16
    assert blocks == [(4, 3), (3, 13), (2, 1), (1, 16), (1, 7)]
    for video, (present, anticipated) in zip(videos, results):
        want_present, want_anticipated = reference_outputs(params, video)
        assert present.shape == want_present.shape
        assert anticipated.shape == want_anticipated.shape
        assert np.abs(present - want_present).max() <= 1e-12
        assert np.abs(anticipated - want_anticipated).max() <= 1e-12


def test_forward_videos_one_video_bitwise_equals_trn_forward():
    # 21 classes: numpy sums 8 or more contiguous values pairwise, so this
    # also pins the softmax column layout of the two callers to each other
    cfg = tiny_config(num_actions=20, decoder_steps=4)
    params = TrnParams.init(cfg, np.random.default_rng(32))
    video = random_video(np.random.default_rng(33), cfg, 6)
    [(present, anticipated)] = md.forward_videos(params, [video])
    outputs, _ = md.trn_forward(params, tape_chunks(cfg, video))
    assert np.array_equal(present, np.stack([o.present for o in outputs]))
    assert np.array_equal(anticipated, np.stack([np.stack(o.anticipated) for o in outputs]))


def test_forward_videos_group_size_caps_columns(monkeypatch):
    cfg = tiny_config()
    params = TrnParams.init(cfg, np.random.default_rng(34))
    rng = np.random.default_rng(35)
    videos = [random_video(rng, cfg, t) for t in (3, 5, 2, 5, 1)]
    widths = record_widths(monkeypatch)
    monkeypatch.setattr(md, "GROUP_SIZE", 2)
    capped = md.forward_videos(params, videos)
    # longest first: (5, 5) then (3, 2) then the single (1,)
    assert widths == [2] * 5 + [2, 2, 1] + [1]
    widths.clear()
    monkeypatch.setattr(md, "GROUP_SIZE", 16)
    whole = md.forward_videos(params, videos)
    assert widths == [5, 4, 3, 2, 2]
    for (p1, a1), (p2, a2) in zip(capped, whole):
        assert np.abs(p1 - p2).max() <= 1e-12 and np.abs(a1 - a2).max() <= 1e-12


@pytest.mark.parametrize("group_size", [16, 3])
def test_forward_blocks_written_block_by_block_give_the_whole_dump(tmp_path, monkeypatch,
                                                                  group_size):
    # 3, 16 and 17 retire inside blocks; at a group size of 3 the longest
    # three share blocks and the fourth runs alone, after them
    monkeypatch.setattr(md, "GROUP_SIZE", group_size)
    cfg = tiny_config(decoder_steps=3, num_actions=4)
    params = TrnParams.init(cfg, np.random.default_rng(44))
    rng = np.random.default_rng(45)
    videos = [random_video(rng, cfg, t) for t in (16, 40, 3, 17)]
    ids = [f"v{i}" for i in range(len(videos))]
    clock = (cfg.chunk_size, cfg.fps, cfg.decoder_steps, cfg.classes)
    blocks = tmp_path / "blocks.trnd"
    with ev.prediction_dump_writer(str(blocks), *clock,
                                   [(i, len(v["appearance"])) for i, v in zip(ids, videos)]) as put:
        for j, _, present, anticipated in md.forward_blocks(params, videos):
            put(j, present, anticipated)
    whole = ev.PredictionDump(*clock)
    for i, (present, anticipated) in zip(ids, md.forward_videos(params, videos)):
        whole.videos[i] = ev.VideoPredictions(present, anticipated)
    ev.write_prediction_dump(str(tmp_path / "whole.trnd"), whole)
    assert blocks.read_bytes() == (tmp_path / "whole.trnd").read_bytes()
    assert sorted(os.listdir(tmp_path)) == ["blocks.trnd", "whole.trnd"]


def test_forward_videos_rejects_bad_input():
    cfg = tiny_config()
    params = TrnParams.init(cfg, np.random.default_rng(36))
    rng = np.random.default_rng(37)
    assert md.forward_videos(params, []) == []
    with pytest.raises(nm.ValidationError, match="empty"):
        md.forward_videos(params, [random_video(rng, cfg, 0)])
    with pytest.raises(nm.ValidationError, match="lacks motion"):
        md.forward_videos(params, [{"appearance": rng.normal(size=(2, 3))}])
    with pytest.raises(nm.DimensionError):
        md.forward_videos(params, [random_video(rng, tiny_config(appearance_dim=2), 2)])
    videos = [random_video(rng, cfg, 3), random_video(rng, cfg, 2)]
    videos[1]["motion"][1, 0] = np.nan
    with pytest.raises(nm.ValidationError, match="motion stream holds a non-finite"):
        md.forward_videos(params, videos)


def nan_in(video, name):
    """A copy of ``video`` whose ``name`` stream holds a NaN at its last chunk."""
    video = {n: a.copy() for n, a in video.items()}
    video[name][-1, 0] = np.nan
    return video


@pytest.mark.parametrize("way", ["push", "forward_videos", "sequence_loss"])
@pytest.mark.parametrize("name", ["appearance", "pose", "motion"])
def test_a_non_finite_value_is_refused_on_every_way_in_naming_its_stream(way, name):
    # a NaN window reached the loss as "loss nan", and Adam then named a
    # parameter's gradient instead of the stream
    cfg = tiny_config(FusionVariant.FUSED_TWO_STREAM)
    params = TrnParams.init(cfg, np.random.default_rng(46))
    rng = np.random.default_rng(47)
    videos = [random_video(rng, cfg, 3), nan_in(random_video(rng, cfg, 3), name)]

    def push():
        for video in videos:
            det = OnlineDetector(params)
            for t in range(3):
                det.push_chunk(ChunkStreams(**{n: a[t] for n, a in video.items()}))

    run = {
        "push": push,
        "forward_videos": lambda: md.forward_videos(params, videos),
        "sequence_loss": lambda: tr.sequence_loss(params, tr.TrainConfig(), videos,
                                                  np.zeros((3, 2), dtype=int)),
    }[way]
    with pytest.raises(nm.ValidationError, match=f"the {name} stream holds a non-finite value"):
        run()


def as_float32(video):
    """The video at feature-file precision, and that cast widened back."""
    narrow = {n: a.astype(np.float32) for n, a in video.items()}
    return narrow, {n: a.astype(np.float64) for n, a in narrow.items()}


@pytest.mark.parametrize("variant", list(FusionVariant))
def test_float32_streams_run_bitwise_as_their_float64_widening(variant):
    # feature files load as float32 and the kernel widens each block, so a
    # float32 video gives the bits of the same values held as float64:
    # ragged multi-video blocks, one-video groups and streaming pushes
    cfg = tiny_config(variant, decoder_steps=3, num_actions=4)
    params = TrnParams.init(cfg, np.random.default_rng(40))
    rng = np.random.default_rng(41)
    pairs = [as_float32(random_video(rng, cfg, t)) for t in (20, 3, 17)]
    for group in (pairs, pairs[:1]):
        narrow = md.forward_videos(params, [v32 for v32, _ in group])
        wide = md.forward_videos(params, [v64 for _, v64 in group])
        for (p32, a32), (p64, a64) in zip(narrow, wide):
            assert np.array_equal(p32, p64) and np.array_equal(a32, a64)
    v32, v64 = pairs[1]
    dets = OnlineDetector(params), OnlineDetector(params)
    for t in range(3):
        outs = [det.push_chunk(ChunkStreams(**{n: v[n][t] for n in cfg.streams}))
                for det, v in zip(dets, (v32, v64))]
        assert np.array_equal(outs[0].present, outs[1].present)
        assert all(np.array_equal(x, y) for x, y in zip(outs[0].anticipated, outs[1].anticipated))
    assert np.array_equal(dets[0].state.h, dets[1].state.h)
    assert np.array_equal(dets[0].state.c, dets[1].state.c)


def test_forward_videos_holds_one_block_at_a_time():
    # four ragged videos whose first two blocks are both full (4 columns by
    # 16 chunks): the peak stays within the outputs plus one block's own
    # peak, so a block's pass and distributions are gone before the next
    # block runs (kept alive, they add about 40% of a block)
    cfg = tiny_config(appearance_dim=16, motion_dim=16, hidden_size=32, decoder_steps=3)
    params = TrnParams.init(cfg, np.random.default_rng(42))
    rng = np.random.default_rng(43)
    videos = [as_float32(random_video(rng, cfg, t))[0] for t in (50, 40, 36, 33)]
    zero = np.zeros((cfg.hidden_size, 4))
    md.forward_videos(params, videos)  # leave numpy's first-call allocations out
    tracemalloc.start()
    try:
        md.detect_block(params, md.stack_block(cfg, videos, 0, md.BLOCK_CHUNKS), zero, zero)
        _, block = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        results = md.forward_videos(params, videos)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    outputs = sum(p.nbytes + a.nbytes for p, a in results)
    assert peak <= outputs + block * 1.1, (peak, outputs, block)
