import time

import numpy as np
import pytest

from oracles import tape_forward
from trn import model as md
from trn.model import ChunkStreams, FusionVariant, TrnConfig, TrnParams
from trn.numeric import DimensionError, ValidationError
from trn.streaming import OnlineDetector, PoisonedError


def make_detector(variant=FusionVariant.TWO_STREAM, seed=0, **kw):
    base = dict(
        fusion_variant=variant,
        appearance_dim=4,
        motion_dim=3,
        pose_dim=5 if variant is FusionVariant.FUSED_TWO_STREAM else None,
        hidden_size=6,
        decoder_steps=3,
        num_actions=2,
        chunk_size=6,
        fps=30,
    )
    if variant is FusionVariant.ONE_STREAM:
        base.update(motion_dim=None, pose_dim=None)
    base.update(kw)
    cfg = TrnConfig(**base)
    return OnlineDetector(TrnParams.init(cfg, np.random.default_rng(seed)))


def draw_streams(rng, cfg):
    def take(dim):
        return None if dim is None else rng.normal(size=dim)

    return ChunkStreams(
        appearance=take(cfg.appearance_dim),
        motion=take(cfg.motion_dim),
        pose=take(cfg.pose_dim if cfg.fusion_variant is FusionVariant.FUSED_TWO_STREAM else None),
    )


def outputs_equal(a, b):
    if not np.array_equal(a.present, b.present):
        return False
    return all(np.array_equal(u, v) for u, v in zip(a.anticipated, b.anticipated)) and all(
        np.array_equal(u, v) for u, v in zip(a.predicted_features, b.predicted_features)
    )


def test_streaming_equals_batch_bitwise_all_variants():
    for variant in FusionVariant:
        det = make_detector(variant, seed=3)
        rng = np.random.default_rng(5)
        seq = [draw_streams(rng, det.config) for _ in range(7)]
        batch, _ = md.trn_forward(det.params, seq)
        for t, streams in enumerate(seq):
            out = det.push_chunk(streams)
            assert outputs_equal(out, batch[t]), (variant, t)


@pytest.mark.parametrize("variant", list(FusionVariant))
def test_push_matches_tape_oracle(variant):
    det = make_detector(variant, seed=8)
    rng = np.random.default_rng(9)
    seq = [draw_streams(rng, det.config) for _ in range(5)]
    outs = [det.push_chunk(s) for s in seq]
    present, anticipated, features, (h, c) = tape_forward(det.params, seq)
    assert np.abs(np.stack([o.present for o in outs]) - present).max() <= 1e-12
    assert np.abs(np.array([o.anticipated for o in outs]) - anticipated).max() <= 1e-12
    got_features = np.array([o.predicted_features for o in outs])
    assert got_features.shape == features.shape == (5, 3, 6)
    assert np.abs(got_features - features).max() <= 1e-12
    assert np.abs(det.state.h - h).max() <= 1e-12 and np.abs(det.state.c - c).max() <= 1e-12


def test_first_push_starts_from_zero_state_and_counter():
    det = make_detector()
    assert det.chunks_seen == 0
    assert np.array_equal(det.state.h, np.zeros(6))
    rng = np.random.default_rng(1)
    det.push_chunk(draw_streams(rng, det.config))
    assert det.chunks_seen == 1
    assert np.any(det.state.h != 0)


def test_push_reset_push_reproduces():
    det = make_detector()
    rng = np.random.default_rng(2)
    chunk = draw_streams(rng, det.config)
    first = det.push_chunk(chunk)
    det.reset()
    assert det.chunks_seen == 0
    second = det.push_chunk(chunk)
    assert outputs_equal(first, second)


def test_reset_on_fresh_detector_noop():
    det = make_detector()
    det.reset()
    assert det.chunks_seen == 0
    assert np.array_equal(det.state.h, np.zeros(6))


def test_anticipated_count_every_push():
    det = make_detector(decoder_steps=8)
    rng = np.random.default_rng(3)
    for _ in range(5):
        out = det.push_chunk(draw_streams(rng, det.config))
        assert len(out.anticipated) == 8
        # one array per field, split by head in the kernel's own step
        assert out.present.shape == (det.config.classes,)
        assert out.anticipated.shape == (8, det.config.classes)
        assert out.predicted_features.shape == (8, det.config.hidden_size)


def test_causality_future_perturbation():
    rng = np.random.default_rng(4)
    for trial in range(5):
        det = make_detector(seed=trial)
        seq = [draw_streams(rng, det.config) for _ in range(6)]
        base = [det.push_chunk(s) for s in seq]
        cut = int(rng.integers(0, 5))
        mutated = list(seq)
        for j in range(cut + 1, 6):
            mutated[j] = draw_streams(rng, det.config)
        det.reset()
        replay = [det.push_chunk(s) for s in mutated]
        for t in range(cut + 1):
            assert outputs_equal(base[t], replay[t]), (trial, t)


def test_horizon_seconds():
    det = make_detector(chunk_size=6, fps=30, decoder_steps=8)
    assert det.horizon_seconds(1) == pytest.approx(0.2)
    assert det.horizon_seconds(8) == pytest.approx(1.6)
    det16 = make_detector(chunk_size=16, fps=30, decoder_steps=8)
    assert det16.horizon_seconds(3) == pytest.approx(1.6)
    with pytest.raises(ValidationError):
        det.horizon_seconds(0)
    with pytest.raises(ValidationError):
        det.horizon_seconds(9)


def test_poison_semantics():
    det = make_detector()
    rng = np.random.default_rng(6)
    good = draw_streams(rng, det.config)
    det.push_chunk(good)
    bad = ChunkStreams(appearance=np.zeros(99), motion=np.zeros(3))
    with pytest.raises(DimensionError):
        det.push_chunk(bad)
    with pytest.raises(PoisonedError):
        det.push_chunk(good)
    det.reset()
    out = det.push_chunk(good)
    assert len(out.anticipated) == det.config.decoder_steps


def test_poison_on_missing_stream():
    det = make_detector()
    with pytest.raises(ValidationError):
        det.push_chunk(ChunkStreams(appearance=np.zeros(4)))
    with pytest.raises(PoisonedError):
        det.push_chunk(ChunkStreams(appearance=np.zeros(4), motion=np.zeros(3)))


@pytest.mark.parametrize("bad", [np.nan, -np.inf])
def test_non_finite_push_keeps_state_and_poisons(bad):
    det = make_detector()
    rng = np.random.default_rng(10)
    good = draw_streams(rng, det.config)
    det.push_chunk(good)
    h, c = det.state.h.copy(), det.state.c.copy()
    motion = good.motion.copy()
    motion[0] = bad
    with pytest.raises(ValidationError, match="motion stream holds a non-finite"):
        det.push_chunk(ChunkStreams(appearance=good.appearance, motion=motion))
    assert np.array_equal(det.state.h, h) and np.array_equal(det.state.c, c)
    assert det.chunks_seen == 1
    with pytest.raises(PoisonedError):
        det.push_chunk(good)
    det.reset()
    assert np.isfinite(det.push_chunk(good).present).all()


def test_batch_input_rejected():
    det = make_detector()
    with pytest.raises(ValidationError):
        det.push_chunk(ChunkStreams(appearance=np.zeros((4, 2)), motion=np.zeros((3, 2))))
    det.reset()
    with pytest.raises(ValidationError):  # a scalar, not a vector
        det.push_chunk(ChunkStreams(appearance=np.float64(1.0), motion=np.zeros(3)))


def test_push_cost_independent_of_history():
    det = make_detector(hidden_size=32, decoder_steps=4)
    rng = np.random.default_rng(7)
    chunks = [draw_streams(rng, det.config) for _ in range(40)]

    def median_push_time(n_before):
        det.reset()
        for i in range(n_before):
            det.push_chunk(chunks[i % 40])
        samples = []
        for i in range(60):
            t0 = time.perf_counter()
            det.push_chunk(chunks[i % 40])
            samples.append(time.perf_counter() - t0)
        return float(np.median(samples))

    # allow scheduler noise: pass if any attempt lands within 20%
    for _ in range(3):
        early = median_push_time(5)
        late = median_push_time(600)
        if late <= 1.2 * early:
            return
    raise AssertionError(f"late pushes slower than early: {early:.2e}s vs {late:.2e}s")
