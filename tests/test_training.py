import dataclasses
import hashlib
import itertools
import json
import math
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from oracles import (
    adam_oracle, complex_step, decoder_target_pairs, tape_chunks, tape_forward, tape_logits,
    window_loss,
)
from trn import cli
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


def random_windows(rng, cfg, t, batch=1):
    """``batch`` windows of ``t`` chunks as stream dicts, drawn chunk by
    chunk as one (D, batch) block per stream."""
    draws = [{n: rng.normal(size=(getattr(cfg, f"{n}_dim"), batch)) for n in cfg.streams}
             for _ in range(t)]
    return [{n: np.array([d[n][:, b] for d in draws]) for n in cfg.streams} for b in range(batch)]


# ---------------------------------------------------------------------------
# loss


def test_train_config_defaults():
    cfg = tr.TrainConfig()
    assert cfg.learning_rate == 5e-4
    assert cfg.weight_decay == 5e-4
    assert cfg.batch_size == 2
    assert cfg.seq_len == 64


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("field", ["learning_rate", "weight_decay", "lambda_enc", "lambda_dec"])
def test_train_config_rejects_non_finite_values(field, value):
    with pytest.raises(ValidationError, match=f"{field} must be a finite (positive )?number.*, got {value}"):
        tr.TrainConfig(**{field: value})


def test_decoder_target_pairs_masking_example():
    pairs = decoder_target_pairs(4, 8)
    assert len(pairs) == 6
    assert pairs == [(0, 1), (0, 2), (0, 3), (1, 1), (1, 2), (2, 1)]


def test_sequence_loss_uniform_is_two_log_classes():
    cfg = tiny_model(num_actions=20)
    params = TrnParams.zeros(cfg)
    rng = np.random.default_rng(0)
    window = random_windows(rng, cfg, 4)
    labels = rng.integers(0, 21, size=4)
    loss = tr.sequence_loss(params, tiny_train(), window, labels)
    assert abs(loss.loss - 2.0 * math.log(21)) < 1e-12


def test_sequence_loss_nonnegative_random():
    cfg = tiny_model()
    params = TrnParams.init(cfg, np.random.default_rng(1))
    rng = np.random.default_rng(2)
    for t in (1, 2, 5):
        window = random_windows(rng, cfg, t)
        labels = rng.integers(0, 3, size=t)
        assert tr.sequence_loss(params, tiny_train(), window, labels).loss >= 0.0


def test_sequence_loss_single_chunk_has_no_decoder_term():
    cfg = tiny_model(num_actions=20)
    params = TrnParams.zeros(cfg)
    window = random_windows(np.random.default_rng(3), cfg, 1)
    loss = tr.sequence_loss(params, tiny_train(), window, np.array([5]))
    assert abs(loss.loss - math.log(21)) < 1e-12  # encoder head only


def test_sequence_loss_label_out_of_range():
    cfg = tiny_model()
    params = TrnParams.zeros(cfg)
    window = random_windows(np.random.default_rng(4), cfg, 2)
    with pytest.raises(ValidationError):
        tr.sequence_loss(params, tiny_train(), window, np.array([0, 3]))
    with pytest.raises(ValidationError):
        tr.sequence_loss(params, tiny_train(), window, np.array([-1, 0]))


@pytest.mark.parametrize("labels, dtype", [
    ([0.4, 1.9, 2.5, 1.0], "float64"),  # would train as [0, 1, 2, 1]
    ([0.0, float("nan"), 1.0, 2.0], "float64"),
    (["0", "1", "2", "1"], "<U1"),
])
def test_sequence_loss_refuses_labels_that_are_not_integers(labels, dtype):
    cfg = tiny_model()
    window = random_windows(np.random.default_rng(4), cfg, 4)
    with pytest.raises(ValidationError, match=f"labels must be integers, got dtype {dtype}"):
        tr.sequence_loss(TrnParams.zeros(cfg), tiny_train(), window, np.array(labels))


def test_sequence_loss_rejects_misshapen_batches():
    cfg = tiny_model()
    params = TrnParams.zeros(cfg)
    rng = np.random.default_rng(5)
    windows = random_windows(rng, cfg, 3, batch=2)
    with pytest.raises(ValidationError, match=r"shape \(3,\), expected \(3, 2\)"):
        tr.sequence_loss(params, tiny_train(), windows, np.zeros(3, int))
    with pytest.raises(ValidationError, match=r"shape \(2, 2\), expected \(3, 2\)"):
        tr.sequence_loss(params, tiny_train(), windows, np.zeros((2, 2), int))
    with pytest.raises(nm.DimensionError, match="one length"):
        tr.sequence_loss(params, tiny_train(), [windows[0]] + random_windows(rng, cfg, 2),
                         np.zeros((3, 2), int))
    with pytest.raises(ValidationError, match="lacks motion"):
        tr.sequence_loss(params, tiny_train(), [{"appearance": windows[0]["appearance"]}],
                         np.zeros(3, int))


def test_sequence_loss_batch_equals_mean_of_singles():
    cfg = tiny_model()
    params = TrnParams.init(cfg, np.random.default_rng(6))
    rng = np.random.default_rng(7)
    t, b = 4, 3
    singles = [random_windows(rng, cfg, t)[0] for _ in range(b)]
    labels = rng.integers(0, 3, size=(t, b))
    tc = tiny_train()
    batch_loss = tr.sequence_loss(params, tc, singles, labels).loss
    single_losses = [
        tr.sequence_loss(params, tc, [singles[j]], labels[:, j]).loss for j in range(b)
    ]
    assert abs(batch_loss - np.mean(single_losses)) < 1e-12


def test_sequence_loss_gradient_matches_finite_differences():
    cfg = tiny_model()
    params = TrnParams.init(cfg, np.random.default_rng(8))
    rng = np.random.default_rng(9)
    window = random_windows(rng, cfg, 3)
    labels = rng.integers(0, 3, size=3)
    tc = tiny_train()
    grads = tr.sequence_loss(params, tc, window, labels).grads()
    assert list(grads) == list(params.arrays())
    err = nm.grad_check(
        lambda: tr.sequence_loss(params, tc, window, labels).loss,
        list(grads.values()),
        list(params.arrays().values()),
    )
    assert err < 1e-4


def test_sequence_loss_lambda_weights():
    cfg = tiny_model(num_actions=20)
    params = TrnParams.zeros(cfg)
    rng = np.random.default_rng(10)
    window = random_windows(rng, cfg, 4)
    labels = rng.integers(0, 21, size=4)
    loss = tr.sequence_loss(params, tiny_train(lambda_enc=2.0, lambda_dec=0.5), window, labels)
    assert abs(loss.loss - 2.5 * math.log(21)) < 1e-12


# ---------------------------------------------------------------------------
# fused loss against the tape's value and the complex-step derivative


STREAM_DIMS = {
    FusionVariant.ONE_STREAM: dict(appearance_dim=None, motion_dim=3, pose_dim=None),
    FusionVariant.TWO_STREAM: dict(appearance_dim=3, motion_dim=2, pose_dim=None),
    FusionVariant.FUSED_TWO_STREAM: dict(appearance_dim=3, motion_dim=2, pose_dim=4),
}


def tape_loss(params, tc, videos, labels, ambiguous=None):
    """The two-head window loss of the per-chunk cell (``md.chunk_step``,
    stepped by the oracle), scored by the oracle's own head: the
    independent value the fused loss must reproduce."""
    enc, dec, _, _ = tape_logits(params, tape_chunks(params.config, videos))
    return window_loss(tc, enc, dec, labels, ambiguous)


def fused_loss(params, tc, videos, labels, ambiguous=None):
    """(loss, gradient per parameter name) of the fused window loss."""
    loss = tr.sequence_loss(params, tc, videos, labels, ambiguous)
    return loss.loss, loss.grads()


def assert_matches_oracles(params, tc, videos, labels, ambiguous=None):
    """The fused loss equals the tape's to 1e-12, and its gradient, along
    each of 4 random directions over every parameter, the complex-step
    derivative to 1e-12 relative."""
    fused, fused_grads = fused_loss(params, tc, videos, labels, ambiguous)
    assert abs(fused - tape_loss(params, tc, videos, labels, ambiguous)) <= 1e-12
    rng = np.random.default_rng(0)
    for _ in range(4):
        v = {k: rng.normal(size=a.shape) for k, a in params.arrays().items()}
        want = complex_step(params, tc, videos, labels, v, ambiguous)
        got = sum(float(np.vdot(fused_grads[k], v[k])) for k in v)
        assert abs(got - want) <= 1e-12 * max(abs(got), abs(want)), (got, want)
    return fused_grads


def fused_setup(variant, batch, t_len, steps, seed):
    """Params off the ReLU kinks, ``batch`` random windows of ``t_len``
    chunks, and labels ((t_len,) for one window)."""
    cfg = TrnConfig(
        fusion_variant=variant, hidden_size=4, decoder_steps=steps, num_actions=2,
        **STREAM_DIMS[variant],
    )
    rng = np.random.default_rng(seed)
    params = TrnParams.init(cfg, rng)
    for a in params.arrays().values():
        a[...] = rng.uniform(-0.5, 0.5, size=a.shape)
    videos = random_windows(rng, cfg, t_len, batch)
    labels = rng.integers(0, cfg.classes, size=(t_len,) if batch == 1 else (t_len, batch))
    tc = tiny_train(lambda_enc=1.5, lambda_dec=0.75)
    return params, tc, videos, labels


def test_fused_loss_matches_tape():
    for n, (variant, batch, t_len, steps) in enumerate(
        itertools.product(FusionVariant, (1, 3), (1, 5), (1, 3))
    ):
        params, tc, videos, labels = fused_setup(variant, batch, t_len, steps, 100 + n)
        grads = assert_matches_oracles(params, tc, videos, labels)
        if steps == 1:  # the last predicted feature feeds nothing
            assert not grads["decoder.feat.w"].any() and not grads["decoder.feat.b"].any()
        if t_len == 1:  # no (t, i) pair stays inside the window
            assert not grads["decoder.cls.w"].any() and not grads["decoder.cls.b"].any()


def test_fused_loss_clamped_columns_match_tape():
    params, tc, videos, labels = fused_setup(FusionVariant.TWO_STREAM, 3, 5, 3, 7)
    # background (label 0) is pushed below the 1e-12 clamp in both heads
    params.arrays()["encoder.cls.b"][0] = -40.0
    params.arrays()["decoder.cls.b"][0] = -40.0
    labels[:, 0] = 0
    assert_matches_oracles(params, tc, videos, labels)


def test_fused_loss_ambiguous_columns_match_tape():
    for n, (variant, batch) in enumerate(itertools.product(FusionVariant, (1, 3))):
        params, tc, videos, labels = fused_setup(variant, batch, 6, 3, 200 + n)
        rng = np.random.default_rng(300 + n)
        ambiguous = rng.random(labels.shape) < 0.4
        ambiguous[0] = True  # a chunk no pair targets
        ambiguous[-1] = True  # the target of the last chunks' step-1 pairs
        assert_matches_oracles(params, tc, videos, labels, ambiguous)


def test_fused_loss_head_with_every_column_ambiguous_contributes_zero():
    params, tc, videos, labels = fused_setup(FusionVariant.TWO_STREAM, 3, 4, 2, 9)
    # chunk 0 is no pair's target, so the decoder head keeps its pairs
    ambiguous = np.zeros(labels.shape, dtype=bool)
    ambiguous[1:] = True
    enc_only = dataclasses.replace(tc, lambda_dec=0.0)
    want, _ = fused_loss(params, enc_only, videos, labels, ambiguous)
    dec_only = dataclasses.replace(tc, lambda_enc=0.0)
    loss, grads = fused_loss(params, dec_only, videos, labels, ambiguous)
    assert loss == 0.0 and not any(g.any() for g in grads.values())
    assert want > 0.0  # the encoder head still scores chunk 0
    loss, grads = fused_loss(params, tc, videos, labels, np.ones(labels.shape, bool))
    assert loss == 0.0 and not any(g.any() for g in grads.values())


def test_fused_loss_without_ambiguous_chunks_is_bitwise_unmasked():
    params, tc, videos, labels = fused_setup(FusionVariant.FUSED_TWO_STREAM, 3, 5, 3, 10)
    want, want_grads = fused_loss(params, tc, videos, labels)
    got, got_grads = fused_loss(params, tc, videos, labels, np.zeros(labels.shape, bool))
    assert got == want
    for name, g in want_grads.items():
        assert np.array_equal(got_grads[name], g), name


def test_sequence_loss_rejects_misshapen_ambiguous_mask():
    params, tc, videos, labels = fused_setup(FusionVariant.TWO_STREAM, 3, 5, 3, 11)
    with pytest.raises(ValidationError, match="ambiguous"):
        tr.sequence_loss(params, tc, videos, labels, np.zeros(labels.shape[0], bool))


@pytest.mark.parametrize("mask, dtype", [
    ([0.2, 0.0, 0.7, 0.0], "float64"),  # would train as [True, False, True, False]
    ([0.0, float("nan"), 0.0, 0.0], "float64"),  # the NaN would count as ambiguous
    (["no", "", "yes", ""], "<U3"),
])
def test_sequence_loss_refuses_ambiguous_masks_that_are_not_boolean(mask, dtype):
    cfg = tiny_model()
    window = random_windows(np.random.default_rng(4), cfg, 4)
    with pytest.raises(ValidationError, match=f"ambiguous mask must be boolean, got dtype {dtype}"):
        tr.sequence_loss(TrnParams.zeros(cfg), tiny_train(), window, np.arange(4) % 3, np.array(mask))


def test_sequence_loss_runs_bptt_only_in_grads(monkeypatch):
    # grad_check evaluates the loss 2N times; none of them may pay for BPTT
    params, tc, videos, labels = fused_setup(FusionVariant.TWO_STREAM, 3, 5, 3, 8)
    calls = []
    backward = tr._lstm_backward
    monkeypatch.setattr(tr, "_lstm_backward", lambda *a: calls.append(1) or backward(*a))
    loss = tr.sequence_loss(params, tc, videos, labels)
    assert isinstance(loss.loss, float) and not calls
    grads = loss.grads()
    assert len(calls) == 5 * (3 + 1)  # every encoder and decoder step of the window
    assert list(grads) == list(params.arrays())
    for name, a in params.arrays().items():
        assert grads[name].shape == a.shape, name


def transposed_copies(params):
    """Bytes of the contiguous transposed weights BPTT copies per window:
    the decoder LSTM weight, the encoder's (ctx; h) columns, the feature head."""
    hs, w = params.config.hidden_size, params.arrays()
    return w["decoder.lstm.w"].nbytes + w["encoder.lstm.w"][:, hs:].nbytes + w["decoder.feat.w"].nbytes


def test_bptt_peak_memory_stays_within_its_blocks():
    # grads() writes dz and d_feat into the trace it consumes, and takes the
    # heads' hidden-state gradients one chunk at a time. Measured at this
    # shape: 1.60 blocks beside the gradients and the transposed weight
    # copies; the budget leaves 0.4 blocks of slack. Window-sized head
    # gradients and their transposed copy read 2.85, a dz buffer 5.07
    hs, t_len, batch, steps = 16, 48, 8, 3
    cfg = tiny_model(hidden_size=hs, decoder_steps=steps, num_actions=3)
    params = TrnParams.init(cfg, np.random.default_rng(42))
    videos = random_windows(np.random.default_rng(43), cfg, t_len, batch)
    labels = np.random.default_rng(44).integers(0, cfg.classes, size=(t_len, batch))
    # leave numpy's first-call allocations out of the measure
    tr.sequence_loss(params, tiny_train(), videos, labels).grads()
    loss = tr.sequence_loss(params, tiny_train(), videos, labels)
    tracemalloc.start()
    try:
        grads = loss.grads()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    block = hs * (steps + 1) * t_len * batch * 8  # H rows over every step's columns
    budget = sum(g.nbytes for g in grads.values()) + transposed_copies(params) + 2.0 * block
    assert peak <= budget, (peak, budget)


def test_grads_drops_the_pass_and_a_second_call_matches():
    # grads() writes over the trace it reads and lets the pass go, so a
    # loss left bound holds no window-sized array; a second call reruns
    # the forward and gives the same bits
    hs, t_len, batch, steps = 8, 7, 3, 3
    params, rng = loss_setup(hs, steps)
    videos = random_windows(rng, params.config, t_len, batch)
    labels = rng.integers(0, params.config.classes, size=(t_len, batch))
    loss = tr.sequence_loss(params, tiny_train(), videos, labels)
    assert loss.run.lstm is not None
    first = loss.grads()
    assert loss.run is None
    assert all(np.array_equal(g, first[k]) for k, g in loss.grads().items())
    assert loss.run is None


def test_bptt_gemm_operands_are_views_of_the_trace(monkeypatch):
    # the weight GEMMs read dz and d_feat where BPTT left them: md.cols must
    # view the trace (a copying reshape fails here), with its columns at a
    # leading dimension BLAS takes, and a GEMM on such a strided operand
    # gives the bits of the same GEMM on a contiguous copy
    hs, t_len, batch, steps = 8, 5, 3, 3
    params, rng = loss_setup(hs, steps)
    videos = random_windows(rng, params.config, t_len, batch)
    labels = rng.integers(0, params.config.classes, size=(t_len, batch))
    loss = tr.sequence_loss(params, tiny_train(), videos, labels)
    run = loss.run  # grads() drops it
    seen, cols = [], md.cols
    monkeypatch.setattr(md, "cols", lambda a: seen.append((a, cols(a))) or seen[-1][1])
    grads = loss.grads()
    monkeypatch.undo()
    assert all(np.shares_memory(m, a) for a, m in seen)
    on_trace = [m for _, m in seen if np.shares_memory(m, run.lstm)]
    # the factor pass, the dz of the decoder and of the encoder, the
    # decoder's d_feat, then the dz of decoder step 1
    assert [len(m) for m in on_trace] == [6 * hs, 4 * hs, 4 * hs, hs, 4 * hs]
    for m in on_trace:
        assert m.strides[0] == m.itemsize and m.strides[1] == 6 * hs * m.itemsize
    dz_dec, d_feat = on_trace[1], on_trace[3]
    assert np.array_equal(
        grads["decoder.lstm.w"], np.ascontiguousarray(dz_dec) @ cols(run.dec_in[..., :steps]).T
    )
    assert np.array_equal(
        grads["decoder.feat.w"], np.ascontiguousarray(d_feat) @ cols(run.dec_in[hs:, ..., 1:steps]).T
    )


def loss_setup(hs=16, steps=3, seed=45):
    cfg = tiny_model(hidden_size=hs, decoder_steps=steps, num_actions=3)
    return TrnParams.init(cfg, np.random.default_rng(seed)), np.random.default_rng(seed + 1)


def test_interleaved_losses_give_fresh_grads():
    # each loss owns its pass: a loss built after another leaves the
    # first one's grads() to the bit as a fresh loss gives them
    params, rng = loss_setup()
    tc = tiny_train()
    windows = [random_windows(rng, params.config, 5, 2) for _ in range(2)]
    labels = np.zeros((5, 2), int)
    first = tr.sequence_loss(params, tc, windows[0], labels)
    second = tr.sequence_loss(params, tc, windows[1], labels)
    for loss, window in ((first, windows[0]), (second, windows[1])):
        want = tr.sequence_loss(params, tc, window, labels).grads()
        assert all(np.array_equal(g, want[k]) for k, g in loss.grads().items())


def test_loss_grads_raise_once_adam_has_moved_its_weights():
    # the trace holds the forward's activations, not its weights: a
    # grads() after adam_step would mix the old trace with the new weights
    params, rng = loss_setup(hs=4)
    tc = tiny_train()
    videos = random_windows(rng, params.config, 6, 2)
    labels = rng.integers(0, params.config.classes, size=(6, 2))
    loss = tr.sequence_loss(params, tc, videos, labels)
    first = loss.grads()
    assert all(np.array_equal(g, first[k]) for k, g in loss.grads().items())  # no step between
    tr.adam_step(params, first, tr.AdamState.init(params), tc)
    with pytest.raises(ValidationError, match="stale loss: its parameters have since been updated"):
        loss.grads()
    fresh = tr.sequence_loss(params, tc, videos, labels)
    assert list(fresh.grads()) == list(first)


def test_float32_windows_give_the_loss_and_grads_of_their_widening():
    # stack_block widens the window's streams, so the loss and every
    # gradient (fusion.w reads the stacked input) match to the bit
    dims = {"appearance": 3, "motion": 2, "pose": 5}
    for variant in FusionVariant:
        cfg = TrnConfig.for_streams(variant, dims, hidden_size=6, decoder_steps=3, num_actions=2)
        params = TrnParams.init(cfg, np.random.default_rng(46))
        rng = np.random.default_rng(47)
        narrow = [{n: a.astype(np.float32) for n, a in v.items()}
                  for v in random_windows(rng, cfg, 7, 2)]
        wide = [{n: a.astype(np.float64) for n, a in v.items()} for v in narrow]
        labels = rng.integers(0, cfg.classes, size=(7, 2))
        ambiguous = rng.random((7, 2)) < 0.2
        got = tr.sequence_loss(params, tiny_train(), narrow, labels, ambiguous)
        want = tr.sequence_loss(params, tiny_train(), wide, labels, ambiguous)
        assert got.loss == want.loss
        for name, g in want.grads().items():
            assert np.array_equal(got.grads()[name], g), (variant, name)


def test_consecutive_steps_never_hold_two_traces():
    # train keeps the last step's loss bound while it runs the next one. A
    # loss drops its pass as grads() returns, so the next step's peak holds
    # one trace and one pair of operands beside the gradients, BPTT's
    # transposed weight copies and 2 blocks of slack for the smaller arrays
    # (the fused input, the logit gradients, BPTT's per-block gradients).
    # Measured at this shape: 1.56 blocks under the budget; a loss that
    # kept its pass would add 8.5 blocks
    hs, t_len, batch, steps = 16, 12, 2, 3
    params, rng = loss_setup(hs, steps)
    tc = tiny_train()
    windows = [random_windows(rng, params.config, t_len, batch) for _ in range(3)]
    labels = rng.integers(0, params.config.classes, size=(t_len, batch))
    tr.sequence_loss(params, tc, windows[0], labels).grads()  # numpy's first-call allocations
    tracemalloc.start()
    try:
        loss = tr.sequence_loss(params, tc, windows[1], labels)
        loss.grads()
        tracemalloc.reset_peak()
        grads = tr.sequence_loss(params, tc, windows[2], labels).grads()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    block = hs * (steps + 1) * t_len * batch * 8
    operands = 2 * block + 2 * hs * batch * (t_len + 1) * 8  # dec_in, enc_in
    budget = (6 + 2.0) * block + operands + sum(g.nbytes for g in grads.values())
    budget += transposed_copies(params)
    assert peak < budget, (peak / block, budget / block)


# ---------------------------------------------------------------------------
# optimizer


def one_param_setup(theta):
    cfg = tiny_model(hidden_size=1, appearance_dim=1, motion_dim=1, num_actions=1, decoder_steps=1)
    params = TrnParams.zeros(cfg)
    params.arrays()["embed.b"][:] = theta
    return params


def embed_b(params):
    return params.arrays()["embed.b"][0]


def test_params_are_one_table_of_arrays_viewed_by_the_tape():
    rng = np.random.default_rng(5)
    params = TrnParams.init(tiny_model(), rng)
    table = params.arrays()
    assert table is params.arrays()  # the stored table, not a copy built per call
    assert list(table) == list(md.param_shapes(params.config))
    assert TrnParams.from_arrays(params.config, table).arrays()["embed.w"] is table["embed.w"]
    named = params.named()
    assert named is params.named() and list(named) == list(table)
    for k, t in named.items():
        assert t.data is table[k], k
    before = {k: a.copy() for k, a in table.items()}
    grads = {k: rng.normal(size=a.shape) for k, a in table.items()}
    tr.adam_step(params, grads, tr.AdamState.init(params), tiny_train())
    for k, t in params.named().items():  # the step shows through the tape's view
        assert t.data is table[k] and not np.array_equal(t.data, before[k]), k


def test_adam_zero_grad_zero_decay_is_identity():
    params = one_param_setup(1.0)
    state = tr.AdamState.init(params)
    zeros = {k: np.zeros_like(a) for k, a in params.arrays().items()}
    before = {k: a.copy() for k, a in params.arrays().items()}
    tr.adam_step(params, zeros, state, tiny_train(weight_decay=0.0))
    for k, a in params.arrays().items():
        assert np.array_equal(a, before[k])


def test_adam_single_step_hand_example():
    # f(theta) = theta^2 / 2, theta = 1, grad = 1, lr = 0.1: after bias
    # correction the first update magnitude is ~lr
    params = one_param_setup(1.0)
    state = tr.AdamState.init(params)
    grads = {k: np.zeros_like(a) for k, a in params.arrays().items()}
    grads["embed.b"] = np.array([1.0])
    tc = tiny_train(learning_rate=0.1, weight_decay=0.0)
    tr.adam_step(params, grads, state, tc)
    theta = embed_b(params)
    assert abs(theta - 0.9) < 1e-6
    assert state.t == 1


def test_adam_first_update_magnitude_is_lr_for_any_scale():
    for g in (1e-6, 1.0, 1e6):
        params = one_param_setup(0.0)
        state = tr.AdamState.init(params)
        grads = {k: np.zeros_like(a) for k, a in params.arrays().items()}
        grads["embed.b"] = np.array([g])
        tr.adam_step(
            params, grads, state, tiny_train(learning_rate=0.01, weight_decay=0.0)
        )
        assert abs(abs(embed_b(params)) - 0.01) < 1e-4


def assert_adam_matches_the_oracle(cfg, weight_decay):
    """Four adam_step calls on ``cfg``'s fresh parameters equal the
    out-of-place oracle's weights and moments to the bit."""
    params = TrnParams.init(cfg, np.random.default_rng(40))
    state = tr.AdamState.init(params)
    ref = {k: (a.copy(), np.zeros_like(a), np.zeros_like(a))
           for k, a in params.arrays().items()}
    tc = tiny_train(learning_rate=3e-3, weight_decay=weight_decay)
    rng = np.random.default_rng(41)
    for step in range(1, 5):
        grads = {k: rng.normal(scale=10.0**-step, size=a.shape)
                 for k, a in params.arrays().items()}
        tr.adam_step(params, grads, state, tc)
        for k, a in params.arrays().items():
            w, m, v = ref[k]
            ref[k] = w, m, v = adam_oracle(w, grads[k], m, v, step, tc.learning_rate,
                                           tc.weight_decay)
            assert np.array_equal(a, w) and np.array_equal(state.m[k], m), k
            assert np.array_equal(state.v[k], v), k


@pytest.mark.parametrize("weight_decay", [0.0, 5e-4])
def test_adam_step_equals_the_out_of_place_oracle_bitwise(weight_decay):
    # the in-place update keeps the textbook's operation order, so every
    # weight and moment matches the oracle to the bit, step after step
    cfg = tiny_model(fusion_variant=FusionVariant.FUSED_TWO_STREAM, pose_dim=5)
    assert_adam_matches_the_oracle(cfg, weight_decay)


@pytest.mark.parametrize("weight_decay", [0.0, 5e-4])
def test_sliced_adam_equals_the_out_of_place_oracle_bitwise(weight_decay):
    # hidden 72: the LSTM weights (288 x 144 and 288 x 216) span 2.5 and 3.8
    # slices, so slice bounds fall inside them and each ends in a ragged tail
    cfg = tiny_model(fusion_variant=FusionVariant.FUSED_TWO_STREAM, pose_dim=5, hidden_size=72)
    largest = max(math.prod(s) for s in md.param_shapes(cfg).values())
    assert largest > 2 * tr.ADAM_SLICE and largest % tr.ADAM_SLICE
    assert_adam_matches_the_oracle(cfg, weight_decay)


def test_adam_working_memory_is_two_slices_for_any_model():
    # hidden 128: the LSTM weights hold 8 and 12 slices. Measured: the first
    # step's peak is its two scratch rows and about 11 KB of views; the
    # budget allows 32 KB beyond the rows, so two scratch rows the size of
    # the largest parameter (3 MB here) cross it
    params = TrnParams.init(tiny_model(hidden_size=128), np.random.default_rng(50))
    assert max(a.size for a in params.arrays().values()) >= 8 * tr.ADAM_SLICE
    state, rng = tr.AdamState.init(params), np.random.default_rng(51)
    grads = {k: rng.normal(size=a.shape) for k, a in params.arrays().items()}
    tracemalloc.start()
    try:
        tr.adam_step(params, grads, state, tiny_train())
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert state.scratch.shape == (2, tr.ADAM_SLICE)
    assert peak <= 2 * tr.ADAM_SLICE * 8 + 32 * 1024, peak


def test_adam_updates_weights_and_moments_in_their_own_buffers():
    # the update runs on flat views: a reshape that copied would drop it
    params = TrnParams.init(tiny_model(hidden_size=72), np.random.default_rng(52))
    state, rng = tr.AdamState.init(params), np.random.default_rng(53)
    buffers = {k: (a, state.m[k], state.v[k]) for k, a in params.arrays().items()}
    before = {k: a.copy() for k, a in params.arrays().items()}
    tr.adam_step(params, {k: rng.normal(size=a.shape) for k, a in params.arrays().items()},
                 state, tiny_train())
    for k, a in params.arrays().items():
        w, m, v = buffers[k]
        assert a is w and state.m[k] is m and state.v[k] is v, k
        assert (w != before[k]).all() and (m != 0).all() and (v != 0).all(), k
    # a layout reshape(-1) would copy is refused before anything moves
    name = "decoder.lstm.w"
    state.m[name] = np.asfortranarray(state.m[name])
    moved = {k: a.copy() for k, a in params.arrays().items()}
    with pytest.raises(ValidationError, match=f"{name} or its Adam moments are not C-contiguous"):
        tr.adam_step(params, {k: np.ones_like(a) for k, a in params.arrays().items()},
                     state, tiny_train())
    assert state.t == 1
    assert all(np.array_equal(a, moved[k]) for k, a in params.arrays().items())


def test_adam_nonfinite_gradient_names_parameter():
    params = one_param_setup(1.0)
    state = tr.AdamState.init(params)
    grads = {k: np.zeros_like(a) for k, a in params.arrays().items()}
    grads["decoder.cls.b"] = np.array([np.nan])
    with pytest.raises(ValidationError) as exc:
        tr.adam_step(params, grads, state, tiny_train())
    assert "decoder.cls.b" in str(exc.value)


def test_adam_missing_gradient_names_parameter():
    # a missing gradient is an error, not a zero gradient: Adam would still
    # move the weight by its momentum and decay
    params = one_param_setup(1.0)
    state = tr.AdamState.init(params)
    grads = {k: np.zeros_like(a) for k, a in params.arrays().items()}
    del grads["encoder.lstm.w"]
    before = {k: a.copy() for k, a in params.arrays().items()}
    with pytest.raises(ValidationError, match="encoder.lstm.w"):
        tr.adam_step(params, grads, state, tiny_train())
    assert state.t == 0
    for k, a in params.arrays().items():
        assert np.array_equal(a, before[k])


@pytest.mark.parametrize("bad", ["nan", "shape"])
def test_adam_bad_last_gradient_moves_nothing(bad):
    # every gradient is checked before the first weight moves: a bad one in
    # the last parameter leaves every weight, moment and count as it was
    params = TrnParams.init(tiny_model(), np.random.default_rng(48))
    state, tc = tr.AdamState.init(params), tiny_train()
    rng = np.random.default_rng(49)
    tr.adam_step(params, {k: rng.normal(size=a.shape) for k, a in params.arrays().items()},
                 state, tc)  # nonzero moments, t = 1
    grads = {k: rng.normal(size=a.shape) for k, a in params.arrays().items()}
    last = list(params.arrays())[-1]
    assert last == "encoder.cls.b"
    grads[last] = np.full(grads[last].shape, np.nan) if bad == "nan" else grads[last][:-1]
    before = {k: (a.copy(), state.m[k].copy(), state.v[k].copy())
              for k, a in params.arrays().items()}
    with pytest.raises(ValidationError, match=last):
        tr.adam_step(params, grads, state, tc)
    assert state.t == 1 and params.updates == 1
    for k, a in params.arrays().items():
        w, m, v = before[k]
        assert np.array_equal(a, w) and np.array_equal(state.m[k], m), k
        assert np.array_equal(state.v[k], v), k


def test_adam_decay_only_shrinks_monotonically():
    params = one_param_setup(1.0)
    state = tr.AdamState.init(params)
    zeros = {k: np.zeros_like(a) for k, a in params.arrays().items()}
    tc = tiny_train(learning_rate=0.1, weight_decay=0.5)
    norms = [abs(embed_b(params))]
    for _ in range(5):
        tr.adam_step(params, zeros, state, tc)
        norms.append(abs(embed_b(params)))
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
            grads = {k: rng.normal(size=a.shape) for k, a in params.arrays().items()}
            tr.adam_step(params, grads, state, tc)
        results.append({k: a.copy() for k, a in params.arrays().items()})
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
    rows = dio.read_annotations(manifest.resolve(videos[0].annotations), cmap)
    want = [
        dio.labels_from_intervals(rows.get(v.video_id, []), v.fps, v.chunk_size, v.num_chunks)[0]
        for v in videos
    ]
    calls = []
    read = dio.read_annotations
    monkeypatch.setattr(dio, "read_annotations", lambda *a: calls.append(a) or read(*a))
    got = tr.load_split(manifest, cmap, "train")
    assert len(calls) == 1
    assert [vid for vid, *_ in got] == [v.video_id for v in videos]
    for (_, _, labels, _), expected in zip(got, want):
        assert np.array_equal(labels, expected)


def test_load_split_carries_the_ambiguous_mask_into_windows(tmp_path):
    manifest = synth_manifest(tmp_path, num_videos=2, train_fraction=1.0)
    video = manifest.split("train")[0]
    chunk_s = video.chunk_size / video.fps
    # chunks 2 and 3 of the first video become ambiguous
    with open(manifest.resolve(video.annotations), "a") as f:
        f.write(f"{video.video_id}\t{dio.AMBIGUOUS}\t{2 * chunk_s!r}\t{4 * chunk_s!r}\n")
    cmap = dio.read_class_map(manifest.resolve(manifest.class_map))
    videos = tr.load_split(manifest, cmap, "train")
    _, _, labels, ambiguous = videos[0]
    assert ambiguous.shape == labels.shape
    assert np.flatnonzero(ambiguous).tolist() == [2, 3]
    assert not videos[1][3].any()
    windows = tr.make_windows(videos, 3)
    assert [w.ambiguous.tolist() for w in windows[:2]] == [[False, False, True], [True, False, False]]


@pytest.mark.parametrize("other_split", ["train", "test"])
def test_load_split_reads_each_video_from_its_own_file_only(tmp_path, caplog, other_split):
    # synth_0001 moves to other.tsv, which also holds a synth_0000 row: that
    # row merged into synth_0000's labels (all class 2) whenever both files
    # were read, and rows no entry paired with their file went without a word
    manifest = synth_manifest(tmp_path, num_videos=4, video_len=12, train_fraction=0.5)
    cmap = dio.read_class_map(manifest.resolve(manifest.class_map))
    first, second = manifest.videos[:2]
    own = ev.ground_truth_from_files(manifest.resolve("annotations.tsv"),
                                     manifest.resolve(manifest.class_map))
    span = first.num_chunks * first.chunk_size / first.fps
    dio.write_annotations(manifest.resolve("other.tsv"), {
        first.video_id: [dio.Interval("class_2", 0.0, span)],
        second.video_id: [dio.Interval("class_1", 0.0, span)],
    })
    videos = [first, dataclasses.replace(second, split=other_split, annotations="other.tsv")]
    manifest = dataclasses.replace(manifest, videos=videos + manifest.videos[2:])
    with caplog.at_level("WARNING", logger="trn.dataio"):
        got = {vid: labels for vid, _, labels, _ in tr.load_split(manifest, cmap, "train")}
    dump = ev.PredictionDump(first.chunk_size, first.fps, 1, cmap.num_actions + 1)
    dump.videos[first.video_id] = ev.VideoPredictions(np.zeros((first.num_chunks, 1)), None)
    want = ev.video_labels(dump, own)[first.video_id][0]
    assert len(set(want.tolist())) > 1 and np.array_equal(got[first.video_id], want)
    if other_split == "train":
        assert got[second.video_id].tolist() == [1] * second.num_chunks
    orphans = {"annotations.tsv": len(own.intervals[second.video_id])}
    if other_split == "train":
        orphans["other.tsv"] = 1
    assert sorted(r.getMessage() for r in caplog.records) == [
        f"{path}: {n} rows name no video the manifest pairs with this file; not applied"
        for path, n in sorted(orphans.items())
    ]


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
    for k, a in params1.arrays().items():
        assert np.array_equal(a, params2.arrays()[k]), k
    assert [m.mean_loss for m in metrics1] == [m.mean_loss for m in metrics2]


def test_train_labels_the_heldout_split_once(tmp_path, caplog):
    # every evaluation relabelled the held-out split, so an interval past
    # its video's end was reported as clipped once per epoch
    manifest = synth_manifest(tmp_path)
    video = manifest.split("test")[0]
    cmap = dio.read_class_map(manifest.resolve(manifest.class_map))
    with open(manifest.resolve(video.annotations), "a") as f:
        f.write(f"{video.video_id}\t{cmap.names[1]}\t2.0\t99.0\n")
    mc = tiny_model(appearance_dim=5, motion_dim=4, hidden_size=6, decoder_steps=2)
    with caplog.at_level("WARNING", logger="trn.dataio"):
        params, metrics = tr.train(manifest, mc, tiny_train(seq_len=6, epochs=3, eval_every=1))
    clipped = [r for r in caplog.records if r.getMessage().startswith("interval [2.0, 99.0) clipped")]
    assert len(clipped) == 1
    # the labels given once score as the labels computed afresh
    gt = ev.ground_truth_from_files(manifest.resolve(video.annotations),
                                    manifest.resolve(manifest.class_map))
    dump = tr.predict_manifest(params, manifest, "test")
    assert metrics[-1].heldout_map == ev.per_frame_map(dump, gt).mean_ap


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
    shared = manifest.resolve(manifest.videos[0].annotations)
    with open(shared) as f:
        lines = f.readlines()
    videos = []
    for video in manifest.videos:
        name = f"annotations-{video.video_id}.tsv"
        with open(manifest.resolve(name), "w") as f:
            f.writelines(row for row in lines if row.split("\t")[0] == video.video_id)
        videos.append(dataclasses.replace(video, annotations=name))
    split = dataclasses.replace(manifest, videos=videos)
    assert len(split.split("test")) == 3
    mc = tiny_model(appearance_dim=5, motion_dim=4, hidden_size=6, decoder_steps=2)
    params, metrics = tr.train(split, mc, tiny_train(seq_len=6, epochs=1, eval_every=1))
    dump = tr.predict_manifest(params, split, "test")
    gt = ev.ground_truth_from_files(shared, split.resolve(split.class_map))
    expected = ev.per_frame_map(dump, gt).mean_ap
    assert metrics[0].heldout_map == expected


def test_train_reads_each_heldout_feature_file_once(tmp_path, monkeypatch):
    # the held-out split was read again at every evaluation
    manifest = synth_manifest(tmp_path, num_videos=8, video_len=12)
    reads = []
    read = dio.read_features
    monkeypatch.setattr(dio, "read_features", lambda path, *a: reads.append(path) or read(path, *a))
    mc = tiny_model(appearance_dim=5, motion_dim=4, hidden_size=6, decoder_steps=2)
    _, metrics = tr.train(manifest, mc, tiny_train(seq_len=6, epochs=3, eval_every=1))
    assert all(m.heldout_map is not None for m in metrics)
    heldout = {manifest.resolve(v.streams[n].path) for v in manifest.split("test") for n in mc.streams}
    assert heldout <= set(reads) and len(reads) == len(set(reads))


@pytest.mark.parametrize("split", ["train", "test"])
def test_train_checks_every_video_before_its_first_step(tmp_path, monkeypatch, split):
    # the model takes its dims from the first video: a later train video of
    # another dim failed after 2 Adam steps, a held-out one after an epoch
    manifest = synth_manifest(tmp_path, appearance_dim=3)
    odd = manifest.split(split)[-1]
    rng = np.random.default_rng(0)
    dio.write_features(manifest.resolve("odd.trnf"), rng.normal(size=(odd.num_chunks, 5)))
    streams = odd.streams | {"appearance": dio.StreamRef("odd.trnf", 5)}
    videos = [dataclasses.replace(v, streams=streams) if v is odd else v for v in manifest.videos]
    steps = []
    step = tr.adam_step
    monkeypatch.setattr(tr, "adam_step", lambda *a: steps.append(1) or step(*a))
    mc = tiny_model(appearance_dim=3, motion_dim=4)
    with pytest.raises(nm.DimensionError, match=f"{odd.video_id}: appearance stream has shape"):
        tr.train(dataclasses.replace(manifest, videos=videos), mc, tiny_train(eval_every=1))
    assert steps == []


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
        present, anticipated, _, _ = tape_forward(params, tape_chunks(mc, streams))
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
        grads = {k: rng.normal(size=a.shape) for k, a in params.arrays().items()}
        tr.adam_step(params, grads, adam, tc)
    path = str(tmp_path / "model.trnc")
    tr.save_checkpoint(path, params, meta={"note": "unit"})
    loaded, meta = tr.load_checkpoint(path)
    assert meta == {"note": "unit"}
    assert loaded.config == cfg
    for k, a in params.arrays().items():
        assert np.array_equal(loaded.arrays()[k], a)


def rewrite_index(path, edit):
    """Apply ``edit`` to a container's JSON index in place; the payload
    bytes stay as they are."""
    blob = path.read_bytes()
    magic, version, json_len = dio.CONTAINER_HEADER.unpack(blob[: dio.CONTAINER_HEADER.size])
    at = dio.CONTAINER_HEADER.size
    doc = json.loads(blob[at : at + json_len])
    edit(doc)
    index = json.dumps(doc, sort_keys=True).encode("utf-8")
    path.write_bytes(dio.CONTAINER_HEADER.pack(magic, version, len(index)) + index
                     + blob[at + json_len :])


def test_checkpoint_with_integer_fps_loads(tmp_path):
    # checkpoints written while fps was an int store e.g. "fps": 30
    params = TrnParams.init(tiny_model(), np.random.default_rng(3))
    path = tmp_path / "model.trnc"
    tr.save_checkpoint(str(path), params)

    def int_fps(doc):
        assert doc["config"]["fps"] == 30.0
        doc["config"]["fps"] = 30

    rewrite_index(path, int_fps)
    loaded, _ = tr.load_checkpoint(str(path))
    assert loaded.config.fps == 30.0 and isinstance(loaded.config.fps, float)
    for k, a in params.arrays().items():
        assert np.array_equal(loaded.arrays()[k], a)


def test_checkpoint_without_adam(tmp_path):
    # the index keeps its "adam": null, and the payload is the parameters alone
    cfg = tiny_model()
    params = TrnParams.init(cfg, np.random.default_rng(13))
    path = tmp_path / "m.trnc"
    tr.save_checkpoint(str(path), params)
    loaded, meta = tr.load_checkpoint(str(path))
    assert meta == {}
    for k, a in params.arrays().items():
        assert np.array_equal(loaded.arrays()[k], a)
    blob, at = path.read_bytes(), dio.CONTAINER_HEADER.size
    _, _, index_len = dio.CONTAINER_HEADER.unpack(blob[:at])
    assert json.loads(blob[at : at + index_len])["adam"] is None
    assert len(blob) == at + index_len + sum(a.nbytes for a in params.arrays().values())


def test_checkpoint_with_an_adam_payload_is_a_header_error(tmp_path, caplog):
    # an earlier writer could append Adam's m and v after the parameters and
    # record its step in the index; that payload is no longer read
    params = TrnParams.init(tiny_model(), np.random.default_rng(19))
    path = tmp_path / "m.trnc"
    tr.save_checkpoint(str(path), params)
    moments = b"".join(np.zeros_like(a).tobytes() for a in params.arrays().values())
    path.write_bytes(path.read_bytes() + 2 * moments)
    rewrite_index(path, lambda doc: doc.__setitem__("adam", {"t": 2}))
    with pytest.raises(dio.HeaderError, match="Adam payload"):
        tr.load_checkpoint(str(path))
    features = tmp_path / "appearance.trnf"
    dio.write_features(str(features), np.zeros((2, 3)))
    assert cli.main(["stream", "--ckpt", str(path), "--out", str(tmp_path / "d.trnd"),
                     "--features", f"appearance={features}", f"motion={features}"]) == 2
    assert "Adam payload" in caplog.text
    assert not (tmp_path / "d.trnd").exists()


def test_checkpoint_with_a_non_finite_fps_is_a_header_error(tmp_path):
    # JSON carries NaN, and the config took it
    params = TrnParams.init(tiny_model(), np.random.default_rng(20))
    path = tmp_path / "m.trnc"
    tr.save_checkpoint(str(path), params)
    rewrite_index(path, lambda doc: doc["config"].__setitem__("fps", float("nan")))
    with pytest.raises(dio.HeaderError, match="fps must be a finite positive number"):
        tr.load_checkpoint(str(path))


def test_checkpoint_with_an_fps_past_the_float_range_is_a_header_error(tmp_path):
    # JSON carries the integer 10**400, and math.isfinite of it raised OverflowError
    params = TrnParams.init(tiny_model(), np.random.default_rng(20))
    path = tmp_path / "m.trnc"
    tr.save_checkpoint(str(path), params)
    rewrite_index(path, lambda doc: doc["config"].__setitem__("fps", 10 ** 400))
    with pytest.raises(dio.HeaderError, match="fps must be a finite positive number"):
        tr.load_checkpoint(str(path))


@pytest.mark.parametrize("key, value", [
    ("decoder_steps", 2.0),  # was a TypeError traceback, exit 1
    ("hidden_size", 4.0),  # passed the tensor-index check: [16, 4] == [16.0, 4.0]
])
def test_checkpoint_with_a_size_that_is_not_an_integer_is_a_header_error(tmp_path, key, value):
    params = TrnParams.init(tiny_model(), np.random.default_rng(21))
    path = tmp_path / "m.trnc"
    tr.save_checkpoint(str(path), params)
    rewrite_index(path, lambda doc: doc["config"].__setitem__(key, value))
    features = tmp_path / "appearance.trnf"
    dio.write_features(str(features), np.zeros((2, 3)))
    proc = subprocess.run(
        [sys.executable, "-m", "trn.cli", "stream", "--ckpt", str(path), "--out", str(tmp_path / "d.trnd"),
         "--features", f"appearance={features}", f"motion={features}"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 2 and "Traceback" not in proc.stderr, proc.stderr
    assert f"{key} must be an integer >= 1, got {value}" in proc.stderr
    assert not (tmp_path / "d.trnd").exists()


def test_checkpoint_deterministic_bytes(tmp_path):
    cfg = tiny_model()
    params = TrnParams.init(cfg, np.random.default_rng(14))
    a, b = str(tmp_path / "a.trnc"), str(tmp_path / "b.trnc")
    tr.save_checkpoint(a, params, meta={"x": 1})
    tr.save_checkpoint(b, params, meta={"x": 1})
    assert open(a, "rb").read() == open(b, "rb").read()


# sha256 of the pinned checkpoint's bytes, as written by the checkpoint
# writer before it moved onto dataio's container (and before it dropped
# the Adam payload, which this checkpoint never held)
PINNED_CHECKPOINT_SHA256 = "fee2953c5799146ed4a8d29772f965a13415e354f82150ec1a24a33f18d0a7f9"


def test_checkpoint_bytes_are_pinned(tmp_path):
    cfg = tiny_model(fusion_variant=FusionVariant.FUSED_TWO_STREAM, pose_dim=5, fps=29.97)
    params = TrnParams.init(cfg, np.random.default_rng(2024))
    adam = tr.AdamState.init(params)
    rng = np.random.default_rng(2025)
    for _ in range(2):
        grads = {k: rng.normal(size=a.shape) for k, a in params.arrays().items()}
        tr.adam_step(params, grads, adam, tr.TrainConfig(seq_len=4))
    path = tmp_path / "m.trnc"
    tr.save_checkpoint(str(path), params, meta={"epochs": 2, "note": "pin"})
    assert hashlib.sha256(path.read_bytes()).hexdigest() == PINNED_CHECKPOINT_SHA256


def test_checkpoint_writer_refuses_non_finite_values(tmp_path):
    # the reader refuses non-finite payloads, so the writer must not make one
    params = TrnParams.init(tiny_model(), np.random.default_rng(17))
    path = tmp_path / "m.trnc"
    params.arrays()["embed.w"][1, 2] = np.nan
    with pytest.raises(ValidationError, match="embed.w holds a non-finite value"):
        tr.save_checkpoint(str(path), params)
    assert not path.exists()
    params.arrays()["embed.w"][1, 2] = 0.0
    params.arrays()["decoder.cls.b"][0] = np.inf
    with pytest.raises(ValidationError, match="decoder.cls.b holds a non-finite value"):
        tr.save_checkpoint(str(path), params)
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


def test_checkpoint_declaring_a_huge_model_is_a_format_error(tmp_path, capsys):
    # the index of a hidden-4 checkpoint claims a model of 10^6 hidden
    # units (terabytes of float64); nothing of that size may be allocated
    params = TrnParams.init(tiny_model(), np.random.default_rng(18))
    path = tmp_path / "m.trnc"
    huge = dataclasses.replace(params.config, hidden_size=10**6)

    def claim_config(doc):
        doc["config"]["hidden_size"] = huge.hidden_size

    def claim_tensors(doc):
        doc["tensors"] = [{"name": k, "shape": list(s)} for k, s in md.param_shapes(huge).items()]

    for edits, error in (([claim_config], dio.HeaderError),
                         ([claim_config, claim_tensors], dio.TruncatedFileError)):
        tr.save_checkpoint(str(path), params)
        for edit in edits:
            rewrite_index(path, edit)
        with pytest.raises(error):
            tr.load_checkpoint(str(path))
        features = tmp_path / "appearance.trnf"
        dio.write_features(str(features), np.zeros((2, 3)))
        assert cli.main(["stream", "--ckpt", str(path), "--out", str(tmp_path / "d.trnd"),
                         "--features", f"appearance={features}", f"motion={features}"]) == 2
    capsys.readouterr()


def test_checkpoint_preserves_predictions(tmp_path):
    manifest = synth_manifest(tmp_path / "data")
    mc = tiny_model(appearance_dim=5, motion_dim=4, hidden_size=6, decoder_steps=2)
    params = TrnParams.init(mc, np.random.default_rng(16))
    path = str(tmp_path / "m.trnc")
    tr.save_checkpoint(path, params)
    loaded, _ = tr.load_checkpoint(path)
    a = tr.predict_manifest(params, manifest, "test")
    b = tr.predict_manifest(loaded, manifest, "test")
    for vid in a.videos:
        assert np.array_equal(a.videos[vid].present, b.videos[vid].present)
        assert np.array_equal(a.videos[vid].anticipated, b.videos[vid].anticipated)
