import math
import re

import numpy as np
import pytest

from oracles import clamped_nll
from trn import model as md
from trn import numeric as nm
from trn import training as tr


def test_check_int_takes_numpy_integers_and_refuses_bools():
    assert nm.check_int("n", np.int64(3)) == 3
    assert nm.check_int("step", 2, 1, 2) == 2
    for value, lo, hi, bound in [(True, 1, None, ">= 1"), (0, 1, None, ">= 1"), (3, 1, 2, "in [1, 2]"),
                                 (-1, 0, None, ">= 0"), (2.0, 1, None, ">= 1")]:
        with pytest.raises(nm.ValidationError, match=rf"n must be an integer {re.escape(bound)}, got"):
            nm.check_int("n", value, lo, hi)


def test_check_real_bounds_and_refusals():
    assert nm.check_real("fps", 30, open_lo=True) == 30.0
    assert type(nm.check_real("fps", np.float32(29.5), open_lo=True)) is float
    assert nm.check_real("prior", 0.0, hi=1.0) == 0.0
    assert nm.check_real("prior", 1.0, hi=1.0) == 1.0
    for value in (0, 0.0, -1.0, math.nan, math.inf, True, "30", None, 10 ** 400):
        with pytest.raises(nm.ValidationError, match="fps must be a finite positive number, got"):
            nm.check_real("fps", value, open_lo=True)
    for value in (-1e-9, 1.5, -math.inf, False):
        with pytest.raises(nm.ValidationError, match=r"prior must be a finite number in \[0, 1\], got"):
            nm.check_real("prior", value, hi=1.0)
    with pytest.raises(nm.ValidationError, match=r"decay must be a finite number in \[0, inf\), got nan"):
        nm.check_real("decay", math.nan)


# ---------------------------------------------------------------------------
# LSTM


def _scalar_lstm_reference(w, b, x, h_prev, c_prev):
    """Independent per-coordinate re-implementation of the gate equations."""
    hs = len(h_prev)
    xh = list(x) + list(h_prev)
    h_out, c_out = [], []
    for k in range(hs):
        zi = sum(w[k][j] * xh[j] for j in range(len(xh))) + b[k]
        zf = sum(w[hs + k][j] * xh[j] for j in range(len(xh))) + b[hs + k]
        zg = sum(w[2 * hs + k][j] * xh[j] for j in range(len(xh))) + b[2 * hs + k]
        zo = sum(w[3 * hs + k][j] * xh[j] for j in range(len(xh))) + b[3 * hs + k]
        i = 1.0 / (1.0 + math.exp(-zi))
        f = 1.0 / (1.0 + math.exp(-zf))
        g = math.tanh(zg)
        o = 1.0 / (1.0 + math.exp(-zo))
        c = f * c_prev[k] + i * g
        h_out.append(o * math.tanh(c))
        c_out.append(c)
    return np.array(h_out), np.array(c_out)


def lstm_step(w, b, x, h_prev, c_prev):
    """One LSTM step as the per-chunk stages run it: the packed weight on
    concat(x, h_prev) plus the bias, through ``nm.lstm_forward``."""
    bias = b.reshape(-1, *[1] * (np.ndim(x) - 1))
    h, c, _ = nm.lstm_forward(w @ np.concatenate([x, h_prev]) + bias, c_prev, len(h_prev))
    return h, c


def test_lstm_step_zero_everything():
    h, c = lstm_step(np.zeros((8, 5)), np.zeros(8), np.zeros(3), np.zeros(2), np.zeros(2))
    assert np.array_equal(h, np.zeros(2))
    assert np.array_equal(c, np.zeros(2))


def test_lstm_step_zero_params_ones_cell():
    h, c = lstm_step(np.zeros((8, 5)), np.zeros(8), np.zeros(3), np.zeros(2), np.ones(2))
    assert np.allclose(c, 0.5, atol=1e-15)
    assert np.allclose(h, 0.5 * math.tanh(0.5), atol=1e-15)


def test_lstm_step_matches_scalar_reference():
    rng = np.random.default_rng(7)
    for _ in range(5):
        din, hs = rng.integers(1, 5), rng.integers(1, 5)
        w = rng.normal(size=(4 * hs, din + hs))
        b = rng.normal(size=4 * hs)
        x = rng.normal(size=din)
        h0 = rng.normal(size=hs)
        c0 = rng.normal(size=hs)
        h, c = lstm_step(w, b, x, h0, c0)
        h_ref, c_ref = _scalar_lstm_reference(w, b, x, h0, c0)
        assert np.max(np.abs(h - h_ref)) < 1e-12
        assert np.max(np.abs(c - c_ref)) < 1e-12


def test_lstm_step_gates_equal_the_fused_kernel_gates(monkeypatch):
    # the per-chunk stages and the fused training kernel run one gate
    # function: a stage's decoder step equals lstm_forward bitwise, on a
    # vector and on a column batch, and the kernel calls it once per
    # decoder step and encoder step
    rng = np.random.default_rng(8)
    cfg = md.TrnConfig(appearance_dim=2, motion_dim=3, hidden_size=4, decoder_steps=3, num_actions=2)
    params = md.TrnParams.init(cfg, rng)
    w, b = params.arrays()["decoder.lstm.w"], params.arrays()["decoder.lstm.b"]
    for batch in ((), (5,)):
        x, h0, c0 = (rng.normal(size=(4, *batch)) for _ in range(3))
        hiddens, _, _ = md.decoder_rollout(params, nm.tensor(h0), nm.tensor(c0), nm.tensor(x), 1)
        h_ref, _ = lstm_step(w, b, x, h0, c0)
        assert np.array_equal(hiddens[0].data, h_ref)

    calls = []
    gates = nm.lstm_forward
    monkeypatch.setattr(nm, "lstm_forward", lambda *a: calls.append(1) or gates(*a))
    video = {"appearance": rng.normal(size=(2, 2)), "motion": rng.normal(size=(2, 3))}
    tr.sequence_loss(params, tr.TrainConfig(), [video], np.array([0, 1]))
    assert len(calls) == 2 * (3 + 1)


def test_lstm_params_init_forget_bias():
    # both LSTMs of a fresh model: forget gates at +1, the other biases at
    # 0, weights within 1/sqrt(fan-in)
    cfg = md.TrnConfig(appearance_dim=2, motion_dim=3, hidden_size=4, decoder_steps=2, num_actions=2)
    params = md.TrnParams.init(cfg, np.random.default_rng(0))
    p = params.arrays()
    for layer, fan_in in (("decoder.lstm", 8), ("encoder.lstm", 12)):
        w, b = p[f"{layer}.w"], p[f"{layer}.b"]
        assert np.array_equal(b[4:8], np.ones(4))
        assert np.array_equal(b[:4], np.zeros(4))
        assert np.array_equal(b[8:], np.zeros(8))
        assert np.max(np.abs(w)) <= 1.0 / math.sqrt(fan_in)


# ---------------------------------------------------------------------------
# softmax / the oracle's cross-entropy


def test_softmax_uniform():
    out = nm.softmax(nm.tensor([0.0, 0.0, 0.0])).data
    assert np.allclose(out, 1.0 / 3.0, atol=1e-15)


def test_softmax_large_values_no_overflow():
    out = nm.softmax(nm.tensor([1000.0, 0.0])).data
    assert np.all(np.isfinite(out))
    assert out[0] > 1.0 - 1e-12 and out[1] < 1e-12


def test_softmax_hand_arithmetic():
    out = nm.softmax(nm.tensor([1.0, 2.0])).data
    assert abs(out[0] - 0.2689414213699951) < 1e-12
    assert abs(out[1] - 0.7310585786300049) < 1e-12


def test_softmax_sums_and_shift_invariance():
    rng = np.random.default_rng(3)
    for _ in range(50):
        k = rng.integers(1, 12)
        z = rng.normal(scale=5.0, size=k)
        p = nm.softmax(nm.tensor(z)).data
        assert abs(p.sum() - 1.0) <= 1e-9
        shifted = nm.softmax(nm.tensor(z + rng.normal())).data
        assert np.max(np.abs(p - shifted)) <= 1e-12


def test_cross_entropy_one_hot_is_zero():
    assert clamped_nll(np.array([-1000.0, 0.0, -1000.0]), 1) == 0.0


def test_cross_entropy_uniform_four():
    for label in range(4):
        assert abs(clamped_nll(np.zeros(4), label) - math.log(4)) < 1e-12


def test_cross_entropy_hand_arithmetic():
    loss = clamped_nll(np.log([0.25, 0.75]), 1)
    assert abs(loss - 0.2876820724517809) < 1e-12


def test_cross_entropy_label_out_of_range():
    logits = np.zeros(2)
    with pytest.raises(nm.ValidationError):
        clamped_nll(logits, 2)
    with pytest.raises(nm.ValidationError):
        clamped_nll(logits, -1)


# ---------------------------------------------------------------------------
# gradients


def test_grad_check_flags_corrupted_gradient():
    # -log softmax(Wx + b)[0] in plain numpy, with its closed-form gradient:
    # g = softmax - onehot at the logits, then outer(g, x), g and W^T g
    rng = np.random.default_rng(5)
    w, b, x = rng.normal(size=(3, 3)), rng.normal(size=3), rng.normal(size=3)

    def loss():
        z = w @ x + b
        return float(np.log(np.exp(z).sum()) - z[0])

    g = nm.softmax_array(w @ x + b)
    g[0] -= 1.0
    grads = [np.outer(g, x), g, w.T @ g]
    clean = nm.grad_check(loss, grads, [w, b, x])
    grads[0][0, 0] += 0.1
    corrupted = nm.grad_check(loss, grads, [w, b, x])
    assert clean < 1e-4 < corrupted


def test_complex_step_of_the_oracle_head_is_its_closed_form_gradient():
    # d/dz -log softmax(z)[label] is softmax(z) - onehot; the imaginary part
    # of the head at z + 1e-30j e_j over 1e-30 gives it without a subtraction,
    # and a column below the clamp gives 0
    rng = np.random.default_rng(6)
    z = rng.normal(size=5)
    want = nm.softmax_array(z)
    want[3] -= 1.0
    got = [clamped_nll(z + 1e-30j * e, 3).imag / 1e-30 for e in np.eye(5)]
    assert np.max(np.abs(np.array(got) - want)) <= 1e-15
    clamped = np.array([-40.0, 0.0]) + 1e-30j * np.array([1.0, -1.0])
    assert clamped_nll(clamped, 0) == -math.log(nm.CE_CLAMP)


def test_grad_check_rejects_nonfinite_loss():
    with pytest.raises(FloatingPointError):
        nm.grad_check(lambda: np.inf, [np.zeros(1)], [np.array([1.0])])
