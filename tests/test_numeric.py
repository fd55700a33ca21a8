import math
import re

import numpy as np
import pytest

from oracles import add, cross_entropy, parameter, scale, tape_grad_check, tape_grads
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


def test_linear_identity():
    w = parameter(np.eye(2))
    b = parameter(np.zeros(2))
    x = nm.tensor([3.0, -1.0])
    assert np.array_equal(nm.linear(w, b, x).data, [3.0, -1.0])


def test_linear_zero_weights():
    w = parameter(np.zeros((2, 3)))
    b = parameter([5.0, 5.0])
    x = nm.tensor([7.0, -2.0, 0.5])
    assert np.array_equal(nm.linear(w, b, x).data, [5.0, 5.0])


def test_linear_hand_arithmetic():
    w = parameter([[1.0, 2.0], [3.0, 4.0]])
    b = parameter([1.0, 0.0])
    x = nm.tensor([1.0, 1.0])
    assert np.allclose(nm.linear(w, b, x).data, [4.0, 7.0], atol=0)


def test_linear_dimension_mismatch_reports_both_shapes():
    w = parameter(np.zeros((2, 3)))
    b = parameter(np.zeros(2))
    x = nm.tensor(np.zeros(4))
    with pytest.raises(nm.DimensionError) as exc:
        nm.linear(w, b, x)
    assert "(2, 3)" in str(exc.value) and "(4,)" in str(exc.value)


def test_linear_additive_in_x():
    rng = np.random.default_rng(0)
    w = parameter(rng.normal(size=(4, 6)))
    b = parameter(rng.normal(size=4))
    zero = parameter(np.zeros(4))
    x1 = rng.normal(size=6)
    x2 = rng.normal(size=6)
    lhs = nm.linear(w, b, nm.tensor(x1 + x2)).data
    rhs = nm.linear(w, b, nm.tensor(x1)).data + nm.linear(w, zero, nm.tensor(x2)).data
    assert np.max(np.abs(lhs - rhs)) <= 1e-12


def test_linear_batch_matches_columns():
    rng = np.random.default_rng(1)
    w = parameter(rng.normal(size=(3, 5)))
    b = parameter(rng.normal(size=3))
    xb = rng.normal(size=(5, 4))
    out = nm.linear(w, b, nm.tensor(xb)).data
    for j in range(4):
        single = nm.linear(w, b, nm.tensor(xb[:, j])).data
        assert np.allclose(out[:, j], single, atol=1e-15)


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


def lstm_params(din, hs, rng=None):
    """(w, b) of a cell: zero, or with ``rng`` weights uniform in
    +-1/sqrt(din + hs) and the forget-gate biases at 1."""
    if rng is None:
        return parameter(np.zeros((4 * hs, din + hs))), parameter(np.zeros(4 * hs))
    bound = 1.0 / math.sqrt(din + hs)
    w = rng.uniform(-bound, bound, size=(4 * hs, din + hs))
    b = np.zeros(4 * hs)
    b[hs : 2 * hs] = 1.0
    return parameter(w), parameter(b)


def test_lstm_step_zero_everything():
    p = lstm_params(3, 2)
    h, c = nm.lstm_step(*p, nm.tensor(np.zeros(3)), nm.tensor(np.zeros(2)), nm.tensor(np.zeros(2)))
    assert np.array_equal(h.data, np.zeros(2))
    assert np.array_equal(c.data, np.zeros(2))


def test_lstm_step_zero_params_ones_cell():
    p = lstm_params(3, 2)
    h, c = nm.lstm_step(*p, nm.tensor(np.zeros(3)), nm.tensor(np.zeros(2)), nm.tensor(np.ones(2)))
    assert np.allclose(c.data, 0.5, atol=1e-15)
    assert np.allclose(h.data, 0.5 * math.tanh(0.5), atol=1e-15)


def test_lstm_step_matches_scalar_reference():
    rng = np.random.default_rng(7)
    for _ in range(5):
        din, hs = rng.integers(1, 5), rng.integers(1, 5)
        w = rng.normal(size=(4 * hs, din + hs))
        b = rng.normal(size=4 * hs)
        x = rng.normal(size=din)
        h0 = rng.normal(size=hs)
        c0 = rng.normal(size=hs)
        h, c = nm.lstm_step(
            parameter(w), parameter(b), nm.tensor(x), nm.tensor(h0), nm.tensor(c0)
        )
        h_ref, c_ref = _scalar_lstm_reference(w, b, x, h0, c0)
        assert np.max(np.abs(h.data - h_ref)) < 1e-12
        assert np.max(np.abs(c.data - c_ref)) < 1e-12


def test_lstm_step_gates_equal_the_fused_kernel_gates(monkeypatch):
    # the tape cell and the fused training kernel run one gate function:
    # lstm_step equals lstm_forward bitwise, and the kernel calls it once
    # per decoder step and encoder step
    rng = np.random.default_rng(8)
    w, b = lstm_params(3, 4, rng)
    for batch in ((), (5,)):
        x, h0, c0 = (rng.normal(size=(n, *batch)) for n in (3, 4, 4))
        h, c = nm.lstm_step(w, b, nm.tensor(x), nm.tensor(h0), nm.tensor(c0))
        bias = b.data.reshape(-1, *[1] * len(batch))
        z = w.data @ np.concatenate([x, h0]) + bias
        h_ref, c_ref, _ = nm.lstm_forward(z, c0, 4)
        assert np.array_equal(h.data, h_ref) and np.array_equal(c.data, c_ref)

    calls = []
    gates = nm.lstm_forward
    monkeypatch.setattr(nm, "lstm_forward", lambda *a: calls.append(1) or gates(*a))
    cfg = md.TrnConfig(appearance_dim=2, motion_dim=3, hidden_size=4, decoder_steps=3, num_actions=2)
    params = md.TrnParams.init(cfg, rng)
    video = {"appearance": rng.normal(size=(2, 2)), "motion": rng.normal(size=(2, 3))}
    tr.sequence_loss(params, tr.TrainConfig(), [video], np.array([0, 1]))
    assert len(calls) == 2 * (3 + 1)


def test_lstm_step_dimension_mismatch():
    p = lstm_params(3, 2)
    with pytest.raises(nm.DimensionError):
        nm.lstm_step(*p, nm.tensor(np.zeros(4)), nm.tensor(np.zeros(2)), nm.tensor(np.zeros(2)))
    with pytest.raises(nm.DimensionError):
        nm.lstm_step(*p, nm.tensor(np.zeros(3)), nm.tensor(np.zeros(1)), nm.tensor(np.zeros(2)))
    with pytest.raises(nm.DimensionError):
        nm.lstm_step(*p, nm.tensor(np.zeros(3)), nm.tensor(np.zeros(2)), nm.tensor(np.zeros(3)))


def test_lstm_params_init_forget_bias():
    # both LSTMs of a fresh model: forget gates at +1, the other biases at
    # 0, weights within 1/sqrt(fan-in)
    cfg = md.TrnConfig(appearance_dim=2, motion_dim=3, hidden_size=4, decoder_steps=2, num_actions=2)
    params = md.TrnParams.init(cfg, np.random.default_rng(0))
    t = params.named()
    for layer, fan_in in (("decoder.lstm", 8), ("encoder.lstm", 12)):
        w, b = t[f"{layer}.w"].data, t[f"{layer}.b"].data
        assert np.array_equal(b[4:8], np.ones(4))
        assert np.array_equal(b[:4], np.zeros(4))
        assert np.array_equal(b[8:], np.zeros(8))
        assert np.max(np.abs(w)) <= 1.0 / math.sqrt(fan_in)


# ---------------------------------------------------------------------------
# softmax / cross-entropy


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
    p = nm.tensor([0.0, 1.0, 0.0])
    assert cross_entropy(p, 1).item() == 0.0


def test_cross_entropy_uniform_four():
    p = nm.tensor([0.25] * 4)
    for label in range(4):
        assert abs(cross_entropy(p, label).item() - math.log(4)) < 1e-12


def test_cross_entropy_hand_arithmetic():
    loss = cross_entropy(nm.tensor([0.25, 0.75]), 1).item()
    assert abs(loss - 0.2876820724517809) < 1e-12


def test_cross_entropy_label_out_of_range():
    p = nm.tensor([0.5, 0.5])
    with pytest.raises(nm.ValidationError):
        cross_entropy(p, 2)
    with pytest.raises(nm.ValidationError):
        cross_entropy(p, -1)


# ---------------------------------------------------------------------------
# gradients


def test_backward_known_analytic_gradient():
    # loss = -log softmax(Wx + b)[label]; gradient wrt preactivation is
    # (p - onehot), so with W = I, b = 0 the x gradient equals p - onehot.
    w = parameter(np.eye(3))
    b = parameter(np.zeros(3))
    x = parameter([0.2, -0.4, 1.1])
    loss = cross_entropy(nm.softmax(nm.linear(w, b, x)), 2)
    loss.backward()
    p = np.exp(x.data) / np.exp(x.data).sum()
    expected = p.copy()
    expected[2] -= 1.0
    assert np.max(np.abs(x.grad - expected)) < 1e-12


def test_per_op_gradients_match_finite_differences():
    rng = np.random.default_rng(11)

    def check(make_loss, params, tol=1e-4):
        err = tape_grad_check(make_loss, params, h=1e-5)
        assert err < tol, err

    for _ in range(6):
        m, n = rng.integers(2, 6), rng.integers(2, 6)
        w = parameter(rng.normal(size=(m, n)))
        b = parameter(rng.normal(size=m))
        x = parameter(rng.normal(size=n))
        labels = int(rng.integers(0, m))

        check(lambda: cross_entropy(nm.softmax(nm.linear(w, b, x)), labels), [w, b, x])
        check(lambda: cross_entropy(nm.softmax(nm.relu(nm.linear(w, b, x))), labels), [w, b, x])

    # concat + mean_stack + add + scale through a scalar head
    a = parameter(rng.normal(size=3))
    c = parameter(rng.normal(size=2))
    w2 = parameter(rng.normal(size=(3, 5)))
    b2 = parameter(rng.normal(size=3))

    def composite():
        joined = nm.concat([a, c])
        lifted = nm.linear(w2, b2, joined)
        avg = nm.mean_stack([lifted, nm.relu(lifted), scale(lifted, -0.5)])
        p = nm.softmax(avg)
        return add(scale(cross_entropy(p, 0), 0.25), cross_entropy(p, 2))

    check(composite, [a, c, w2, b2])


def test_lstm_step_gradient_matches_finite_differences():
    rng = np.random.default_rng(21)
    din, hs = 3, 4
    w = parameter(rng.normal(size=(4 * hs, din + hs)))
    b = parameter(rng.normal(size=4 * hs))
    x = parameter(rng.normal(size=din))
    h0 = parameter(rng.normal(size=hs))
    c0 = parameter(rng.normal(size=hs))
    wcls = parameter(rng.normal(size=(3, hs)))
    bcls = parameter(rng.normal(size=3))

    def loss():
        # route both h and c into the scalar so both outputs get checked
        h, c = nm.lstm_step(w, b, x, h0, c0)
        ph = cross_entropy(nm.softmax(nm.linear(wcls, bcls, h)), 1)
        pc = cross_entropy(nm.softmax(nm.linear(wcls, bcls, c)), 2)
        return add(ph, pc)

    err = tape_grad_check(loss, [w, b, x, h0, c0, wcls, bcls], h=1e-5)
    assert err < 1e-4


def test_grad_check_flags_corrupted_gradient():
    rng = np.random.default_rng(5)
    w = parameter(rng.normal(size=(3, 3)))
    b = parameter(rng.normal(size=3))
    x = parameter(rng.normal(size=3))

    def loss():
        return cross_entropy(nm.softmax(nm.linear(w, b, x)), 0)

    _, grads = tape_grads(loss, [w, b, x])
    arrays = [w.data, b.data, x.data]
    clean = nm.grad_check(lambda: loss().item(), grads, arrays)
    grads[0][0, 0] += 0.1
    corrupted = nm.grad_check(lambda: loss().item(), grads, arrays)
    assert clean < 1e-4 < corrupted


def test_grad_check_rejects_nonfinite_loss():
    with pytest.raises(FloatingPointError):
        nm.grad_check(lambda: np.inf, [np.zeros(1)], [np.array([1.0])])


def test_bptt_gradients_accumulate_across_steps():
    # two steps reusing the same cell: parameter grads must be the sum of
    # per-step contributions, which finite differences verify implicitly
    rng = np.random.default_rng(9)
    w = parameter(rng.normal(size=(8, 4)))
    b = parameter(rng.normal(size=8))
    xs = [parameter(rng.normal(size=2)) for _ in range(3)]
    wcls = parameter(rng.normal(size=(2, 2)))
    bcls = parameter(rng.normal(size=2))

    def loss():
        h = nm.tensor(np.zeros(2))
        c = nm.tensor(np.zeros(2))
        for x in xs:
            h, c = nm.lstm_step(w, b, x, h, c)
        return cross_entropy(nm.softmax(nm.linear(wcls, bcls, h)), 1)

    err = tape_grad_check(loss, [w, b, wcls, bcls] + xs)
    assert err < 1e-4


def test_no_grad_blocks_graph():
    w = parameter(np.eye(2))
    b = parameter(np.zeros(2))
    with nm.no_grad():
        y = nm.linear(w, b, nm.tensor([1.0, 2.0]))
    assert y._backward is None and not y.requires_grad
