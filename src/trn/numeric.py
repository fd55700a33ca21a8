"""Dense forward ops on vectors/matrices, the LSTM gates, a gradient audit.

Everything here operates on plain numpy arrays wrapped in :class:`Tensor`
values. A tensor is either a 1-d vector or a 2-d matrix; for activations the
second axis, when present, is a batch of column samples, so ``linear`` maps
``(n,) -> (m,)`` and ``(n, B) -> (m, B)`` with the same weights. The tape
runs in float64.

Ops never mutate their inputs and record no graph: the tape is the
op-by-op forward reference the fused kernel is tested against, and it
computes no gradient. The training loss derives its own (hand-written
BPTT); the tests check it against complex-step derivatives of the kernel
and central differences (:func:`grad_check`). Ops take their weights as
plain tensors (the LSTM step its packed weight and bias), so the model
keeps every parameter under its own name.
"""

from __future__ import annotations

import math
import numbers
from contextlib import nullcontext
from typing import Callable, Sequence

import numpy as np


class ValidationError(ValueError):
    """A configuration or argument value violates a documented contract."""


class DimensionError(ValidationError):
    """Operands have incompatible shapes."""


def check_int(name: str, value, lo: int = 1, hi: int | None = None):
    """``value`` if it is an integer in [lo, hi] (a numpy integer is one, a
    bool is not); anything else is a ValidationError naming the field."""
    if not (isinstance(value, (int, np.integer)) and not isinstance(value, bool)
            and lo <= value and (hi is None or value <= hi)):
        bound = f">= {lo}" if hi is None else f"in [{lo}, {hi}]"
        raise ValidationError(f"{name} must be an integer {bound}, got {value!r}")
    return value


def check_real(name: str, value, lo: float = 0.0, hi: float = math.inf, *,
               open_lo: bool = False) -> float:
    """``value`` as a float if it is a finite real in [lo, hi], or in (lo, hi]
    with ``open_lo`` (a bool is not one); anything else is a ValidationError
    naming the field."""
    real = isinstance(value, numbers.Real) and not isinstance(value, bool)
    try:
        x = float(value) if real else math.nan
    except OverflowError:  # an int past the float range
        x = math.inf
    if not (math.isfinite(x) and (lo < x if open_lo else lo <= x) and x <= hi):
        if (lo, hi, open_lo) == (0, math.inf, True):
            what = "positive number"
        else:
            left, right = "(" if open_lo else "[", "]" if hi < math.inf else ")"
            what = f"number in {left}{lo:g}, {hi:g}{right}"
        raise ValidationError(f"{name} must be a finite {what}, got {value!r}")
    return x


# the tape records no graph, so its forward needs nothing switched off; kept
# as the context manager the benchmark harness enters
no_grad = nullcontext


class Tensor:
    """A vector or matrix value of the tape: ``data`` is a float64 array."""

    __slots__ = ("data",)

    def __init__(self, data):
        arr = np.asarray(data, dtype=np.float64)
        if arr.ndim not in (1, 2):
            raise DimensionError(
                f"tensors are vectors or matrices, got ndim={arr.ndim}"
            )
        self.data = arr

    @property
    def shape(self):
        return self.data.shape

    def __repr__(self):
        return f"Tensor(shape={self.data.shape})"


def tensor(data) -> Tensor:
    """Leaf tensor treated as constant input."""
    return Tensor(data)


# ---------------------------------------------------------------------------
# elementary ops


def linear(w: Tensor, b: Tensor, x: Tensor) -> Tensor:
    """y = W @ x + b for a vector or column-batch x."""
    if w.data.ndim != 2 or b.data.ndim != 1 or w.data.shape[0] != b.data.shape[0]:
        raise DimensionError(
            f"linear: weight {w.data.shape} incompatible with bias {b.data.shape}"
        )
    if x.data.shape[0] != w.data.shape[1]:
        raise DimensionError(
            f"linear: weight {w.data.shape} cannot act on input {x.data.shape}"
        )
    if x.data.ndim == 1:
        return Tensor(w.data @ x.data + b.data)
    return Tensor(w.data @ x.data + b.data[:, None])


def relu(x: Tensor) -> Tensor:
    return Tensor(np.maximum(x.data, 0.0))


def concat(parts: Sequence[Tensor]) -> Tensor:
    """Concatenate along the feature axis (axis 0)."""
    if not parts:
        raise DimensionError("concat: empty input list")
    ndims = {p.data.ndim for p in parts}
    if len(ndims) != 1:
        raise DimensionError("concat: mixed vector/matrix operands")
    if parts[0].data.ndim == 2:
        widths = {p.data.shape[1] for p in parts}
        if len(widths) != 1:
            raise DimensionError("concat: batch widths differ")
    return Tensor(np.concatenate([p.data for p in parts], axis=0))


def mean_stack(parts: Sequence[Tensor]) -> Tensor:
    """Elementwise mean of same-shape tensors."""
    if not parts:
        raise DimensionError("mean_stack: empty input list")
    shape = parts[0].data.shape
    for p in parts:
        if p.data.shape != shape:
            raise DimensionError(
                f"mean_stack: shape {p.data.shape} differs from {shape}"
            )
    acc = parts[0].data.copy()
    for p in parts[1:]:
        acc += p.data
    return Tensor(acc / len(parts))


def softmax_array(z: np.ndarray) -> np.ndarray:
    """Column-wise probability distribution of a vector or matrix,
    max-subtracted for stability."""
    e = np.exp(z - z.max(axis=0, keepdims=z.ndim == 2))
    return e / e.sum(axis=0, keepdims=z.ndim == 2)


def softmax(z: Tensor) -> Tensor:
    """:func:`softmax_array` as a tape op."""
    if z.data.shape[0] < 1:
        raise DimensionError("softmax: empty input")
    return Tensor(softmax_array(z.data))


# the loss heads clamp the picked probability at this value before the
# log; a column below it carries no gradient
CE_CLAMP = 1e-12


# ---------------------------------------------------------------------------
# LSTM cell


def lstm_forward(z, c_prev, hs: int, a=None, c=None, tc=None, h=None):
    """Gates [i, f, g, o] from pre-activations z; returns (h, c, trace).

    One sigmoid runs over all of z and tanh then overwrites the g block.
    The trace holds the gate activations (g in its tanh form), c_prev and
    tanh(c), which a backward pass needs. Given, ``a`` (z's shape) and
    ``c``, ``tc``, ``h`` (c_prev's; ``c`` may be ``c_prev``) receive the
    gates, c, tanh(c) and h in place. Both the tape's :func:`lstm_step` and
    the fused kernel run their gates through here.
    """
    if a is None:
        a, c, tc, h = (np.empty_like(v) for v in (z, c_prev, c_prev, c_prev))
    np.exp(np.negative(z, a), a)
    np.divide(1.0, np.add(a, 1.0, a), a)
    np.tanh(z[2 * hs : 3 * hs], a[2 * hs : 3 * hs])
    np.multiply(a[hs : 2 * hs], c_prev, c)
    c += a[:hs] * a[2 * hs : 3 * hs]
    np.multiply(a[3 * hs :], np.tanh(c, tc), h)
    return h, c, (a, c_prev, tc)


def lstm_step(w: Tensor, b: Tensor, x: Tensor, h_prev: Tensor, c_prev: Tensor):
    """One LSTM step: returns (h, c).

    ``w`` is (4H, D+H) acting on concat(x, h_prev) and ``b`` is (4H,),
    their rows the four gates [i, f, g, o]; H comes from ``b`` and D from
    ``w``. i, f, o = sigmoid of their pre-activations, g = tanh, then
    c = f*c_prev + i*g and h = o*tanh(c).
    """
    hs = b.data.shape[0] // 4
    input_dim = w.data.shape[1] - hs
    if x.data.shape[0] != input_dim:
        raise DimensionError(
            f"lstm_step: input {x.data.shape} but cell expects dim {input_dim}"
        )
    for name, t in (("h_prev", h_prev), ("c_prev", c_prev)):
        if t.data.shape[0] != hs:
            raise DimensionError(
                f"lstm_step: {name} {t.data.shape} but hidden size is {hs}"
            )
    z = linear(w, b, concat([x, h_prev]))
    h, c, _ = lstm_forward(z.data, c_prev.data, hs)
    return Tensor(h), Tensor(c)


# ---------------------------------------------------------------------------
# gradient checking


def grad_check(
    f: Callable[[], float],
    analytic: Sequence[np.ndarray],
    arrays: Sequence[np.ndarray],
    h: float = 1e-5,
) -> float:
    """Compare ``analytic``, one gradient per array, against central
    differences of the scalar ``f()`` over every coordinate of ``arrays``.

    Each coordinate is perturbed in place and restored; ``f`` runs forward
    only, twice per coordinate. Returns the max over coordinates of
    |analytic - numeric| / max(1, |analytic|, |numeric|).
    """
    worst = 0.0
    for arr, a in zip(arrays, analytic, strict=True):
        if np.shape(a) != arr.shape:
            raise DimensionError(f"grad_check: gradient {np.shape(a)} for array {arr.shape}")
        flat = arr.reshape(-1)
        aflat = np.reshape(a, -1)
        for j in range(flat.size):
            saved = flat[j]
            flat[j] = saved + h
            up = float(f())
            flat[j] = saved - h
            down = float(f())
            flat[j] = saved
            if not (math.isfinite(up) and math.isfinite(down)):
                raise FloatingPointError("grad_check: loss is not finite")
            numeric = (up - down) / (2.0 * h)
            denom = max(1.0, abs(aflat[j]), abs(numeric))
            worst = max(worst, abs(aflat[j] - numeric) / denom)
    return worst
