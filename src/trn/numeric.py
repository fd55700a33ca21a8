"""Errors and value checks, the LSTM gates, softmax, a gradient audit.

Everything here runs on plain numpy arrays. :func:`lstm_forward` is the
one gate function: the fused window kernel and the model's per-chunk
stages (``model.chunk_step``, the test oracle) both run their LSTM steps
through it. :class:`Tensor` is a bare float64 vector or matrix that those
stages take and return, and :func:`softmax` the head over one; they stay
because the benchmark harness calls the stages and reads ``.data``. No
production path builds a Tensor.

The training loss derives its own gradient (hand-written BPTT); the
tests check it against complex-step derivatives of the kernel and
central differences (:func:`grad_check`).
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


# nothing here records a graph, so nothing needs switching off; kept as the
# context manager the benchmark harness enters
no_grad = nullcontext


class Tensor:
    """A vector or matrix value of the per-chunk stages: ``data`` is a float64 array."""

    __slots__ = ("data",)

    def __init__(self, data):
        arr = np.asarray(data, dtype=np.float64)
        if arr.ndim not in (1, 2):
            raise DimensionError(
                f"tensors are vectors or matrices, got ndim={arr.ndim}"
            )
        self.data = arr


def tensor(data) -> Tensor:
    """Leaf tensor treated as constant input."""
    return Tensor(data)


def softmax_array(z: np.ndarray) -> np.ndarray:
    """Column-wise probability distribution of a vector or matrix,
    max-subtracted for stability."""
    e = np.exp(z - z.max(axis=0, keepdims=z.ndim == 2))
    return e / e.sum(axis=0, keepdims=z.ndim == 2)


def softmax(z: Tensor) -> Tensor:
    """:func:`softmax_array` of a :class:`Tensor`."""
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
    gates, c, tanh(c) and h in place. Both the per-chunk stages and the
    fused kernel run their gates through here.
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
