"""Dense autograd kernel: vectors/matrices, reverse-mode gradients, LSTM cell.

Everything here operates on plain numpy arrays wrapped in :class:`Tensor`
nodes. A tensor is either a 1-d vector or a 2-d matrix; for activations the
second axis, when present, is a batch of column samples, so ``linear`` maps
``(n,) -> (m,)`` and ``(n, B) -> (m, B)`` with the same weights. Training and
gradient checking run in float64.

Ops never mutate their inputs. Gradients accumulate additively into ``.grad``
buffers when ``backward()`` is called on a scalar result, which is what makes
backpropagation through time come out as a sum over steps. The tape is the
op-by-op reference the fused kernels are tested against; the training loss
computes its own gradients without it. Ops take their weights as plain
tensors (the LSTM step its packed weight and bias), so the model keeps
every parameter under its own name.
"""

from __future__ import annotations

import math
import numbers
from contextlib import contextmanager
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


_GRAD_ENABLED = True


@contextmanager
def no_grad():
    """Disable graph construction inside the block (pure forward math)."""
    global _GRAD_ENABLED
    saved = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = saved


class Tensor:
    """A vector or matrix node in the computation graph.

    ``data`` is the value, ``grad`` the accumulated gradient buffer (same
    shape, allocated lazily during backward). Leaf tensors created from raw
    arrays have no parents; parameter leaves set ``requires_grad``.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=np.float64)
        if arr.ndim not in (1, 2):
            raise DimensionError(
                f"tensors are vectors or matrices, got ndim={arr.ndim}"
            )
        self.data = arr
        self.grad = None
        self.requires_grad = requires_grad
        self._parents: tuple = ()
        self._backward: Callable | None = None

    @property
    def shape(self):
        return self.data.shape

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    def item(self) -> float:
        if self.data.size != 1:
            raise DimensionError(f"item() on non-scalar shape {self.data.shape}")
        return float(self.data.reshape(-1)[0])

    def zero_grad(self) -> None:
        self.grad = None

    def backward(self) -> None:
        """Reverse-mode sweep from a scalar result."""
        if self.data.size != 1:
            raise DimensionError(
                f"backward() requires a scalar, got shape {self.data.shape}"
            )
        order = _toposort(self)
        self.grad = np.ones_like(self.data)
        for node in order:
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)


def tensor(data) -> Tensor:
    """Leaf tensor treated as constant input."""
    return Tensor(data)


def _toposort(root: Tensor) -> list[Tensor]:
    # Iterative DFS: sequence graphs get thousands of nodes deep, recursion
    # would overflow.
    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in seen and p._backward is not None:
                stack.append((p, False))
    order.reverse()
    return order


def _wants_grad(t: Tensor) -> bool:
    return t.requires_grad or t._backward is not None


def _accum(t: Tensor, g: np.ndarray) -> None:
    # Copy on first write: g may be a view or an array shared between
    # closures, and the buffer is mutated by later += accumulations.
    if t.grad is None:
        t.grad = np.array(g)
    else:
        t.grad += g


def _result(data: np.ndarray, parents: tuple, backward) -> Tensor:
    out = Tensor(data)
    if _GRAD_ENABLED and any(_wants_grad(p) for p in parents):
        out.requires_grad = True
        out._parents = parents
        out._backward = backward
    return out


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
        y = w.data @ x.data + b.data
    else:
        y = w.data @ x.data + b.data[:, None]

    def backward(g):
        if _wants_grad(w):
            if x.data.ndim == 1:
                _accum(w, np.outer(g, x.data))
            else:
                _accum(w, g @ x.data.T)
        if _wants_grad(b):
            _accum(b, g if g.ndim == 1 else g.sum(axis=1))
        if _wants_grad(x):
            _accum(x, w.data.T @ g)

    return _result(y, (w, b, x), backward)


def relu(x: Tensor) -> Tensor:
    y = np.maximum(x.data, 0.0)

    def backward(g):
        if _wants_grad(x):
            _accum(x, g * (x.data > 0.0))

    return _result(y, (x,), backward)


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
    y = np.concatenate([p.data for p in parts], axis=0)
    sizes = [p.data.shape[0] for p in parts]

    def backward(g):
        off = 0
        for p, n in zip(parts, sizes):
            if _wants_grad(p):
                _accum(p, g[off : off + n])
            off += n

    return _result(y, tuple(parts), backward)


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
    k = len(parts)
    acc = parts[0].data.copy()
    for p in parts[1:]:
        acc += p.data
    y = acc / k

    def backward(g):
        gk = g / k
        for p in parts:
            if _wants_grad(p):
                _accum(p, gk)

    return _result(y, tuple(parts), backward)


def softmax_array(z: np.ndarray) -> np.ndarray:
    """Column-wise probability distribution of a vector or matrix,
    max-subtracted for stability."""
    e = np.exp(z - z.max(axis=0, keepdims=z.ndim == 2))
    return e / e.sum(axis=0, keepdims=z.ndim == 2)


def softmax(z: Tensor) -> Tensor:
    """:func:`softmax_array` as a tape op."""
    if z.data.shape[0] < 1:
        raise DimensionError("softmax: empty input")
    zd = z.data
    y = softmax_array(zd)

    def backward(g):
        if _wants_grad(z):
            dot = (g * y).sum(axis=0, keepdims=zd.ndim == 2)
            _accum(z, y * (g - dot))

    return _result(y, (z,), backward)


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
    c = f*c_prev + i*g and h = o*tanh(c). The backward closures are
    written out here rather than shared with the fused training kernel,
    so the tape stays an independent reference for that kernel.
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
    h_data, c_data, (a, _, tc) = lstm_forward(z.data, c_prev.data, hs)
    i, f, g, o = a[0:hs], a[hs : 2 * hs], a[2 * hs : 3 * hs], a[3 * hs :]

    def cell_backward(dc):
        if _wants_grad(z):
            gz = np.zeros_like(z.data)
            gz[0:hs] = dc * g * i * (1.0 - i)
            gz[hs : 2 * hs] = dc * c_prev.data * f * (1.0 - f)
            gz[2 * hs : 3 * hs] = dc * i * (1.0 - g * g)
            _accum(z, gz)
        if _wants_grad(c_prev):
            _accum(c_prev, dc * f)

    c = _result(c_data, (z, c_prev), cell_backward)

    def out_backward(dh):
        if _wants_grad(z):
            gz = np.zeros_like(z.data)
            gz[3 * hs : 4 * hs] = dh * tc * o * (1.0 - o)
            _accum(z, gz)
        if _wants_grad(c):
            _accum(c, dh * o * (1.0 - tc * tc))

    return _result(h_data, (z, c), out_backward), c


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
    with no_grad():
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
