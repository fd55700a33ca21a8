"""Spans around calls into trn, recorded from the benchmark's side.

The tracer replaces module attributes (``trn.training.adam_step``,
``trn.numeric.Tensor.backward``, ...) with wrappers that time each call.
Callers inside trn look these names up at call time, so their calls are
timed too. Nothing under ``src/`` changes. A target that no longer
exists is listed in ``missing`` and its metrics read 0.

A span's self time is its duration minus the time its child spans cover.
Wrappers stay installed for the whole run; ``on`` decides whether a call
is timed, so traced and untraced calls can alternate in one process.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.on = False
        self.count: dict[str, int] = {}
        self.total: dict[str, float] = {}
        self.self_time: dict[str, float] = {}
        self.samples: dict[str, list[float]] = {}
        self.missing: list[str] = []
        self._child: list[float] = []  # time covered by children, per open span
        self._open: list[str] = []
        self._patched: list[tuple[object, str, object]] = []

    def is_open(self, name: str) -> bool:
        return name in self._open

    @contextmanager
    def span(self, name: str, keep_samples: bool = False):
        self._open.append(name)
        self._child.append(0.0)
        start = time.perf_counter()
        try:
            yield
        finally:
            took = time.perf_counter() - start
            self._open.pop()
            child = self._child.pop()
            if self._child:
                self._child[-1] += took
            self.count[name] = self.count.get(name, 0) + 1
            self.total[name] = self.total.get(name, 0.0) + took
            self.self_time[name] = self.self_time.get(name, 0.0) + took - child
            if keep_samples:
                self.samples.setdefault(name, []).append(took)

    def wrap(self, owner, attr: str, name: str, keep_samples=False, before=None, after=None):
        """Time calls to ``owner.attr`` as span ``name`` while ``on``.

        ``before(args, kwargs)`` runs ahead of the span and ``after(result,
        args, kwargs)`` after it; both run only while tracing.
        """
        original = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
        if original is None:
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if not tracer.on:
                return original(*args, **kwargs)
            if before is not None:
                before(args, kwargs)
            with tracer.span(name, keep_samples):
                result = original(*args, **kwargs)
            if after is not None:
                after(result, args, kwargs)
            return result

        setattr(owner, attr, traced)
        self._patched.append((owner, attr, original))

    def replace(self, owner, attr: str, new) -> None:
        """Install ``new`` as ``owner.attr`` until ``restore``."""
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()
