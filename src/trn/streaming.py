"""Streaming inference: one chunk in, one detection out.

The detector carries the encoder state between pushes and runs exactly
the same per-chunk code path as the batch forward, so pushing a sequence
chunk-by-chunk is bitwise identical to one whole-sequence call. Only the
chunk being pushed is ever read; nothing downstream of it exists yet as
far as the detector is concerned.

A push that raises (bad dims, non-finite activations) leaves the carried
state as it was: the state is committed only after the step succeeds. The
chunk is still lost to the stream, so the detector poisons itself and
refuses further pushes until reset(). This turns a silent gap mid-stream
into a loud error.
"""

from __future__ import annotations

import numpy as np

from . import model as md
from . import numeric as nm
from .model import ChunkStreams, DetectionOutput, TrnParams, TrnState
from .numeric import ValidationError


class PoisonedError(ValidationError):
    """The detector saw a failed push and must be reset before reuse."""


class OnlineDetector:
    def __init__(self, params: TrnParams):
        self.params = params
        self.config = params.config
        self.state = TrnState.zero(self.config.hidden_size)
        self.chunks_seen = 0
        self._poisoned = False

    @property
    def chunk_duration(self) -> float:
        """Seconds of video consumed per push."""
        return self.config.chunk_size / self.config.fps

    def horizon_seconds(self, step: int) -> float:
        """Wall-clock lookahead of decoder step `step` (1-based)."""
        if not (1 <= step <= self.config.decoder_steps):
            raise ValidationError(
                f"step must lie in [1, {self.config.decoder_steps}], got {step}"
            )
        return step * self.config.chunk_size / self.config.fps

    def reset(self) -> None:
        self.state = TrnState.zero(self.config.hidden_size)
        self.chunks_seen = 0
        self._poisoned = False

    def push_chunk(self, streams: ChunkStreams) -> DetectionOutput:
        """Advance one chunk; returns present + anticipated distributions."""
        if self._poisoned:
            raise PoisonedError("detector poisoned by an earlier failed push; call reset()")
        try:
            for name in self.config.streams:
                v = getattr(streams, name)
                if v is not None and np.asarray(v).ndim != 1:
                    raise ValidationError(
                        f"push_chunk takes single vectors, {name} has batch dims"
                    )
            with nm.no_grad():
                h, c = nm.tensor(self.state.h), nm.tensor(self.state.c)
                logits, dec_logits, dec_feats, h, c = md.chunk_step(
                    self.params, streams, h, c
                )
                out = md._detection_output(logits, dec_logits, dec_feats)
            self.state = TrnState(h.data.copy(), c.data.copy())
        except Exception:
            self._poisoned = True
            raise
        self.chunks_seen += 1
        return out
