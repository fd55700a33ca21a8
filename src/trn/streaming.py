"""Streaming inference: one chunk in, one detection out.

The detector carries the encoder state between pushes. Each push runs
``model.detect_chunk``, the one-chunk window-kernel step that
``trn_forward`` and one-video ``forward_videos`` groups run too, so
pushing a sequence chunk-by-chunk is bitwise identical to one
whole-sequence call. Only the chunk being pushed is ever read; nothing
downstream of it exists yet as far as the detector is concerned.

A push that raises (a missing stream, bad dims, a non-finite feature)
leaves the carried state as it was: the state is committed only after
the step succeeds. The chunk is still lost to the stream, so the detector
poisons itself and refuses further pushes until reset(). This turns a
silent gap mid-stream into a loud error.
"""

from __future__ import annotations

from . import model as md
from .model import ChunkStreams, DetectionOutput, TrnParams, TrnState
from .numeric import ValidationError, check_int


class PoisonedError(ValidationError):
    """The detector saw a failed push and must be reset before reuse."""


class OnlineDetector:
    def __init__(self, params: TrnParams):
        self.params = params
        self.config = params.config
        self.state = TrnState.zero(self.config.hidden_size)
        self.chunks_seen = 0
        self._poisoned = False

    def horizon_seconds(self, step: int) -> float:
        """Wall-clock lookahead of decoder step `step` (1-based)."""
        check_int("step", step, 1, self.config.decoder_steps)
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
            out, h, c = md.detect_chunk(self.params, streams, self.state.h, self.state.c)
        except Exception:
            self._poisoned = True
            raise
        self.state = TrnState(h, c)
        self.chunks_seen += 1
        return out
