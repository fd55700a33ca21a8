"""Recurrent cell for online action detection with future anticipation.

Per chunk the cell runs four stages:

  1. fuse        - combine the available feature streams into one vector
                   (two-stream variants pass through a ReLU linear layer)
  2. embed       - project the fused vector to the hidden width, ReLU
  3. rollout     - an autoregressive LSTM decoder, seeded from the current
                   encoder state, emits `decoder_steps` future predictions:
                   per step a hidden state, class logits, and a predicted
                   feature in embedding space that feeds the next step
  4. encode      - the decoder hiddens are averaged into a future-context
                   vector; an encoder LSTM consumes concat(embedded input,
                   future context) and a classifier head emits the
                   present-chunk logits

`window_forward` runs the cell over a block of chunks at once (columns
of a matrix are independent sequences): every product off the recurrence
is hoisted out of the time loop, and each step in it is one GEMM of an
LSTM weight as stored on the stacked (input; h) operand the step before
wrote. The training loss runs it, and
so does every inference path through one step, `detect_block`: streaming
and `trn_forward` as one-chunk blocks, `forward_blocks` as blocks of many
videos. Every input, a pushed chunk too, enters through `check_streams`
(names, dims, lengths) and `stack_block` (layout, float64 widening, the
finiteness check), and `detect_block` splits its one softmax by head.
`chunk_step` runs the same stages one chunk at a time on plain arrays,
each stage taking and returning `numeric.Tensor` values; it is the test
oracle that the window kernel is pinned to, and no inference path calls
it.

The parameters are one table of plain arrays, `TrnParams`, keyed and
ordered by `param_shapes` ("embed.w", "decoder.lstm.b", ...). The kernel,
the training BPTT, Adam and checkpoints all read a weight under that one
name; `TrnParams.named` is a `Tensor` view of the same arrays, which
only the benchmark harness reads.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, fields

import numpy as np

from . import numeric as nm
from .numeric import DimensionError, Tensor, ValidationError, check_int, check_real


class FusionVariant(enum.Enum):
    ONE_STREAM = "one_stream"
    TWO_STREAM = "two_stream"
    FUSED_TWO_STREAM = "fused_two_stream"


@dataclass(frozen=True)
class ChunkStreams:
    """Feature vectors for one chunk; absent streams stay None.

    Arrays may be (D,) for a single sequence or (D, B) column batches.
    """

    appearance: np.ndarray | None = None
    motion: np.ndarray | None = None
    pose: np.ndarray | None = None


STREAM_NAMES = tuple(f.name for f in fields(ChunkStreams))

# streams each multi-stream variant consumes, in fusion (concatenation)
# order; ONE_STREAM consumes whichever single stream has a dim set
_VARIANT_STREAMS = {
    FusionVariant.TWO_STREAM: ("appearance", "motion"),
    FusionVariant.FUSED_TWO_STREAM: ("appearance", "pose", "motion"),
}


@dataclass(frozen=True)
class TrnConfig:
    """Architecture hyperparameters. Immutable; validated on construction."""

    fusion_variant: FusionVariant = FusionVariant.TWO_STREAM
    appearance_dim: int | None = None
    motion_dim: int | None = None
    pose_dim: int | None = 134
    hidden_size: int = 512
    decoder_steps: int = 8
    num_actions: int = 20
    seq_len: int = 64
    chunk_size: int = 6
    fps: float = 30.0

    def __post_init__(self):
        for name in ("hidden_size", "decoder_steps", "num_actions", "chunk_size", "seq_len"):
            check_int(name, getattr(self, name))
        # an integer fps (older checkpoints store one) is kept as a float, so
        # every checkpoint and dump header carries the same type
        object.__setattr__(self, "fps", check_real("fps", self.fps, open_lo=True))
        if self.fusion_variant is FusionVariant.ONE_STREAM and len(self.streams) != 1:
            raise ValidationError(
                f"one_stream requires exactly one stream dim, got {list(self.streams) or 'none'}"
            )
        for name in self.streams:
            check_int(f"{self.fusion_variant.value} {name}_dim", getattr(self, f"{name}_dim"))

    @staticmethod
    def for_streams(
        variant: FusionVariant, dims: dict[str, int], one_stream: str = "appearance", **kw
    ) -> "TrnConfig":
        """The config of ``variant`` over streams of the given dims.

        ``one_stream`` names the stream the ONE_STREAM variant consumes.
        Streams the variant does not consume get no dim; a consumed stream
        missing from ``dims`` is a ValidationError.
        """
        wanted = (one_stream,) if variant is FusionVariant.ONE_STREAM else _VARIANT_STREAMS[variant]
        missing = sorted(set(wanted) - set(dims))
        if missing:
            raise ValidationError(f"{variant.value} needs streams {list(wanted)}, input lacks {missing}")
        stream_dims = {f"{n}_dim": dims[n] if n in wanted else None for n in STREAM_NAMES}
        return TrnConfig(fusion_variant=variant, **stream_dims, **kw)

    @property
    def streams(self) -> tuple[str, ...]:
        """The streams the variant consumes, in fusion (concatenation) order."""
        if self.fusion_variant is FusionVariant.ONE_STREAM:
            return tuple(n for n in STREAM_NAMES if getattr(self, f"{n}_dim") is not None)
        return _VARIANT_STREAMS[self.fusion_variant]

    @property
    def classes(self) -> int:
        """Label count: the action classes plus background at index 0."""
        return self.num_actions + 1

    def concat_dim(self) -> int:
        """Width of the stream concatenation entering the fusion layer."""
        return sum(getattr(self, f"{n}_dim") for n in self.streams)

    @property
    def has_fusion_layer(self) -> bool:
        """One-stream skips the fusion layer and embeds the raw features."""
        return self.fusion_variant is not FusionVariant.ONE_STREAM


def param_shapes(config: TrnConfig) -> dict[str, tuple[int, ...]]:
    """The name and shape of every parameter, in the one order that
    :class:`TrnParams`, gradients, Adam and checkpoints share."""
    h, k = config.hidden_size, config.classes
    shapes, embed_in = {}, config.concat_dim()
    if config.has_fusion_layer:
        shapes.update({"fusion.w": (h, embed_in), "fusion.b": (h,)})
        embed_in = h
    shapes.update({
        "embed.w": (h, embed_in), "embed.b": (h,),
        "decoder.lstm.w": (4 * h, 2 * h), "decoder.lstm.b": (4 * h,),
        "decoder.cls.w": (k, h), "decoder.cls.b": (k,),
        "decoder.feat.w": (h, h), "decoder.feat.b": (h,),
        "encoder.lstm.w": (4 * h, 3 * h), "encoder.lstm.b": (4 * h,),
        "encoder.cls.w": (k, h), "encoder.cls.b": (k,),
    })
    return shapes


@dataclass(eq=False)
class TrnParams:
    """The config plus one table of every learnable array, keyed and
    ordered by :func:`param_shapes`. Every layer reads a weight under the
    name its gradient, Adam state and checkpoint entry use. ``updates``
    counts the optimizer steps applied in place (``training.adam_step``)."""

    config: TrnConfig
    table: dict[str, np.ndarray]
    updates: int = field(default=0, repr=False)
    _tensors: dict[str, Tensor] | None = field(default=None, init=False, repr=False)

    @staticmethod
    def init(config: TrnConfig, rng: np.random.Generator) -> "TrnParams":
        """Weights uniform in +-1/sqrt(fan-in), drawn in :func:`param_shapes`
        order; biases zero except the LSTM forget gates, which start at 1."""
        arrays = {}
        for name, shape in param_shapes(config).items():
            if len(shape) == 2:
                bound = 1.0 / np.sqrt(shape[1])
                arrays[name] = rng.uniform(-bound, bound, size=shape)
            else:
                arrays[name] = np.zeros(shape)
        h = config.hidden_size
        arrays["decoder.lstm.b"][h : 2 * h] = 1.0
        arrays["encoder.lstm.b"][h : 2 * h] = 1.0
        return TrnParams.from_arrays(config, arrays)

    @staticmethod
    def zeros(config: TrnConfig) -> "TrnParams":
        shapes = param_shapes(config)
        return TrnParams.from_arrays(config, {k: np.zeros(s) for k, s in shapes.items()})

    @staticmethod
    def from_arrays(config: TrnConfig, arrays: dict[str, np.ndarray]) -> "TrnParams":
        """Parameters over ``arrays``, one per :func:`param_shapes` name
        (float64 arrays are used in place)."""
        names = param_shapes(config)
        return TrnParams(config, {k: np.asarray(arrays[k], dtype=np.float64) for k in names})

    def arrays(self) -> dict[str, np.ndarray]:
        """The parameter table itself; ``training.adam_step`` writes it in place."""
        return self.table

    def named(self) -> dict[str, Tensor]:
        """The table as Tensors over the stored arrays, built once."""
        if self._tensors is None:
            self._tensors = {k: Tensor(a) for k, a in self.table.items()}
        return self._tensors


@dataclass
class TrnState:
    """Carried encoder state; zero at every sequence start."""

    h: np.ndarray
    c: np.ndarray

    @staticmethod
    def zero(hidden_size: int) -> "TrnState":
        return TrnState(np.zeros(hidden_size), np.zeros(hidden_size))


@dataclass(frozen=True)
class DetectionOutput:
    present: np.ndarray  # (classes,): the present chunk's distribution over classes
    anticipated: np.ndarray  # (steps, classes): one distribution per decoder step
    predicted_features: np.ndarray  # (steps, hidden)


def check_streams(config: TrnConfig, streams: dict, video: str | None = None) -> int:
    """Validate the streams of one name -> (T, D) dict that the variant
    consumes and return the chunk count T they share.

    A missing stream or T = 0 is a ValidationError; a stream that is not
    2-D with its configured dim, or a disagreeing T, a DimensionError.
    Given ``video``, its name leads the message.
    """
    where = "" if video is None else f"{video}: "
    lengths = {}
    for name in config.streams:
        if name not in streams:
            raise ValidationError(
                f"{where}{config.fusion_variant.value} requires streams "
                f"{list(config.streams)}, input lacks {name}"
            )
        shape, dim = np.shape(streams[name]), getattr(config, f"{name}_dim")
        if len(shape) != 2 or shape[1] != dim:
            raise DimensionError(f"{where}{name} stream has shape {shape}, config requires (T, {dim})")
        lengths[name] = shape[0]
    if len(set(lengths.values())) != 1:
        raise DimensionError(f"{where}streams disagree on chunk count: {lengths}")
    t_len = lengths[config.streams[0]]
    if t_len == 0:
        raise ValidationError(f"{where}empty sequence")
    return t_len


def stack_block(
    config: TrnConfig, videos: list[dict], t0: int, t1: int, index: list[int] | None = None
) -> np.ndarray:
    """Chunks t0..t1-1 of B stream dicts, each checked by :func:`check_streams`,
    as the (D, (t1-t0)*B) float64 input of :func:`window_forward`: rows in
    fusion order, columns t-major (column t*B + b), each contiguous. Every
    model input is copied here: float32 streams (as ``dio.read_features``
    loads them) are widened, and a non-finite value is refused, a
    ValidationError naming the first stream holding one, the first chunk
    in which it does and, given ``index`` (the caller's index of each
    video), the first video holding it there."""
    cols = np.empty((t1 - t0, len(videos), config.concat_dim()))
    at = 0
    for name in config.streams:
        dim = getattr(config, f"{name}_dim")
        for b, video in enumerate(videos):
            cols[:, b, at : at + dim] = video[name][t0:t1]
        at += dim
    if not np.isfinite(cols).all():
        bad = ~np.isfinite(cols)  # (chunk, video, row)
        edges = np.cumsum([0] + [getattr(config, f"{n}_dim") for n in config.streams])
        i = int(np.searchsorted(edges, np.argmax(bad.any(axis=(0, 1))), side="right")) - 1
        in_stream = bad[:, :, edges[i] : edges[i + 1]].any(axis=2)  # (chunk, video)
        chunk, b = np.unravel_index(np.argmax(in_stream), in_stream.shape)
        where = "" if index is None else f"video {index[b]}: "
        raise ValidationError(
            f"{where}the {config.streams[i]} stream holds a non-finite value at chunk {t0 + chunk}")
    return cols.reshape(-1, cols.shape[2]).T


# ---------------------------------------------------------------------------
# the cell one chunk at a time: the test oracle


def _layer(p: dict, name: str, x: np.ndarray, relu: bool = False) -> np.ndarray:
    """W x + b of layer ``name`` on a vector or column batch x, then ReLU if asked."""
    b = p[f"{name}.b"]
    y = p[f"{name}.w"] @ x + (b if x.ndim == 1 else b[:, None])
    return np.maximum(y, 0.0) if relu else y


def _lstm_step(p: dict, cell: str, x: np.ndarray, h: np.ndarray, c: np.ndarray):
    """One step of the ``cell`` LSTM: its packed weight on concat(x, h) plus
    its bias, through ``nm.lstm_forward``; returns (h, c)."""
    h, c, _ = nm.lstm_forward(_layer(p, f"{cell}.lstm", np.concatenate([x, h])), c, len(h))
    return h, c


def fuse(params: TrnParams, streams: ChunkStreams) -> Tensor:
    """Combine the chunk's streams into the model input vector.

    The streams, each (D,) or a (D, B) column batch, are checked as
    :func:`check_streams` checks a video and concatenated in
    ``TrnConfig.streams`` order (pose rides between appearance and motion
    for FUSED_TWO_STREAM). Variants with a fusion layer then apply
    ReLU(W_f x + b_f); ONE_STREAM passes the raw features through unchanged.
    """
    cfg = params.config
    parts = {n: v for n in cfg.streams if (v := getattr(streams, n)) is not None}
    check_streams(cfg, {n: np.atleast_2d(np.transpose(v)) for n, v in parts.items()})
    joined = Tensor(np.concatenate(list(parts.values())))
    if not cfg.has_fusion_layer:
        return joined
    return Tensor(_layer(params.arrays(), "fusion", joined.data, relu=True))


def embed(params: TrnParams, fused: Tensor) -> Tensor:
    return Tensor(_layer(params.arrays(), "embed", fused.data, relu=True))


def decoder_rollout(
    params: TrnParams, h: Tensor, c: Tensor, x_embed: Tensor, steps: int
) -> tuple[list[Tensor], list[Tensor], list[Tensor]]:
    """Autoregressive future rollout seeded from the encoder state.

    Step 1 consumes the embedded present input; step i > 1 consumes the
    feature predicted at step i - 1. Returns (hiddens, logits, feats),
    each of length `steps`.
    """
    if steps < 1:
        raise ValidationError(f"decoder rollout needs steps >= 1, got {steps}")
    p, x, h, c = params.arrays(), x_embed.data, h.data, c.data
    hiddens, logits, feats = [], [], []
    for _ in range(steps):
        h, c = _lstm_step(p, "decoder", x, h, c)
        x = _layer(p, "decoder.feat", h, relu=True)
        hiddens.append(Tensor(h))
        logits.append(Tensor(_layer(p, "decoder.cls", h)))
        feats.append(Tensor(x))
    return hiddens, logits, feats


def future_gate(hiddens: list[Tensor]) -> Tensor:
    """Order-insensitive aggregation: elementwise mean of decoder hiddens."""
    if not hiddens:
        raise ValidationError("future_gate requires at least one hidden state")
    return Tensor(np.mean([t.data for t in hiddens], axis=0))


def encoder_step(
    params: TrnParams, x_embed: Tensor, future_ctx: Tensor, h: Tensor, c: Tensor
) -> tuple[Tensor, Tensor, Tensor]:
    """One encoder LSTM step on concat(input, future context).

    Returns (new h, new c, present logits).
    """
    p = params.arrays()
    h, c = _lstm_step(p, "encoder", np.concatenate([x_embed.data, future_ctx.data]), h.data, c.data)
    return Tensor(h), Tensor(c), Tensor(_layer(p, "encoder.cls", h))


def chunk_step(
    params: TrnParams, streams: ChunkStreams, h: Tensor, c: Tensor
) -> tuple[Tensor, list[Tensor], list[Tensor], Tensor, Tensor]:
    """The full cell for one chunk, stage by stage on plain arrays (no
    product hoisted, each LSTM step ``W @ concat(x, h) + b``): the reference
    the tests pin :func:`window_forward` and every inference path to. No
    inference path runs it.

    Returns (present logits, per-step decoder logits, per-step predicted
    features, new h, new c).
    """
    x = embed(params, fuse(params, streams))
    dec_h, dec_logits, dec_feats = decoder_rollout(
        params, h, c, x, params.config.decoder_steps
    )
    ctx = future_gate(dec_h)
    h, c, logits = encoder_step(params, x, ctx, h, c)
    return logits, dec_logits, dec_feats, h, c


# ---------------------------------------------------------------------------
# window forward: the cell over a block of chunks


@dataclass
class WindowPass:
    """What :func:`window_forward` computed over T chunks of B columns.

    ``dec_in`` and ``enc_in`` keep each LSTM step's stacked operand as the
    (rows, B) block ``[:, :, t, step]`` of a Fortran-order array, and
    :func:`cols` reads the blocks of every step of a kind as one (rows, N)
    matrix, columns (step, t, b): the operand of its weight GEMM.
    """

    fused: np.ndarray  # fusion output (raw streams without a fusion layer), (., T*B)
    x: np.ndarray  # embedded input, (H, T*B); a view of dec_in
    dec_h: np.ndarray  # decoder hiddens, (H, steps*T*B); a view of dec_in
    enc_h: np.ndarray  # encoder hiddens, (H, T*B); a view of enc_in
    # (2H, B, T, steps + 1): decoder step k's (input; h_prev), x the input
    # at k = 0; block steps holds the last step's h (input rows unused)
    dec_in: np.ndarray
    enc_in: np.ndarray  # (2H, B, T + 1): the encoder's (ctx; h_prev), then the final h
    h: np.ndarray  # state after the last chunk, (H, B)
    c: np.ndarray
    # (6H, B, T, steps + 1), Fortran order, with ``trace`` (else None): per
    # step its gates [i, f, g, o], tanh(c) and c_prev as one column-major
    # (6H, B) block, the encoder's step last. Row slices of it are
    # :func:`cols` operands, so BPTT writes each step's gradients into the
    # block it consumed: after a backward pass it holds no trace
    lstm: np.ndarray | None


def cols(a: np.ndarray) -> np.ndarray:
    """A (rows, B, T, ...) Fortran-order array, or a slice of one along its
    last axes, as the (rows, N) matrix over the same memory."""
    return a.reshape(len(a), -1, order="F")


def window_forward(
    params: TrnParams, raw: np.ndarray, h: np.ndarray, c: np.ndarray, trace: bool = False
) -> WindowPass:
    """The cell over an equal-length block of columns.

    ``raw`` holds the consumed streams of T chunks of B sequences as one
    (D, T*B) matrix: rows in fusion order, columns t-major (column
    t*B + b). (h, c) is the (H, B) state entering the block. Every GEMM
    off the recurrence runs once over all T*B columns: fusion, embedding
    and the input projections of decoder step 1 and of the encoder. In
    the time loop every later step is one GEMM, on the stacked operand the
    step before wrote, of its weight as stored (a view of the encoder's
    (ctx; h) columns). The arithmetic is the one ``chunk_step`` runs, up
    to float reassociation. Every array of the pass is fresh and of the
    weights' dtype: float64, or complex for the tests' complex-step
    derivatives. With ``trace`` (the training loss) the pass also keeps
    the gates, tanh(c) and c_prev a backward pass reads; inference runs
    untraced.
    """
    cfg, p = params.config, params.arrays()
    hs, steps = cfg.hidden_size, cfg.decoder_steps
    wd, we, wf = p["decoder.lstm.w"], p["encoder.lstm.w"], p["decoder.feat.w"]
    w_dh, w_rec = wd[:, hs:], we[:, hs:]  # decoder h, encoder (ctx; h) columns
    bd, bf = p["decoder.lstm.b"][:, None], p["decoder.feat.b"][:, None]
    batch, dt = h.shape[1], wd.dtype
    t_len = raw.shape[1] // batch

    fused = raw
    if cfg.has_fusion_layer:
        fused = np.maximum(p["fusion.w"] @ raw + p["fusion.b"][:, None], 0.0)
    dec_in = np.empty((2 * hs, batch, t_len, steps + 1), dt, order="F")
    enc_in = np.empty((2 * hs, batch, t_len + 1), dt, order="F")
    x = cols(dec_in[:hs, :, :, 0])
    x[...] = np.maximum(p["embed.w"] @ fused + p["embed.b"][:, None], 0.0)
    # the input halves of decoder step 1 and of the encoder
    x_dec = (wd[:, :hs] @ x + bd).reshape(4 * hs, t_len, batch)
    x_enc = (we[:, :hs] @ x + p["encoder.lstm.b"][:, None]).reshape(4 * hs, t_len, batch)

    # a chunk's steps run on contiguous (rows, B) blocks, reused by every
    # chunk; traced, each chunk's trace then goes to its column-major block
    col = np.empty((steps + 1, 6 * hs, batch), dt)  # per step: gates, tanh(c), c_prev
    # decoder step k's (feature; h) out, step k + 1's operand; the last step's
    # feature rows stay 0, since its feature feeds nothing
    ops = np.zeros((steps, 2 * hs, batch), dt)
    lstm = np.empty((6 * hs, batch, t_len, steps + 1), dt, order="F") if trace else None
    c_last = np.empty((hs, batch), dt)  # the last decoder step's c feeds nothing
    per_step = [  # its gates, c_prev, c out, tanh(c), h out and feature out
        (col[k, : 4 * hs], col[k, 5 * hs :], col[k + 1, 5 * hs :] if k + 1 < steps else c_last,
         col[k, 4 * hs : 5 * hs], ops[k, hs:], ops[k, :hs])
        for k in range(steps)
    ]
    z, e = np.empty((4 * hs, batch), dt), np.empty((2 * hs, batch), dt)  # e: the encoder's (ctx; h)
    e_ctx, e_h = e[:hs], e[hs:]
    e_h[...], c = h, np.array(c, dt)  # the encoder's state, updated in place
    enc_gates, enc_cp, enc_tc = col[steps, : 4 * hs], col[steps, 5 * hs :], col[steps, 4 * hs : 5 * hs]
    for t in range(t_len):
        dec_in[hs:, :, t, 0] = e_h
        col[0, 5 * hs :] = enc_cp[...] = c
        np.matmul(w_dh, e_h, z)
        z += x_dec[:, t]
        for k, (gates, c_prev, c_out, tanh_c, h_out, feat) in enumerate(per_step):
            if k:
                np.matmul(wd, ops[k - 1], z)
                z += bd
            nm.lstm_forward(z, c_prev, hs, gates, c_out, tanh_c, h_out)
            if k + 1 < steps:  # the feature head; the last step's feeds nothing
                np.matmul(wf, h_out, feat)
                feat += bf
                np.maximum(feat, 0.0, out=feat)
        dec_in[:, :, t, 1:].transpose(2, 0, 1)[...] = ops
        # the future context: the mean of the decoder hiddens, as np.mean sums it
        np.add.reduce(ops[:, hs:], axis=0, out=e_ctx)
        np.true_divide(e_ctx, steps, e_ctx)
        enc_in[:, :, t] = e
        np.matmul(w_rec, e, z)
        z += x_enc[:, t]
        nm.lstm_forward(z, enc_cp, hs, enc_gates, c, enc_tc, e_h)
        if trace:
            lstm[:, :, t].transpose(2, 0, 1)[...] = col
    enc_in[hs:, :, t_len] = e_h
    return WindowPass(fused, x, cols(dec_in[hs:, :, :, 1:]), cols(enc_in[hs:, :, 1:]), dec_in,
                      enc_in, enc_in[hs:, :, t_len], c, lstm)


# ---------------------------------------------------------------------------
# inference: every path runs detect_block


def detect_block(
    params: TrnParams, raw: np.ndarray, h: np.ndarray, c: np.ndarray
) -> tuple[np.ndarray, np.ndarray, WindowPass]:
    """Inference over one block: :func:`window_forward`, both classifier
    heads, and one softmax over all their columns.

    Takes what ``window_forward`` takes, ``raw`` as :func:`stack_block`
    builds (and checks) it. Returns present (T, B, classes) and
    anticipated (T, B, steps, classes) distributions, both views of the
    one softmax, and the pass, whose (h, c) is the state after the block.
    """
    cfg, p = params.config, params.arrays()
    n, batch = raw.shape[1], h.shape[1]  # T*B columns
    run = window_forward(params, raw, h, c)
    # the encoder head's columns (t, b), then the decoder head's (step, t, b)
    probs = nm.softmax_array(np.concatenate([
        p["encoder.cls.w"] @ run.enc_h + p["encoder.cls.b"][:, None],
        p["decoder.cls.w"] @ run.dec_h + p["decoder.cls.b"][:, None],
    ], axis=1))
    present = probs[:, :n].T.reshape(-1, batch, cfg.classes)
    anticipated = probs[:, n:].reshape(cfg.classes, cfg.decoder_steps, -1, batch)
    return present, anticipated.transpose(2, 3, 1, 0), run


def detect_chunk(
    params: TrnParams, streams: ChunkStreams, h: np.ndarray, c: np.ndarray
) -> tuple[DetectionOutput, np.ndarray, np.ndarray]:
    """One chunk of one sequence from the (H,) state (h, c), as a one-chunk
    :func:`detect_block`; returns the detection and the new state.

    Streaming and ``trn_forward`` run this. Each stream given must be a
    (D,) vector; a DimensionError names the shape pushed. The chunk then
    enters as a one-chunk video, through :func:`check_streams` (which
    refuses a missing stream) and :func:`stack_block` (which names a
    non-finite value's chunk as 0, its place in that video).
    """
    cfg, p = params.config, params.arrays()
    hs = cfg.hidden_size
    chunk = {n: np.asarray(v) for n in cfg.streams if (v := getattr(streams, n)) is not None}
    for name, v in chunk.items():
        if v.shape != (dim := getattr(cfg, f"{name}_dim"),):
            raise DimensionError(f"{name} stream has shape {v.shape}, config requires ({dim},)")
    chunk = {n: v[None] for n, v in chunk.items()}
    check_streams(cfg, chunk)
    present, anticipated, run = detect_block(
        params, stack_block(cfg, [chunk], 0, 1), h[:, None], c[:, None])
    feats = np.empty((cfg.decoder_steps, hs))
    feats[:-1] = run.dec_in[:hs, 0, 0, 1:-1].T
    # the last step's feature feeds no further step, so the kernel skips it
    feats[-1] = np.maximum(p["decoder.feat.w"] @ run.dec_in[hs:, 0, 0, -1] + p["decoder.feat.b"], 0.0)
    return DetectionOutput(present[0, 0], anticipated[0, 0], feats), run.h[:, 0], run.c[:, 0]


def trn_forward(
    params: TrnParams,
    sequence: list[ChunkStreams],
    state0: TrnState | None = None,
) -> tuple[list[DetectionOutput], TrnState]:
    """Inference over a sequence of single-chunk vectors, one
    :func:`detect_chunk` per chunk, from ``state0`` (zero by default)."""
    if not sequence:
        raise ValidationError("empty sequence")
    hs = params.config.hidden_size
    state0 = state0 or TrnState.zero(hs)
    for name, v in (("h", state0.h), ("c", state0.c)):
        if np.shape(v) != (hs,):
            raise DimensionError(f"state {name} has shape {np.shape(v)}, hidden size is {hs}")
    h, c = state0.h, state0.c
    outputs = []
    for streams in sequence:
        out, h, c = detect_chunk(params, streams, h, c)
        outputs.append(out)
    return outputs, TrnState(h, c)


# multi-video inference runs up to GROUP_SIZE videos as the columns of
# one group, in blocks of at most BLOCK_CHUNKS chunks: long enough to
# amortise the hoisted GEMMs, short enough to keep the block's arrays small
GROUP_SIZE = 16
BLOCK_CHUNKS = 16


def forward_blocks(params: TrnParams, videos: list[dict]):
    """Whole-sequence inference over many videos of any lengths, yielded
    as (video index, t0, present, anticipated): fresh (rows, classes) and
    (rows, steps, classes) arrays for chunks t0.. of each video in each
    block, each video's blocks in chunk order.

    ``videos`` holds one name -> (T_i, D) stream dict per video, all
    checked before the first block runs. The videos run longest first (a
    stable sort), ``GROUP_SIZE`` at a time, as the columns of
    :func:`detect_block` calls. A group of one video runs in one-chunk
    blocks, as ``trn stream`` does, so its outputs are bitwise those of
    ``trn stream`` and ``trn_forward``. A wider group runs in blocks of at
    most ``BLOCK_CHUNKS`` chunks; a block also ends where a video retires,
    and the next block runs without its column. Its outputs may differ from
    single-video ones in the last bits (a wider GEMM may sum in another order).

    The streams may be float32 (as ``dio.read_features`` loads them) or
    float64: :func:`stack_block` widens one block at a time, so a float32
    video and its float64 widening give the same bits; a non-finite value
    is refused naming the video by its index in ``videos``. Only one block's
    arrays are alive at a time, beside the carried state and the caller's rows."""
    cfg = params.config
    lengths = [check_streams(cfg, v) for v in videos]
    order = sorted(range(len(videos)), key=lambda i: -lengths[i])
    for at in range(0, len(order), GROUP_SIZE):
        group = order[at : at + GROUP_SIZE]
        n, block = len(group), (BLOCK_CHUNKS if len(group) > 1 else 1)
        h, c = np.zeros((cfg.hidden_size, n)), np.zeros((cfg.hidden_size, n))
        t0 = 0
        while t0 < lengths[group[0]]:
            while lengths[group[n - 1]] <= t0:
                n -= 1
            t1 = min(t0 + block, lengths[group[n - 1]])
            raw = stack_block(cfg, [videos[i] for i in group[:n]], t0, t1, group[:n])
            present, anticipated, run = detect_block(params, raw, h[:, :n], c[:, :n])
            # run.h views the pass's operands: copied, it lets the block's
            # arrays go before the next block allocates its own
            h, c = run.h.copy(), run.c
            for j, i in enumerate(group[:n]):
                yield i, t0, present[:, j].copy(), anticipated[:, j].copy()
            del present, anticipated, run
            t0 = t1


def forward_videos(params: TrnParams, videos: list[dict]) -> list[tuple[np.ndarray, np.ndarray]]:
    """:func:`forward_blocks` collected: (present (T_i, classes),
    anticipated (T_i, steps, classes)) per video, in input order."""
    cfg = params.config
    out = [(np.empty((t_len, cfg.classes)), np.empty((t_len, cfg.decoder_steps, cfg.classes)))
           for t_len in [check_streams(cfg, v) for v in videos]]
    for i, t0, present, anticipated in forward_blocks(params, videos):
        out[i][0][t0 : t0 + len(present)] = present
        out[i][1][t0 : t0 + len(present)] = anticipated
    return out
