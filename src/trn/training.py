"""Supervised training of the detection cell.

The loss has two heads. The encoder head is the mean cross-entropy of
the present-chunk distributions. The decoder head supervises
anticipation: the distribution emitted at chunk t for step i is scored
against the label of chunk t + i, and pairs that reach past the end of
the window are masked out; the head is the mean over surviving pairs.
Chunks inside "Ambiguous" annotation spans are ignored as evaluation
ignores them: they leave the encoder head, and a pair whose target is
ambiguous leaves the decoder head. The two heads are combined with
configurable weights (default 1, 1).

Optimization is Adam with bias correction plus decoupled weight decay:
the decay term lr * wd * theta is subtracted directly from the weights
rather than folded into the gradient, so "weight_decay" means the same
thing at any gradient scale.

The loss is a fused kernel over one window rather than a tape built chunk
by chunk. Its forward pass is ``model.window_forward``, the kernel every
inference path runs too (``model.detect_block``): every product off the
recurrence (fusion, embedding, the input projections of the two LSTMs)
runs as one GEMM over all chunks of the window, and so does each
classifier. The tests pin it to the tape's op-by-op ``model.chunk_step``. The gradient is a
hand-derived backpropagation through time that runs only when backward()
reaches the loss. To the tape the loss is a single node whose parents are
the parameters.

Batching packs same-length windows as columns of one matrix; per-sequence
results are identical to running each window alone (up to float
reassociation in the gemm).
"""

from __future__ import annotations

import json
import logging
import struct
from dataclasses import dataclass

import numpy as np

from . import dataio as dio
from . import evaluate as ev
from . import model as md
from . import numeric as nm
from .dataio import BadMagicError, HeaderError, TruncatedFileError
from .model import ChunkStreams, FusionVariant, TrnConfig, TrnParams
from .numeric import DimensionError, Tensor, ValidationError

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 5e-4
    weight_decay: float = 5e-4
    batch_size: int = 2
    seq_len: int = 64
    epochs: int = 10
    seed: int = 0
    lambda_enc: float = 1.0
    lambda_dec: float = 1.0
    eval_every: int = 1  # held-out mAP cadence in epochs; 0 disables

    def __post_init__(self):
        if self.learning_rate <= 0 or self.weight_decay < 0:
            raise ValidationError("learning_rate must be > 0 and weight_decay >= 0")
        if self.batch_size < 1 or self.seq_len < 1:
            raise ValidationError("batch_size and seq_len must be >= 1")
        if self.epochs < 0 or self.eval_every < 0:
            raise ValidationError("epochs and eval_every must be >= 0")
        if self.lambda_enc < 0 or self.lambda_dec < 0:
            raise ValidationError("loss weights must be >= 0")


def decoder_target_pairs(seq_len: int, steps: int) -> list[tuple[int, int]]:
    """All (chunk t, step i) pairs whose target t + i stays inside the
    window; i is 1-based."""
    return [
        (t, i) for t in range(seq_len) for i in range(1, steps + 1) if t + i <= seq_len - 1
    ]


def sequence_loss(
    params: TrnParams,
    config: TrainConfig,
    sequence: list[ChunkStreams],
    labels: np.ndarray,
    ambiguous: np.ndarray | None = None,
) -> Tensor:
    """Two-head training loss for one window (vectors or column batches).

    labels: (T,) ints, or (T, B) when the sequence holds column batches.
    ambiguous: an optional bool mask of the labels' shape. An ambiguous
    chunk leaves the encoder head's mean, and a (t, i) pair whose target
    t + i is ambiguous leaves the decoder head's mean; a head with nothing
    left contributes 0.

    The result is a single tape node whose parents are the parameters; its
    gradients come from the hand-derived BPTT of :class:`_FusedWindow`,
    which runs only when ``backward()`` reaches the node.
    """
    classes = params.config.classes
    if not sequence:
        raise ValidationError("empty sequence")
    labels = np.asarray(labels)
    t_len = len(sequence)
    if labels.shape[0] != t_len:
        raise ValidationError(f"got {labels.shape[0]} labels for {t_len} chunks")
    if labels.min() < 0 or labels.max() >= classes:
        raise ValidationError(
            f"labels must lie in [0, {classes}), got range [{labels.min()}, {labels.max()}]"
        )
    if ambiguous is not None:
        ambiguous = np.asarray(ambiguous, dtype=bool)
        if ambiguous.shape != labels.shape:
            raise ValidationError(
                f"ambiguous mask has shape {ambiguous.shape}, labels {labels.shape}"
            )
        ambiguous = ambiguous.reshape(t_len, -1)
    if labels.ndim == 1:
        labels = labels.reshape(-1, 1)
    window = _FusedWindow(params, config, sequence, labels.astype(np.int64), ambiguous)
    named = params.named()
    return nm.custom_op([window.loss], named.values(), lambda g: window.grads(g[0], named))


def _stack_streams(cfg: TrnConfig, sequence: list[ChunkStreams], batch: int) -> np.ndarray:
    """The consumed streams of a window as one (D, T*B) matrix.

    Rows follow the fusion order, columns run t-major (column t*B + b).
    """
    rows = []
    for name in cfg.streams:
        dim = getattr(cfg, f"{name}_dim")
        cols = []
        for streams in sequence:
            v = getattr(streams, name)
            if v is None:
                raise ValidationError(f"{cfg.fusion_variant.value} requires the {name} stream")
            v = np.asarray(v, dtype=np.float64)
            v = v.reshape(-1, 1) if v.ndim == 1 else v
            if v.shape != (dim, batch):
                raise DimensionError(
                    f"{name} stream has shape {v.shape}, expected ({dim}, {batch}) "
                    "for the config and labels"
                )
            cols.append(v)
        rows.append(np.concatenate(cols, axis=1))
    return rows[0] if len(rows) == 1 else np.concatenate(rows, axis=0)


def _lstm_backward(trace, dh: np.ndarray, dc, hs: int, dz: np.ndarray) -> np.ndarray:
    """Write d(loss)/dz into ``dz`` given the gradients reaching h and c;
    returns the gradient for c_prev. ``trace`` is the third result of
    :func:`numeric.lstm_forward`."""
    a, c_prev, tc = trace
    i, f, g, o = a[:hs], a[hs : 2 * hs], a[2 * hs : 3 * hs], a[3 * hs :]
    dc = dc + dh * o * (1.0 - tc * tc)
    dz[:hs] = dc * g * i * (1.0 - i)
    dz[hs : 2 * hs] = dc * c_prev * f * (1.0 - f)
    dz[2 * hs : 3 * hs] = dc * i * (1.0 - g * g)
    dz[3 * hs :] = dh * tc * o * (1.0 - o)
    return dc * f


def _softmax_xent(logits: np.ndarray, labels: np.ndarray, keep: np.ndarray | None = None):
    """Summed -log softmax(logits)[label] over the kept columns (all when
    ``keep`` is None), with the tape's 1e-12 clamp; returns (sum,
    d sum / d logits)."""
    p = nm.softmax_array(logits)
    cols = np.arange(labels.size)
    picked = p[labels, cols]
    logs = np.log(np.maximum(picked, nm.CE_CLAMP))
    p[labels, cols] -= 1.0
    p[:, picked < nm.CE_CLAMP] = 0.0  # clamped columns carry no gradient
    if keep is not None:
        logs = logs[keep]
        p[:, ~keep] = 0.0
    return -logs.sum(), p


def _head_scale(weight: float, total: int, keep: np.ndarray | None) -> float:
    """The factor that turns a head's summed loss into ``weight`` times its
    mean over the kept columns; 0 when no column is kept."""
    count = total if keep is None else int(keep.sum())
    return weight / count if count else 0.0


class _FusedWindow:
    """The two-head loss over one window, with its BPTT.

    The forward pass is :func:`model.window_forward` from zero state, with
    its gate traces kept for the backward pass; this class adds the heads,
    each one GEMM over all its columns. The backward pass (:meth:`grads`)
    stores the LSTM pre-activation gradients of every step and forms each
    weight gradient as one GEMM over the stacked (gradient, input) columns.
    Gates are [i, f, g, o], the ReLU gradient is 0 at 0, and clamped
    cross-entropy columns carry no gradient.
    """

    def __init__(
        self, params: TrnParams, config: TrainConfig, sequence, labels: np.ndarray, ambiguous
    ):
        cfg = params.config
        hs, steps = cfg.hidden_size, cfg.decoder_steps
        t_len, batch = labels.shape
        self.params, self.shape = params, (hs, t_len, steps, batch)
        self.raw = _stack_streams(cfg, sequence, batch)
        zero = np.zeros((hs, batch))
        self.run = run = md.window_forward(params, self.raw, zero, zero, trace=True)

        # heads: encoder over all T, decoder over the (t, i) pairs whose
        # target t + i lies inside the window, in pair order
        keep = None if ambiguous is None else ~ambiguous.reshape(-1)
        self.enc_scale = _head_scale(config.lambda_enc, t_len * batch, keep)
        enc_cls = params.encoder_cls
        logits = enc_cls.w.data @ md.join_cols(run.enc_h) + enc_cls.b.data[:, None]
        enc_sum, self.g_enc = _softmax_xent(logits, labels.reshape(-1), keep)
        self.loss = enc_sum * self.enc_scale
        self.pairs = np.zeros((t_len, steps), dtype=bool)
        self.g_dec = None
        pairs = decoder_target_pairs(t_len, steps)
        if pairs:
            t_idx, i_idx = np.array(pairs).T
            self.pairs[t_idx, i_idx - 1] = True
            target = t_idx + i_idx
            keep = None if ambiguous is None else ~ambiguous[target].reshape(-1)
            self.dec_scale = _head_scale(config.lambda_dec, len(pairs) * batch, keep)
            self.dec_hid = md.join_cols(run.dec_h[self.pairs])
            logits = params.decoder_cls.w.data @ self.dec_hid + params.decoder_cls.b.data[:, None]
            dec_sum, self.g_dec = _softmax_xent(logits, labels[target].reshape(-1), keep)
            self.loss = self.loss + dec_sum * self.dec_scale

    def grads(self, g: float, named: dict[str, Tensor]) -> list[np.ndarray]:
        """Gradients of g * loss for every parameter, in ``named`` order;
        None for the decoder head when no (t, i) pair survives."""
        p, run = self.params, self.run
        hs, t_len, steps, batch = self.shape
        out: dict[str, np.ndarray] = {}

        # heads
        g_enc = self.g_enc * (g * self.enc_scale)
        out["encoder.cls.w"] = g_enc @ md.join_cols(run.enc_h).T
        out["encoder.cls.b"] = g_enc.sum(axis=1)
        d_enc_h = md.split_steps(p.encoder_cls.w.data.T @ g_enc, t_len)
        d_dec_h = np.zeros((t_len, steps, hs, batch))
        if self.g_dec is not None:
            g_dec = self.g_dec * (g * self.dec_scale)
            out["decoder.cls.w"] = g_dec @ self.dec_hid.T
            out["decoder.cls.b"] = g_dec.sum(axis=1)
            d_hid = (p.decoder_cls.w.data.T @ g_dec).reshape(hs, -1, batch)
            d_dec_h[self.pairs] = d_hid.transpose(1, 0, 2)

        # BPTT, newest chunk first; within a chunk the encoder step comes
        # before the decoder rollout that produced its future context
        wd, we = p.decoder_lstm.w.data, p.encoder_lstm.w.data
        wd_t = wd.T.copy()
        w_rec_t = we[:, hs:].T.copy()  # encoder (ctx; h_prev) columns
        wf_t = p.decoder_feat.w.data.T.copy()
        dz_dec = np.empty((t_len, steps, 4 * hs, batch))
        dz_enc = np.empty((t_len, 4 * hs, batch))
        d_feat = np.empty((t_len, steps - 1, hs, batch))
        dh_next = np.zeros((hs, batch))
        dc_next = np.zeros((hs, batch))
        for t in reversed(range(t_len)):
            dh = d_enc_h[t] + dh_next
            dc_prev = _lstm_backward(run.enc_trace[t], dh, dc_next, hs, dz_enc[t])
            r = w_rec_t @ dz_enc[t]
            dh_prev = r[hs:]
            d_dec_h[t] += r[:hs] / steps
            dh, dc = d_dec_h[t, steps - 1], 0.0
            for k in reversed(range(steps)):
                dc = _lstm_backward(run.dec_trace[t * steps + k], dh, dc, hs, dz_dec[t, k])
                r = wd_t @ dz_dec[t, k]
                if k:
                    d = r[:hs] * (run.feat[t, k - 1] > 0.0)
                    d_feat[t, k - 1] = d
                    dh = d_dec_h[t, k - 1] + r[hs:] + wf_t @ d
            dh_next = dh_prev + r[hs:]
            dc_next = dc_prev + dc

        # the LSTM inputs of every step: (input; h_prev) for the decoder,
        # (x; ctx; h_prev) for the encoder, h_prev the state entering chunk t
        x_steps = md.split_steps(run.x, t_len)
        h_prev = np.concatenate([np.zeros((1, hs, batch)), run.enc_h[:-1]])
        dec_in = np.concatenate([
            np.concatenate([x_steps[:, None], run.feat], axis=1),
            np.concatenate([h_prev[:, None], run.dec_h[:, :-1]], axis=1),
        ], axis=2)
        enc_in = np.concatenate([x_steps, run.ctx, h_prev], axis=1)

        # weight gradients: one GEMM each over the stacked columns
        cols = md.join_cols
        dz_dec_cols, dz_enc_cols, d_feat_cols = cols(dz_dec), cols(dz_enc), cols(d_feat)
        out["decoder.lstm.w"] = dz_dec_cols @ cols(dec_in).T
        out["decoder.lstm.b"] = dz_dec_cols.sum(axis=1)
        out["encoder.lstm.w"] = dz_enc_cols @ cols(enc_in).T
        out["encoder.lstm.b"] = dz_enc_cols.sum(axis=1)
        out["decoder.feat.w"] = d_feat_cols @ cols(run.dec_h[:, :-1]).T
        out["decoder.feat.b"] = d_feat_cols.sum(axis=1)

        # input stages: both step-1 projections of x, then embed and fusion
        dx = wd[:, :hs].T @ cols(dz_dec[:, 0]) + we[:, :hs].T @ dz_enc_cols
        dx *= run.x > 0.0
        out["embed.w"] = dx @ run.fused.T
        out["embed.b"] = dx.sum(axis=1)
        if p.fusion is not None:
            du = p.embed.w.data.T @ dx
            du *= run.fused > 0.0
            out["fusion.w"] = du @ self.raw.T
            out["fusion.b"] = du.sum(axis=1)
        return [out.get(name) for name in named]


# ---------------------------------------------------------------------------
# optimizer


@dataclass
class AdamState:
    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    t: int = 0

    @staticmethod
    def init(params: TrnParams) -> "AdamState":
        named = params.named()
        return AdamState(
            m={k: np.zeros_like(p.data) for k, p in named.items()},
            v={k: np.zeros_like(p.data) for k, p in named.items()},
        )


ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


def adam_step(
    params: TrnParams,
    grads: dict[str, np.ndarray],
    state: AdamState,
    config: TrainConfig,
) -> None:
    """One in-place Adam update with decoupled weight decay."""
    state.t += 1
    bc1 = 1.0 - ADAM_BETA1**state.t
    bc2 = 1.0 - ADAM_BETA2**state.t
    for name, tensor in params.named().items():
        g = grads.get(name)
        if g is None:
            g = np.zeros_like(tensor.data)
        if not np.all(np.isfinite(g)):
            raise ValidationError(f"non-finite gradient for parameter {name}")
        if g.shape != tensor.data.shape:
            raise ValidationError(
                f"gradient shape {g.shape} does not match parameter {name} {tensor.data.shape}"
            )
        m = state.m[name]
        v = state.v[name]
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * g * g
        update = (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)
        tensor.data -= config.learning_rate * update
        if config.weight_decay:
            tensor.data -= config.learning_rate * config.weight_decay * tensor.data


# ---------------------------------------------------------------------------
# dataset plumbing


@dataclass
class Window:
    """A training slice: per-stream (L, D) arrays plus (L,) labels and
    their (L,) ambiguous mask."""

    streams: dict[str, np.ndarray]
    labels: np.ndarray
    ambiguous: np.ndarray

    def __len__(self):
        return len(self.labels)


def load_split(
    manifest: dio.Manifest,
    cmap: dio.ClassMap,
    split: str,
    streams: tuple[str, ...] | None = None,
) -> list[tuple[str, dict[str, np.ndarray], np.ndarray, np.ndarray]]:
    """(video id, stream arrays, labels, ambiguous mask) per video of the
    split; only the named streams are read (all by default)."""
    videos = manifest.split(split)
    intervals = _read_intervals(manifest, videos)
    out = []
    for video in videos:
        arrays = dio.load_video_streams(manifest, video, streams)
        labels, ambiguous = dio.labels_from_intervals(
            intervals.get(video.video_id, []), cmap, video.fps, video.chunk_size, video.num_chunks
        )
        out.append((video.video_id, arrays, labels, ambiguous))
    return out


def make_windows(videos, seq_len: int) -> list[Window]:
    windows = []
    for _, streams, labels, ambiguous in videos:
        t = len(labels)
        for start in range(0, t, seq_len):
            end = min(start + seq_len, t)
            windows.append(
                Window(
                    streams={k: v[start:end] for k, v in streams.items()},
                    labels=labels[start:end],
                    ambiguous=ambiguous[start:end],
                )
            )
    return windows


def _read_intervals(
    manifest: dio.Manifest, videos: list[dio.VideoEntry]
) -> dict[str, list[dio.Interval]]:
    """Annotations of the videos, merged over their files; each file is
    read once."""
    merged: dict[str, list[dio.Interval]] = {}
    for path in dict.fromkeys(v.annotations for v in videos):
        for video_id, rows in dio.read_annotations(manifest.resolve(path)).items():
            merged.setdefault(video_id, []).extend(rows)
    return merged


# ---------------------------------------------------------------------------
# training loop


@dataclass
class EpochMetrics:
    epoch: int
    mean_loss: float
    heldout_map: float | None = None


def train(
    manifest: dio.Manifest,
    model_config: TrnConfig,
    train_config: TrainConfig,
    params: TrnParams | None = None,
    heldout_split: str = "test",
) -> tuple[TrnParams, list[EpochMetrics]]:
    """Train on the manifest's train split; deterministic given the seed."""
    rng = np.random.default_rng(train_config.seed)
    cmap = dio.read_class_map(manifest.resolve(manifest.class_map))
    if cmap.num_actions != model_config.num_actions:
        raise ValidationError(
            f"class map has {cmap.num_actions} actions, model expects {model_config.num_actions}"
        )
    if params is None:
        params = TrnParams.init(model_config, rng)
    adam = AdamState.init(params)

    train_videos = load_split(manifest, cmap, "train", params.config.streams)
    if not train_videos:
        raise ValidationError("manifest has no train videos")
    windows = make_windows(train_videos, train_config.seq_len)
    heldout = manifest.split(heldout_split)
    heldout_gt = None
    if heldout and train_config.eval_every:
        heldout_gt = ev.GroundTruth(intervals=_read_intervals(manifest, heldout), cmap=cmap)

    named = params.named()
    metrics: list[EpochMetrics] = []
    for epoch in range(1, train_config.epochs + 1):
        order = rng.permutation(len(windows))
        pending: dict[int, list[Window]] = {}
        batches: list[list[Window]] = []
        for idx in order:
            w = windows[idx]
            bucket = pending.setdefault(len(w), [])
            bucket.append(w)
            if len(bucket) == train_config.batch_size:
                batches.append(bucket.copy())
                bucket.clear()
        for length in sorted(pending):
            if pending[length]:
                batches.append(pending[length])

        losses = []
        for batch in batches:
            sequence = md.chunk_sequence(params.config, [w.streams for w in batch])
            labels = np.stack([w.labels for w in batch], axis=1)
            ambiguous = np.stack([w.ambiguous for w in batch], axis=1)
            for p in named.values():
                p.zero_grad()
            loss = sequence_loss(params, train_config, sequence, labels, ambiguous)
            loss.backward()
            grads = {k: p.grad for k, p in named.items()}
            adam_step(params, grads, adam, train_config)
            losses.append(loss.item())
        mean_loss = float(np.mean(losses))

        heldout_map = None
        if heldout_gt is not None and epoch % train_config.eval_every == 0:
            dump = predict_manifest(params, manifest, heldout_split)
            heldout_map = ev.per_frame_map(dump, heldout_gt).mean_ap
        metrics.append(EpochMetrics(epoch=epoch, mean_loss=mean_loss, heldout_map=heldout_map))
        log.info(
            "epoch %d: loss %.4f%s",
            epoch,
            mean_loss,
            "" if heldout_map is None else f", held-out mAP {heldout_map:.4f}",
        )
    return params, metrics


def predict_manifest(
    params: TrnParams, manifest: dio.Manifest, split: str, group_size: int = 16
) -> ev.PredictionDump:
    """Whole-sequence inference over a manifest split; up to ``group_size``
    videos run at once as the columns of one ragged batch
    (``model.forward_videos``)."""
    cfg = params.config
    videos = manifest.split(split)
    chunk_size, fps = dio.split_clock(videos, (cfg.chunk_size, cfg.fps))
    dump = ev.PredictionDump(
        chunk_size=chunk_size, fps=fps, decoder_steps=cfg.decoder_steps, classes=cfg.classes
    )
    streams = [dio.load_video_streams(manifest, video, cfg.streams) for video in videos]
    for video, (present, anticipated) in zip(
        videos, md.forward_videos(params, streams, group_size)
    ):
        dump.videos[video.video_id] = ev.VideoPredictions(present, anticipated)
    return dump


# ---------------------------------------------------------------------------
# checkpoints


CKPT_MAGIC = b"TRNC"
CKPT_VERSION = 1
_CKPT_HEADER = struct.Struct("<4sIQ")


def _config_to_dict(config: TrnConfig) -> dict:
    return {
        "fusion_variant": config.fusion_variant.value,
        "appearance_dim": config.appearance_dim,
        "motion_dim": config.motion_dim,
        "pose_dim": config.pose_dim,
        "hidden_size": config.hidden_size,
        "decoder_steps": config.decoder_steps,
        "num_actions": config.num_actions,
        "seq_len": config.seq_len,
        "chunk_size": config.chunk_size,
        "fps": config.fps,
    }


def config_from_dict(doc: dict) -> TrnConfig:
    doc = dict(doc)
    doc["fusion_variant"] = FusionVariant(doc["fusion_variant"])
    return TrnConfig(**doc)


def save_checkpoint(
    path: str,
    params: TrnParams,
    adam: AdamState | None = None,
    meta: dict | None = None,
) -> None:
    """Versioned binary container; identical inputs give identical bytes."""
    named = params.named()
    index = [{"name": k, "shape": list(t.data.shape)} for k, t in named.items()]
    doc = {
        "config": _config_to_dict(params.config),
        "tensors": index,
        "adam": None if adam is None else {"t": adam.t},
        "meta": meta or {},
    }
    blob = json.dumps(doc, sort_keys=True).encode("utf-8")
    with open(path, "wb") as f:
        f.write(_CKPT_HEADER.pack(CKPT_MAGIC, CKPT_VERSION, len(blob)))
        f.write(blob)
        for k in named:
            f.write(named[k].data.astype("<f8").tobytes(order="C"))
        if adam is not None:
            for k in named:
                f.write(adam.m[k].astype("<f8").tobytes(order="C"))
            for k in named:
                f.write(adam.v[k].astype("<f8").tobytes(order="C"))


def load_checkpoint(path: str) -> tuple[TrnParams, AdamState | None, dict]:
    with open(path, "rb") as f:
        blob = f.read()
    if len(blob) < _CKPT_HEADER.size:
        raise TruncatedFileError(f"{path}: shorter than the checkpoint header")
    magic, version, json_len = _CKPT_HEADER.unpack(blob[: _CKPT_HEADER.size])
    if magic != CKPT_MAGIC:
        raise BadMagicError(f"{path}: bad magic {magic!r}, expected {CKPT_MAGIC!r}")
    if version != CKPT_VERSION:
        raise HeaderError(f"{path}: unsupported checkpoint version {version}")
    at = _CKPT_HEADER.size
    if len(blob) < at + json_len:
        raise TruncatedFileError(f"{path}: truncated checkpoint index")
    try:
        doc = json.loads(blob[at : at + json_len])
    except json.JSONDecodeError as e:
        raise HeaderError(f"{path}: malformed checkpoint index: {e}") from e
    at += json_len
    config = config_from_dict(doc["config"])
    params = TrnParams.zeros(config)
    named = params.named()
    index = doc["tensors"]
    if [e["name"] for e in index] != list(named.keys()):
        raise HeaderError(f"{path}: tensor index does not match the architecture")

    def take(shape):
        nonlocal at
        n = int(np.prod(shape)) * 8
        if len(blob) < at + n:
            raise TruncatedFileError(f"{path}: truncated tensor payload")
        arr = np.frombuffer(blob[at : at + n], dtype="<f8").reshape(shape).copy()
        at += n
        return arr

    for entry in index:
        target = named[entry["name"]]
        if list(target.data.shape) != entry["shape"]:
            raise HeaderError(
                f"{path}: tensor {entry['name']} has shape {entry['shape']}, "
                f"architecture expects {list(target.data.shape)}"
            )
        target.data = take(entry["shape"])
    adam = None
    if doc["adam"] is not None:
        adam = AdamState(
            m={e["name"]: take(e["shape"]) for e in index},
            v={e["name"]: take(e["shape"]) for e in index},
            t=int(doc["adam"]["t"]),
        )
    if at != len(blob):
        raise HeaderError(f"{path}: {len(blob) - at} bytes of trailing data")
    return params, adam, doc.get("meta", {})
