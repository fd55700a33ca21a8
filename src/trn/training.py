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
classifier. The tests pin it to the tape's op-by-op ``model.chunk_step``.
The gradient is a hand-derived backpropagation through time that runs
only when the loss's ``grads()`` is called; a training step is plain
numpy from feature arrays to Adam.

Batching packs same-length windows as columns of one matrix; per-sequence
results are identical to running each window alone (up to float
reassociation in the gemm).
"""

from __future__ import annotations

import itertools
import logging
from dataclasses import asdict, dataclass

import numpy as np

from . import dataio as dio
from . import evaluate as ev
from . import model as md
from . import numeric as nm
from .dataio import HeaderError
from .model import FusionVariant, TrnConfig, TrnParams
from .numeric import DimensionError, ValidationError

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
    videos: list[dict],
    labels: np.ndarray,
    ambiguous: np.ndarray | None = None,
) -> "WindowLoss":
    """Two-head training loss for one window of B columns.

    videos: B name -> (T, D) stream dicts, as ``model.forward_videos``
    takes, all of one length T. labels: (T, B) ints, or (T,) for one
    window. ambiguous: an optional bool mask of the labels' shape. An
    ambiguous chunk leaves the encoder head's mean, and a (t, i) pair whose
    target t + i is ambiguous leaves the decoder head's mean; a head with
    nothing left contributes 0.

    Returns the :class:`WindowLoss`: the loss as a float, and its
    gradients from ``grads()``, which alone runs the backward pass.
    """
    lengths = {md.check_streams(params.config, v) for v in videos}
    if len(lengths) != 1:
        raise DimensionError(f"a batch needs windows of one length, got lengths {sorted(lengths)}")
    (t_len,) = lengths
    labels = np.asarray(labels)
    want = (t_len,) if labels.ndim == 1 and len(videos) == 1 else (t_len, len(videos))
    if labels.shape != want:
        raise ValidationError(f"labels have shape {labels.shape}, expected {want}")
    classes = params.config.classes
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
    labels = labels.reshape(t_len, -1).astype(np.int64)
    return WindowLoss(params, config, videos, labels, ambiguous)


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


class WindowLoss:
    """The two-head loss over one window, with its BPTT.

    ``loss`` is the loss as a float. The forward pass is
    :func:`model.window_forward` from zero state, with its gate traces
    kept for the backward pass; this class adds the heads, each one GEMM
    over all its columns. The backward pass (:meth:`grads`) stores the
    LSTM pre-activation gradients of every step and forms each weight
    gradient as one GEMM over the stacked (gradient, input) columns.
    Gates are [i, f, g, o], the ReLU gradient is 0 at 0, and clamped
    cross-entropy columns carry no gradient.
    """

    def __init__(
        self, params: TrnParams, config: TrainConfig, videos, labels: np.ndarray, ambiguous
    ):
        cfg = params.config
        hs, steps = cfg.hidden_size, cfg.decoder_steps
        t_len, batch = labels.shape
        self.params, self.shape = params, (hs, t_len, steps, batch)
        # row-major, as training has always run: a GEMM's last bits depend
        # on its operands' layout, so this keeps same-seed checkpoints
        self.raw = np.ascontiguousarray(md.stack_block(cfg, videos, 0, t_len))
        zero = np.zeros((hs, batch))
        self.run = run = md.window_forward(params, self.raw, zero, zero, trace=True)

        # heads: encoder over all T, decoder over the (t, i) pairs whose
        # target t + i lies inside the window, in pair order
        keep = None if ambiguous is None else ~ambiguous.reshape(-1)
        self.enc_scale = _head_scale(config.lambda_enc, t_len * batch, keep)
        p = params.arrays()
        logits = p["encoder.cls.w"] @ md.join_cols(run.enc_h) + p["encoder.cls.b"][:, None]
        enc_sum, self.g_enc = _softmax_xent(logits, labels.reshape(-1), keep)
        self.loss = float(enc_sum * self.enc_scale)
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
            logits = p["decoder.cls.w"] @ self.dec_hid + p["decoder.cls.b"][:, None]
            dec_sum, self.g_dec = _softmax_xent(logits, labels[target].reshape(-1), keep)
            self.loss = float(self.loss + dec_sum * self.dec_scale)

    def grads(self) -> dict[str, np.ndarray]:
        """The gradient of the loss for every parameter, keyed and ordered
        as ``TrnParams.named``."""
        p, run = self.params.arrays(), self.run
        hs, t_len, steps, batch = self.shape
        out: dict[str, np.ndarray] = {}

        # heads
        g_enc = self.g_enc * self.enc_scale
        out["encoder.cls.w"] = g_enc @ md.join_cols(run.enc_h).T
        out["encoder.cls.b"] = g_enc.sum(axis=1)
        d_enc_h = md.split_steps(p["encoder.cls.w"].T @ g_enc, t_len)
        d_dec_h = np.zeros((t_len, steps, hs, batch))
        if self.g_dec is None:  # no (t, i) pair inside the window
            out["decoder.cls.w"] = np.zeros_like(p["decoder.cls.w"])
            out["decoder.cls.b"] = np.zeros_like(p["decoder.cls.b"])
        else:
            g_dec = self.g_dec * self.dec_scale
            out["decoder.cls.w"] = g_dec @ self.dec_hid.T
            out["decoder.cls.b"] = g_dec.sum(axis=1)
            d_hid = (p["decoder.cls.w"].T @ g_dec).reshape(hs, -1, batch)
            d_dec_h[self.pairs] = d_hid.transpose(1, 0, 2)

        # BPTT, newest chunk first; within a chunk the encoder step comes
        # before the decoder rollout that produced its future context
        wd, we = p["decoder.lstm.w"], p["encoder.lstm.w"]
        wd_t = wd.T.copy()
        w_rec_t = we[:, hs:].T.copy()  # encoder (ctx; h_prev) columns
        wf_t = p["decoder.feat.w"].T.copy()
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
        if self.params.config.has_fusion_layer:
            du = p["embed.w"].T @ dx
            du *= run.fused > 0.0
            out["fusion.w"] = du @ self.raw.T
            out["fusion.b"] = du.sum(axis=1)
        return {name: out[name] for name in p}


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
    """One in-place Adam update with decoupled weight decay; ``grads``
    must hold every parameter's gradient, under the parameter's name."""
    missing = [name for name in params.named() if name not in grads]
    if missing:
        raise ValidationError(f"no gradient for parameter {', '.join(missing)}")
    state.t += 1
    bc1 = 1.0 - ADAM_BETA1**state.t
    bc2 = 1.0 - ADAM_BETA2**state.t
    for name, tensor in params.named().items():
        g = grads[name]
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
            labels = np.stack([w.labels for w in batch], axis=1)
            ambiguous = np.stack([w.ambiguous for w in batch], axis=1)
            loss = sequence_loss(params, train_config, [w.streams for w in batch], labels, ambiguous)
            # bound, not a temporary: while the gradients live on into the
            # next step, malloc keeps the heap that step's BPTT reuses rather
            # than returning it to the OS and faulting it back in
            grads = loss.grads()
            adam_step(params, grads, adam, train_config)
            losses.append(loss.loss)
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


def predict_manifest(params: TrnParams, manifest: dio.Manifest, split: str) -> ev.PredictionDump:
    """Whole-sequence inference over a manifest split; up to
    ``model.GROUP_SIZE`` videos run at once as the columns of one ragged
    batch (``model.forward_videos``)."""
    cfg = params.config
    videos = manifest.split(split)
    chunk_size, fps = dio.split_clock(videos, (cfg.chunk_size, cfg.fps))
    dump = ev.PredictionDump(
        chunk_size=chunk_size, fps=fps, decoder_steps=cfg.decoder_steps, classes=cfg.classes
    )
    streams = [dio.load_video_streams(manifest, video, cfg.streams) for video in videos]
    for video, (present, anticipated) in zip(videos, md.forward_videos(params, streams)):
        dump.videos[video.video_id] = ev.VideoPredictions(present, anticipated)
    return dump


# ---------------------------------------------------------------------------
# checkpoints


CKPT_MAGIC = b"TRNC"


def config_from_dict(doc: dict) -> TrnConfig:
    doc = dict(doc)
    doc["fusion_variant"] = FusionVariant(doc["fusion_variant"])
    return TrnConfig(**doc)


def _tensor_index(config: TrnConfig) -> list[dict]:
    return [{"name": k, "shape": list(s)} for k, s in md.param_shapes(config).items()]


def save_checkpoint(
    path: str,
    params: TrnParams,
    adam: AdamState | None = None,
    meta: dict | None = None,
) -> None:
    """A TRNC container: the config, tensor index, Adam step and ``meta``
    as the index; the parameters, then Adam's m and v, as the payload.
    Identical inputs give identical bytes. A non-finite value, which the
    reader would refuse, raises ValidationError before the file is opened."""
    config = params.config
    doc = {
        "config": {**asdict(config), "fusion_variant": config.fusion_variant.value},
        "tensors": _tensor_index(config),
        "adam": None if adam is None else {"t": adam.t},
        "meta": meta or {},
    }
    named = params.named()
    arrays = [t.data for t in named.values()]
    if adam is not None:
        arrays += [adam.m[k] for k in named] + [adam.v[k] for k in named]
    for name, a in zip(itertools.cycle(named), arrays):
        if not np.isfinite(a).all():
            raise ValidationError(f"{name} holds a non-finite value; checkpoint not written")
    dio.write_container(path, CKPT_MAGIC, doc, arrays)


def load_checkpoint(path: str) -> tuple[TrnParams, AdamState | None, dict]:
    """Read a checkpoint written by :func:`save_checkpoint`. An index that
    does not describe this architecture raises HeaderError; the payload's
    size is checked against the index before any tensor is allocated."""

    def layout(doc):
        config = config_from_dict(doc["config"])
        if doc["tensors"] != _tensor_index(config):
            raise HeaderError("tensor index does not match the architecture")
        adam = doc["adam"]
        if adam is not None and type(adam["t"]) is not int:
            raise HeaderError("the Adam step must be an integer")
        parts = ["tensor"] if adam is None else ["tensor", "adam m", "adam v"]
        shapes = md.param_shapes(config).items()
        return [(f"{part} {k}", shape) for part in parts for k, shape in shapes]

    doc, arrays = dio.read_container(path, CKPT_MAGIC, layout)
    config = config_from_dict(doc["config"])
    names = list(md.param_shapes(config))
    n = len(names)
    params = TrnParams.from_arrays(config, dict(zip(names, arrays)))
    adam = None
    if doc["adam"] is not None:
        adam = AdamState(
            m=dict(zip(names, arrays[n : 2 * n])), v=dict(zip(names, arrays[2 * n :])),
            t=doc["adam"]["t"],
        )
    return params, adam, doc.get("meta", {})
