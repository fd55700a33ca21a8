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

The loss is a fused kernel over one window rather than a cell run chunk
by chunk. Its forward pass is ``model.window_forward``, the kernel every
inference path runs too (``model.detect_block``): every product off the
recurrence (fusion, embedding, the input projections of the two LSTMs)
runs as one GEMM over all chunks of the window, and so does each
classifier. The tests pin it to the per-chunk ``model.chunk_step``.
The gradient is a hand-derived backpropagation through time, which the
tests check against complex-step derivatives of the kernel; it runs
only when the loss's ``grads()`` is called. It walks the window one
chunk at a time, newest first, takes that chunk's head gradients there,
and writes each step's gradient into the trace block it has just read,
where the weight GEMMs read it. Each loss owns its pass, trace and
operands, and drops it as ``grads()`` returns, so consecutive steps
never hold two traces. A training step is plain numpy from feature
arrays to Adam, which updates in place, a cache-sized slice at a time.

Batching packs same-length windows as columns of one matrix; per-sequence
results are identical to running each window alone (up to float
reassociation in the gemm).
"""

from __future__ import annotations

import logging
from dataclasses import asdict, dataclass, field

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
        for name in ("batch_size", "seq_len"):
            nm.check_int(name, getattr(self, name))
        for name in ("epochs", "seed", "eval_every"):
            nm.check_int(name, getattr(self, name), 0)
        nm.check_real("learning_rate", self.learning_rate, open_lo=True)
        for name in ("weight_decay", "lambda_enc", "lambda_dec"):
            nm.check_real(name, getattr(self, name))


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
    window; any other dtype is a ValidationError. ambiguous: a bool mask
    of the labels' shape (likewise), or None for no chunk marked. An
    ambiguous chunk leaves the encoder head's mean, and a (t, i) pair
    whose target t + i is ambiguous leaves the decoder head's mean; a
    head with nothing left contributes 0.

    Returns the :class:`WindowLoss`: the loss as a float, and its
    gradients from ``grads()``, which alone runs the backward pass.
    """
    lengths = {md.check_streams(params.config, v) for v in videos}
    if len(lengths) != 1:
        raise DimensionError(f"a batch needs windows of one length, got lengths {sorted(lengths)}")
    (t_len,) = lengths
    labels = np.asarray(labels)
    if not np.issubdtype(labels.dtype, np.integer):
        raise ValidationError(f"labels must be integers, got dtype {labels.dtype}")
    want = (t_len,) if labels.ndim == 1 and len(videos) == 1 else (t_len, len(videos))
    if labels.shape != want:
        raise ValidationError(f"labels have shape {labels.shape}, expected {want}")
    classes = params.config.classes
    if labels.min() < 0 or labels.max() >= classes:
        raise ValidationError(
            f"labels must lie in [0, {classes}), got range [{labels.min()}, {labels.max()}]"
        )
    ambiguous = np.zeros(labels.shape, dtype=bool) if ambiguous is None else np.asarray(ambiguous)
    if ambiguous.dtype != bool:
        raise ValidationError(f"ambiguous mask must be boolean, got dtype {ambiguous.dtype}")
    if ambiguous.shape != labels.shape:
        raise ValidationError(f"ambiguous mask has shape {ambiguous.shape}, labels {labels.shape}")
    labels = labels.reshape(t_len, -1).astype(np.int64)
    return WindowLoss(params, config, videos, labels, ambiguous.reshape(t_len, -1))


def _lstm_factors(lstm: np.ndarray) -> None:
    """Turn (6H, N) trace columns of gates [i, f, g, o], tanh(c) and c_prev
    in place into the factors g i (1-i), c_prev f (1-f), i (1-g^2),
    tanh(c) o (1-o), o (1-tanh(c)^2) and f that :func:`_lstm_backward` reads."""
    i, f, g, o, tc, cp = np.split(lstm, 6)
    u, v = np.empty_like(i), np.empty_like(i)
    np.multiply(np.subtract(1.0, np.multiply(g, g, out=u), out=u), i, out=u)
    i *= np.subtract(1.0, i, out=v)
    i *= g
    g[...] = u
    np.multiply(np.multiply(np.subtract(1.0, f, out=v), f, out=v), cp, out=v)
    cp[...] = f
    f[...] = v
    np.multiply(np.subtract(1.0, np.multiply(tc, tc, out=u), out=u), o, out=u)
    o *= np.subtract(1.0, o, out=v)
    o *= tc
    tc[...] = u


def _lstm_backward(fac: np.ndarray, dh: np.ndarray, dc, dz: np.ndarray) -> np.ndarray:
    """Write d(loss)/dz into the (4, H, B) ``dz`` from the step's (6, H, B)
    :func:`_lstm_factors` and the gradients reaching h and c; returns d c_prev.
    ``dz`` may be ``fac[:4]`` itself: each factor row is read before its
    dz row is written, and rows 4 and 5 are never written."""
    dc = dc + dh * fac[4]
    np.multiply(fac[:3], dc, dz[:3])
    np.multiply(fac[3], dh, dz[3])
    return dc * fac[5]


def _bptt(p: dict, run: md.WindowPass, shape: tuple, g_enc: np.ndarray, g_dec: np.ndarray) -> None:
    """Backpropagate the heads' logit gradients through a traced window and
    leave every step's dz (rows :4H) and decoder step k's d_feat (rows
    4H:5H, k >= 1) in that step's block of ``run.lstm``.

    The trace first turns into its factors in place. Then BPTT runs
    newest chunk first; within a chunk the encoder step comes before the
    decoder rollout that produced its future context. A chunk's factors
    are copied into contiguous (6, H, B) blocks, and the gradients the
    heads send to its hiddens, and its feature ReLU mask, are made as
    contiguous (H, B) blocks, so no array of the window's size is made
    here. A step writes its dz and d_feat over the factors it has just
    read, and the chunk's blocks then go back to its trace columns. The
    working arrays die when it returns, before the weight GEMMs run.
    """
    hs, t_len, steps, batch = shape
    trace = md.cols(run.lstm)  # (6H, N), a cache-sized block of columns at a time
    for block in np.array_split(trace, -(-trace.nbytes // 2**20), axis=1):
        _lstm_factors(block)
    # the transposed weights as contiguous copies, made once per window:
    # a GEMM per step on a transposed view costs more (the weights change
    # with every Adam step, so no copy outlives the window)
    wd_t, w_rec_t, wf_t = (np.ascontiguousarray(p[name][:, cut:].T) for name, cut in (
        ("decoder.lstm.w", 0), ("encoder.lstm.w", hs), ("decoder.feat.w", 0)))
    w_dh_t = wd_t[hs:]  # the decoder's h columns
    w_enc_cls_t, w_dec_cls_t = p["encoder.cls.w"].T, p["decoder.cls.w"].T
    # the logit gradients' columns run (t, b) and (step, t, b)
    g_enc = g_enc.reshape(len(g_enc), t_len, batch)
    g_dec = g_dec.reshape(len(g_dec), steps, t_len, batch)

    # per chunk: the gradients reaching the encoder's and the decoder
    # steps' hiddens from the heads, and where the feature ReLU passed
    d_enc_h, d_dec_h = np.empty((hs, batch)), np.empty((steps, hs, batch))
    feat_on = np.empty((steps - 1, hs, batch), dtype=bool)
    fac = np.empty((steps + 1, 6, hs, batch))
    fac_rows = fac.reshape(steps + 1, 6 * hs, batch)
    # per decoder step, newest first: its factors, its dz as (4, H, B) and
    # as (4H, B), and its d_feat
    per_step = [(k, fac[k], fac[k, :4], fac_rows[k, : 4 * hs], fac[k, 4])
                for k in reversed(range(steps))]
    enc_fac, enc_dz, enc_dz_rows = fac[steps], fac[steps, :4], fac_rows[steps, : 4 * hs]
    r_dec, r_enc = np.empty((2 * hs, batch)), np.empty((2 * hs, batch))
    d_ctx, dh_feat, dh_dec = np.empty((hs, batch)), np.empty((hs, batch)), np.empty((hs, batch))
    dh_next, dc_next = np.zeros((hs, batch)), np.zeros((hs, batch))
    for t in reversed(range(t_len)):
        chunk = run.lstm[:, :, t]  # (6H, B, steps + 1)
        for b in range(batch):  # column by column: each copy runs along H
            fac_rows[:, :, b] = chunk[:, b].T
        np.matmul(w_enc_cls_t, g_enc[:, t], out=d_enc_h)
        np.matmul(w_dec_cls_t, g_dec[:, :, t].transpose(1, 0, 2), out=d_dec_h)
        np.greater(run.dec_in[:hs, :, t, 1:steps], 0.0, out=feat_on.transpose(1, 2, 0))
        dh = d_enc_h + dh_next
        dc_prev = _lstm_backward(enc_fac, dh, dc_next, enc_dz)
        np.matmul(w_rec_t, enc_dz_rows, out=r_enc)  # (d ctx; d h_prev)
        d_dec_h += np.true_divide(r_enc[:hs], steps, out=d_ctx)
        dh, dc = d_dec_h[steps - 1], 0.0
        for k, step, dz, dz_rows, d_feat in per_step:
            dc = _lstm_backward(step, dh, dc, dz)
            if k:
                np.matmul(wd_t, dz_rows, out=r_dec)  # (d feature; d h_prev)
                np.multiply(r_dec[:hs], feat_on[k - 1], out=d_feat)
                dh = np.add(d_dec_h[k - 1], r_dec[hs:], out=dh_dec)
                dh += np.matmul(wf_t, d_feat, out=dh_feat)
        # step 1's input half acts on x, whose gradient is one GEMM in grads()
        dh_next = r_enc[hs:] + w_dh_t @ dz_rows
        dc_next = dc_prev + dc
        chunk[: 5 * hs].transpose(2, 0, 1)[...] = fac_rows[:, : 5 * hs]


def _head(logits: np.ndarray, labels: np.ndarray, keep: np.ndarray, weight: float):
    """``weight`` times the mean of -log softmax(logits)[label] over the
    kept columns (0 when none is kept), with the ``CE_CLAMP`` clamp;
    returns (loss, d loss / d logits)."""
    p = nm.softmax_array(logits)
    cols = np.arange(labels.size)
    picked = p[labels, cols]
    logs = np.log(np.maximum(picked, nm.CE_CLAMP))
    p[labels, cols] -= 1.0
    p[:, (picked < nm.CE_CLAMP) | ~keep] = 0.0  # clamped and dropped columns carry none
    count = int(keep.sum())
    scale = weight / count if count else 0.0
    return -logs[keep].sum() * scale, p * scale


class WindowLoss:
    """The two-head loss over one window, with its BPTT.

    ``loss`` is the loss as a float. The forward pass is
    :func:`model.window_forward` from zero state, its trace kept for the
    backward pass; this class adds the heads, each one GEMM over all its
    columns. The backward pass (:meth:`grads`) puts every step's LSTM
    pre-activation gradient in the forward's operand layout, so each
    weight gradient is one GEMM. Gates are [i, f, g, o], the ReLU gradient
    is 0 at 0, and clamped cross-entropy columns carry no gradient.

    ``run`` is the traced pass until ``grads()``, which writes each step's
    dz and d_feat over the trace block it has just read and drops the pass
    before it returns; a second call reruns the forward. ``grads()``
    raises ValidationError once ``adam_step`` has moved the weights the
    forward ran with.
    """

    def __init__(
        self, params: TrnParams, config: TrainConfig, videos, labels: np.ndarray, ambiguous
    ):
        cfg = params.config
        hs, steps = cfg.hidden_size, cfg.decoder_steps
        t_len, batch = labels.shape
        self.params, self.shape = params, (hs, t_len, steps, batch)
        self.raw = md.stack_block(cfg, videos, 0, t_len)
        self.updates = params.updates
        run = self.run = self._forward()

        # heads; the decoder keeps the (step, t, b) whose target t + step is
        # in the window and not ambiguous
        p = params.arrays()
        logits = p["encoder.cls.w"] @ run.enc_h + p["encoder.cls.b"][:, None]
        self.loss, self.g_enc = _head(logits, labels.ravel(), ~ambiguous.ravel(), config.lambda_enc)
        target = np.arange(1, steps + 1)[:, None] + np.arange(t_len)  # (steps, T)
        inside, target = target < t_len, np.minimum(target, t_len - 1)
        keep = inside[..., None] & ~ambiguous[target]
        logits = p["decoder.cls.w"] @ run.dec_h + p["decoder.cls.b"][:, None]
        dec, self.g_dec = _head(logits, labels[target].reshape(-1), keep.reshape(-1), config.lambda_dec)
        self.loss = float(self.loss + dec)

    def _forward(self) -> md.WindowPass:
        """The traced forward, from zero state."""
        zero = np.zeros((self.shape[0], self.shape[3]))
        return md.window_forward(self.params, self.raw, zero, zero, trace=True)

    def grads(self) -> dict[str, np.ndarray]:
        """The gradient of the loss for every parameter, keyed and ordered
        as ``TrnParams.arrays``."""
        if self.params.updates != self.updates:
            raise ValidationError("stale loss: its parameters have since been updated")
        # BPTT writes its gradients over the trace, so the pass serves one call
        run, self.run = self.run or self._forward(), None
        p = self.params.arrays()
        hs, t_len, steps, batch = self.shape
        out: dict[str, np.ndarray] = {}

        # heads, then BPTT, which writes every step's dz and d_feat into the trace
        g_enc, g_dec = self.g_enc, self.g_dec
        out["encoder.cls.w"] = g_enc @ run.enc_h.T
        out["encoder.cls.b"] = g_enc.sum(axis=1)
        out["decoder.cls.w"] = g_dec @ run.dec_h.T
        out["decoder.cls.b"] = g_dec.sum(axis=1)
        _bptt(p, run, self.shape, g_enc, g_dec)

        # weight gradients: one GEMM each (the encoder's in two halves) over
        # the forward's operands and the gradients now in the trace
        cols, lstm, wd, we = md.cols, run.lstm, p["decoder.lstm.w"], p["encoder.lstm.w"]
        dz_dec, dz_enc, x = cols(lstm[: 4 * hs, ..., :steps]), cols(lstm[: 4 * hs, ..., steps]), run.x
        out["decoder.lstm.w"] = dz_dec @ cols(run.dec_in[..., :steps]).T
        out["decoder.lstm.b"] = dz_dec.sum(axis=1)
        w_enc = out["encoder.lstm.w"] = np.empty_like(we)
        np.matmul(dz_enc, x.T, out=w_enc[:, :hs])
        np.matmul(dz_enc, cols(run.enc_in[..., :t_len]).T, out=w_enc[:, hs:])
        out["encoder.lstm.b"] = dz_enc.sum(axis=1)
        d_feat = cols(lstm[4 * hs : 5 * hs, ..., 1:steps])
        out["decoder.feat.w"] = d_feat @ cols(run.dec_in[hs:, ..., 1:steps]).T
        out["decoder.feat.b"] = d_feat.sum(axis=1)

        # input stages: both step-1 projections of x, then embed and fusion
        dx = wd[:, :hs].T @ cols(lstm[: 4 * hs, ..., 0])
        dx += we[:, :hs].T @ dz_enc
        dx *= x > 0.0
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


ADAM_SLICE = 16384  # elements per Adam slice: one 128 KB scratch row, resident in L2


@dataclass
class AdamState:
    """Adam's moments, one pair per parameter, and the step count.
    ``scratch`` is adam_step's (2, ADAM_SLICE) working memory, the same
    size for every model; it is not saved."""

    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    t: int = 0
    scratch: np.ndarray | None = field(default=None, repr=False, compare=False)

    @staticmethod
    def init(params: TrnParams) -> "AdamState":
        return AdamState(
            m={k: np.zeros_like(a) for k, a in params.arrays().items()},
            v={k: np.zeros_like(a) for k, a in params.arrays().items()},
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
    must hold every parameter's gradient, under the parameter's name.
    Every gradient is checked before anything moves: a missing, misshapen
    or non-finite one raises ValidationError with the weights, the moments
    and the step counts untouched.

    Each parameter is updated over its flat view one ``ADAM_SLICE`` at a
    time, so every pass of the update reads a slice still in cache and
    the two scratch rows are one slice long whatever the model's size.
    The operations are elementwise, so slicing moves no bit."""
    missing = [name for name in params.arrays() if name not in grads]
    if missing:
        raise ValidationError(f"no gradient for parameter {', '.join(missing)}")
    flats = []
    for name, w in params.arrays().items():
        g = grads[name]
        # min and max carry any NaN or infinity, without a mask of g's size
        if g.size and not (np.isfinite(g.min()) and np.isfinite(g.max())):
            raise ValidationError(f"non-finite gradient for parameter {name}")
        if g.shape != w.shape:
            raise ValidationError(
                f"gradient shape {g.shape} does not match parameter {name} {w.shape}"
            )
        # the update writes through flat views: a layout reshape would copy is refused
        arrays = (w, state.m[name], state.v[name])
        if not all(a.flags.c_contiguous for a in arrays):
            raise ValidationError(f"parameter {name} or its Adam moments are not C-contiguous")
        flats.append((np.reshape(g, -1), *(a.reshape(-1) for a in arrays)))
    state.t += 1
    params.updates += 1
    bc1 = 1.0 - ADAM_BETA1**state.t
    bc2 = 1.0 - ADAM_BETA2**state.t
    lr, decay = config.learning_rate, config.learning_rate * config.weight_decay
    if state.scratch is None or state.scratch.shape != (2, ADAM_SLICE):
        state.scratch = np.empty((2, ADAM_SLICE))
    # in place, in the textbook's operation order (so to the bit), a slice at a time
    for g_all, w_all, m_all, v_all in flats:
        for lo in range(0, w_all.size, ADAM_SLICE):
            hi = lo + ADAM_SLICE
            g, w, m, v = g_all[lo:hi], w_all[lo:hi], m_all[lo:hi], v_all[lo:hi]
            s1, s2 = state.scratch[0, : w.size], state.scratch[1, : w.size]
            m *= ADAM_BETA1
            m += np.multiply(1.0 - ADAM_BETA1, g, out=s1)
            v *= ADAM_BETA2
            v += np.multiply(np.multiply(1.0 - ADAM_BETA2, g, out=s1), g, out=s1)
            np.sqrt(np.divide(v, bc2, out=s1), out=s1)
            s1 += ADAM_EPS
            w -= np.multiply(np.divide(np.divide(m, bc1, out=s2), s1, out=s2), lr, out=s2)
            if config.weight_decay:
                w -= np.multiply(decay, w, out=s2)


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
    rows: dict[str, list[tuple[int, float, float]]] | None = None,
) -> list[tuple[str, dict[str, np.ndarray], np.ndarray, np.ndarray]]:
    """(video id, stream arrays, labels, ambiguous mask) per video of the
    split; only the named streams are read (all by default). ``rows`` is
    ``dio.video_rows`` over at least the split, read here by default."""
    videos = manifest.split(split)
    if rows is None:
        rows = dio.video_rows(manifest, cmap, videos)
    out = []
    for video in videos:
        arrays = dio.load_video_streams(manifest, video, streams)
        labels, ambiguous = dio.labels_from_intervals(
            rows[video.video_id], video.fps, video.chunk_size, video.num_chunks
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
) -> tuple[TrnParams, list[EpochMetrics]]:
    """Train fresh parameters on the manifest's train split, scoring the
    ``test`` split every ``eval_every`` epochs; deterministic given the seed."""
    rng = np.random.default_rng(train_config.seed)
    cmap = dio.read_class_map(manifest.resolve(manifest.class_map))
    if cmap.num_actions != model_config.num_actions:
        raise ValidationError(
            f"class map has {cmap.num_actions} actions, model expects {model_config.num_actions}"
        )
    params = TrnParams.init(model_config, rng)
    adam = AdamState.init(params)

    # every annotation file either split needs is read, and checked, before the first step
    heldout = manifest.split("test") if train_config.eval_every else []
    rows = dio.video_rows(manifest, cmap, manifest.split("train") + heldout)
    train_videos = load_split(manifest, cmap, "train", params.config.streams, rows)
    if not train_videos:
        raise ValidationError("manifest has no train videos")
    windows = make_windows(train_videos, train_config.seq_len)
    heldout_gt = ev.GroundTruth(rows, cmap) if heldout else None
    # so is every held-out feature file, once for all evaluations
    heldout_streams = [dio.load_video_streams(manifest, v, params.config.streams) for v in heldout]
    # and every video of either split is checked against the model, by name
    ids = [v[0] for v in train_videos] + [v.video_id for v in heldout]
    for video_id, streams in zip(ids, [v[1] for v in train_videos] + heldout_streams):
        md.check_streams(params.config, streams, video_id)

    heldout_labels = None  # labelled once, at the first evaluation
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
            adam_step(params, loss.grads(), adam, train_config)
            losses.append(loss.loss)
        mean_loss = float(np.mean(losses))

        heldout_map = None
        if heldout_gt is not None and epoch % train_config.eval_every == 0:
            dump = predict_manifest(params, manifest, "test", heldout_streams)
            heldout_labels = heldout_labels or ev.video_labels(dump, heldout_gt)
            heldout_map = ev.per_frame_map(dump, heldout_gt, labels=heldout_labels).mean_ap
        metrics.append(EpochMetrics(epoch=epoch, mean_loss=mean_loss, heldout_map=heldout_map))
        log.info(
            "epoch %d: loss %.4f%s",
            epoch,
            mean_loss,
            "" if heldout_map is None else f", held-out mAP {heldout_map:.4f}",
        )
    return params, metrics


def predict_manifest(
    params: TrnParams, manifest: dio.Manifest, split: str, streams: list[dict] | None = None
) -> ev.PredictionDump:
    """Whole-sequence inference over a manifest split; up to
    ``model.GROUP_SIZE`` videos run at once as the columns of one ragged
    batch (``model.forward_videos``). ``streams`` holds each video's
    arrays as ``dio.load_video_streams`` reads them, in split order; they
    are read here by default (``train`` reads its held-out split once)."""
    cfg = params.config
    videos = manifest.split(split)
    chunk_size, fps = dio.split_clock(videos, (cfg.chunk_size, cfg.fps))
    dump = ev.PredictionDump(
        chunk_size=chunk_size, fps=fps, decoder_steps=cfg.decoder_steps, classes=cfg.classes
    )
    if streams is None:
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


def save_checkpoint(path: str, params: TrnParams, meta: dict | None = None) -> None:
    """A TRNC container: the config, tensor index and ``meta`` as the
    index, the parameters as the payload. Identical inputs give identical
    bytes. A non-finite value, which the reader would refuse, raises
    ValidationError before the file is opened."""
    config = params.config
    doc = {
        "config": {**asdict(config), "fusion_variant": config.fusion_variant.value},
        "tensors": _tensor_index(config),
        "adam": None,  # once an optimizer payload; kept so the bytes stay the same
        "meta": meta or {},
    }
    for name, a in params.arrays().items():
        if not np.isfinite(a).all():
            raise ValidationError(f"{name} holds a non-finite value; checkpoint not written")
    dio.write_container(path, CKPT_MAGIC, doc, params.arrays().values())


def load_checkpoint(path: str) -> tuple[TrnParams, dict]:
    """Read a checkpoint written by :func:`save_checkpoint` as (params,
    meta). An index that does not describe this architecture, or that
    declares an optimizer payload, raises HeaderError; the payload's size
    is checked against the index before any tensor is allocated."""

    def layout(doc):
        config = config_from_dict(doc["config"])
        if doc["tensors"] != _tensor_index(config):
            raise HeaderError("tensor index does not match the architecture")
        if doc["adam"] is not None:
            raise HeaderError("the checkpoint carries an Adam payload, which is no longer read")
        return [(f"tensor {k}", shape) for k, shape in md.param_shapes(config).items()]

    doc, arrays = dio.read_container(path, CKPT_MAGIC, layout)
    config = config_from_dict(doc["config"])
    params = TrnParams.from_arrays(config, dict(zip(md.param_shapes(config), arrays)))
    return params, doc.get("meta", {})
