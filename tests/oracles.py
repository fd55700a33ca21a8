"""Brute-force reference implementations shared by the test modules.

Everything here is written for clarity over speed: explicit counting at
every rank, quadratic scans, no shared code with the package. The one
exception is the tape: the inference reference steps the package's tape
cell (``chunk_step``) op by op, and tape losses get their analytic
gradients from its backward sweep. No production path runs either. The
tape ops only the tests use (``parameter``, ``add``, ``scale`` and
``cross_entropy``) live here, on the package's graph nodes.
"""

import math

import numpy as np

from trn import dataio as dio
from trn import evaluate as ev
from trn import model as md
from trn import numeric as nm
from trn.model import ChunkStreams


def tape_chunks(config, videos):
    """Per-chunk tape inputs from name -> (T, D) stream arrays: one dict
    gives (D,) vectors, a list of B equal-length dicts (D, B) column
    batches. Only the streams the variant consumes are kept."""
    if isinstance(videos, dict):
        return [ChunkStreams(**{n: videos[n][t] for n in config.streams})
                for t in range(len(videos[config.streams[0]]))]
    arrays = {n: np.stack([v[n] for v in videos], axis=2) for n in config.streams}
    return [ChunkStreams(**{n: a[t] for n, a in arrays.items()})
            for t in range(len(arrays[config.streams[0]]))]


def tape_grads(loss_fn, tensors):
    """(loss, gradient per tensor) of a tape loss, from one backward sweep;
    a tensor the loss does not reach gets zeros."""
    for t in tensors:
        t.zero_grad()
    loss = loss_fn()
    loss.backward()
    return loss.item(), [np.zeros_like(t.data) if t.grad is None else t.grad.copy()
                         for t in tensors]


def tape_grad_check(loss_fn, tensors, h=1e-5):
    """``nm.grad_check`` of a tape loss over ``tensors``: backward-sweep
    gradients against central differences."""
    _, grads = tape_grads(loss_fn, tensors)
    return nm.grad_check(lambda: loss_fn().item(), grads, [t.data for t in tensors], h=h)


def tape_forward(params, sequence, state0=None):
    """Inference over single-chunk vectors on the tape: ``md.chunk_step``
    plus one ``nm.softmax`` per head and step, per chunk. Returns
    (present (T, K), anticipated (T, steps, K), predicted features (T,
    steps, H), final (h, c))."""
    hs = params.config.hidden_size
    h0, c0 = (np.zeros(hs), np.zeros(hs)) if state0 is None else (state0.h, state0.c)
    present, anticipated, features = [], [], []
    with nm.no_grad():
        h, c = nm.tensor(h0), nm.tensor(c0)
        for streams in sequence:
            logits, dec_logits, dec_feats, h, c = md.chunk_step(params, streams, h, c)
            present.append(nm.softmax(logits).data)
            anticipated.append([nm.softmax(z).data for z in dec_logits])
            features.append([f.data for f in dec_feats])
    return np.array(present), np.array(anticipated), np.array(features), (h.data, c.data)


# tape ops only the tests build graphs with: a scalar loss from the
# package's tape ops, and parameter leaves


def parameter(data):
    """Leaf tensor that collects gradients."""
    return nm.Tensor(np.array(data, dtype=np.float64), requires_grad=True)


def add(a, b):
    if a.data.shape != b.data.shape:
        raise nm.DimensionError(f"add: shapes {a.data.shape} and {b.data.shape} differ")

    def backward(g):
        if nm._wants_grad(a):
            nm._accum(a, g)
        if nm._wants_grad(b):
            nm._accum(b, g)

    return nm._result(a.data + b.data, (a, b), backward)


def scale(x, s):
    s = float(s)

    def backward(g):
        if nm._wants_grad(x):
            nm._accum(x, g * s)

    return nm._result(x.data * s, (x,), backward)


def cross_entropy(p, label):
    """Negative log-likelihood -log p[label] of a probability vector.

    The picked probability is clamped at ``nm.CE_CLAMP`` before the log;
    below the clamp the gradient is zero.
    """
    if p.data.ndim != 1:
        raise nm.DimensionError(
            f"cross_entropy: expected a probability vector, got {p.data.shape}"
        )
    label = int(label)
    k = p.data.shape[0]
    if not 0 <= label < k:
        raise nm.ValidationError(f"cross_entropy: label {label} out of range [0, {k})")
    picked = p.data[label]

    def backward(g):
        if nm._wants_grad(p):
            gp = np.zeros_like(p.data)
            if picked >= nm.CE_CLAMP:
                gp[label] = -g[0] / picked
            nm._accum(p, gp)

    return nm._result(np.array([-math.log(max(picked, nm.CE_CLAMP))]), (p,), backward)


def decoder_target_pairs(seq_len, steps):
    """All (chunk t, step i) pairs whose target t + i stays inside a window
    of ``seq_len`` chunks; i is 1-based."""
    pairs = []
    for t in range(seq_len):
        for i in range(1, steps + 1):
            if t + i <= seq_len - 1:
                pairs.append((t, i))
    return pairs


def adam_oracle(w, g, m, v, t, lr, weight_decay, beta1=0.9, beta2=0.999, eps=1e-8):
    """Adam step ``t`` (1-based) with bias correction and decoupled weight
    decay, out of place and operation by operation as the textbook writes
    it; returns the new (w, m, v)."""
    m = beta1 * m + (1.0 - beta1) * g
    v = beta2 * v + (1.0 - beta2) * g * g
    update = (m / (1.0 - beta1**t)) / (np.sqrt(v / (1.0 - beta2**t)) + eps)
    w = w - lr * update
    if weight_decay:
        w = w - lr * weight_decay * w
    return w, m, v


def brute_force_ap(scores, positives):
    """Average precision by explicit counting at every rank."""
    n = len(scores)
    perm = np.random.default_rng(0).permutation(n)
    pool = [(float(scores[i]), bool(positives[i])) for i in perm]
    pool.sort(key=lambda sp: -sp[0])  # python sort is stable
    terms = []
    for rank in range(1, n + 1):
        if pool[rank - 1][1]:
            tp = sum(1 for s, p in pool[:rank] if p)
            terms.append(tp / rank)
    return sum(terms) / len(terms)


def labels_to_intervals(labels, chunk_duration, cmap):
    out = []
    t = 0
    while t < len(labels):
        if labels[t] == 0:
            t += 1
            continue
        start = t
        while t < len(labels) and labels[t] == labels[start]:
            t += 1
        out.append(
            dio.Interval(cmap.names[labels[start]], start * chunk_duration, t * chunk_duration)
        )
    return out


def ground_truth(intervals, cmap):
    """``ev.GroundTruth`` from name-keyed ``dio.Interval`` rows per video.
    Each name is looked up here by a scan of the class map ("Ambiguous" as
    ``dio.AMBIGUOUS_LABEL``), not by the package's reader."""
    def label(name):
        return dio.AMBIGUOUS_LABEL if name == dio.AMBIGUOUS else cmap.names.index(name)

    rows = {vid: [(label(iv.class_name), iv.start, iv.end) for iv in ivs]
            for vid, ivs in intervals.items()}
    return ev.GroundTruth(intervals=rows, cmap=cmap)


def brute_force_chunk_labels(intervals, fps, chunk_size, num_chunks):
    """Label per chunk by scanning every (cls, start, end) interval at every
    chunk center. Among the intervals covering a center, the one whose
    start, clipped to the video at 0, is smallest wins; on equal clipped
    starts the earlier interval in the list wins."""
    duration = chunk_size / fps
    labels = []
    for t in range(num_chunks):
        center = (t + 0.5) * duration
        label, best = 0, None
        for cls, start, end in intervals:
            if start <= center < end and (best is None or max(start, 0.0) < best):
                label, best = cls, max(start, 0.0)
        labels.append(label)
    return np.array(labels, dtype=np.int64)


def brute_force_interval_mask(intervals, fps, chunk_size, num_chunks):
    """Chunks whose center lies in any [start, end), by a full scan."""
    duration = chunk_size / fps
    return np.array(
        [
            any(start <= (t + 0.5) * duration < end for start, end in intervals)
            for t in range(num_chunks)
        ],
        dtype=bool,
    )


def brute_force_map(dump, gt, step=None):
    """Independent pooling + explicit AP enumeration."""
    duration = dump.chunk_size / dump.fps
    pools = {c: ([], []) for c in range(1, len(gt.cmap.names))}
    for video_id, pred in dump.videos.items():
        rows = gt.intervals.get(video_id, [])
        t_total = pred.num_chunks
        labels = []
        excluded = []
        for t in range(t_total):
            center = (t + 0.5) * duration
            label = 0
            best_start = None
            for cls, start, end in rows:
                if cls == dio.AMBIGUOUS_LABEL:
                    continue
                if start <= center < end and (best_start is None or start < best_start):
                    label = cls
                    best_start = start
            labels.append(label)
            excluded.append(
                any(
                    cls == dio.AMBIGUOUS_LABEL and start <= center < end
                    for cls, start, end in rows
                )
            )
        for t in range(t_total):
            if step is None:
                if excluded[t]:
                    continue
                score_row, label = pred.present[t], labels[t]
            else:
                if t + step >= t_total or excluded[t + step]:
                    continue
                score_row, label = pred.anticipated[t, step - 1], labels[t + step]
            for c in pools:
                pools[c][0].append(score_row[c])
                pools[c][1].append(label == c)
    per_class = {}
    skipped = []
    for c, (scores, positives) in pools.items():
        if not any(positives):
            skipped.append(gt.cmap.names[c])
            continue
        per_class[gt.cmap.names[c]] = brute_force_ap(scores, positives)
    mean = sum(per_class.values()) / len(per_class) if per_class else 0.0
    return mean, per_class, skipped


def random_instance(rng):
    """A small random (dump, ground truth) pair with frequent score ties."""
    classes = int(rng.integers(2, 5))
    steps = int(rng.integers(1, 4))
    chunk_size = int(rng.integers(1, 8))
    cmap = dio.ClassMap(["Background"] + [f"class_{i}" for i in range(1, classes)])
    dump = ev.PredictionDump(chunk_size=chunk_size, fps=30, decoder_steps=steps, classes=classes)
    intervals = {}
    duration = chunk_size / 30
    for v in range(int(rng.integers(1, 4))):
        t = int(rng.integers(1, 6))
        vid = f"v{v}"
        labels = rng.integers(0, classes, size=t)
        ivs = labels_to_intervals(labels, duration, cmap)
        if rng.random() < 0.3:
            amb = int(rng.integers(0, t))
            ivs.append(dio.Interval(dio.AMBIGUOUS, amb * duration, (amb + 1) * duration))
        intervals[vid] = ivs
        # scores tie frequently on a coarse grid to stress tie handling
        present = np.round(rng.random((t, classes)), 1)
        anticipated = np.round(rng.random((t, steps, classes)), 1)
        dump.videos[vid] = ev.VideoPredictions(present=present, anticipated=anticipated)
    return dump, ground_truth(intervals, cmap)
