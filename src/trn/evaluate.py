"""Per-frame mAP for detection, horizon-indexed mAP for anticipation,
and fixed-width report tables.

Average precision is non-interpolated: samples are ranked by score and AP
is the mean of precision-at-rank over the positives. Ties are pinned down
deterministically by permuting the pool with a fixed-seed shuffle before
a stable descending sort, so equal scores cannot leak input-order bias.

Evaluation granularity is the chunk: the model emits one distribution per
chunk, so each chunk contributes one sample to its class pools. The
`expand_to_frames` flag replicates every chunk sample chunk_size times
for comparison against per-frame protocols; ranking inside a pool is
unchanged, only pool sizes scale.

Anticipation scoring shifts the target: the distribution emitted at chunk
t for decoder step i is scored against the label of chunk t + i, and
pairs that run past the video end are dropped.
"""

from __future__ import annotations

import json
import logging
import sys
from dataclasses import dataclass, field

import numpy as np

from . import dataio as dio
from .numeric import ValidationError

log = logging.getLogger(__name__)


def average_precision(scores, positives) -> float:
    """Non-interpolated AP of one ranked pool.

    scores: N reals; positives: N booleans with at least one True.
    """
    scores = np.asarray(scores, dtype=np.float64)
    positives = np.asarray(positives, dtype=bool)
    if scores.ndim != 1 or scores.shape != positives.shape:
        raise ValidationError(
            f"scores and positives must be equal-length vectors, got {scores.shape} vs {positives.shape}"
        )
    if scores.size == 0 or not positives.any():
        raise ValidationError("average_precision needs at least one positive sample")
    # fixed-seed shuffle then stable sort: deterministic tie handling
    perm = np.random.default_rng(0).permutation(scores.size)
    order = perm[np.argsort(-scores[perm], kind="stable")]
    ranked = positives[order]
    tp = np.cumsum(ranked)
    ranks = np.arange(1, scores.size + 1)
    return float((tp[ranked] / ranks[ranked]).mean())


@dataclass
class VideoPredictions:
    """One video's outputs: present (T, classes), anticipated (T, steps, classes)."""

    present: np.ndarray
    anticipated: np.ndarray

    @property
    def num_chunks(self) -> int:
        return self.present.shape[0]


@dataclass
class PredictionDump:
    chunk_size: int
    fps: float
    decoder_steps: int
    classes: int
    videos: dict[str, VideoPredictions] = field(default_factory=dict)


@dataclass
class GroundTruth:
    intervals: dict[str, list[dio.Interval]]
    cmap: dio.ClassMap


@dataclass
class EvalResult:
    mean_ap: float
    per_class: dict[str, float]
    skipped: list[str]


VideoLabels = dict[str, tuple[np.ndarray, np.ndarray]]


def video_labels(dump: PredictionDump, gt: GroundTruth) -> VideoLabels:
    """(labels, ambiguous mask) per video of the dump, on the dump's clock."""
    return {
        video_id: dio.labels_from_intervals(
            gt.intervals.get(video_id, []), gt.cmap, dump.fps, dump.chunk_size, pred.num_chunks
        )
        for video_id, pred in dump.videos.items()
    }


def _video_pools(dump: PredictionDump, labels: VideoLabels, step: int | None):
    """Yield (scores (N, classes), labels (N,)) per video, ambiguous
    chunks removed and anticipation shift applied when step is given."""
    for video_id, pred in dump.videos.items():
        t = pred.num_chunks
        chunk_labels, excluded = labels[video_id]
        if step is None:
            keep = ~excluded
            yield pred.present[keep], chunk_labels[keep]
        else:
            if not (1 <= step <= dump.decoder_steps):
                raise ValidationError(
                    f"step must lie in [1, {dump.decoder_steps}], got {step}"
                )
            if t <= step:
                continue  # every target falls off the video end
            scores = pred.anticipated[: t - step, step - 1, :]
            keep = ~excluded[step:]
            yield scores[keep], chunk_labels[step:][keep]


def _pooled_map(
    dump: PredictionDump,
    gt: GroundTruth,
    step: int | None,
    expand_to_frames: bool,
    labels: VideoLabels | None,
) -> EvalResult:
    if labels is None:
        labels = video_labels(dump, gt)
    pools = list(_video_pools(dump, labels, step))
    if pools:
        all_scores = np.concatenate([s for s, _ in pools], axis=0)
        all_labels = np.concatenate([l for _, l in pools], axis=0)
    else:
        all_scores = np.zeros((0, dump.classes))
        all_labels = np.zeros(0, dtype=np.int64)
    if expand_to_frames:
        all_scores = np.repeat(all_scores, dump.chunk_size, axis=0)
        all_labels = np.repeat(all_labels, dump.chunk_size, axis=0)
    per_class: dict[str, float] = {}
    skipped: list[str] = []
    for cls in range(1, len(gt.cmap.names)):
        name = gt.cmap.names[cls]
        positives = all_labels == cls
        if not positives.any():
            skipped.append(name)
            log.warning("class %s has no positive samples; skipped", name)
            continue
        per_class[name] = average_precision(all_scores[:, cls], positives)
    mean = float(np.mean(list(per_class.values()))) if per_class else 0.0
    return EvalResult(mean_ap=mean, per_class=per_class, skipped=skipped)


def per_frame_map(
    dump: PredictionDump,
    gt: GroundTruth,
    expand_to_frames: bool = False,
    *,
    labels: VideoLabels | None = None,
) -> EvalResult:
    """Detection mAP: one pooled ranking per action class across videos.

    ``labels`` is ``video_labels(dump, gt)`` for a caller that scores
    several heads of one dump; by default they are computed here.
    """
    return _pooled_map(dump, gt, None, expand_to_frames, labels)


def anticipation_map(
    dump: PredictionDump,
    gt: GroundTruth,
    step: int,
    expand_to_frames: bool = False,
    *,
    labels: VideoLabels | None = None,
) -> EvalResult:
    """Anticipation mAP at decoder step `step` (1-based); ``labels`` as
    for :func:`per_frame_map`."""
    return _pooled_map(dump, gt, step, expand_to_frames, labels)


# ---------------------------------------------------------------------------
# report rendering


def render_report(
    encoder_map: float,
    step_maps: list[float],
    chunk_size: int = 6,
    fps: float = 30,
) -> str:
    """Fixed-width results table, values in percent.

    Inputs are fractions in [0, 1]. Horizon columns carry two headers:
    the arithmetic lookahead of each decoder step (step * chunk_size /
    fps) and the conventional 0.25 s presentation grid. "Avg" is the
    arithmetic mean of the step columns.
    """
    steps = len(step_maps)
    width = 8
    label_w = 12

    def row(label, cells):
        return label.ljust(label_w) + "".join(c.rjust(width) for c in cells) + "\n"

    avg = float(np.mean(step_maps)) if step_maps else 0.0
    lines = ""
    lines += row(
        "horizon (s)", [""] + [f"{(i + 1) * chunk_size / fps:.2f}" for i in range(steps)] + [""]
    )
    lines += row("grid (s)", [""] + [f"{0.25 * (i + 1):.2f}" for i in range(steps)] + [""])
    lines += row("", ["Encoder"] + [f"step {i + 1}" for i in range(steps)] + ["Avg"])
    lines += row(
        "mAP (%)",
        [f"{100 * encoder_map:.2f}"]
        + [f"{100 * v:.2f}" for v in step_maps]
        + [f"{100 * avg:.2f}"],
    )
    return lines


# ---------------------------------------------------------------------------
# prediction dump files (JSON lines)


def write_prediction_dump(path: str, dump: PredictionDump) -> None:
    with open(path, "w", encoding="utf-8") as f:
        header = {
            "type": "config",
            "chunk_size": dump.chunk_size,
            "fps": dump.fps,
            "decoder_steps": dump.decoder_steps,
            "classes": dump.classes,
        }
        f.write(json.dumps(header, sort_keys=True) + "\n")
        for video_id, pred in dump.videos.items():
            for t in range(pred.num_chunks):
                record = {
                    "type": "chunk",
                    "video": video_id,
                    "chunk": t,
                    "present": pred.present[t].tolist(),
                    "anticipated": pred.anticipated[t].tolist(),
                }
                f.write(json.dumps(record, sort_keys=True) + "\n")


def read_prediction_dump(path: str) -> PredictionDump:
    """Read a dump written by :func:`write_prediction_dump`.

    The config record comes first. Each chunk record becomes float64
    arrays as it is read, so no record's Python floats outlive it. A line
    that is not a JSON object, a missing or mistyped field, a distribution
    of the wrong shape and a non-finite value each raise FormatError
    naming ``path:line``.
    """
    dump = None
    rows: dict[str, list[tuple[int, np.ndarray, np.ndarray]]] = {}
    with open(path, "rb") as f:
        for lineno, line in enumerate(f, start=1):
            if not line.strip():
                continue
            where = f"{path}:{lineno}"
            try:
                doc = json.loads(line)
            except ValueError as e:  # JSON syntax or bad UTF-8
                raise dio.FormatError(f"{where}: malformed JSON: {e}") from e
            if not isinstance(doc, dict):
                raise dio.FormatError(f"{where}: expected a JSON object, got {type(doc).__name__}")
            kind = doc.get("type")
            if kind == "config":
                if dump is not None:
                    raise dio.FormatError(f"{where}: second config record")
                dump = _dump_header(doc, where)
            elif kind == "chunk":
                if dump is None:
                    raise dio.FormatError(f"{where}: chunk record before the config record")
                video, chunk = doc.get("video"), doc.get("chunk")
                if not isinstance(video, str) or type(chunk) is not int:
                    raise dio.FormatError(
                        f"{where}: a chunk record needs a string video and an integer chunk"
                    )
                k = dump.classes
                present = _distribution(doc, "present", (k,), where)
                anticipated = _distribution(doc, "anticipated", (dump.decoder_steps, k), where)
                rows.setdefault(video, []).append((chunk, present, anticipated))
            else:
                raise dio.FormatError(f"{where}: unknown record type {kind!r}")
    if dump is None:
        raise dio.FormatError(f"{path}: missing config record")
    for video_id, chunks in rows.items():
        chunks.sort(key=lambda r: r[0])
        if [c for c, _, _ in chunks] != list(range(len(chunks))):
            raise dio.FormatError(f"{path}: {video_id} chunk indices are not contiguous from 0")
        dump.videos[video_id] = VideoPredictions(
            present=np.stack([p for _, p, _ in chunks]),
            anticipated=np.stack([a for _, _, a in chunks]),
        )
    return dump


def _dump_header(doc: dict, where: str) -> PredictionDump:
    """The empty dump a config record declares."""
    values = {}
    for key in ("chunk_size", "decoder_steps", "classes", "fps"):
        v = doc.get(key)
        if key == "fps":
            ok = type(v) in (int, float) and 0 < v <= sys.float_info.max
        else:
            ok = type(v) is int and v > 0
        if not ok:
            kind = "a positive number" if key == "fps" else "a positive integer"
            raise dio.FormatError(f"{where}: config {key} must be {kind}, got {v!r}")
        values[key] = v
    values["fps"] = float(values["fps"])
    return PredictionDump(**values)


def _distribution(doc: dict, key: str, shape: tuple[int, ...], where: str) -> np.ndarray:
    """Field ``key`` of a chunk record as a finite float64 array of ``shape``."""
    if key not in doc:
        raise dio.FormatError(f"{where}: chunk record lacks {key!r}")
    try:
        a = np.array(doc[key])
    except (ValueError, TypeError, OverflowError) as e:  # ragged nesting and the like
        raise dio.FormatError(f"{where}: {key} is not an array of numbers: {e}") from e
    if a.dtype.kind not in "fi" or a.shape != shape:
        raise dio.FormatError(
            f"{where}: {key} must be numbers of shape {shape}, got {a.dtype.name} {a.shape}"
        )
    a = a.astype(np.float64, copy=False)
    if not np.isfinite(a).all():
        raise dio.FormatError(f"{where}: {key} holds a non-finite value")
    return a


def ground_truth_from_files(annotations_path: str, class_map_path: str) -> GroundTruth:
    return GroundTruth(
        intervals=dio.read_annotations(annotations_path),
        cmap=dio.read_class_map(class_map_path),
    )
