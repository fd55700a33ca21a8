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

import contextlib
import logging
from dataclasses import dataclass, field

import numpy as np

from . import dataio as dio
from .numeric import ValidationError, check_int, check_real

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
    """Annotation rows per video id (``dio.read_annotations``), and their class map."""

    intervals: dict[str, list[tuple[int, float, float]]]
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
            gt.intervals.get(video_id, []), dump.fps, dump.chunk_size, pred.num_chunks
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
    if len(gt.cmap.names) != dump.classes:
        raise ValidationError(f"class map has {len(gt.cmap.names)} classes, "
                              f"the dump scores {dump.classes}")
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
    head = "encoder" if step is None else f"step {step}"
    per_class: dict[str, float] = {}
    skipped: list[str] = []
    for cls in range(1, len(gt.cmap.names)):
        name = gt.cmap.names[cls]
        positives = all_labels == cls
        if not positives.any():
            skipped.append(name)
            log.warning("%s: class %s has no positive samples; skipped", head, name)
            continue
        per_class[name] = average_precision(all_scores[:, cls], positives)
        log.debug("%s AP[%s] = %.6f", head, name, per_class[name])
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
    check_int("step", step, 1, dump.decoder_steps)
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
# prediction dump files (TRND containers)

DUMP_MAGIC = b"TRND"


@contextlib.contextmanager
def prediction_dump_writer(path: str, chunk_size: int, fps: float, decoder_steps: int,
                           classes: int, videos: list[tuple[str, int]]):
    """Build a TRND container at ``path`` block by block: the clock, steps,
    classes, dtype and the ordered ``videos`` list of [video id, chunks] as
    the index, each video's present (T, classes) then anticipated (T, steps,
    classes) as the payload. Yields ``put(j, present, anticipated)``, which
    writes the next rows of video ``j``. A misshapen or non-finite block
    raises ValidationError naming the video (and its chunk in the video),
    and leaves no file but one already at ``path`` (``dio.container_writer``)."""
    doc = {"chunk_size": chunk_size, "fps": fps, "decoder_steps": decoder_steps,
           "classes": classes, "dtype": "float64", "videos": [list(v) for v in videos]}
    shapes = [shape for _, t in videos for shape in ((t, classes), (t, decoder_steps, classes))]
    done = [0] * len(videos)  # chunks written per video

    with dio.container_writer(path, DUMP_MAGIC, doc, shapes) as put_rows:
        def put(j: int, present: np.ndarray, anticipated: np.ndarray) -> None:
            video_id, rows = videos[j][0], len(present)
            for name, a, shape in (("present", present, (rows, classes)),
                                   ("anticipated", anticipated, (rows, decoder_steps, classes))):
                if a.shape != shape:
                    raise ValidationError(f"video {video_id!r}: {name} is {a.shape}, not {shape}")
                if not np.isfinite(a).all():
                    bad = np.nonzero(~np.isfinite(a))[0][0]
                    raise ValidationError(f"video {video_id!r} chunk {done[j] + bad}: "
                                          f"{name} holds a non-finite value")
            put_rows(2 * j, present)
            put_rows(2 * j + 1, anticipated)
            done[j] += rows

        yield put


def write_prediction_dump(path: str, dump: PredictionDump) -> None:
    """Write ``dump`` whole through :func:`prediction_dump_writer`."""
    videos = [(video_id, pred.num_chunks) for video_id, pred in dump.videos.items()]
    with prediction_dump_writer(path, dump.chunk_size, dump.fps, dump.decoder_steps,
                                dump.classes, videos) as put:
        for j, pred in enumerate(dump.videos.values()):
            put(j, pred.present, pred.anticipated)


def read_prediction_dump(path: str) -> PredictionDump:
    """Read a dump written by :func:`write_prediction_dump`; any other file
    raises the FormatError subclass of its fault (``dio.read_container``)."""
    dump = None

    def layout(doc):
        nonlocal dump
        dump = _dump_header(doc)
        seen = set()
        for video_id, t in doc["videos"]:
            if not isinstance(video_id, str) or type(t) is not int or t < 0 or video_id in seen:
                raise dio.HeaderError(f"videos entry {[video_id, t]} is not a new [id, chunks]")
            seen.add(video_id)
            yield f"video {video_id!r} present", (t, dump.classes)
            yield f"video {video_id!r} anticipated", (t, dump.decoder_steps, dump.classes)

    doc, arrays = dio.read_container(path, DUMP_MAGIC, layout)
    for (video_id, _), present, anticipated in zip(doc["videos"], arrays[::2], arrays[1::2]):
        dump.videos[video_id] = VideoPredictions(present, anticipated)
    return dump


def _dump_header(doc: dict) -> PredictionDump:
    """The empty dump an index declares. A bad field raises ValidationError,
    which ``dio.read_container`` reports as a HeaderError."""
    values = {key: check_int(key, doc.get(key))
              for key in ("chunk_size", "decoder_steps", "classes")}
    fps = check_real("fps", doc.get("fps"), open_lo=True)
    if doc.get("dtype") != "float64":
        raise dio.HeaderError(f"dtype must be 'float64', got {doc.get('dtype')!r}")
    return PredictionDump(**values, fps=fps)


def ground_truth_from_files(annotations_path: str, class_map_path: str) -> GroundTruth:
    """Every row of the annotation file, read against the class map."""
    cmap = dio.read_class_map(class_map_path)
    return GroundTruth(dio.read_annotations(annotations_path, cmap), cmap)
