"""File formats and synthetic data.

Feature files are a small binary container (magic "TRNF"): header of four
little-endian u32 fields (magic, version, chunk count T, dimension D)
followed by T*D float32 values, row-major. They load as float32, at their
stored precision; the model widens each block it runs to float64, which
is exact.

Checkpoints ("TRNC") and prediction dumps ("TRND") share one indexed
container: magic, u32 version and u64 index length, a sorted-key JSON
index, then C-order little-endian float64 arrays whose shapes the index
determines.

Datasets are described by a JSON manifest listing per-video stream files,
dims, split tags, and annotation references. Annotations are TSV rows of
(video id, class name, start seconds, end seconds); class indices come
from a separate tab-separated class map with background at index 0.

The synthetic generator builds alternating background/action segments
with geometric lengths, Gaussian per-class feature means for the
appearance/motion streams, and per-class gestures for the pose stream,
whose skeletons ``trn.skeleton`` renders and normalizes.
"""

from __future__ import annotations

import contextlib
import json
import logging
import math
import os
import struct
from dataclasses import dataclass, field

import numpy as np

from . import skeleton as sk
from .numeric import ValidationError, check_int, check_real

log = logging.getLogger(__name__)

MAGIC = b"TRNF"
FORMAT_VERSION = 1
HEADER = struct.Struct("<4sIII")

AMBIGUOUS = "Ambiguous"
AMBIGUOUS_LABEL = -1  # the class index an "Ambiguous" row is read as
BACKGROUND_NAME = "Background"


class FormatError(ValueError):
    """A file does not conform to its on-disk format."""


class BadMagicError(FormatError):
    pass


class TruncatedFileError(FormatError):
    pass


class TrailingDataError(FormatError):
    pass


class HeaderError(FormatError):
    pass


class NonFiniteValueError(FormatError):
    pass


# ---------------------------------------------------------------------------
# feature files


def write_features(path: str, data: np.ndarray) -> None:
    """Write a (T, D) feature array as a TRNF file (stored as float32)."""
    arr = np.asarray(data, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
        raise ValidationError(f"features must be a nonempty (T, D) array, got {arr.shape}")
    with np.errstate(over="ignore"):  # overflow is reported as ValidationError
        payload = arr.astype("<f4")
    if not np.all(np.isfinite(payload)):
        raise ValidationError("features contain non-finite values after float32 cast")
    t, d = arr.shape
    with open(path, "wb") as f:
        f.write(HEADER.pack(MAGIC, FORMAT_VERSION, t, d))
        f.write(payload.tobytes(order="C"))


def _feature_header(path: str, head: bytes) -> tuple[int, int]:
    """(T, D) from the leading bytes of a TRNF file, checked."""
    if len(head) < HEADER.size:
        raise TruncatedFileError(f"{path}: file shorter than the {HEADER.size}-byte header")
    magic, version, t, d = HEADER.unpack(head[: HEADER.size])
    if magic != MAGIC:
        raise BadMagicError(f"{path}: bad magic {magic!r}, expected {MAGIC!r}")
    if version != FORMAT_VERSION:
        raise HeaderError(f"{path}: unsupported format version {version}")
    if t < 1 or d < 1:
        raise HeaderError(f"{path}: header declares empty shape ({t}, {d})")
    return t, d


def read_feature_header(path: str) -> tuple[int, int]:
    """Return (T, D) from a TRNF header without loading the payload."""
    with open(path, "rb") as f:
        return _feature_header(path, f.read(HEADER.size))


def read_features(path: str) -> np.ndarray:
    """Load a TRNF file as a writable float32 (T, D) array, at its stored
    precision; the kernel widens it to float64 block by block
    (``model.stack_block``). The payload size is checked against the header
    before anything is allocated, then read straight into the array."""
    with open(path, "rb") as f:
        t, d = _feature_header(path, f.read(HEADER.size))
        expected = t * d * 4
        actual = os.fstat(f.fileno()).st_size - HEADER.size
        if actual < expected:
            raise TruncatedFileError(
                f"{path}: payload holds {actual} bytes, header declares {expected}"
            )
        if actual > expected:
            raise TrailingDataError(
                f"{path}: {actual - expected} bytes of trailing data after the payload"
            )
        values = np.empty((t, d), dtype="<f4")
        if f.readinto(values) != values.nbytes:
            raise TruncatedFileError(f"{path}: payload ends early")
    # min and max propagate NaN and reach any infinity, so both are finite
    # only when every value is (and neither allocates a mask)
    if not (np.isfinite(values.min()) and np.isfinite(values.max())):
        raise NonFiniteValueError(f"{path}: payload contains non-finite values")
    return values


# ---------------------------------------------------------------------------
# indexed float64 containers (checkpoints "TRNC", prediction dumps "TRND")

CONTAINER_VERSION = 1
CONTAINER_HEADER = struct.Struct("<4sIQ")  # magic, version, index length


@contextlib.contextmanager
def container_writer(path: str, magic: bytes, doc: dict, shapes: list[tuple[int, ...]]):
    """Build a container at ``path`` as its arrays are computed: the header
    and ``doc`` as a sorted-key JSON index, then the yielded ``put(i, rows)``
    writes ``rows`` as the next rows of array ``i`` (``shapes`` fixes every
    array's offset), C-order little-endian float64. The file is built under
    a temporary name beside ``path``, renamed over it only once every row is
    written, and removed on any exception, leaving a file already at ``path``.
    A symlink at ``path`` is followed; a device or directory there is refused."""
    path = os.path.realpath(path)
    if os.path.exists(path) and not os.path.isfile(path):
        raise OSError(f"{path} exists and is not a regular file")
    index = json.dumps(doc, sort_keys=True).encode("utf-8")
    row_bytes = [8 * math.prod(shape[1:]) for shape in shapes]
    starts = np.cumsum([CONTAINER_HEADER.size + len(index)] + [8 * math.prod(s) for s in shapes])
    filled = [0] * len(shapes)  # rows written per array

    def put(i: int, rows) -> None:
        a = np.ascontiguousarray(rows, dtype="<f8")
        if a.shape[1:] != shapes[i][1:] or filled[i] + len(a) > shapes[i][0]:
            raise ValueError(f"rows of shape {a.shape} do not fit array {i} of shape "
                             f"{shapes[i]} from its row {filled[i]}")
        if os.pwrite(f.fileno(), a, starts[i] + filled[i] * row_bytes[i]) != a.nbytes:
            raise OSError(f"{path}: short write of array {i}")
        filled[i] += len(a)

    tmp = f"{path}.{os.urandom(4).hex()}.tmp"
    f = open(tmp, "xb")
    try:
        with f:
            f.write(CONTAINER_HEADER.pack(magic, CONTAINER_VERSION, len(index)))
            f.write(index)
            f.flush()  # the rows bypass the buffer: each put is one pwrite at its offset
            yield put
        if filled != [shape[0] for shape in shapes]:
            raise ValueError(f"{path}: rows written per array {filled}, not {shapes}")
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def write_container(path: str, magic: bytes, doc: dict, arrays) -> None:
    """``arrays`` written whole after ``doc`` through :func:`container_writer`.
    Identical inputs give identical bytes."""
    rows = [np.ascontiguousarray(a, dtype="<f8").reshape(1, -1) for a in arrays]
    with container_writer(path, magic, doc, [a.shape for a in rows]) as put:
        for i, a in enumerate(rows):
            put(i, a)


def read_container(path: str, magic: bytes, layout) -> tuple[dict, list[np.ndarray]]:
    """The index and float64 arrays of a container. ``layout(doc)`` checks
    the index and yields each array's (label, shape of non-negative ints) in
    file order; a KeyError, TypeError or ValueError it raises becomes a
    HeaderError. The payload size is checked before any array is read into
    its own buffer, and a non-finite value is reported by its label."""
    with open(path, "rb", buffering=0) as f:
        head = f.read(CONTAINER_HEADER.size)
        if len(head) < CONTAINER_HEADER.size:
            raise TruncatedFileError(f"{path}: file shorter than the 16-byte header")
        got, version, index_len = CONTAINER_HEADER.unpack(head)
        if got != magic:
            raise BadMagicError(f"{path}: bad magic {got!r}, not a {magic.decode()} file")
        if version != CONTAINER_VERSION:
            raise HeaderError(f"{path}: unsupported {magic.decode()} version {version}")
        size = os.fstat(f.fileno()).st_size
        if index_len > size - CONTAINER_HEADER.size:
            raise TruncatedFileError(f"{path}: truncated index")
        try:
            doc = json.loads(f.read(index_len))
            if not isinstance(doc, dict):
                raise HeaderError(f"expected a JSON object, got {type(doc).__name__}")
            shapes = list(layout(doc))
        except (KeyError, TypeError, ValueError) as e:  # JSON syntax and bad UTF-8 too
            raise HeaderError(f"{path}: malformed index: {e}") from e
        expected = sum(8 * math.prod(shape) for _, shape in shapes)
        actual = size - CONTAINER_HEADER.size - index_len
        if actual < expected:
            raise TruncatedFileError(f"{path}: payload holds {actual} of {expected} bytes")
        if actual > expected:
            raise TrailingDataError(f"{path}: {actual - expected} bytes of trailing data")
        arrays = []
        for label, shape in shapes:
            a = np.empty(shape, dtype="<f8")
            if f.readinto(a) != a.nbytes:
                raise TruncatedFileError(f"{path}: {label} ends early")
            if not np.isfinite(a).all():
                raise NonFiniteValueError(f"{path}: {label} holds a non-finite value")
            arrays.append(a)
    return doc, arrays


# ---------------------------------------------------------------------------
# class map / annotations


@dataclass(frozen=True)
class ClassMap:
    """Index-to-name table; index 0 is always the background class."""

    names: list[str]

    def __post_init__(self):
        if len(self.names) < 2:
            raise ValidationError("class map needs background plus at least one action")
        if len(set(self.names)) != len(self.names):
            raise ValidationError("class map has duplicate names")

    @property
    def num_actions(self) -> int:
        return len(self.names) - 1


def write_class_map(path: str, cmap: ClassMap) -> None:
    with open(path, "w", encoding="utf-8") as f:
        for i, name in enumerate(cmap.names):
            f.write(f"{i}\t{name}\n")


def read_class_map(path: str) -> ClassMap:
    """'<index>\\t<name>' rows numbered 0, 1, 2, ... in order, so a row's
    index is the count of rows before it; blank lines may only end the
    file. A skipped index, a gap or a repeated name is a FormatError at
    path:line."""
    seen: dict[str, int] = {}  # name -> its line
    blank = 0  # the first blank line, which only more blank lines may follow
    with open(path, "r", encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            line = line.rstrip("\n")
            if not line:
                blank = blank or lineno
                continue
            if blank:
                raise FormatError(f"{path}:{blank}: blank line between class rows")
            parts = line.split("\t")
            if len(parts) != 2 or parts[0] != str(len(seen)):
                raise FormatError(f"{path}:{lineno}: expected '<index>\\t<name>' rows in "
                                  f"order, index {len(seen)} here")
            if parts[1] in seen:
                raise FormatError(f"{path}:{lineno}: class name {parts[1]!r} repeats "
                                  f"line {seen[parts[1]]}")
            seen[parts[1]] = lineno
    return ClassMap(list(seen))


@dataclass(frozen=True)
class Interval:
    class_name: str
    start: float
    end: float

    def __post_init__(self):
        if not (self.start < self.end):
            raise ValidationError(
                f"interval start must precede end, got [{self.start}, {self.end})"
            )


def write_annotations(path: str, rows: dict[str, list[Interval]]) -> None:
    with open(path, "w", encoding="utf-8") as f:
        for video_id in rows:
            for iv in rows[video_id]:
                f.write(f"{video_id}\t{iv.class_name}\t{iv.start!r}\t{iv.end!r}\n")


def read_annotations(path: str, cmap: ClassMap) -> dict[str, list[tuple[int, float, float]]]:
    """An annotation file's rows per video id, in file order, as (class
    index, start, end), each name resolved against ``cmap`` as it is read
    ("Ambiguous" to AMBIGUOUS_LABEL). A row that is not four fields, an
    unknown name or a span not start < end is a FormatError at path:line."""
    index = {name: i for i, name in enumerate(cmap.names)} | {AMBIGUOUS: AMBIGUOUS_LABEL}
    out: dict[str, list[tuple[int, float, float]]] = {}
    with open(path, "r", encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 4:
                raise FormatError(f"{path}:{lineno}: expected 4 tab-separated fields")
            video_id, name, start_s, end_s = parts
            if name not in index:
                raise FormatError(f"{path}:{lineno}: unknown class name {name!r}")
            try:
                iv = Interval(name, float(start_s), float(end_s))
            except ValueError as e:
                raise FormatError(f"{path}:{lineno}: {e}") from e
            out.setdefault(video_id, []).append((index[name], iv.start, iv.end))
    return out


# ---------------------------------------------------------------------------
# chunk labeling


def chunk_labels(
    intervals: list[tuple[int, float, float]], fps: float, chunk_size: int, num_chunks: int
) -> np.ndarray:
    """Assign one class index per chunk.

    A chunk takes the class of the interval covering its center timestamp
    (t + 0.5) * chunk_size / fps, intervals half-open [start, end). When
    several intervals cover a center, the earliest-starting one wins.
    Uncovered chunks are background (0).
    """
    check_int("chunk_size", chunk_size)
    check_int("num_chunks", num_chunks, 0)
    check_real("fps", fps, open_lo=True)
    horizon = num_chunks * chunk_size / fps
    cleaned = []
    for cls, start, end in intervals:
        if not (start < end):
            raise ValidationError(f"interval start must precede end, got [{start}, {end})")
        if start < 0 or end > horizon:
            log.warning(
                "interval [%s, %s) clipped to the video span [0, %s)", start, end, horizon
            )
            start, end = max(start, 0.0), min(end, horizon)
            if not (start < end):
                continue
        cleaned.append((cls, start, end))
    cleaned.sort(key=lambda iv: iv[1])
    labels = np.zeros(num_chunks, dtype=np.int64)
    if cleaned:
        classes, starts, ends = zip(*cleaned)
        lo, hi = _center_spans(starts, ends, fps, chunk_size, num_chunks)
        # latest start first, so the earliest-starting interval writes last
        for k in reversed(range(len(classes))):
            labels[lo[k] : hi[k]] = classes[k]
    return labels


def interval_chunk_mask(
    intervals: list[tuple[float, float]], fps: float, chunk_size: int, num_chunks: int
) -> np.ndarray:
    """Boolean mask of chunks whose center falls inside any interval."""
    if not intervals:
        return np.zeros(num_chunks, dtype=bool)
    starts, ends = zip(*intervals)
    lo, hi = _center_spans(starts, ends, fps, chunk_size, num_chunks)
    keep = lo < hi
    # +1 where a span opens, -1 where it closes: a chunk is covered while
    # the running sum is positive
    edges = np.bincount(lo[keep], minlength=num_chunks + 1)
    edges -= np.bincount(hi[keep], minlength=num_chunks + 1)
    return np.cumsum(edges[:num_chunks]) > 0


def _center_spans(starts, ends, fps: float, chunk_size: int, num_chunks: int):
    """Per interval [start, end), the chunk range [lo, hi) whose center
    timestamps (t + 0.5) * chunk_size / fps it covers."""
    centers = (np.arange(num_chunks) + 0.5) * (chunk_size / fps)
    lo = np.searchsorted(centers, np.asarray(starts, dtype=np.float64), side="left")
    hi = np.searchsorted(centers, np.asarray(ends, dtype=np.float64), side="left")
    return lo, hi


def labels_from_intervals(
    rows: list[tuple[int, float, float]], fps: float, chunk_size: int, num_chunks: int
) -> tuple[np.ndarray, np.ndarray]:
    """Per-chunk labels and the ambiguous-chunk mask from one video's rows
    as :func:`read_annotations` gives them: AMBIGUOUS_LABEL rows mark chunks
    to ignore, every other row labels chunks with its class index."""
    actions = [row for row in rows if row[0] != AMBIGUOUS_LABEL]
    ambiguous = [(start, end) for label, start, end in rows if label == AMBIGUOUS_LABEL]
    labels = chunk_labels(actions, fps, chunk_size, num_chunks)
    mask = interval_chunk_mask(ambiguous, fps, chunk_size, num_chunks)
    return labels, mask


# ---------------------------------------------------------------------------
# manifest


@dataclass(frozen=True)
class StreamRef:
    path: str
    dim: int


@dataclass(frozen=True)
class VideoEntry:
    video_id: str
    fps: float
    chunk_size: int
    split: str
    streams: dict[str, StreamRef]
    annotations: str
    num_chunks: int


@dataclass(frozen=True)
class Manifest:
    root: str
    class_map: str
    videos: list[VideoEntry]

    def resolve(self, rel: str) -> str:
        return os.path.join(self.root, rel)

    def split(self, tag: str) -> list[VideoEntry]:
        return [v for v in self.videos if v.split == tag]


def save_manifest(path: str, manifest: Manifest) -> None:
    doc = {
        "class_map": manifest.class_map,
        "videos": [
            {
                "id": v.video_id,
                "fps": v.fps,
                "chunk_size": v.chunk_size,
                "split": v.split,
                "annotations": v.annotations,
                "streams": {
                    name: {"path": ref.path, "dim": ref.dim}
                    for name, ref in sorted(v.streams.items())
                },
            }
            for v in manifest.videos
        ],
    }
    with open(path, "w", encoding="utf-8") as f:
        json.dump(doc, f, indent=1, sort_keys=True)
        f.write("\n")


def load_manifest(path: str) -> Manifest:
    """Parse and validate a manifest.

    Every referenced feature file must exist with a header matching the
    declared dimension. Streams of one video must agree on chunk count;
    an off-by-one tail is tolerated (effective count = minimum, with a
    warning), anything worse is an error. A missing ``class_map``, or an
    entry that lacks a key or holds a value of the wrong kind (a boolean
    for fps, chunk_size or a dim among them), is a FormatError naming the
    file, the entry and the key, as is a repeated id.
    """
    root = os.path.dirname(os.path.abspath(path))
    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except json.JSONDecodeError as e:
        raise FormatError(f"{path}: malformed manifest JSON: {e}") from e
    if not isinstance(doc, dict) or not isinstance(doc.get("videos"), list):
        raise FormatError(f"{path}: manifest must be an object with a 'videos' list")
    if not (isinstance(doc.get("class_map"), str) and doc["class_map"]):
        raise FormatError(f"{path}: manifest lacks a 'class_map' path")
    videos = []
    first: dict[str, int] = {}
    for i, entry in enumerate(doc["videos"]):
        where = f"{path}: videos[{i}]"
        try:
            videos.append(_video_entry(root, entry, where))
        except (KeyError, TypeError, AttributeError) as e:
            raise FormatError(f"{where} is malformed: {type(e).__name__} {e}") from e
        if (j := first.setdefault(videos[-1].video_id, i)) != i:
            raise FormatError(f"{path}: videos[{j}] and videos[{i}] share the id "
                              f"{videos[-1].video_id!r}")
    return Manifest(root=root, class_map=doc["class_map"], videos=videos)


def _video_entry(root: str, entry: dict, where: str) -> VideoEntry:
    """One manifest entry, its clock and its feature headers checked."""
    fps = _entry_number(entry["fps"], "fps", where)
    size = _entry_number(entry["chunk_size"], "chunk_size", where, whole=True)
    video_id, split, annotations = (
        _entry_text(entry[key], key, where) for key in ("id", "split", "annotations"))
    streams = {}
    counts = {}
    for name, ref in entry["streams"].items():
        path = _entry_text(ref["path"], f"streams.{name}.path", where)
        dim = _entry_number(ref["dim"], f"streams.{name}.dim", where, whole=True)
        t, d = read_feature_header(os.path.join(root, path))
        if d != dim:
            raise ValidationError(f"{video_id}/{name}: file dim {d} != declared dim {dim}")
        streams[name] = StreamRef(path, dim)
        counts[name] = t
    if not counts:
        raise ValidationError(f"{video_id}: no streams")
    lo, hi = min(counts.values()), max(counts.values())
    if hi - lo > 1:
        raise ValidationError(
            f"{video_id}: stream chunk counts disagree by more than one: {counts}"
        )
    if hi != lo:
        log.warning("%s: stream chunk counts %s truncated to %d", video_id, counts, lo)
    return VideoEntry(
        video_id=video_id,
        fps=fps,
        chunk_size=size,
        split=split,
        streams=streams,
        annotations=annotations,
        num_chunks=lo,
    )


def _entry_number(value, key: str, where: str, whole: bool = False):
    """A positive number (an int where ``whole``) from 6, 6.0 or "6", never a boolean."""
    try:
        x = math.nan if isinstance(value, bool) else float(value)
    except (TypeError, ValueError, OverflowError):
        x = math.nan
    if not (math.isfinite(x) and x > 0 and (x.is_integer() or not whole)):
        what = "a positive integer" if whole else "a finite positive number"
        raise FormatError(f"{where}: {key} must be {what}, got {value!r}")
    return int(x) if whole else x


def _entry_text(value, key: str, where: str) -> str:
    if not isinstance(value, str):
        raise FormatError(f"{where}: {key} must be a string, got {value!r}")
    return value


def load_video_streams(
    manifest: Manifest, video: VideoEntry, names: tuple[str, ...] | None = None
) -> dict[str, np.ndarray]:
    """Load the named streams of one video (all by default), truncated to
    its effective length."""
    out = {}
    for name in video.streams if names is None else names:
        if name not in video.streams:
            raise ValidationError(f"{video.video_id} lacks the {name} stream")
        data = read_features(manifest.resolve(video.streams[name].path))
        out[name] = data[: video.num_chunks]
    return out


def video_rows(manifest: Manifest, cmap: ClassMap, videos: list[VideoEntry]) -> dict[str, list]:
    """:func:`read_annotations` rows per video id, a video's only from its
    own file, each file read once. Rows whose id no entry pairs with their
    file are not applied; a file holding some logs one WARNING with their count."""
    out = {}
    for path in dict.fromkeys(v.annotations for v in videos):
        rows = read_annotations(manifest.resolve(path), cmap)
        paired = {v.video_id for v in manifest.videos if v.annotations == path}
        orphans = sum(len(r) for video_id, r in rows.items() if video_id not in paired)
        if orphans:
            log.warning("%s: %d rows name no video the manifest pairs with this file; "
                        "not applied", path, orphans)
        out |= {video_id: rows.get(video_id, []) for video_id in paired}
    return out


def split_clock(videos: list[VideoEntry], default: tuple[int, float]) -> tuple[int, float]:
    """The (chunk_size, fps) every video shares; ``default`` when there are
    none. Videos on different clocks cannot share one prediction dump, so
    a disagreement is a ValidationError."""
    first_on: dict[tuple[int, float], str] = {}
    for v in videos:
        first_on.setdefault((v.chunk_size, v.fps), v.video_id)
    if len(first_on) > 1:
        raise ValidationError(
            "videos disagree on the clock (chunk_size, fps): "
            + ", ".join(f"{vid} has {clock}" for clock, vid in first_on.items())
        )
    return next(iter(first_on), default)


# ---------------------------------------------------------------------------
# synthetic data


@dataclass(frozen=True)
class SyntheticSpec:
    num_classes: int = 3
    appearance_dim: int = 16
    motion_dim: int = 16
    sigma_ratio: float = 0.2
    mean_segment_len: int = 8
    background_prior: float = 0.5
    num_videos: int = 20
    video_len: int = 64
    train_fraction: float = 0.8
    chunk_size: int = 6
    fps: float = 30.0
    seed: int = 0

    def __post_init__(self):
        for name in ("num_classes", "appearance_dim", "motion_dim", "mean_segment_len",
                     "num_videos", "video_len", "chunk_size"):
            check_int(name, getattr(self, name))
        check_int("seed", self.seed, 0)
        check_real("sigma_ratio", self.sigma_ratio)
        for name in ("background_prior", "train_fraction"):
            check_real(name, getattr(self, name), hi=1.0)
        check_real("fps", self.fps, open_lo=True)


def _segment_labels(spec: SyntheticSpec, rng: np.random.Generator) -> np.ndarray:
    """Alternating background/action segments with geometric lengths."""
    labels = np.zeros(spec.video_len, dtype=np.int64)
    if spec.background_prior >= 1.0:
        return labels
    p_action = min(1.0, 1.0 / spec.mean_segment_len)
    if spec.background_prior <= 0.0:
        p_background = None  # zero-length background segments
    else:
        bg_mean = spec.mean_segment_len * spec.background_prior / (1.0 - spec.background_prior)
        p_background = min(1.0, 1.0 / max(bg_mean, 1.0))
    pos = 0
    in_background = True
    while pos < spec.video_len:
        if in_background:
            length = 0 if p_background is None else int(rng.geometric(p_background))
        else:
            length = int(rng.geometric(p_action))
            cls = int(rng.integers(1, spec.num_classes + 1))
            labels[pos : pos + length] = cls
        pos += length
        in_background = not in_background
    return labels


def _labels_to_intervals(labels: np.ndarray, chunk_size: int, fps: float) -> list[Interval]:
    # boundaries as t * chunk_size / fps, the arithmetic of chunk_labels'
    # video span, so the last interval cannot end one ulp past it
    out = []
    t = 0
    n = len(labels)
    while t < n:
        if labels[t] == 0:
            t += 1
            continue
        start = t
        while t < n and labels[t] == labels[start]:
            t += 1
        out.append(
            Interval(f"class_{labels[start]}", start * chunk_size / fps, t * chunk_size / fps)
        )
    return out


def generate_synthetic(spec: SyntheticSpec, out_dir: str) -> str:
    """Write a synthetic dataset under out_dir; returns the manifest path.

    Deterministic: the same spec (seed included) produces identical bytes.
    """
    rng = np.random.default_rng(spec.seed)
    os.makedirs(os.path.join(out_dir, "features"), exist_ok=True)

    k = spec.num_classes
    # per-class feature means: distinct unit vectors per stream, background
    # included so idle stretches have their own signature
    def class_means(dim):
        m = rng.normal(size=(k + 1, dim))
        return m / np.linalg.norm(m, axis=1, keepdims=True)

    app_means = class_means(spec.appearance_dim)
    mot_means = class_means(spec.motion_dim)
    # class gestures displace arm/hand keypoints by ~a third of torso height
    gestures = np.zeros((k + 1, 2))
    gestures[1:] = 45.0 * np.stack(
        [
            np.cos(2 * np.pi * np.arange(k) / k),
            np.sin(2 * np.pi * np.arange(k) / k) - 0.5,
        ],
        axis=1,
    )
    pose_sigma = 2.0 + 20.0 * spec.sigma_ratio

    cmap = ClassMap([BACKGROUND_NAME] + [f"class_{c}" for c in range(1, k + 1)])
    write_class_map(os.path.join(out_dir, "classes.tsv"), cmap)

    n_train = int(round(spec.num_videos * spec.train_fraction))
    annotations: dict[str, list[Interval]] = {}
    videos = []
    for v in range(spec.num_videos):
        video_id = f"synth_{v:04d}"
        labels = _segment_labels(spec, rng)
        annotations[video_id] = _labels_to_intervals(labels, spec.chunk_size, spec.fps)

        t = spec.video_len
        app = app_means[labels] + rng.normal(scale=spec.sigma_ratio, size=(t, spec.appearance_dim))
        mot = mot_means[labels] + rng.normal(scale=spec.sigma_ratio, size=(t, spec.motion_dim))
        frames = sk.synthetic_pose_frames(labels, spec.chunk_size, gestures, pose_sigma, rng)
        pose = sk.pose_chunk_matrix(frames, spec.chunk_size, t)

        streams = {}
        for name, data in (("appearance", app), ("motion", mot), ("pose", pose)):
            rel = os.path.join("features", f"{video_id}_{name}.trnf")
            write_features(os.path.join(out_dir, rel), data)
            streams[name] = StreamRef(rel, data.shape[1])
        videos.append(
            VideoEntry(
                video_id=video_id,
                fps=spec.fps,
                chunk_size=spec.chunk_size,
                split="train" if v < n_train else "test",
                streams=streams,
                annotations="annotations.tsv",
                num_chunks=t,
            )
        )

    write_annotations(os.path.join(out_dir, "annotations.tsv"), annotations)
    manifest = Manifest(root=os.path.abspath(out_dir), class_map="classes.tsv", videos=videos)
    manifest_path = os.path.join(out_dir, "manifest.json")
    save_manifest(manifest_path, manifest)
    return manifest_path
