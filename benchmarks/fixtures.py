"""Seeded inputs for the three workloads.

Everything here runs before any timer starts. The same seed gives the same
files and arrays. Files are written with trn's own writers, so a later
change to a file format changes the writer and the reader together.
"""

from __future__ import annotations

import os

import numpy as np

from trn import dataio as dio
from trn import training as tr
from trn.model import FusionVariant, TrnConfig, TrnParams

# train: the criterion-6 shape (tests/test_acceptance.py), fewer videos so
# that one training call takes about 3 s and a run holds several of them
TRAIN_VIDEOS = 10
TRAIN_EPOCHS = 2
# set-up's cold call trains on a dataset of its own, one training window
# and one held-out video, so that set-up holds the cold cost and not an
# epoch of warm work
TRAIN_COLD_VIDEOS = 2
TRAIN_MODEL = dict(
    fusion_variant=FusionVariant.TWO_STREAM,
    appearance_dim=16,
    motion_dim=16,
    pose_dim=None,
    hidden_size=128,
    decoder_steps=8,
    num_actions=3,
    seq_len=64,
)

# stream: the paper shape with random-init parameters
STREAM_MODEL = dict(
    fusion_variant=FusionVariant.TWO_STREAM,
    appearance_dim=2048,
    motion_dim=1024,
    pose_dim=None,
    hidden_size=512,
    decoder_steps=8,
    num_actions=20,
)

# offline: a small model over long ragged videos with many short intervals.
# The lengths are fixed and distinct, so every seed does the same work and
# no two videos can share a column batch; the seed draws their contents.
OFFLINE_LENGTHS = (1900, 950, 500, 250)
OFFLINE_MEAN_SEGMENT = 6
# set-up's cold call runs on a video of its own, so its work is the same
# for every seed
OFFLINE_COLD_CHUNKS = 100
OFFLINE_MODEL = dict(
    fusion_variant=FusionVariant.TWO_STREAM,
    appearance_dim=64,
    motion_dim=64,
    pose_dim=None,
    hidden_size=128,
    decoder_steps=8,
    num_actions=20,
)


def train_dataset(seed: int, out_dir: str, num_videos: int = TRAIN_VIDEOS,
                  train_fraction: float = 0.8) -> str:
    """Write the train workload's dataset; returns the manifest path."""
    spec = dio.SyntheticSpec(
        num_classes=TRAIN_MODEL["num_actions"],
        appearance_dim=TRAIN_MODEL["appearance_dim"],
        motion_dim=TRAIN_MODEL["motion_dim"],
        mean_segment_len=16,
        num_videos=num_videos,
        video_len=64,
        train_fraction=train_fraction,
        seed=seed,
    )
    return dio.generate_synthetic(spec, out_dir)


def _segment_labels(length: int, num_actions: int, rng: np.random.Generator) -> np.ndarray:
    """Alternating background and action segments of geometric length."""
    labels = np.zeros(length, dtype=np.int64)
    pos, background = 0, True
    while pos < length:
        n = int(rng.geometric(1.0 / OFFLINE_MEAN_SEGMENT))
        if not background:
            labels[pos : pos + n] = rng.integers(1, num_actions + 1)
        pos += n
        background = not background
    return labels


def _intervals(labels: np.ndarray, chunk_size: int, fps: int) -> list[dio.Interval]:
    # seconds computed as dataio.chunk_labels computes the video horizon,
    # so the last interval never reads as running past the video end
    out = []
    edges = np.flatnonzero(np.diff(labels)) + 1
    for start, end in zip(np.r_[0, edges].tolist(), np.r_[edges, len(labels)].tolist()):
        if labels[start]:
            out.append(
                dio.Interval(
                    f"class_{labels[start]}", start * chunk_size / fps, end * chunk_size / fps
                )
            )
    return out


def offline_dataset(seed: int, out_dir: str) -> dict[str, str]:
    """Write the offline workload's dataset and checkpoint.

    The "test" split holds the ragged videos; the "cold" split holds one
    OFFLINE_COLD_CHUNKS-chunk video for set-up. Returns the paths the CLI
    is called with, and the id of the shortest test video.
    """
    rng = np.random.default_rng(seed)
    os.makedirs(os.path.join(out_dir, "features"), exist_ok=True)
    k = OFFLINE_MODEL["num_actions"]
    chunk_size, fps = 6, 30
    cmap = dio.ClassMap([dio.BACKGROUND_NAME] + [f"class_{c}" for c in range(1, k + 1)])
    dio.write_class_map(os.path.join(out_dir, "classes.tsv"), cmap)
    means = {
        name: rng.normal(size=(k + 1, OFFLINE_MODEL[f"{name}_dim"]))
        for name in ("appearance", "motion")
    }
    annotations = {}
    videos = []
    lengths = list(OFFLINE_LENGTHS)
    for v, length in enumerate(lengths + [OFFLINE_COLD_CHUNKS]):
        video_id = f"video_{v:02d}"
        labels = _segment_labels(length, k, rng)
        annotations[video_id] = _intervals(labels, chunk_size, fps)
        streams = {}
        for name, mean in means.items():
            data = mean[labels] + rng.normal(scale=0.5, size=(length, mean.shape[1]))
            rel = os.path.join("features", f"{video_id}_{name}.trnf")
            dio.write_features(os.path.join(out_dir, rel), data)
            streams[name] = dio.StreamRef(rel, mean.shape[1])
        videos.append(
            dio.VideoEntry(
                video_id=video_id,
                fps=fps,
                chunk_size=chunk_size,
                split="test" if v < len(lengths) else "cold",
                streams=streams,
                annotations="annotations.tsv",
                num_chunks=length,
            )
        )
    dio.write_annotations(os.path.join(out_dir, "annotations.tsv"), annotations)
    manifest = os.path.join(out_dir, "manifest.json")
    dio.save_manifest(
        manifest, dio.Manifest(root=os.path.abspath(out_dir), class_map="classes.tsv", videos=videos)
    )
    ckpt = os.path.join(out_dir, "model.trnc")
    tr.save_checkpoint(ckpt, TrnParams.init(TrnConfig(**OFFLINE_MODEL), rng))
    return {
        "manifest": manifest,
        "ckpt": ckpt,
        "annotations": os.path.join(out_dir, "annotations.tsv"),
        "classmap": os.path.join(out_dir, "classes.tsv"),
        "shortest": f"video_{int(np.argmin(lengths)):02d}",
    }
