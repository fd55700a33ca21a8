"""2D skeleton normalization for the pose feature stream, and the
synthetic skeletons ``trn synth`` renders through it.

Keypoint layout is BODY_25 plus two 21-point hands: 25 + 21 + 21 = 67
keypoints per person, emitted as a 134-dim vector of normalized (x, y)
pairs. Coordinates are re-expressed relative to the pelvis (MidHip) and
scaled by the pelvis-to-shoulder-midpoint distance, which cancels camera
translation and zoom. Confidence values gate which keypoints count as
detected but are not part of the feature. This is the one module that
knows which keypoint index is which joint.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numeric import ValidationError, check_int

BODY_POINTS = 25
HAND_POINTS = 21
TOTAL_POINTS = BODY_POINTS + 2 * HAND_POINTS  # 67
FEATURE_DIM = 2 * TOTAL_POINTS  # 134

# BODY_25 indices used by the normalization
NOSE = 0
RSHOULDER = 2
LSHOULDER = 5
MIDHIP = 8

# below this pelvis-to-shoulder distance (pixels) a pose is degenerate
MIN_SCALE = 1e-6


@dataclass(frozen=True)
class Person:
    """One detected person: (67, 3) array of x, y, confidence rows."""

    keypoints: np.ndarray

    def __post_init__(self):
        kp = np.asarray(self.keypoints, dtype=np.float64)
        if kp.shape != (TOTAL_POINTS, 3):
            raise ValidationError(
                f"person keypoints must be ({TOTAL_POINTS}, 3), got {kp.shape}"
            )
        conf = kp[:, 2]
        if np.any(conf < 0) or np.any(conf > 1):
            raise ValidationError("keypoint confidences must lie in [0, 1]")
        object.__setattr__(self, "keypoints", kp)

    def confidence_sum(self) -> float:
        return float(self.keypoints[:, 2].sum())


@dataclass(frozen=True)
class PoseFrame:
    people: list[Person]


def select_actor(frame: PoseFrame) -> Person | None:
    """Pick the person with the highest total keypoint confidence.

    Ties go to the earliest-listed person; empty frames give None.
    """
    best = None
    best_sum = -1.0
    for person in frame.people:
        s = person.confidence_sum()
        if s > best_sum:
            best, best_sum = person, s
    return best


def normalize_pose(person: Person) -> np.ndarray | None:
    """134-dim normalized coordinates, or None for a degenerate pose.

    Degenerate means: MidHip undetected, both shoulders undetected, or the
    pelvis-to-shoulder-midpoint distance is below MIN_SCALE. Undetected
    keypoints (confidence 0) map to exact (0, 0) pairs.
    """
    kp = person.keypoints
    conf = kp[:, 2]
    if conf[MIDHIP] == 0:
        return None
    shoulders = [i for i in (RSHOULDER, LSHOULDER) if conf[i] > 0]
    if not shoulders:
        return None
    center = kp[MIDHIP, :2]
    mid_shoulder = kp[shoulders, :2].mean(axis=0)
    s = float(np.linalg.norm(mid_shoulder - center))
    if s < MIN_SCALE:
        return None
    out = (kp[:, :2] - center) / s
    out[conf == 0] = 0.0
    return out.reshape(-1)


def pose_chunk_feature(frames: list[PoseFrame]) -> np.ndarray:
    """Per-chunk pose vector: the center frame's normalized pose.

    Falls back to the nearest frame in the chunk with a valid pose
    (earlier frame wins a distance tie), else the zero vector.
    """
    if not frames:
        raise ValidationError("pose_chunk_feature needs at least one frame")
    center = len(frames) // 2
    order = sorted(range(len(frames)), key=lambda j: (abs(j - center), j))
    for j in order:
        actor = select_actor(frames[j])
        if actor is None:
            continue
        feat = normalize_pose(actor)
        if feat is not None:
            return feat
    return np.zeros(FEATURE_DIM)


def pose_chunk_matrix(frames: list[PoseFrame], chunk_size: int, num_chunks: int) -> np.ndarray:
    """Stack per-chunk pose features for a whole video: (num_chunks, 134).

    Chunks past the end of the frame list get zero vectors.
    """
    check_int("chunk_size", chunk_size)
    out = np.zeros((num_chunks, FEATURE_DIM))
    for t in range(num_chunks):
        block = frames[t * chunk_size : (t + 1) * chunk_size]
        if block:
            out[t] = pose_chunk_feature(block)
    return out


# ---------------------------------------------------------------------------
# synthetic skeletons for `trn synth`

_POSE_ANCHORS = {
    # plausible standing-person template, pixel units (BODY_25 indices)
    0: (320, 110),  # nose
    1: (320, 160),  # neck
    2: (285, 165),  # r shoulder
    3: (270, 215),  # r elbow
    4: (262, 262),  # r wrist
    5: (355, 165),  # l shoulder
    6: (370, 215),  # l elbow
    7: (378, 262),  # l wrist
    8: (320, 300),  # mid hip
    9: (300, 302),  # r hip
    10: (298, 380),  # r knee
    11: (296, 455),  # r ankle
    12: (340, 302),  # l hip
    13: (342, 380),  # l knee
    14: (344, 455),  # l ankle
    15: (312, 102),  # r eye
    16: (328, 102),  # l eye
    17: (303, 112),  # r ear
    18: (337, 112),  # l ear
    19: (350, 470),  # l big toe
    20: (354, 472),  # l small toe
    21: (340, 468),  # l heel
    22: (290, 470),  # r big toe
    23: (286, 472),  # r small toe
    24: (300, 468),  # r heel
}


def _pose_template() -> np.ndarray:
    """Fixed 67-keypoint template: BODY_25 anchors plus hand clusters."""
    kp = np.zeros((TOTAL_POINTS, 2))
    for idx, (x, y) in _POSE_ANCHORS.items():
        kp[idx] = (x, y)
    # hands fan out around the wrists on a small fixed grid
    grid = np.stack(
        [np.repeat(np.arange(-3, 4), 3)[:21], np.tile(np.arange(-1, 2), 7)[:21]], axis=1
    )
    kp[BODY_POINTS : BODY_POINTS + HAND_POINTS] = kp[7] + 2.5 * grid
    kp[BODY_POINTS + HAND_POINTS :] = kp[4] + 2.5 * grid
    return kp


# keypoints a class gesture displaces: elbows, wrists, both hands
_GESTURE_POINTS = np.concatenate([[3, 4, 6, 7], np.arange(BODY_POINTS, TOTAL_POINTS)])


def synthetic_pose_frames(
    labels: np.ndarray,
    chunk_size: int,
    gestures: np.ndarray,
    sigma: float,
    rng: np.random.Generator,
) -> list[PoseFrame]:
    """One skeleton per frame: template + class gesture + noise, under a
    random per-video translation and zoom (which normalization removes)."""
    template = _pose_template()
    shift = rng.uniform(-80, 80, size=2)
    zoom = rng.uniform(0.6, 1.6)
    frames = []
    for label in labels:
        for _ in range(chunk_size):
            kp = template + rng.normal(scale=sigma, size=template.shape)
            kp[_GESTURE_POINTS] += gestures[label]
            xy = (kp + shift) * zoom
            person = np.ones((TOTAL_POINTS, 3))
            person[:, :2] = xy
            frames.append(PoseFrame([Person(person)]))
    return frames
