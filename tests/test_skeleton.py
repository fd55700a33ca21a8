import numpy as np
import pytest

from trn import skeleton as sk
from trn.numeric import ValidationError


def blank_person():
    return np.zeros((sk.TOTAL_POINTS, 3))


def make_person(points: dict[int, tuple[float, float]], conf=1.0):
    kp = blank_person()
    for idx, (x, y) in points.items():
        kp[idx] = [x, y, conf]
    return sk.Person(kp)


def full_random_person(rng, spread=50.0):
    """Fully-confident person with a non-degenerate torso."""
    kp = np.ones((sk.TOTAL_POINTS, 3))
    kp[:, 0] = rng.uniform(-spread, spread, sk.TOTAL_POINTS) + 300.0
    kp[:, 1] = rng.uniform(-spread, spread, sk.TOTAL_POINTS) + 400.0
    # keep the scale reference well away from zero
    kp[sk.MIDHIP, :2] = [300.0, 450.0]
    kp[sk.RSHOULDER, :2] = [280.0 + rng.uniform(-5, 5), 360.0 + rng.uniform(-5, 5)]
    kp[sk.LSHOULDER, :2] = [320.0 + rng.uniform(-5, 5), 360.0 + rng.uniform(-5, 5)]
    return sk.Person(kp)


def test_person_shape_validation():
    with pytest.raises(ValidationError):
        sk.Person(np.zeros((25, 3)))
    with pytest.raises(ValidationError):
        sk.Person(np.zeros((67, 2)))


def test_person_confidence_range_validation():
    kp = blank_person()
    kp[0, 2] = 1.5
    with pytest.raises(ValidationError):
        sk.Person(kp)
    kp[0, 2] = -0.1
    with pytest.raises(ValidationError):
        sk.Person(kp)


def test_select_actor_single_and_empty():
    p = make_person({sk.MIDHIP: (0, 0)})
    assert sk.select_actor(sk.PoseFrame([p])) is p
    assert sk.select_actor(sk.PoseFrame([])) is None


def test_select_actor_strict_max():
    weak = sk.Person(np.column_stack([np.zeros(67), np.zeros(67), np.full(67, 12.3 / 67)]))
    strong = sk.Person(np.column_stack([np.zeros(67), np.zeros(67), np.full(67, 45.0 / 67)]))
    assert sk.select_actor(sk.PoseFrame([weak, strong])) is strong


def test_select_actor_tie_keeps_first():
    a = sk.Person(np.column_stack([np.zeros(67), np.zeros(67), np.full(67, 0.5)]))
    b = sk.Person(np.column_stack([np.ones(67), np.ones(67), np.full(67, 0.5)]))
    assert sk.select_actor(sk.PoseFrame([a, b])) is a
    assert sk.select_actor(sk.PoseFrame([b, a])) is b


# ---------------------------------------------------------------------------
# normalization


def test_normalize_pose_worked_example():
    p = make_person(
        {
            sk.MIDHIP: (100.0, 200.0),
            sk.RSHOULDER: (90.0, 180.0),
            sk.LSHOULDER: (110.0, 180.0),
            sk.NOSE: (100.0, 170.0),
        }
    )
    feat = sk.normalize_pose(p)
    assert feat is not None and feat.shape == (134,)
    assert feat[2 * sk.NOSE] == 0.0
    assert feat[2 * sk.NOSE + 1] == -1.5
    assert feat[2 * sk.RSHOULDER] == -0.5
    assert feat[2 * sk.RSHOULDER + 1] == -1.0
    assert feat[2 * sk.MIDHIP] == 0.0 and feat[2 * sk.MIDHIP + 1] == 0.0


def test_normalize_pose_identity_case():
    # MidHip at origin, shoulder midpoint at unit distance
    p = make_person(
        {
            sk.MIDHIP: (0.0, 0.0),
            sk.RSHOULDER: (0.0, -1.0),
            sk.LSHOULDER: (0.0, -1.0),
            sk.NOSE: (0.25, -1.25),
        }
    )
    feat = sk.normalize_pose(p)
    assert feat[2 * sk.NOSE] == 0.25
    assert feat[2 * sk.NOSE + 1] == -1.25


def test_normalize_pose_missing_entries_are_exact_zeros():
    p = make_person(
        {
            sk.MIDHIP: (50.0, 60.0),
            sk.RSHOULDER: (40.0, 40.0),
            sk.LSHOULDER: (60.0, 40.0),
        }
    )
    feat = sk.normalize_pose(p)
    mask = p.keypoints[:, 2] == 0
    assert np.all(feat.reshape(67, 2)[mask] == 0.0)
    assert feat.shape == (134,)


def test_normalize_pose_degenerate_cases():
    # all confidences zero
    assert sk.normalize_pose(sk.Person(blank_person())) is None
    # MidHip missing
    p = make_person({sk.RSHOULDER: (0, 0), sk.LSHOULDER: (2, 0)})
    assert sk.normalize_pose(p) is None
    # both shoulders missing
    p = make_person({sk.MIDHIP: (1, 1)})
    assert sk.normalize_pose(p) is None
    # shoulders collapsed onto the pelvis
    p = make_person({sk.MIDHIP: (5, 5), sk.RSHOULDER: (5, 5), sk.LSHOULDER: (5, 5)})
    assert sk.normalize_pose(p) is None
    assert np.array_equal(sk.pose_chunk_feature([sk.PoseFrame([p])]), np.zeros(134))


def test_normalize_pose_single_shoulder_fallback():
    p = make_person({sk.MIDHIP: (0.0, 0.0), sk.LSHOULDER: (0.0, -2.0), sk.NOSE: (1.0, 0.0)})
    feat = sk.normalize_pose(p)
    assert feat is not None
    assert feat[2 * sk.NOSE] == 0.5  # s = 2 from the one visible shoulder


def test_normalize_pose_translation_and_scale_invariance():
    rng = np.random.default_rng(0)
    for _ in range(60):
        p = full_random_person(rng)
        base = sk.normalize_pose(p)
        dx, dy = rng.uniform(-500, 500, 2)
        lam = rng.uniform(0.1, 10.0)
        kp = p.keypoints.copy()
        kp[:, 0] = (kp[:, 0] + dx) * lam
        kp[:, 1] = (kp[:, 1] + dy) * lam
        moved = sk.normalize_pose(sk.Person(kp))
        assert np.max(np.abs(moved - base)) <= 1e-9


# ---------------------------------------------------------------------------
# chunk aggregation


def valid_frame(rng):
    return sk.PoseFrame([full_random_person(rng)])


def degenerate_frame():
    return sk.PoseFrame([sk.Person(blank_person())])


def test_pose_chunk_feature_single_frame():
    rng = np.random.default_rng(1)
    f = valid_frame(rng)
    expected = sk.normalize_pose(sk.select_actor(f))
    assert np.array_equal(sk.pose_chunk_feature([f]), expected)


def test_pose_chunk_feature_center_frame_wins():
    rng = np.random.default_rng(2)
    frames = [valid_frame(rng) for _ in range(5)]
    expected = sk.normalize_pose(sk.select_actor(frames[2]))
    assert np.array_equal(sk.pose_chunk_feature(frames), expected)


def test_pose_chunk_feature_fallback_to_neighbor():
    rng = np.random.default_rng(3)
    neighbor = valid_frame(rng)
    frames = [degenerate_frame(), degenerate_frame(), degenerate_frame(), neighbor, degenerate_frame()]
    expected = sk.normalize_pose(sk.select_actor(neighbor))
    assert np.array_equal(sk.pose_chunk_feature(frames), expected)


def test_pose_chunk_feature_tie_prefers_earlier_frame():
    rng = np.random.default_rng(4)
    early, late = valid_frame(rng), valid_frame(rng)
    # center index 2 is degenerate; indices 1 and 3 are both valid
    frames = [degenerate_frame(), early, degenerate_frame(), late, degenerate_frame()]
    expected = sk.normalize_pose(sk.select_actor(early))
    assert np.array_equal(sk.pose_chunk_feature(frames), expected)


def test_pose_chunk_feature_all_degenerate():
    frames = [degenerate_frame() for _ in range(4)]
    assert np.array_equal(sk.pose_chunk_feature(frames), np.zeros(134))
    assert np.array_equal(sk.pose_chunk_feature([sk.PoseFrame([])]), np.zeros(134))


def test_pose_chunk_matrix_shape_and_padding():
    rng = np.random.default_rng(5)
    frames = [valid_frame(rng) for _ in range(7)]
    mat = sk.pose_chunk_matrix(frames, chunk_size=3, num_chunks=4)
    assert mat.shape == (4, 134)
    assert np.any(mat[2] != 0)  # chunk 2 holds frame 6 only
    assert np.array_equal(mat[3], np.zeros(134))  # past the end
