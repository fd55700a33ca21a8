"""Acceptance suite: one test per shipping criterion.

Each test prints exactly one summary line, "criterion N <name>: PASS/FAIL
(details)", and `pytest -v` adds its own PASSED/FAILED row per criterion.
Thresholds and budgets are asserted, never logged-and-ignored.
"""

import itertools
import struct
import time

import numpy as np

from oracles import brute_force_map, random_instance
from trn import dataio as dio
from trn import evaluate as ev
from trn import numeric as nm
from trn import skeleton as sk
from trn import training as tr
from trn.model import ChunkStreams, FusionVariant, TrnConfig, TrnParams, trn_forward
from trn.streaming import OnlineDetector


def report(num: int, name: str, ok: bool, details: str) -> None:
    print(f"criterion {num} {name}: {'PASS' if ok else 'FAIL'} ({details})")


def _dims_for(variant: FusionVariant) -> dict:
    if variant is FusionVariant.ONE_STREAM:
        return {"appearance_dim": 5, "motion_dim": None, "pose_dim": None}
    if variant is FusionVariant.TWO_STREAM:
        return {"appearance_dim": 3, "motion_dim": 2, "pose_dim": None}
    return {"appearance_dim": 3, "motion_dim": 2, "pose_dim": 4}


def _random_setup(cfg: TrnConfig, rng: np.random.Generator, generic: bool):
    """Params plus a random input window; `generic` resamples every
    coordinate so no pre-activation sits exactly on a relu kink."""
    params = TrnParams.init(cfg, rng)
    if generic:
        for p in params.named().values():
            p.data = rng.uniform(-0.5, 0.5, size=p.data.shape)
    sequence = [
        ChunkStreams(
            **{
                name: (rng.normal(size=dim) if dim is not None else None)
                for name, dim in (
                    ("appearance", cfg.appearance_dim),
                    ("motion", cfg.motion_dim),
                    ("pose", cfg.pose_dim),
                )
            }
        )
        for _ in range(cfg.seq_len)
    ]
    labels = rng.integers(0, cfg.classes, size=cfg.seq_len)
    return params, sequence, labels


# ---------------------------------------------------------------------------


def test_criterion_1_gradient_correctness():
    # covering design: every axis value (H, T, rollout length, classes)
    # meets every fusion variant, small enough to stay inside the budget
    axis_rows = [
        (4, 2, 1, 3),
        (8, 4, 2, 5),
        (4, 4, 2, 3),
        (8, 2, 1, 5),
    ]
    start = time.monotonic()
    worst = 0.0
    count = 0
    for variant, (h, t, ld, classes) in itertools.product(FusionVariant, axis_rows):
        cfg = TrnConfig(
            fusion_variant=variant,
            hidden_size=h,
            decoder_steps=ld,
            num_actions=classes - 1,
            seq_len=t,
            **_dims_for(variant),
        )
        tc = tr.TrainConfig(seq_len=t, epochs=0, eval_every=0)
        rng = np.random.default_rng(1000 + count)
        params, sequence, labels = _random_setup(cfg, rng, generic=True)
        window = [{n: np.stack([getattr(s, n) for s in sequence]) for n in cfg.streams}]
        grads = tr.sequence_loss(params, tc, window, labels).grads()
        err = nm.grad_check(
            lambda: tr.sequence_loss(params, tc, window, labels).loss,
            list(grads.values()),
            [p.data for p in params.named().values()],
        )
        worst = max(worst, err)
        count += 1
    elapsed = time.monotonic() - start
    ok = worst < 1e-4 and elapsed < 60.0
    report(1, "gradient correctness", ok,
           f"{count} configs, max rel err {worst:.3e}, {elapsed:.1f}s")
    assert worst < 1e-4
    assert elapsed < 60.0


def test_criterion_2_streaming_batch_equivalence():
    rng = np.random.default_rng(2024)
    start = time.monotonic()
    checked = 0
    for draw in range(100):
        variant = list(FusionVariant)[draw % 3]
        cfg = TrnConfig(
            fusion_variant=variant,
            hidden_size=int(rng.integers(2, 9)),
            decoder_steps=int(rng.integers(1, 5)),
            num_actions=int(rng.integers(1, 5)),
            seq_len=int(rng.integers(1, 9)),
            **_dims_for(variant),
        )
        params, sequence, _ = _random_setup(cfg, rng, generic=False)
        batch_out, batch_state = trn_forward(params, sequence)
        det = OnlineDetector(params)
        for t, chunk in enumerate(sequence):
            out = det.push_chunk(chunk)
            assert np.array_equal(out.present, batch_out[t].present)
            for a, b in zip(out.anticipated, batch_out[t].anticipated):
                assert np.array_equal(a, b)
            for a, b in zip(out.predicted_features, batch_out[t].predicted_features):
                assert np.array_equal(a, b)
            checked += 1
        assert np.array_equal(det.state.h, batch_state.h)
        assert np.array_equal(det.state.c, batch_state.c)
    elapsed = time.monotonic() - start
    ok = elapsed < 30.0
    report(2, "streaming equals batch bitwise", ok,
           f"100 draws, {checked} chunks compared, {elapsed:.1f}s")
    assert elapsed < 30.0


def test_criterion_3_causality():
    rng = np.random.default_rng(333)
    for trial in range(20):
        variant = list(FusionVariant)[trial % 3]
        cfg = TrnConfig(
            fusion_variant=variant,
            hidden_size=int(rng.integers(2, 6)),
            decoder_steps=int(rng.integers(1, 4)),
            num_actions=2,
            seq_len=int(rng.integers(3, 9)),
            **_dims_for(variant),
        )
        params, sequence, _ = _random_setup(cfg, rng, generic=False)
        t_len = len(sequence)
        j = int(rng.integers(1, t_len))  # perturb this chunk and later

        det = OnlineDetector(params)
        before = [det.push_chunk(c) for c in sequence]

        perturbed = list(sequence)
        for k in range(j, t_len):
            perturbed[k] = ChunkStreams(
                **{
                    name: (v + rng.normal(size=v.shape) if v is not None else None)
                    for name, v in (
                        ("appearance", sequence[k].appearance),
                        ("motion", sequence[k].motion),
                        ("pose", sequence[k].pose),
                    )
                }
            )
        det.reset()
        after = [det.push_chunk(c) for c in perturbed]
        for t in range(j):
            assert np.array_equal(before[t].present, after[t].present)
            for a, b in zip(before[t].anticipated, after[t].anticipated):
                assert np.array_equal(a, b)
    report(3, "causality", True, "20 trials, outputs before the perturbation unchanged")


def test_criterion_4_map_matches_bruteforce():
    rng = np.random.default_rng(4)
    worst = 0.0
    for _ in range(1000):
        dump, gt = random_instance(rng)
        mine = ev.per_frame_map(dump, gt)
        mean, per_class, skipped = brute_force_map(dump, gt)
        worst = max(worst, abs(mine.mean_ap - mean))
        assert set(mine.per_class) == set(per_class)
        for cls, ap in per_class.items():
            worst = max(worst, abs(mine.per_class[cls] - ap))
        for step in range(1, dump.decoder_steps + 1):
            mine_s = ev.anticipation_map(dump, gt, step)
            mean_s, per_class_s, _ = brute_force_map(dump, gt, step=step)
            worst = max(worst, abs(mine_s.mean_ap - mean_s))
            for cls, ap in per_class_s.items():
                worst = max(worst, abs(mine_s.per_class[cls] - ap))
        assert worst <= 1e-12, worst
    report(4, "mAP equals brute force", True,
           f"1000 instances incl. anticipation, max |diff| {worst:.2e}")


def test_criterion_5_pose_normalization_invariance():
    rng = np.random.default_rng(5)
    worst = 0.0
    trials = 0
    while trials < 1000:
        kp = np.empty((sk.TOTAL_POINTS, 3))
        kp[:, 0] = rng.uniform(-500, 500, size=sk.TOTAL_POINTS)
        kp[:, 1] = rng.uniform(-500, 500, size=sk.TOTAL_POINTS)
        kp[:, 2] = 1.0  # fully confident
        base = sk.normalize_pose(sk.Person(kp))
        if base is None:
            continue  # pelvis/shoulder collision; resample
        shift = rng.uniform(-1000, 1000, size=2)
        lam = rng.uniform(0.1, 10.0)
        moved = kp.copy()
        moved[:, :2] = lam * moved[:, :2] + shift
        out = sk.normalize_pose(sk.Person(moved))
        assert out is not None
        worst = max(worst, float(np.max(np.abs(out - base))))
        assert worst <= 1e-9, worst
        trials += 1

    kp = np.zeros((sk.TOTAL_POINTS, 3))
    kp[sk.MIDHIP] = (100.0, 200.0, 1.0)
    kp[sk.RSHOULDER] = (90.0, 180.0, 1.0)
    kp[sk.LSHOULDER] = (110.0, 180.0, 1.0)
    kp[sk.NOSE] = (100.0, 170.0, 1.0)
    feat = sk.normalize_pose(sk.Person(kp))
    exact = feat[2 * sk.NOSE] == 0.0 and feat[2 * sk.NOSE + 1] == -1.5
    ok = worst <= 1e-9 and exact
    report(5, "pose normalization invariance", ok,
           f"1000 transforms, max drift {worst:.2e}, worked example exact")
    assert exact


def test_criterion_6_synthetic_learnability(tmp_path):
    start = time.monotonic()
    spec = dio.SyntheticSpec(
        num_classes=3,
        appearance_dim=16,
        motion_dim=16,
        # segment lengths are geometric (memoryless), so chunks at segment
        # boundaries are intrinsically unpredictable one step ahead; longer
        # segments raise the anticipation ceiling (~0.82 at 8, ~0.9 at 16)
        mean_segment_len=16,
        num_videos=250,
        video_len=64,
        train_fraction=0.8,
        seed=0,
    )
    manifest = dio.load_manifest(dio.generate_synthetic(spec, str(tmp_path)))
    assert len(manifest.split("train")) == 200
    assert len(manifest.split("test")) == 50
    gt = ev.ground_truth_from_files(
        manifest.resolve(manifest.videos[0].annotations),
        manifest.resolve(manifest.class_map),
    )

    def run(variant, pose_dim, epochs):
        cfg = TrnConfig(
            fusion_variant=variant,
            appearance_dim=16,
            motion_dim=16,
            pose_dim=pose_dim,
            hidden_size=128,
            decoder_steps=8,
            num_actions=3,
            seq_len=64,
        )
        tc = tr.TrainConfig(epochs=epochs, eval_every=0)  # defaults: lr was
        # already 5e-4, weight decay 5e-4, batch 2, window 64, rollout 8
        params, _ = tr.train(manifest, cfg, tc)
        dump = tr.predict_manifest(params, manifest, "test")
        return (
            ev.per_frame_map(dump, gt).mean_ap,
            ev.anticipation_map(dump, gt, 1).mean_ap,
        )

    enc, step1 = run(FusionVariant.TWO_STREAM, None, epochs=3)
    enc_fused, _ = run(FusionVariant.FUSED_TWO_STREAM, 134, epochs=2)
    elapsed = time.monotonic() - start
    ok = enc >= 0.90 and step1 >= 0.80 and enc_fused >= 0.90 and elapsed <= 300.0
    report(6, "synthetic learnability", ok,
           f"two-stream encoder {enc:.4f} step1 {step1:.4f}, "
           f"fused encoder {enc_fused:.4f}, {elapsed:.0f}s")
    assert enc >= 0.90
    assert step1 >= 0.80
    assert enc_fused >= 0.90
    assert elapsed <= 300.0


def test_criterion_7_reference_report_rows():
    # strong-features row
    steps_a = [52.57, 46.69, 41.94, 38.39, 35.90, 34.22, 33.00, 32.08]
    table_a = ev.render_report(0.5525, [s / 100 for s in steps_a], chunk_size=16, fps=24)
    cells_a = table_a.strip().splitlines()[-1].split()[2:]
    want_a = ["55.25"] + [f"{s:.2f}" for s in steps_a] + ["39.35"]
    # weaker-features baseline row
    steps_b = [26.15, 25.89, 25.79, 25.73, 25.66, 25.68, 25.66, 25.57]
    table_b = ev.render_report(0.2593, [s / 100 for s in steps_b], chunk_size=6, fps=24)
    cells_b = table_b.strip().splitlines()[-1].split()[2:]
    want_b = ["25.93"] + [f"{s:.2f}" for s in steps_b] + ["25.77"]

    drift_a = abs(np.mean(steps_a) - 39.35)
    drift_b = abs(np.mean(steps_b) - 25.77)
    ok = cells_a == want_a and cells_b == want_b and drift_a < 0.01 and drift_b < 0.01
    report(7, "reference report rows", ok,
           f"avg drift {drift_a:.4f} / {drift_b:.4f}, rows verbatim")
    assert cells_a == want_a
    assert cells_b == want_b
    assert drift_a < 0.01
    assert drift_b < 0.01


def test_criterion_8_format_robustness(tmp_path):
    rng = np.random.default_rng(8)
    path = str(tmp_path / "victim.trnf")
    kinds = ["magic", "version", "zero_dim", "resize", "truncate", "trailing",
             "nonfinite", "stub"]
    counts = dict.fromkeys(kinds, 0)
    for i in range(10_000):
        t = int(rng.integers(1, 6))
        d = int(rng.integers(1, 8))
        dio.write_features(path, rng.normal(size=(t, d)))
        blob = bytearray(open(path, "rb").read())
        kind = kinds[i % len(kinds)]

        if kind == "magic":
            new = bytes(rng.integers(0, 256, size=4, dtype=np.uint8))
            while new == dio.MAGIC:
                new = bytes(rng.integers(0, 256, size=4, dtype=np.uint8))
            blob[0:4] = new
            expected = dio.BadMagicError
        elif kind == "version":
            v = int(rng.integers(2, 2**31))
            blob[4:8] = struct.pack("<I", v)
            expected = dio.HeaderError
        elif kind == "zero_dim":
            offset = 8 if rng.random() < 0.5 else 12
            blob[offset:offset + 4] = struct.pack("<I", 0)
            expected = dio.HeaderError
        elif kind == "resize":
            new_t = int(rng.integers(1, 12))
            while new_t * d == t * d:
                new_t = int(rng.integers(1, 12))
            blob[8:12] = struct.pack("<I", new_t)
            expected = (
                dio.TruncatedFileError if new_t * d > t * d else dio.TrailingDataError
            )
        elif kind == "truncate":
            cut = int(rng.integers(1, len(blob)))
            blob = blob[:-cut]
            expected = dio.TruncatedFileError
        elif kind == "trailing":
            extra = int(rng.integers(1, 64))
            blob += bytes(rng.integers(0, 256, size=extra, dtype=np.uint8))
            expected = dio.TrailingDataError
        elif kind == "nonfinite":
            bad = rng.choice([np.nan, np.inf, -np.inf])
            at = 16 + 4 * int(rng.integers(0, t * d))
            blob[at:at + 4] = struct.pack("<f", bad)
            expected = dio.NonFiniteValueError
        else:  # stub: shorter than any header
            blob = bytes(rng.integers(0, 256, size=int(rng.integers(0, 16)), dtype=np.uint8))
            expected = dio.TruncatedFileError

        with open(path, "wb") as f:
            f.write(bytes(blob))
        try:
            dio.read_features(path)
        except expected:
            counts[kind] += 1
        # any other exception (or none) falls through to the tally check

    ok = sum(counts.values()) == 10_000
    report(8, "format robustness", ok,
           "10000 corruptions rejected with the expected class: "
           + ", ".join(f"{k}={v}" for k, v in counts.items()))
    assert sum(counts.values()) == 10_000, counts
