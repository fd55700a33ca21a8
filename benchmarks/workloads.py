"""One benchmark process: build fixtures, measure set-up, or run a workload.

    python3 benchmarks/workloads.py --role {fixture,setup,run} --workload W
        --workdir DIR --seed N --seconds S --trace {0,1} --out FILE

``run.py`` starts this script once per role and reads the JSON it writes
to ``--out``. Every role imports trn from the checkout's ``src/``.

Set-up time runs from just after numpy is loaded, before trn is
imported, to the end of the first (cold) call into the workload's entry
point. Fixture generation happens in its own process and is never timed.
"""

import time

import numpy as np

# numpy's own load time belongs to the host, not to trn: on a shared 2-core
# VM it ranged 0.07-0.2 s between otherwise equal runs
SETUP_START = time.perf_counter()

# the imports below are part of the timed set-up
# ruff: noqa: E402
import argparse
import contextlib
import ctypes
import io
import json
import math
import os
import resource
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.dirname(os.path.abspath(__file__))]

import trn
from trn import cli
from trn import dataio as dio
from trn import evaluate as ev
from trn import model as md
from trn import numeric as nm
from trn import training as tr
from trn.model import ChunkStreams, TrnConfig, TrnParams
from trn.streaming import OnlineDetector

import fixtures as fx
from tracer import Tracer

IMPORT_S = time.perf_counter() - SETUP_START

CHUNK_PERIOD_S = 0.2  # 6 frames at 30 fps: a detection is due before the next chunk
LATENCY_LIMIT_S = 0.2  # one chunk duration
LATENCY_STREAMS = 8
CAPACITY_GRID = tuple(range(8, 68, 4))  # 8, 12, ..., 64
CAPACITY_LEVEL_PERIODS = 10
BACKLOG_GROWTH_S = 0.05
WARMUP_PERIODS = 5
SATURATION_BLOCKS, SATURATION_BLOCK_PUSHES = 8, 100
EXACT_TOL = 1e-12


class Checks:
    """Untimed output checks; each one counts as an attempted operation."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def expect(self, ok, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


def pct(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, or None."""
    with open("/proc/self/maps", encoding="utf-8") as f:
        libs = {line.split()[-1] for line in f if "openblas" in line.lower()}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def quiet_cli(argv):
    """Call ``trn.cli.main`` in process; returns (exit code, stdout text)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def weight_mb_per_step(params: TrnParams) -> float:
    """Parameter bytes one chunk step reads, from tensor sizes.

    Every tensor is read once per step except the decoder's three layers,
    which the rollout reads once per decoder step.
    """
    steps = params.config.decoder_steps
    total = 0
    for name, t in params.named().items():
        total += t.data.nbytes * (steps if name.startswith("decoder.") else 1)
    return total / 1e6


# ---------------------------------------------------------------------------
# tracing


def install_tracer(tracer: Tracer, extra: dict) -> None:
    """Wrap the calls into each trn module that the per-layer metrics use."""
    extra.update(tape_nodes=0, cols=[], read_bytes=0, dump_bytes=0, chunk_step=md.chunk_step)

    def count_tape(args, kwargs):
        with tracer.span("bench.tape_count"):
            seen, stack, n = set(), [args[0]], 0
            while stack:
                node = stack.pop()
                if id(node) in seen or getattr(node, "_backward", None) is None:
                    continue
                seen.add(id(node))
                n += 1
                stack.extend(getattr(node, "_parents", ()))
            extra["tape_nodes"] += n

    def count_cols(args, kwargs):
        if tracer.is_open("training.predict_manifest"):
            first = next(v for v in (args[1][0].appearance, args[1][0].motion, args[1][0].pose)
                         if v is not None)
            extra["cols"].append(np.asarray(first).shape[1] if np.ndim(first) == 2 else 1)

    def count_read(result, args, kwargs):
        extra["read_bytes"] += result.size * 4  # TRNF payloads are float32

    def count_dump(result, args, kwargs):
        extra["dump_bytes"] += os.path.getsize(args[0])

    def heads(original):
        # softmax is the output head only on the inference paths; the
        # training loss calls it too, over whole windows
        def softmax(*args, **kwargs):
            if not (tracer.on and inferring(tracer)):
                return original(*args, **kwargs)
            with tracer.span("model.heads"):
                return original(*args, **kwargs)

        return softmax

    tracer.wrap(nm.Tensor, "backward", "numeric.backward", before=count_tape)
    tracer.replace(nm, "softmax", heads(nm.softmax))
    tracer.replace(md, "chunk_step", staged_chunk_step(tracer, md.chunk_step))
    tracer.wrap(md, "trn_forward", "model.trn_forward")
    tracer.wrap(md, "forward_sequence_logits", "model.forward_sequence", before=count_cols)
    tracer.wrap(OnlineDetector, "push_chunk", "streaming.push", keep_samples=True)
    tracer.wrap(tr, "sequence_loss", "training.sequence_loss")
    tracer.wrap(tr, "adam_step", "training.adam_step")
    tracer.wrap(tr, "predict_manifest", "training.predict_manifest")
    tracer.wrap(tr, "load_checkpoint", "training.load_checkpoint")
    tracer.wrap(dio, "read_features", "dataio.read_features", after=count_read)
    tracer.wrap(dio, "chunk_labels", "dataio.chunk_labels")
    tracer.wrap(dio, "interval_chunk_mask", "dataio.ambiguous_mask")
    tracer.wrap(dio, "load_manifest", "dataio.load_manifest")
    tracer.wrap(ev, "write_prediction_dump", "evaluate.dump_write", after=count_dump)
    tracer.wrap(ev, "read_prediction_dump", "evaluate.dump_read")
    tracer.wrap(ev, "per_frame_map", "evaluate.map")
    tracer.wrap(ev, "anticipation_map", "evaluate.map")
    tracer.wrap(cli, "cmd_infer", "cli.infer")
    tracer.wrap(cli, "cmd_eval", "cli.eval")


INFERENCE_SPANS = ("streaming.push", "model.trn_forward", "training.predict_manifest")


def inferring(tracer: Tracer) -> bool:
    return any(tracer.is_open(name) for name in INFERENCE_SPANS)


def staged_chunk_step(tracer: Tracer, original):
    """``trn.model.chunk_step`` rebuilt from the public stage functions,
    with a span per stage. Untraced calls go to the original."""

    def chunk_step(params, streams, h, c):
        if not tracer.on:
            return original(params, streams, h, c)
        if inferring(tracer):
            tracer.count["model.inference_step"] = tracer.count.get("model.inference_step", 0) + 1
        with tracer.span("model.chunk_step"):
            with tracer.span("model.fuse"):
                fused = md.fuse(params, streams)
            with tracer.span("model.embed"):
                x = md.embed(params, fused)
            with tracer.span("model.rollout"):
                dec_h, dec_logits, dec_feats = md.decoder_rollout(
                    params, h, c, x, params.config.decoder_steps
                )
            with tracer.span("model.gate"):
                ctx = md.future_gate(dec_h)
            with tracer.span("model.encoder"):
                h, c, logits = md.encoder_step(params, x, ctx, h, c)
        return logits, dec_logits, dec_feats, h, c

    return chunk_step


def layer_metrics(tracer: Tracer, extra: dict, units: int):
    """Per-layer metrics shared by every workload, from the traced calls.

    ``units`` is the number of traced repetitions of the workload's unit
    of work; ``*_s`` metrics are per unit.
    """
    t, n, own = tracer.total, tracer.count, tracer.self_time

    def per(name, count_name=None, scale=1000.0, source=None):
        count = n.get(count_name or name, 0)
        value = (source if source is not None else t).get(name, 0.0)
        return value * scale / count if count else 0.0

    windows = extra.get("windows_traced", 0)
    label_calls = n.get("dataio.chunk_labels", 0)
    label_time = t.get("dataio.chunk_labels", 0.0) + t.get("dataio.ambiguous_mask", 0.0)
    read_s = own.get("dataio.read_features", 0.0)
    u = max(units, 1)
    out = {
        "numeric.backward_ms": per("numeric.backward", source=own),
        "numeric.tape_nodes_per_window": extra["tape_nodes"] / windows if windows else 0.0,
        "model.fuse_ms": per("model.fuse", "model.chunk_step"),
        "model.embed_ms": per("model.embed", "model.chunk_step"),
        "model.rollout_ms": per("model.rollout", "model.chunk_step"),
        "model.gate_ms": per("model.gate", "model.chunk_step"),
        "model.encoder_ms": per("model.encoder", "model.chunk_step"),
        "model.heads_ms": per("model.heads", "model.inference_step"),
        "training.loss_forward_ms": per("training.sequence_loss", "training.adam_step"),
        "training.adam_ms": per("training.adam_step"),
        "training.predict_manifest_s": per("training.predict_manifest", scale=1.0),
        "training.predict_cols_per_batch": float(np.mean(extra["cols"])) if extra["cols"] else 0.0,
        "dataio.read_mb_per_s": extra["read_bytes"] / 1e6 / read_s if read_s else 0.0,
        "dataio.labels_ms": label_time * 1000 / label_calls if label_calls else 0.0,
        "dataio.manifest_load_ms": per("dataio.load_manifest"),
        "evaluate.dump_write_s": t.get("evaluate.dump_write", 0.0) / u,
        "evaluate.dump_read_s": t.get("evaluate.dump_read", 0.0) / u,
        "evaluate.map_s": t.get("evaluate.map", 0.0) / u,
        "evaluate.dump_mb": extra["dump_bytes"] / 1e6 / n["evaluate.dump_write"]
        if n.get("evaluate.dump_write") else 0.0,
        "cli.infer_self_s": own.get("cli.infer", 0.0) / u,
        "cli.eval_self_s": own.get("cli.eval", 0.0) / u,
    }
    service = tracer.samples.get("streaming.push", [])
    out["streaming.service_p50_ms"] = pct(service, 50) * 1000 if service else 0.0
    out["streaming.service_p99_ms"] = pct(service, 99) * 1000 if service else 0.0
    out["streaming.queue_wait_p99_ms"] = out["stream.generator_late_ms"] = 0.0  # open loop only
    return out


# ---------------------------------------------------------------------------
# train


def train_units(args, checks: Checks, tracer: Tracer, extra: dict):
    t0 = time.perf_counter()
    manifest = dio.load_manifest(os.path.join(args.workdir, "train", "manifest.json"))
    manifest_ms = (time.perf_counter() - t0) * 1000
    cold = dio.load_manifest(os.path.join(args.workdir, "train-cold", "manifest.json"))
    cfg = TrnConfig(**fx.TRAIN_MODEL)
    t0 = time.perf_counter()
    tr.train(cold, cfg, tr.TrainConfig(epochs=1))
    first_call = time.perf_counter() - t0
    setup_s = time.perf_counter() - SETUP_START
    if args.role == "setup":
        return {"setup_s": setup_s, "first_call_s": first_call}

    seq_len = tr.TrainConfig().seq_len
    windows = sum(math.ceil(v.num_chunks / seq_len) for v in manifest.split("train"))
    windows *= fx.TRAIN_EPOCHS
    times = {False: [], True: []}
    runs = []
    start = time.perf_counter()
    i = 0
    while i < 2 or time.perf_counter() - start < args.seconds:
        traced = tracer.on = bool(args.trace) and i % 2 == 1
        counting = tracer.total.get("bench.tape_count", 0.0)
        t0 = time.perf_counter()
        params, metrics = tr.train(manifest, cfg, tr.TrainConfig(epochs=fx.TRAIN_EPOCHS))
        took = time.perf_counter() - t0
        tracer.on = False
        # the tape walk is the benchmark's own work, not tracing overhead
        times[traced].append(took - (tracer.total.get("bench.tape_count", 0.0) - counting))
        runs.append([(m.mean_loss, m.heldout_map) for m in metrics])
        i += 1
    rss = peak_rss_mb()

    for k, run in enumerate(runs):
        losses = [loss for loss, _ in run]
        checks.expect(all(math.isfinite(x) for x in losses), f"call {k}: non-finite epoch loss {losses}")
        checks.expect(losses[-1] < losses[0], f"call {k}: last epoch loss {losses[-1]} >= first {losses[0]}")
        checks.expect(all(m is not None and 0.0 <= m <= 1.0 for _, m in run),
                      f"call {k}: held-out mAP out of range {run}")
        checks.expect(run == runs[0], f"call {k}: training is not deterministic: {run} != {runs[0]}")
    heldout = manifest.split("test")
    video = heldout[np.random.default_rng(args.seed).integers(len(heldout))]
    dump = tr.predict_manifest(params, manifest, "test")
    streams = dio.load_video_streams(manifest, video)
    sequence = [ChunkStreams(appearance=streams["appearance"][t], motion=streams["motion"][t])
                for t in range(video.num_chunks)]
    outputs, _ = md.trn_forward(params, sequence)
    got = dump.videos[video.video_id]
    err = max(
        float(np.abs(got.present - np.stack([o.present for o in outputs])).max()),
        float(np.abs(got.anticipated - np.stack([np.stack(o.anticipated) for o in outputs])).max()),
    )
    checks.expect(err <= EXACT_TOL, f"predict_manifest differs from trn_forward by {err:.3e}")

    untraced = times[False]
    result = {
        "setup_s": setup_s,
        "first_call_s": first_call,
        "peak_rss_mb": rss,
        "attempted": len(runs),
        "e2e": {
            "throughput_per_s": float(np.median([windows / x for x in untraced])),
            # the inverse of throughput_per_s: a whole call is train's unit
            "latency_ms": float(np.median(untraced)) * 1000,
        },
        "samples": {"throughput_per_s": len(untraced), "latency_ms": len(untraced)},
        "unit_samples_s": times[False],
        "named": {
            "train_windows_per_s": (float(np.median([windows / x for x in untraced])), "1/s",
                                    len(untraced)),
            "train_call_s": (float(np.median(untraced)), "s", len(untraced)),
        },
    }
    if args.trace:
        extra["windows_traced"] = windows * len(times[True])
        layers = layer_metrics(tracer, extra, len(times[True]))
        layers["model.weight_mb_per_push"] = weight_mb_per_step(params)
        layers["dataio.manifest_load_ms"] = manifest_ms
        layers["trace.overhead_pct"] = 100 * (np.median(times[True]) / np.median(untraced) - 1)
        result["layers"] = layers
    return result


# ---------------------------------------------------------------------------
# stream


def open_loop(streams: int, periods: int, rng, push, records: list) -> None:
    """Serve ``streams`` cameras for ``periods`` chunk periods from one thread.

    Each camera's chunk k is due at k * 0.2 s plus an offset drawn afresh
    for every chunk, so the queueing seen does not hang on one draw of
    camera phases. Pushes run in due order as soon as the thread is free;
    latency counts from the due time. Appends (due, start, end, queue
    wait, generator lateness, what ``push`` returned) per push to ``records``.
    """
    offsets = rng.uniform(0.0, CHUNK_PERIOD_S, size=(periods, streams))
    due = (np.arange(periods)[:, None] * CHUNK_PERIOD_S + offsets).ravel()
    cams = np.tile(np.arange(streams), periods)
    order = np.argsort(due, kind="stable")
    clock = time.perf_counter
    t0 = clock() + 0.01
    free_at = t0
    for idx in order:
        due_at = t0 + due[idx]
        wait = due_at - clock()
        if wait > 0.002:
            time.sleep(wait - 0.001)
        while clock() < due_at:
            pass
        begin = clock()
        tag = push(int(cams[idx]))
        end = clock()
        records.append(
            (due_at, begin, end, max(0.0, free_at - due_at), begin - max(due_at, free_at), tag)
        )
        free_at = end


class Cameras:
    """S cameras, each with its own detector and seeded chunk features."""

    def __init__(self, params: TrnParams, streams: int, chunks: int, rng, tracer: Tracer,
                 trace: bool):
        cfg = params.config
        self.app = rng.normal(size=(streams, chunks, cfg.appearance_dim))
        self.mot = rng.normal(size=(streams, chunks, cfg.motion_dim))
        self.detectors = [OnlineDetector(params) for _ in range(streams)]
        self.outputs = [[] for _ in range(streams)]
        self.tracer = tracer
        self.trace = trace
        self.pushes = 0

    def push(self, cam: int) -> bool:
        """Push the camera's next chunk; with a tracer, every other push is traced."""
        k = len(self.outputs[cam])
        traced = self.tracer.on = self.trace and self.pushes % 2 == 1
        out = self.detectors[cam].push_chunk(
            ChunkStreams(appearance=self.app[cam, k], motion=self.mot[cam, k])
        )
        self.tracer.on = False
        self.outputs[cam].append(out)
        self.pushes += 1
        return traced

    def check_distributions(self, checks: Checks, what: str) -> None:
        outs = [o for cam in self.outputs for o in cam]
        dists = np.stack([np.vstack([o.present, *o.anticipated]) for o in outs])
        ok = bool(np.isfinite(dists).all()) and float(np.abs(dists.sum(axis=-1) - 1).max()) <= EXACT_TOL
        checks.expect(ok, f"{what}: a distribution is not finite or does not sum to 1")

    def check_replay(self, params: TrnParams, checks: Checks) -> None:
        """Each camera's outputs equal ``trn_forward`` over its chunks, bitwise."""
        for cam, outs in enumerate(self.outputs):
            seq = [ChunkStreams(appearance=self.app[cam, k], motion=self.mot[cam, k])
                   for k in range(len(outs))]
            ref, _ = md.trn_forward(params, seq)
            same = all(
                np.array_equal(a.present, b.present)
                and all(np.array_equal(x, y) for x, y in zip(a.anticipated, b.anticipated))
                and all(np.array_equal(x, y) for x, y in zip(a.predicted_features, b.predicted_features))
                for a, b in zip(outs, ref)
            )
            checks.expect(same, f"camera {cam}: push_chunk outputs differ from trn_forward")


def level_passes(records, periods: int) -> tuple[bool, float, float]:
    """(passes, p99 latency, backlog growth) for one load level.

    Growth is the rise in median latency from the level's first chunk
    period to its last.
    """
    lat = np.array([end - due for due, _, end, *_ in records])
    per_period = len(lat) // periods
    p99 = pct(lat, 99)
    growth = float(np.median(lat[-per_period:]) - np.median(lat[:per_period]))
    return p99 <= LATENCY_LIMIT_S and growth <= BACKLOG_GROWTH_S, p99, growth


def capacity_search(params, rng, checks: Checks, tracer: Tracer, s8_passes: bool):
    """Largest S of CAPACITY_GRID that meets the latency limit, by bisection.

    S=8 is judged on the latency phase. Each probed level is a fresh set
    of camera sessions, CAPACITY_LEVEL_PERIODS chunk periods long.
    """
    levels = []
    if not s8_passes:
        return 0, levels, 0
    lo, hi, pushes = 0, len(CAPACITY_GRID), 0
    while hi - lo > 1:
        mid = (lo + hi) // 2
        streams = CAPACITY_GRID[mid]
        cams = Cameras(params, streams, CAPACITY_LEVEL_PERIODS, rng, tracer, trace=False)
        records = []
        open_loop(streams, CAPACITY_LEVEL_PERIODS, rng, cams.push, records)
        cams.check_distributions(checks, f"capacity level S={streams}")
        passes, p99, growth = level_passes(records, CAPACITY_LEVEL_PERIODS)
        levels.append((streams, p99, growth))
        pushes += cams.pushes
        lo, hi = (mid, hi) if passes else (lo, mid)
    return CAPACITY_GRID[lo], levels, pushes


def saturation(params, rng, checks: Checks, tracer: Tracer) -> tuple[float, int]:
    """Chunks per second one thread completes with pushes back to back.

    A closed loop over LATENCY_STREAMS fresh camera sessions: the median
    rate of SATURATION_BLOCKS blocks, so one stall on a shared host moves
    one block, not the result. No offered load caps it. Returns (rate,
    pushes).
    """
    n = SATURATION_BLOCKS * SATURATION_BLOCK_PUSHES
    cams = Cameras(params, LATENCY_STREAMS, -(-n // LATENCY_STREAMS), rng, tracer, trace=False)
    rates = []
    for _ in range(SATURATION_BLOCKS):
        t0 = time.perf_counter()
        for _ in range(SATURATION_BLOCK_PUSHES):
            cams.push(cams.pushes % LATENCY_STREAMS)
        rates.append(SATURATION_BLOCK_PUSHES / (time.perf_counter() - t0))
    cams.check_distributions(checks, "saturation")
    return float(np.median(rates)), cams.pushes


def stream_units(args, checks: Checks, tracer: Tracer, extra: dict):
    cfg = TrnConfig(**fx.STREAM_MODEL)
    rng = np.random.default_rng(args.seed)
    first_chunk = ChunkStreams(appearance=rng.normal(size=cfg.appearance_dim),
                               motion=rng.normal(size=cfg.motion_dim))
    # random-init parameters are generated input, like a fixture: their
    # cost is page faults and RNG, which swung 2x with the host
    t0 = time.perf_counter()
    params = TrnParams.init(cfg, np.random.default_rng([args.seed, 0]))
    init_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    OnlineDetector(params).push_chunk(first_chunk)
    first_call = time.perf_counter() - t0
    setup_s = time.perf_counter() - SETUP_START - init_s
    if args.role == "setup":
        return {"setup_s": setup_s, "first_call_s": first_call}

    latency_periods = round(args.seconds / CHUNK_PERIOD_S)
    cams = Cameras(params, LATENCY_STREAMS, WARMUP_PERIODS + latency_periods, rng, tracer,
                   trace=bool(args.trace))
    open_loop(LATENCY_STREAMS, WARMUP_PERIODS, rng, cams.push, [])
    records = []
    open_loop(LATENCY_STREAMS, latency_periods, rng, cams.push, records)
    lat = [end - due for due, _, end, *_ in records]
    service = [end - begin for _, begin, end, *_ in records]
    rss = peak_rss_mb()  # before the capacity levels, whose size varies by seed
    pushes = cams.pushes
    levels, capacity, rate = [], 0, 0.0
    if not args.trace:
        rate, more = saturation(params, rng, checks, tracer)
        pushes += more
        s8_passes, p99, growth = level_passes(records, latency_periods)
        capacity, levels, more = capacity_search(params, rng, checks, tracer, s8_passes)
        levels.insert(0, (LATENCY_STREAMS, p99, growth))
        pushes += more

    cams.check_distributions(checks, "latency phase")
    cams.check_replay(params, checks)
    if args.trace:
        probe = Tracer()
        probe.on = True
        with nm.no_grad():
            zero = nm.tensor(np.zeros(cfg.hidden_size))
            want = extra["chunk_step"](params, first_chunk, zero, zero)
            got = staged_chunk_step(probe, extra["chunk_step"])(params, first_chunk, zero, zero)
        same = all(np.array_equal(a.data, b.data) for a, b in zip(flat(want), flat(got)))
        checks.expect(same, "rebuilt chunk_step differs from trn.model.chunk_step")

    result = {
        "setup_s": setup_s,
        "first_call_s": first_call,
        "peak_rss_mb": rss,
        "attempted": pushes,
        "e2e": {
            "throughput_per_s": rate,
            "latency_ms": pct(lat, 50) * 1000,
        },
        "samples": {"throughput_per_s": SATURATION_BLOCKS, "latency_ms": len(lat)},
        "named": {
            "push_p50_ms": (pct(lat, 50) * 1000, "ms", len(lat)),
            "push_p99_ms": (pct(lat, 99) * 1000, "ms", len(lat)),
            "push_service_p50_ms": (pct(service, 50) * 1000, "ms", len(service)),
            "stream_capacity": (capacity, "streams", len(levels)),
        },
        "capacity_levels": [
            {"streams": s, "p99_ms": p * 1000, "backlog_growth_ms": g * 1000} for s, p, g in levels
        ],
    }
    if args.trace:
        traced = [end - begin for _, begin, end, *_, tag in records if tag]
        untraced = [end - begin for _, begin, end, *_, tag in records if not tag]
        layers = layer_metrics(tracer, extra, 1)
        layers["model.weight_mb_per_push"] = weight_mb_per_step(params)
        layers["streaming.queue_wait_p99_ms"] = pct([r[3] for r in records], 99) * 1000
        layers["stream.generator_late_ms"] = pct([r[4] for r in records], 99) * 1000
        layers["trace.overhead_pct"] = 100 * (np.median(traced) / np.median(untraced) - 1)
        result["layers"] = layers
        del result["named"]["stream_capacity"]
    return result


def flat(step_out):
    logits, dec_logits, dec_feats, h, c = step_out
    return [logits, *dec_logits, *dec_feats, h, c]


# ---------------------------------------------------------------------------
# offline


def offline_units(args, checks: Checks, tracer: Tracer, extra: dict):
    base = os.path.join(args.workdir, "offline")
    with open(os.path.join(base, "paths.json"), encoding="utf-8") as f:
        paths = json.load(f)
    shortest = paths["shortest"]
    model = ["--ckpt", paths["ckpt"], "--manifest", paths["manifest"]]
    common = [*model, "--split", "test"]
    cold = os.path.join(base, f"cold-{os.getpid()}.jsonl")
    t0 = time.perf_counter()
    code, _ = quiet_cli(["infer", "--batch", *model, "--split", "cold", "--out", cold])
    first_call = time.perf_counter() - t0
    setup_s = time.perf_counter() - SETUP_START
    checks.expect(code == 0, f"cold trn infer exited {code}")
    if args.role == "setup":
        return {"setup_s": setup_s, "first_call_s": first_call}

    chunks = sum(fx.OFFLINE_LENGTHS)
    dump = os.path.join(base, "dump.jsonl")
    times = {False: [], True: []}
    infer_s, eval_s, tables, codes = [], [], [], []
    start = time.perf_counter()
    i = 0
    while i < 2 or time.perf_counter() - start < args.seconds:
        traced = tracer.on = bool(args.trace) and i % 2 == 1
        t0 = time.perf_counter()
        c1, _ = quiet_cli(["infer", "--batch", *common, "--out", dump])
        t1 = time.perf_counter()
        c2, table = quiet_cli(["eval", "--dump", dump, "--gt", paths["annotations"],
                               "--classmap", paths["classmap"]])
        t2 = time.perf_counter()
        tracer.on = False
        codes += [c1, c2]
        times[traced].append(t2 - t0)
        if not traced:
            infer_s.append(t1 - t0)
            eval_s.append(t2 - t1)
        tables.append(table)
        i += 1
    rss = peak_rss_mb()

    for k, code in enumerate(codes):
        checks.expect(code == 0, f"cli call {k} exited {code}")
    checks.expect(all(t == tables[0] for t in tables), "trn eval tables differ between calls")
    got = ev.read_prediction_dump(dump)
    gt = ev.ground_truth_from_files(paths["annotations"], paths["classmap"])
    want = ev.render_report(
        ev.per_frame_map(got, gt).mean_ap,
        [ev.anticipation_map(got, gt, step=s).mean_ap for s in range(1, got.decoder_steps + 1)],
        chunk_size=got.chunk_size,
        fps=got.fps,
    )
    checks.expect(tables[0] == want, "trn eval table does not match the mAP recomputed from the dump")
    one_batch = os.path.join(base, "one-batch.jsonl")
    one_stream = os.path.join(base, "one-stream.jsonl")
    c1, _ = quiet_cli(["infer", "--batch", *common, "--video", shortest, "--out", one_batch])
    c2, _ = quiet_cli(["stream", *common, "--video", shortest, "--out", one_stream])
    with open(one_batch, "rb") as f1, open(one_stream, "rb") as f2:
        same = c1 == 0 and c2 == 0 and f1.read() == f2.read()
    checks.expect(same, f"trn stream and trn infer --batch dumps differ on {shortest}")

    untraced = times[False]
    result = {
        "setup_s": setup_s,
        "first_call_s": first_call,
        "peak_rss_mb": rss,
        "attempted": len(codes) + 1,
        "e2e": {
            "throughput_per_s": float(np.median([chunks / x for x in infer_s])),
            "latency_ms": float(np.median(untraced)) * 1000,
        },
        "samples": {"throughput_per_s": len(infer_s), "latency_ms": len(untraced)},
        "unit_samples_s": {"infer": infer_s, "eval": eval_s},
        "named": {
            "infer_chunks_per_s": (float(np.median([chunks / x for x in infer_s])), "1/s", len(infer_s)),
            "eval_chunks_per_s": (float(np.median([chunks / x for x in eval_s])), "1/s", len(eval_s)),
        },
    }
    if args.trace:
        layers = layer_metrics(tracer, extra, len(times[True]))
        layers["model.weight_mb_per_push"] = weight_mb_per_step(
            TrnParams.zeros(TrnConfig(**fx.OFFLINE_MODEL))
        )
        layers["trace.overhead_pct"] = 100 * (np.median(times[True]) / np.median(untraced) - 1)
        result["layers"] = layers
    return result


# ---------------------------------------------------------------------------
# entry


def make_fixture(args) -> None:
    if args.workload == "train":
        fx.train_dataset(args.seed, os.path.join(args.workdir, "train"))
        fx.train_dataset(args.seed, os.path.join(args.workdir, "train-cold"),
                         fx.TRAIN_COLD_VIDEOS, train_fraction=0.5)
    elif args.workload == "offline":
        base = os.path.join(args.workdir, "offline")
        paths = fx.offline_dataset(args.seed, base)
        with open(os.path.join(base, "paths.json"), "w", encoding="utf-8") as f:
            json.dump(paths, f)


UNITS = {"train": train_units, "stream": stream_units, "offline": offline_units}


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--role", choices=("fixture", "setup", "run"), required=True)
    p.add_argument("--workload", choices=tuple(UNITS), required=True)
    p.add_argument("--workdir", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", required=True)
    args = p.parse_args()
    if args.role == "fixture":
        make_fixture(args)
        result = {}
    else:
        checks, tracer, extra = Checks(), Tracer(), {}
        if args.role == "run" and args.trace:
            install_tracer(tracer, extra)
        result = UNITS[args.workload](args, checks, tracer, extra)
        tracer.restore()
        result.update(
            import_s=IMPORT_S,
            check_attempted=checks.attempted,
            failures=checks.failures,
            blas_threads=blas_threads(),
            trn_file=os.path.abspath(trn.__file__),
            tracer_missing=tracer.missing,
        )
    with open(args.out, "w", encoding="utf-8") as f:
        json.dump(result, f)
    return 0


if __name__ == "__main__":
    sys.exit(main())
