"""Command line front end.

Subcommands: synth (build a labeled synthetic dataset), train, stream
(chunk-by-chunk inference), infer (whole-sequence inference, with a
--batch flag so the two paths can be diffed), eval (render the mAP
table), gradcheck (finite-difference audit of the training gradients).

Every flag has a config-file equivalent: pass --config (or --spec for
synth) pointing at a JSON object whose keys are the flag names with
underscores. Each option's type is its parser. ``main`` merges the flags,
the file and the defaults once (flag > file > built-in default, unknown
keys rejected), logs the result and hands it to the subcommand. One
handler maps errors to exit codes: 0 success, 1 validation failure (any
ValueError but a format error), 2 I/O or file format error.
TRN_LOG_LEVEL controls verbosity (default INFO).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import os
import sys

import numpy as np

from . import dataio as dio
from . import evaluate as ev
from . import model as md
from . import numeric as nm
from . import training as tr
from .model import ChunkStreams, FusionVariant, TrnConfig, TrnParams
from .numeric import ValidationError
from .streaming import OnlineDetector

log = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_IO = 2

LOG_LEVELS = ("DEBUG", "INFO", "WARNING", "ERROR", "CRITICAL")


def _variant(value: str) -> str:
    try:
        FusionVariant(value)
    except ValueError:
        raise ValidationError(
            f"unknown fusion variant {value!r}, expected one of "
            f"{[v.value for v in FusionVariant]}"
        ) from None
    return value


def _features_value(value) -> dict[str, str]:
    """Accept ["name=path", ...] or {"name": "path"} and normalize."""
    if isinstance(value, dict):
        pairs = dict(value)
    else:
        pairs = {}
        for item in value:
            name, sep, path = str(item).partition("=")
            if not sep or not name or not path:
                raise ValidationError(f"--features takes NAME=PATH pairs, got {item!r}")
            pairs[name] = path
    for name, path in pairs.items():
        if name not in md.STREAM_NAMES:
            raise ValidationError(
                f"unknown stream {name!r}, expected one of {list(md.STREAM_NAMES)}"
            )
        if not (isinstance(path, str) and path):
            raise ValidationError(f"the {name} features path must be a non-empty string, "
                                  f"got {json.dumps(path)}")
    return pairs


class Opt:
    """One merged option: flag, config-file key, type, default. The type is
    the parser: ``bool`` makes an on/off flag, ``_features_value`` a
    NAME=PATH list, and any other callable parses the flag's text."""

    def __init__(self, typ, default, help_text):
        self.typ = typ
        self.default = default
        self.help = help_text

    def coerce(self, value, where: str):
        """``value`` as the option's type; text that does not parse is a
        ValidationError naming ``where`` (the flag or the config-file key)."""
        if value is None:
            return None
        if self.typ is bool:
            return bool(value)
        try:
            return self.typ(value)
        except ValidationError:
            raise
        except ValueError:
            what = self.typ.__name__
            raise ValidationError(f"{where} must parse as {what}, got {value!r}") from None

    def from_file(self, value, where: str):
        """A config-file value, refused unless of the option's JSON kind: a
        boolean for an on/off flag, an integer (a number for a float
        option) that is not a boolean, text the flag would take, or null
        where the default is null."""
        kinds, what = {
            bool: ((bool,), "a boolean"),
            _features_value: ((list, dict), "a list or an object"),
            int: ((int, str), "an integer or a string"),
            float: ((int, float, str), "a number or a string"),
        }.get(self.typ, ((str,), "a string"))
        if (isinstance(value, kinds) and (self.typ is bool or not isinstance(value, bool))
                or (value is None and self.default is None)):
            return self.coerce(value, where)
        raise ValidationError(f"{where} must be {what}, got {json.dumps(value)}")


def _defaults(cls) -> dict:
    """The default of every field of the dataclass ``cls``."""
    return {f.name: f.default for f in dataclasses.fields(cls)}


def _field_options(defaults: dict, helps: dict[str, str]) -> dict[str, Opt]:
    """One option per ``helps`` key, typed by and defaulting to its entry in
    ``defaults``, so that each default has its one home in a dataclass."""
    return {name: Opt(type(defaults[name]), defaults[name], text) for name, text in helps.items()}


def _train_options():
    model = _defaults(TrnConfig)
    out = {
        "manifest": Opt(str, None, "dataset manifest JSON"),
        "out": Opt(str, None, "checkpoint file to write"),
        "metrics_out": Opt(str, None, "optional JSON file for per-epoch metrics"),
        "variant": Opt(_variant, model["fusion_variant"].value, "fusion variant"),
        "one_stream": Opt(str, "appearance", "stream consumed by the one_stream variant"),
    }
    helps = {
        "hidden_size": "recurrent state width",
        "learning_rate": "Adam learning rate",
        "weight_decay": "decoupled weight decay",
        "batch_size": "windows per optimizer step",
        "seq_len": "training window length in chunks",
        "decoder_steps": "anticipation rollout length",
        "epochs": "training epochs",
        "seed": "rng seed for init and shuffling",
        "lambda_enc": "weight of the present-chunk loss head",
        "lambda_dec": "weight of the anticipation loss head",
        "eval_every": "held-out mAP cadence in epochs, 0 disables",
    }
    return out | _field_options(model | _defaults(tr.TrainConfig), helps)


def _synth_options():
    out = {"out": Opt(str, None, "output dataset directory")}
    helps = {
        "num_classes": "action classes (background is added on top)",
        "appearance_dim": "appearance feature width",
        "motion_dim": "motion feature width",
        "sigma_ratio": "noise sigma relative to class mean separation",
        "mean_segment_len": "mean action segment length in chunks",
        "background_prior": "fraction of time spent in background",
        "num_videos": "videos to generate",
        "video_len": "chunks per video",
        "train_fraction": "fraction of videos in the train split",
        "chunk_size": "frames per chunk",
        "fps": "frames per second",
        "seed": "rng seed",
    }
    return out | _field_options(_defaults(dio.SyntheticSpec), helps)


def _io_options():
    return {
        "ckpt": Opt(str, None, "checkpoint file"),
        "out": Opt(str, None, "prediction dump to write (TRND)"),
        "features": Opt(_features_value, None, "per-stream feature files as NAME=PATH"),
        "video_id": Opt(str, "video", "video id recorded with --features input"),
        "manifest": Opt(str, None, "dataset manifest (alternative to --features)"),
        "split": Opt(str, "test", "manifest split to process"),
        "video": Opt(str, None, "restrict manifest input to one video id"),
    }


def _eval_options():
    return {
        "dump": Opt(str, None, "prediction dump (TRND)"),
        "gt": Opt(str, None, "ground-truth annotation TSV"),
        "classmap": Opt(str, None, "class map TSV"),
        "expand_to_frames": Opt(bool, False, "rank frames instead of chunks"),
    }


def _gradcheck_options():
    return {
        "variant": Opt(_variant, "two_stream", "fusion variant"),
        "one_stream": Opt(str, "appearance", "stream consumed by the one_stream variant"),
        "hidden_size": Opt(int, 4, "recurrent state width"),
        "seq_len": Opt(int, 3, "window length in chunks"),
        "decoder_steps": Opt(int, 2, "anticipation rollout length"),
        "num_actions": Opt(int, 2, "action classes (background added on top)"),
        "appearance_dim": Opt(int, 3, "appearance feature width"),
        "motion_dim": Opt(int, 2, "motion feature width"),
        "pose_dim": Opt(int, 5, "pose feature width"),
        "seed": Opt(int, 0, "rng seed"),
        "tolerance": Opt(float, 1e-4, "max allowed relative gradient error"),
    }


class CliParser(argparse.ArgumentParser):
    # bad flags and values are validation failures, not I/O errors
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_VALIDATION)


def _flag(key: str) -> str:
    return "--" + key.replace("_", "-")


def _add_options(parser: argparse.ArgumentParser, options: dict[str, Opt]) -> None:
    for key, opt in options.items():
        shape = ({"action": "store_true"} if opt.typ is bool
                 else {"nargs": "+", "metavar": "NAME=PATH"} if opt.typ is _features_value
                 else {"metavar": key.upper()})
        parser.add_argument(_flag(key), dest=key, default=None,
                            help=f"{opt.help} (default: {opt.default})", **shape)


def _load_config_file(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as f:
        text = f.read()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ValidationError(f"{path}: malformed config JSON: {e}") from e
    if not isinstance(doc, dict):
        raise ValidationError(f"{path}: config must be a JSON object")
    return doc


def _effective_config(args) -> dict:
    """Merge the subcommand's defaults, its config file and the explicit
    flags; echo the result."""
    options = args.options
    cfg = {k: opt.default for k, opt in options.items()}
    path = getattr(args, args.file_flag)
    if path:
        doc = _load_config_file(path)
        unknown = sorted(set(doc) - set(options))
        if unknown:
            raise ValidationError(f"{path}: unknown config keys {unknown}")
        for k, v in doc.items():
            cfg[k] = options[k].from_file(v, f"{path}: {k}")
    for k, opt in options.items():
        v = getattr(args, k)
        if v is not None:
            cfg[k] = opt.coerce(v, _flag(k))
    for k in sorted(cfg):
        log.info("config %s = %r", k, cfg[k])
    return cfg


def _require(cfg: dict, *keys: str) -> None:
    missing = [k for k in keys if not cfg.get(k)]
    if missing:
        raise ValidationError(
            "missing required " + ", ".join(_flag(k) for k in missing)
        )


# ---------------------------------------------------------------------------
# subcommands


def cmd_synth(cfg: dict) -> int:
    _require(cfg, "out")
    out_dir = cfg.pop("out")
    spec = dio.SyntheticSpec(**cfg)
    manifest_path = dio.generate_synthetic(spec, out_dir)
    log.info("wrote dataset under %s", out_dir)
    print(manifest_path)
    return EXIT_OK


def _model_config_from_manifest(
    manifest: dio.Manifest, cmap: dio.ClassMap, cfg: dict
) -> TrnConfig:
    if not manifest.videos:
        raise ValidationError("manifest lists no videos")
    first = manifest.videos[0]
    # the checkpoint carries one clock: every video training and the
    # held-out score read must share it
    chunk_size, fps = dio.split_clock(
        manifest.split("train") + manifest.split("test"), (first.chunk_size, first.fps)
    )
    return TrnConfig.for_streams(
        FusionVariant(cfg["variant"]),
        {name: ref.dim for name, ref in first.streams.items()},
        one_stream=cfg["one_stream"],
        hidden_size=cfg["hidden_size"],
        decoder_steps=cfg["decoder_steps"],
        num_actions=cmap.num_actions,
        seq_len=cfg["seq_len"],
        chunk_size=chunk_size,
        fps=fps,
    )


def cmd_train(cfg: dict) -> int:
    _require(cfg, "manifest", "out")
    manifest = dio.load_manifest(cfg["manifest"])
    cmap = dio.read_class_map(manifest.resolve(manifest.class_map))
    model_config = _model_config_from_manifest(manifest, cmap, cfg)
    train_config = tr.TrainConfig(**{k: cfg[k] for k in _defaults(tr.TrainConfig)})
    params, metrics = tr.train(manifest, model_config, train_config)
    last = metrics[-1] if metrics else None
    meta = {
        "epochs": len(metrics),
        "final_loss": None if last is None else last.mean_loss,
        "heldout_map": None if last is None else last.heldout_map,
    }
    tr.save_checkpoint(cfg["out"], params, meta=meta)
    log.info("wrote checkpoint %s", cfg["out"])
    if cfg["metrics_out"]:
        rows = [
            {"epoch": m.epoch, "mean_loss": m.mean_loss, "heldout_map": m.heldout_map}
            for m in metrics
        ]
        with open(cfg["metrics_out"], "w", encoding="utf-8") as f:
            json.dump(rows, f, indent=2, sort_keys=True)
            f.write("\n")
    if last is not None:
        print(f"final loss {last.mean_loss:.6f}")
        if last.heldout_map is not None:
            print(f"held-out mAP {last.heldout_map:.4f}")
    return EXIT_OK


def _load_feature_inputs(cfg: dict, config: TrnConfig):
    """Resolve input flags into ([(video_id, streams dict)], (chunk_size, fps))."""
    if cfg.get("features") and cfg.get("manifest"):
        raise ValidationError("pass either --features or --manifest, not both")
    if cfg.get("features"):
        streams = {name: dio.read_features(path) for name, path in cfg["features"].items()}
        return [(cfg["video_id"], streams)], (config.chunk_size, config.fps)
    if not cfg.get("manifest"):
        raise ValidationError("missing input: pass --features NAME=PATH ... or --manifest")
    manifest = dio.load_manifest(cfg["manifest"])
    videos = manifest.split(cfg["split"])
    if cfg.get("video"):
        videos = [v for v in videos if v.video_id == cfg["video"]]
        if not videos:
            raise ValidationError(f"video {cfg['video']!r} is not in split {cfg['split']!r}")
    if not videos:
        raise ValidationError(f"no videos in split {cfg.get('split')!r}")
    clock = dio.split_clock(videos, (config.chunk_size, config.fps))
    inputs = [(v.video_id, dio.load_video_streams(manifest, v, config.streams)) for v in videos]
    return inputs, clock


def cmd_infer(cfg: dict) -> int:
    """``trn stream`` and ``trn infer``: one detector push per chunk, or the
    whole-sequence blocks when ``trn infer`` gets --batch."""
    _require(cfg, "ckpt", "out")
    params, _ = tr.load_checkpoint(cfg["ckpt"])
    model = params.config
    inputs, (chunk_size, fps) = _load_feature_inputs(cfg, model)
    videos = [(video_id, md.check_streams(model, streams)) for video_id, streams in inputs]
    with ev.prediction_dump_writer(cfg["out"], chunk_size, fps, model.decoder_steps,
                                   model.classes, videos) as put:
        if cfg.get("batch"):
            for j, _, present, anticipated in md.forward_blocks(params, [s for _, s in inputs]):
                put(j, present, anticipated)
        else:
            for j, (_, streams) in enumerate(inputs):
                det = OnlineDetector(params)
                for t in range(videos[j][1]):
                    out = det.push_chunk(ChunkStreams(**{n: streams[n][t] for n in model.streams}))
                    put(j, out.present[None], out.anticipated[None])
    log.info("wrote %d videos (%d chunks) to %s", len(videos), sum(t for _, t in videos), cfg["out"])
    print(cfg["out"])
    return EXIT_OK


def cmd_eval(cfg: dict) -> int:
    _require(cfg, "dump", "gt", "classmap")
    dump = ev.read_prediction_dump(cfg["dump"])
    gt = ev.ground_truth_from_files(cfg["gt"], cfg["classmap"])
    expand = bool(cfg["expand_to_frames"])
    unannotated = sum(video_id not in gt.intervals for video_id in dump.videos)
    if unannotated:
        log.warning("%d of %d dumped videos have no row in %s; they score as all background",
                    unannotated, len(dump.videos), cfg["gt"])
    labels = ev.video_labels(dump, gt)  # once per video, shared by every head
    encoder = ev.per_frame_map(dump, gt, expand_to_frames=expand, labels=labels)
    steps = [
        ev.anticipation_map(dump, gt, step=i, expand_to_frames=expand, labels=labels)
        for i in range(1, dump.decoder_steps + 1)
    ]
    table = ev.render_report(encoder.mean_ap, [r.mean_ap for r in steps],
                             chunk_size=dump.chunk_size, fps=dump.fps)
    sys.stdout.write(table)
    return EXIT_OK


def cmd_gradcheck(cfg: dict) -> int:
    nm.check_real("tolerance", cfg["tolerance"], open_lo=True)
    nm.check_int("seed", cfg["seed"], 0)
    model_config = TrnConfig.for_streams(
        FusionVariant(cfg["variant"]),
        {n: cfg[f"{n}_dim"] for n in md.STREAM_NAMES},
        one_stream=cfg["one_stream"],
        hidden_size=cfg["hidden_size"],
        decoder_steps=cfg["decoder_steps"],
        num_actions=cfg["num_actions"],
        seq_len=cfg["seq_len"],
    )
    train_config = tr.TrainConfig(seq_len=cfg["seq_len"], epochs=0, eval_every=0)
    rng = np.random.default_rng(cfg["seed"])
    params = TrnParams.init(model_config, rng)
    # audit at a generic position: the zero biases of a fresh init can park
    # a relu pre-activation exactly on its kink (dead fused vector feeding a
    # zero bias), where one-sided analytic gradients and central differences
    # legitimately disagree
    for a in params.arrays().values():
        a[...] = rng.uniform(-0.5, 0.5, size=a.shape)
    dims = {n: getattr(model_config, f"{n}_dim") for n in md.STREAM_NAMES}
    # drawn chunk by chunk: the draw order fixes which inputs a seed audits
    chunks = [
        {n: rng.normal(size=d) for n, d in dims.items() if d is not None}
        for _ in range(cfg["seq_len"])
    ]
    streams = {n: np.stack([c[n] for c in chunks]) for n in chunks[0]}
    labels = rng.integers(0, model_config.classes, size=cfg["seq_len"])
    analytic = list(tr.sequence_loss(params, train_config, [streams], labels).grads().values())
    err = nm.grad_check(
        lambda: tr.sequence_loss(params, train_config, [streams], labels).loss,
        analytic,
        list(params.arrays().values()),
    )
    ok = err < cfg["tolerance"]
    print(f"max relative error {err:.3e} (tolerance {cfg['tolerance']:.1e})")
    print("PASS" if ok else "FAIL")
    return EXIT_OK if ok else EXIT_VALIDATION


# ---------------------------------------------------------------------------
# wiring


def build_parser() -> argparse.ArgumentParser:
    parser = CliParser(prog="trn", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    def add(name, func, options, help_text, file_flag="config"):
        # add_parser builds subparsers with the parent's class, so these
        # inherit the exit-code-1 error handler
        p = sub.add_parser(name, help=help_text)
        p.add_argument(_flag(file_flag), dest=file_flag, metavar="FILE", default=None,
                       help="JSON file with flag defaults (flags win; unknown keys rejected)")
        _add_options(p, options)
        p.set_defaults(func=func, options=options, file_flag=file_flag)

    add("synth", cmd_synth, _synth_options(), "generate a synthetic dataset", file_flag="spec")
    add("train", cmd_train, _train_options(), "train a model on a manifest")
    add("stream", cmd_infer, _io_options(), "chunk-by-chunk streaming inference")
    batch = Opt(bool, False, "run the whole-sequence path instead of chunkwise pushes")
    add("infer", cmd_infer, _io_options() | {"batch": batch}, "whole-sequence inference")
    add("eval", cmd_eval, _eval_options(), "render the mAP report for a dump")
    add("gradcheck", cmd_gradcheck, _gradcheck_options(), "finite-difference gradient audit")
    return parser


def main(argv: list[str] | None = None) -> int:
    level = os.environ.get("TRN_LOG_LEVEL", "INFO").upper()
    if level not in LOG_LEVELS:
        print(f"trn: TRN_LOG_LEVEL must be one of {', '.join(LOG_LEVELS)}, got "
              f"{os.environ['TRN_LOG_LEVEL']!r}", file=sys.stderr)
        return EXIT_VALIDATION
    logging.basicConfig(
        level=level, format="%(levelname)s %(name)s: %(message)s", stream=sys.stderr
    )
    logging.getLogger("trn").setLevel(level)
    args = build_parser().parse_args(argv)
    try:
        return args.func(_effective_config(args))
    except (OSError, ValueError) as e:  # ValidationError is a ValueError, as is FormatError
        log.error("%s", e)
        return EXIT_IO if isinstance(e, (OSError, dio.FormatError)) else EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
