"""Library code that no production path enters fails a test.

The production paths run here in one process, as a user runs them: the
six subcommands on a small synthetic dataset (``gradcheck`` for every
fusion variant), the README's python block, and one failing case per
CLI error path. Every function defined in ``src/trn`` that none of them
enters must be on ``ALLOWED`` with its reason; one that is entered must
leave it. A def that no reason covers is wired in or deleted.
"""

import ast
import json
import pkgutil
import re
import sys
from importlib import import_module
from pathlib import Path

import trn
from trn import cli

README = Path(__file__).resolve().parents[1] / "README.md"

TAPE = "harness pin until 1b"
ALLOWED = {
    # the per-chunk cell: the stage-by-stage oracle the tests pin the kernel
    # to, the helpers its stages share, and the names
    # benchmarks/workloads.py patches and reads
    **dict.fromkeys([
        "model.TrnParams.named", "model.TrnParams.zeros", "model._layer", "model._lstm_step",
        "model.fuse", "model.embed", "model.decoder_rollout", "model.future_gate",
        "model.encoder_step", "model.chunk_step", "model.trn_forward",
        "numeric.Tensor.__init__", "numeric.tensor", "numeric.softmax",
    ], TAPE),
    # the CLI writes its dumps block by block; benchmarks/workloads.py still wraps it
    "evaluate.write_prediction_dump": "harness pin until 1b",
    "streaming.OnlineDetector.reset": "named by an error message (PoisonedError)",
}


def library_defs() -> dict[tuple[str, int], str]:
    """(file, first line of its code object) -> qualified name, for every
    function defined in the package. A decorated def's code object starts
    at its first decorator."""
    out = {}

    def walk(node, module, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = prefix + child.name
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                out[(path, first)] = f"{module}.{name}"
                walk(child, module, path, name + ".<locals>.")
            elif isinstance(child, ast.ClassDef):
                walk(child, module, path, prefix + child.name + ".")
            else:
                walk(child, module, path, prefix)

    for info in pkgutil.iter_modules(trn.__path__):
        path = import_module(f"trn.{info.name}").__file__
        walk(ast.parse(Path(path).read_text(encoding="utf-8")), info.name, path, "")
    return out


def production_runs(tmp: Path) -> None:
    """Every subcommand, the README block and each CLI error path."""
    def ok(*argv):
        assert cli.main(list(argv)) == 0, argv

    def fails(code, *argv):
        try:
            rc = cli.main(list(argv))
        except SystemExit as e:  # argparse's own errors
            rc = e.code
        assert rc == code, argv

    data, ckpt, dump = tmp / "data", str(tmp / "m.trnc"), str(tmp / "d.trnd")
    ok("synth", "--out", str(data), "--num-videos", "4", "--video-len", "12",
       "--num-classes", "2", "--appearance-dim", "3", "--motion-dim", "2", "--seed", "3")
    manifest = str(data / "manifest.json")
    ok("train", "--manifest", manifest, "--out", ckpt, "--hidden-size", "4", "--epochs", "1",
       "--seq-len", "6", "--decoder-steps", "2", "--eval-every", "1",
       "--metrics-out", str(tmp / "metrics.json"))
    ok("stream", "--ckpt", ckpt, "--manifest", manifest, "--out", dump)
    ok("infer", "--batch", "--ckpt", ckpt, "--manifest", manifest, "--out", str(tmp / "b.trnd"))
    ok("eval", "--dump", dump, "--gt", str(data / "annotations.tsv"),
       "--classmap", str(data / "classes.tsv"))
    for variant in ("one_stream", "two_stream", "fused_two_stream"):
        ok("gradcheck", "--variant", variant, "--hidden-size", "2", "--seq-len", "2")
    block = re.search(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    exec(compile(block.group(1), str(README), "exec"), {})

    config = tmp / "bad.json"
    config.write_text(json.dumps({"epochs": 1.5}))
    fails(1, "train", "--bogus-flag", "3")
    fails(1, "train", "--config", str(config))
    fails(1, "stream", "--ckpt", ckpt, "--out", dump, "--features", "appearance")
    fails(1, "gradcheck", "--tolerance", "nan")
    fails(2, "stream", "--ckpt", str(tmp / "missing.trnc"), "--out", dump,
          "--manifest", manifest)
    fails(2, "eval", "--dump", ckpt, "--gt", str(data / "annotations.tsv"),
          "--classmap", str(data / "classes.tsv"))


def test_every_library_def_is_entered_or_allowed(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("TRN_LOG_LEVEL", raising=False)
    defs = library_defs()
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        production_runs(tmp_path)
    finally:
        sys.setprofile(previous)
    capsys.readouterr()
    never = {name for key, name in defs.items() if key not in entered}
    assert sorted(never - set(ALLOWED)) == [], "defs no production path enters"
    assert sorted(set(ALLOWED) - never) == [], "allowed defs a production path now enters"
