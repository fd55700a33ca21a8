"""trn benchmark: train, stream and offline workloads, end to end and per layer.

    python3 benchmarks/run.py --workload {train,stream,offline,all} --seed N
        --seconds S --trace {0,1}

Run from the root of a checkout. trn is imported from the checkout's
``src/``, never from an installed copy. For each workload the script

  1. writes seeded fixtures in a process of their own (untimed),
  2. measures set-up in SETUP_SAMPLES fresh processes: half of them
     before the run, one that goes on to run the workload for
     ``--seconds`` and check its outputs, and half after it,
  3. prints a report with every metric's unit and sample count, then one
     JSON line: {"correct", "attempted", "failed", "metrics"}.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` the per-layer
metrics and the tracing overhead. The exit code is 0 only when every
output check passed. ``README.md`` here defines each metric.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("train", "stream", "offline")
# set-up samples span the whole run, so its median does not rest on one
# moment of a shared host
SETUP_SAMPLES = 7
DEADLINE_S = 170.0  # a run must end within 180 s

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _f:
    _SPEC = json.load(_f)
E2E = {m["name"]: m["unit"] for m in _SPEC["end_to_end"]}
LAYERS = {m["name"]: m["unit"] for m in _SPEC["per_layer"]}


class BenchError(Exception):
    """A benchmark process failed; the run reports it and exits non-zero."""


def child(role: str, workload: str, workdir: str, args, deadline: float, tag: str) -> dict:
    """Run workloads.py in its own process and return the JSON it wrote."""
    out = os.path.join(workdir, f"{tag}.json")
    log = os.path.join(workdir, f"{tag}.log")
    cmd = [
        sys.executable, os.path.join(HERE, "workloads.py"), "--role", role,
        "--workload", workload, "--workdir", workdir, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace), "--out", out,
    ]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError(f"{tag}: no time left before the {DEADLINE_S:.0f} s deadline")
    with open(log, "w", encoding="utf-8") as err:
        try:
            proc = subprocess.run(cmd, stdout=err, stderr=subprocess.STDOUT, cwd=ROOT,
                                  timeout=timeout)
        except subprocess.TimeoutExpired:
            raise BenchError(f"{tag}: timed out") from None
    if proc.returncode != 0:
        with open(log, encoding="utf-8") as f:
            tail = f.read()[-3000:]
        raise BenchError(f"{tag}: exited {proc.returncode}\n{tail}")
    with open(out, encoding="utf-8") as f:
        return json.load(f)


def provenance(result: dict, args, workload: str) -> dict:
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    src = os.path.join(ROOT, "src", "trn")
    lines = 0
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), encoding="utf-8") as f:
                lines += sum(1 for _ in f)
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": result.get("blas_threads"),
        "git_sha": sha or "unknown (not a git checkout)",
        "src_trn_lines": lines,
        "trn_imported_from": result.get("trn_file"),
    }


def run_workload(workload: str, args) -> tuple[dict, dict, list[str]]:
    """Returns (metrics, report, failures) for one workload."""
    workdir = os.path.join(ROOT, ".bench_work", f"{workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    deadline = time.monotonic() + DEADLINE_S
    try:
        child("fixture", workload, workdir, args, deadline, "fixture")
        setups = [child("setup", workload, workdir, args, deadline, f"setup{k}")
                  for k in range(SETUP_SAMPLES // 2)]
        result = child("run", workload, workdir, args, deadline, "run")
        setups.append(result)
        setups += [child("setup", workload, workdir, args, deadline, f"setup{k}")
                   for k in range(SETUP_SAMPLES // 2, SETUP_SAMPLES - 1)]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    failures = result["failures"]
    attempted = result["attempted"] + result["check_attempted"]
    report = {
        "provenance": provenance(result, args, workload),
        "attempted": attempted,
        "failed": len(failures),
        "failed_share": len(failures) / attempted,
        "setup_s_samples": [s["setup_s"] for s in setups],
        "first_call_s_samples": [s["first_call_s"] for s in setups],
        "import_s": result["import_s"],
        "named": result["named"],
        "sample_counts": {**result["samples"], "setup_s": len(setups)},
        "capacity_levels": result.get("capacity_levels"),
        "unit_samples_s": result.get("unit_samples_s"),
        "failures": failures,
    }
    if args.trace:
        layers = dict(result["layers"])
        layers["first_call_s"] = statistics.median(s["first_call_s"] for s in setups)
        metrics = {name: {"value": float(layers[name]), "unit": unit} for name, unit in LAYERS.items()}
        report["absent"] = [name for name in LAYERS if layers[name] == 0]
        report["tracer_missing"] = result.get("tracer_missing", [])
    else:
        values = dict(result["e2e"])
        values["setup_s"] = statistics.median(s["setup_s"] for s in setups)
        values["peak_rss_mb"] = result["peak_rss_mb"]
        metrics = {name: {"value": float(values[name]), "unit": unit} for name, unit in E2E.items()}
    return metrics, report, failures


def print_report(workload: str, metrics: dict, report: dict) -> None:
    print(f"== {workload}")
    for key, value in report["provenance"].items():
        print(f"  {key}: {value}")
    counts = report["sample_counts"]
    for name, m in metrics.items():
        n = counts.get(name, "")
        print(f"  {name} {m['value']:.6g} {m['unit']}" + (f" (n={n})" if n else ""))
    for name, (value, unit, n) in report["named"].items():
        print(f"  {name} {value:.6g} {unit} (n={n})")
    print(f"  failed_share {report['failed_share']:.6g} ({report['failed']}/{report['attempted']})")
    for level in report.get("capacity_levels") or []:
        print(f"  capacity level S={level['streams']}: p99 {level['p99_ms']:.1f} ms, "
              f"backlog growth {level['backlog_growth_ms']:.1f} ms")
    for name in report.get("absent") or []:
        print(f"  absent {name}: {workload} does no work in this layer")
    for missing in report.get("tracer_missing") or []:
        print(f"  absent span target {missing}: not found in trn")
    for failure in report["failures"]:
        print(f"  FAILED CHECK: {failure}")
    print("  report " + json.dumps(report, sort_keys=True))


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    if not os.path.isfile(os.path.join(ROOT, "src", "trn", "__init__.py")):
        print(f"run.py: no trn sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    merged: dict = {}
    attempted = failed = 0
    for workload in names:
        try:
            metrics, report, failures = run_workload(workload, args)
        except BenchError as e:
            print(f"run.py: {workload}: {e}", file=sys.stderr)
            return 1
        print_report(workload, metrics, report)
        attempted += report["attempted"]
        failed += len(failures)
        if len(names) == 1:
            merged = metrics
        else:
            merged.update({f"{workload}.{k}": v for k, v in metrics.items()})
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": merged}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
