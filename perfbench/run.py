#!/usr/bin/env python3
"""Benchmark of the tuning, serving and retraining paths.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload tune|serve|retrain \\
        --seed N --seconds S --trace 0|1

Each run builds its inputs from ``--seed``, sets up, then drives its
workload closed loop (one caller, waiting for each reply) for
``--seconds`` seconds, checking every op's output. The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``. ``--trace 0`` reports the end-to-end
metrics; ``--trace 1`` installs span wrappers around the program's
public calls (``spans.py``) and reports the per-layer metrics of
``layers.py`` instead.

A full record of the run (provenance, every op, the span reduction,
the fleet's stderr tail on failure) is written under ``.perfbench/runs``
in the checkout, together with the run's temporary files. Runs clear
``REPRO_JOBS`` and ``REPRO_NO_CKERNEL`` so every run sees the
program's defaults, and keep temporary files (the C-kernel cache
included) inside ``.perfbench``.

Workloads (details in each module's docstring):

* ``tune`` (``wl_tune.py``): campaign -> XGBoost fit -> rules on d2;
* ``serve`` (``wl_serve.py``): 512-instance requests to a two-worker
  fleet running in its own process tree;
* ``retrain`` (``wl_retrain.py``): serve with feedback -> drift scan ->
  retrain -> publish, in process.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

from common import children, median  # noqa: E402
from layers import PER_LAYER  # noqa: E402
from spans import (  # noqa: E402
    LAYERS, NullTracer, Tracer, reduce_iterations, span_cost_s,
)

WORKLOADS = {"tune": "wl_tune", "serve": "wl_serve", "retrain": "wl_retrain"}
CLEARED_ENV = ("REPRO_JOBS", "REPRO_NO_CKERNEL")


@dataclass
class Context:
    """What a workload's ``run(ctx)`` gets."""

    seed: int
    seconds: float
    tracer: NullTracer
    work: Path
    env: dict
    stderr_tail: Callable[[], list[str]] | None = None

    def on_failure(self, tail: Callable[[], list[str]]) -> None:
        """Register where a failed run's child stderr tail comes from."""
        self.stderr_tail = tail


def _git(*args: str) -> str | None:
    try:
        proc = subprocess.run(
            ["git", "-C", str(ROOT), *args], capture_output=True, text=True,
            timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def cpu_probe_ms(rounds: int = 5) -> float:
    """Median time of a fixed pure-Python loop.

    The machine's speed while the run measured: a shift in it between
    two sets of runs is machine drift, not a change of the program.
    """
    times = []
    for _ in range(rounds):
        t0 = time.perf_counter()
        total = 0
        for i in range(200_000):
            total += i * i
        times.append((time.perf_counter() - t0) * 1e3)
    return median(times)


def provenance(found_env: dict) -> dict:
    """Where and on what a run measured."""
    top = _git("rev-parse", "--show-toplevel")
    in_git = top is not None and Path(top).resolve() == ROOT
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    cpu_model = ""
    for line in Path("/proc/cpuinfo").read_text().splitlines():
        if line.startswith("model name"):
            cpu_model = line.split(":", 1)[1].strip()
            break
    from repro.ml import _ckernel

    return {
        "git_sha": _git("rev-parse", "HEAD") if in_git else None,
        "git_dirty": bool(_git("status", "--porcelain")) if in_git else None,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "cpu_model": cpu_model,
        "cpu_count": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "loadavg_at_start": Path("/proc/loadavg").read_text().split()[:3],
        "cpu_probe_ms_at_start": cpu_probe_ms(),
        "ckernel_loaded": _ckernel.available(),
        "env_found": found_env,
        "env_cleared": list(CLEARED_ENV),
    }


def prepare(work: Path) -> tuple[dict, dict]:
    """Environment hygiene and warm-up, before anything is timed."""
    found = {name: os.environ.pop(name, None) for name in CLEARED_ENV}
    tmp = work / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    # shared by the runs in a checkout: compiled once, like a user's
    os.environ["REPRO_KERNEL_CACHE"] = str(work.parent / "ckernels")
    os.environ["REPRO_CACHE_DIR"] = str(work / "datasets")
    os.environ["PYTHONPATH"] = str(SRC)
    tempfile.tempdir = None
    sys.path.insert(0, str(SRC))
    # users compile once per machine, not once per run: warm the
    # bytecode and the C-kernel cache untimed
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(SRC)],
                   check=True, stdout=subprocess.DEVNULL, timeout=600)
    from repro.ml import _ckernel

    _ckernel.load()
    return found, dict(os.environ)


def per_layer_metrics(workload: str, out: dict, tracer: Tracer) -> tuple:
    """Every catalogued per-layer metric, and the span reduction."""
    iters = tracer.iterations()
    reduction = reduce_iterations(iters)
    values = dict(out["layers"])
    self_ms = reduction.get("self_ms_per_op", {})
    for layer in LAYERS:
        values[f"self.{layer}_ms"] = self_ms.get(layer, 0.0)
    wrap_cost, emit_cost = span_cost_s()
    n_iter = max(len(iters), 1)
    own_spans = len(tracer.spans) - tracer.program_spans
    overhead = (own_spans * wrap_cost + tracer.program_spans * emit_cost)
    overhead /= n_iter
    op_s = reduction.get("op_p50_ms", 0.0) / 1e3
    values["trace.overhead_frac"] = (
        overhead / (op_s - overhead) if op_s > overhead else 0.0
    )
    values["trace.unaccounted_frac"] = reduction.get("unaccounted_frac", 0.0)
    metrics = {
        m.name: {"value": float(values.get(m.name, 0.0)), "unit": m.unit}
        for m in PER_LAYER
    }
    reduction["span_cost_us"] = {"wrapper": wrap_cost * 1e6,
                                 "sink_emit": emit_cost * 1e6}
    reduction["spans_per_iter"] = {"benchmark": own_spans / n_iter,
                                   "program": tracer.program_spans / n_iter}
    reduction["exercised"] = [m.name for m in PER_LAYER
                              if workload in m.workloads]
    return metrics, reduction


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program under {SRC}", file=sys.stderr)
        return 2
    work = ROOT / ".perfbench" / f"{args.workload}-{args.seed}-{os.getpid()}"
    runs = ROOT / ".perfbench" / "runs"
    runs.mkdir(parents=True, exist_ok=True)
    record: dict = {"workload": args.workload, "seed": args.seed,
                    "seconds": args.seconds, "trace": args.trace}
    record_path = runs / f"{args.workload}-s{args.seed}-t{args.trace}.json"
    tracer = Tracer() if args.trace else NullTracer()
    ctx = None
    try:
        found, env = prepare(work)
        record["provenance"] = provenance(found)
        ctx = Context(seed=args.seed, seconds=args.seconds, tracer=tracer,
                      work=work, env=env)
        module = importlib.import_module(WORKLOADS[args.workload])
        started = time.perf_counter()
        out = module.run(ctx)
        record["run_s"] = time.perf_counter() - started
        record["cpu_probe_ms_at_end"] = cpu_probe_ms()
        left = children(os.getpid())
        if left:
            for pid in left:
                os.kill(pid, 9)
            raise RuntimeError(f"run left child processes alive: {left}")
    except Exception:  # noqa: BLE001 - the record must say why
        record["error"] = traceback.format_exc()
        if ctx is not None and ctx.stderr_tail is not None:
            record["child_stderr_tail"] = ctx.stderr_tail()
        _write(record_path, record)
        print(record["error"], file=sys.stderr)
        for line in record.get("child_stderr_tail", []):
            print(f"  child: {line}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    loop = out["loop"]
    failed = sum(not op.ok for op in loop.ops)
    if args.trace:
        metrics, record["reduction"] = per_layer_metrics(
            args.workload, out, tracer
        )
    else:
        metrics = out["metrics"]
    result = {
        "correct": failed == 0,
        "attempted": len(loop.ops),
        "failed": failed,
        "metrics": metrics,
    }
    if failed and ctx.stderr_tail is not None:
        record["child_stderr_tail"] = ctx.stderr_tail()
    record.update(
        result=result,
        window_s=loop.window_s,
        op_latency_p50_ms=median([op.latency_s for op in loop.ops]) * 1e3,
        ops=[{"index": op.index, "latency_ms": op.latency_s * 1e3,
              "ok": op.ok, "error": op.error} for op in loop.ops],
        details=out["record"],
    )
    _write(record_path, record)
    print(f"perfbench: {args.workload} seed={args.seed} trace={args.trace} "
          f"ops={len(loop.ops)} failed={failed} record={record_path}",
          file=sys.stderr)
    print(json.dumps(result))
    return 0


def _write(path: Path, record: dict) -> None:
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(record, indent=1, default=str) + "\n")
    os.replace(tmp, path)


if __name__ == "__main__":
    sys.exit(main())
