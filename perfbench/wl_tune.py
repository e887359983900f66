"""``tune``: the paper's offline path on Table II dataset d2.

Open MPI allreduce on the Hydra model over d2's ``ci`` grid with the
node list trimmed to :data:`NODES` (594 of its 990 samples, so a run
holds several ops), with the paper's XGBoost learner. One op is
``AutoTuner.benchmark`` -> ``train`` -> ``write_rules``, on fresh
objects, with a campaign seed derived from (workload seed, op index) so
no op can reuse another's results.

Why this workload: the learner fit and the campaign do nearly all the
work, so it is the one workload on which a ``repro.bench`` campaign or
boosting change shows. It has no fleet, so serving changes predict no
change here.
"""

from __future__ import annotations

import dataclasses
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from common import (
    closed_loop, cpu_seconds, derive_seed, end_to_end, median, peak_rss_mb,
)
from spans import count_per_iter, per_iter

#: d2's ``ci`` node list (4, 7, 8, 13, 16) trimmed; campaign and fit
#: each stay well above a quarter of the op
NODES = (4, 8, 16)
#: held-out allocations and message sizes, none of them on d2's grid
HELD_OUT_NODES = (6, 12)
HELD_OUT_PPNS = (1, 8, 16)
HELD_OUT_MSIZES = (3, 100, 3000, 50_000, 500_000, 2_500_000)
#: the allocation the rules file is written for
RULES_ALLOC = (12, 16)
SETUP_REPEATS = 5

_SETUP_PROBE = """\
import time
t0 = time.perf_counter()
import repro.core.tuner, repro.experiments.datasets, repro.ml
from repro.ml import _ckernel
from repro.mpilib import get_library
_ckernel.load()
get_library("Open MPI").config_space("allreduce")
print(time.perf_counter() - t0)
"""


def op_seed(seed: int, op: int) -> int:
    """Campaign seed of op ``op``: no two ops share a campaign."""
    return derive_seed("tune", seed, op) % (1 << 31)


def measure_setup(env: dict) -> list[float]:
    """Import the tuning path and load the C kernel in fresh processes.

    That is the program work a tuning job pays before its campaign
    starts; a process can import only once, so each repeat is a new
    interpreter and the interpreter's own start-up is not counted.
    """
    out = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-c", _SETUP_PROBE], env=env,
            capture_output=True, text=True, timeout=120, check=True,
        )
        out.append(float(proc.stdout.strip().splitlines()[-1]))
    return out


class QualityGrader:
    """Geometric-mean speedup of the tuned pick over the library default.

    Graded on noise-free ``shifted_times`` (no shift) at held-out
    instances; the default's times are computed once per run.
    """

    def __init__(self, machine, library) -> None:
        import numpy as np

        from repro.core.retrain import shifted_times
        from repro.machine.topology import Topology

        self.instances = [
            (n, p, m)
            for n in HELD_OUT_NODES
            for p in HELD_OUT_PPNS
            for m in HELD_OUT_MSIZES
        ]
        configs = library.config_space("allreduce").configs
        self.times = [
            shifted_times(machine, library, "allreduce", inst)
            for inst in self.instances
        ]
        self.default_ids = [
            configs.index(library.default_config(
                machine, Topology(n, p), "allreduce", m
            ))
            for n, p, m in self.instances
        ]
        self._np = np

    def __call__(self, tuner) -> float:
        np = self._np
        picks = tuner.selector_.select_ids(
            np.asarray([i[0] for i in self.instances]),
            np.asarray([i[1] for i in self.instances]),
            np.asarray([i[2] for i in self.instances]),
        )
        logs = []
        for times, default, pick in zip(
            self.times, self.default_ids, picks, strict=True
        ):
            chosen = int(pick) if int(pick) >= 0 else default
            logs.append(math.log(times[default] / times[chosen]))
        return math.exp(statistics.fmean(logs))


def run(ctx) -> dict:
    from repro.bench.repro_mpi import BenchmarkSpec
    from repro.core.config_gen import validate_rules
    from repro.core.tuner import AutoTuner
    from repro.experiments.datasets import Scale, dataset_spec
    from repro.machine.zoo import get_machine
    from repro.mpilib import get_library

    spec = dataset_spec("d2")
    grid = dataclasses.replace(spec.grid(Scale.CI), nodes=NODES)
    machine = get_machine(spec.machine)
    library = get_library(spec.library)
    grade = QualityGrader(machine, library)
    setup = measure_setup(ctx.env)
    rules_dir = ctx.work / "rules"
    rules_dir.mkdir(parents=True, exist_ok=True)
    tracer = ctx.tracer

    def op(i: int):
        with tracer.span("iter"):
            seed = op_seed(ctx.seed, i)
            path = rules_dir / f"d2-op{i}.conf"
            with tracer.span("op"):
                t0 = time.perf_counter()
                tuner = AutoTuner(
                    machine, library, spec.collective, learner="XGBoost",
                    bench_spec=BenchmarkSpec(max_nreps=25), seed=seed,
                )
                dataset = tuner.benchmark(
                    grid, name="d2-ci", exclude_algids=spec.exclude_algids
                )
                tuner.train()
                text = tuner.write_rules(str(path), *RULES_ALLOC)
                latency = time.perf_counter() - t0
            with tracer.span("check.rules"):
                validate_rules(text, "ompi", spec.collective)
                if Path(path).read_text() != text:
                    raise AssertionError("rules file differs from the text")
                os.unlink(path)
            with tracer.span("check.quality"):
                quality = grade(tuner)
        return latency, {
            "quality": quality,
            "samples": len(dataset),
            "quarantined": len(tuner.selector_.quarantined_),
        }

    pid = os.getpid()
    tracer.install()
    try:
        loop = closed_loop(op, ctx.seconds, lambda: cpu_seconds(pid))
    finally:
        tracer.uninstall()
    first = loop.ops[0]
    metrics = end_to_end(
        loop, setup_s=median(setup), cpu_s=loop.cpu_s,
        peak_mb=peak_rss_mb(pid),
        # the first op always exists and its seed is fixed by the
        # workload seed, so quality repeats exactly across runs
        quality=first.detail.get("quality", 0.0) if first.ok else 0.0,
    )
    layers = {}
    if tracer.enabled:
        iters = tracer.iterations()
        campaign = per_iter(iters, "bench.campaign")
        fits = [s.duration for it in iters for s in it.walk()
                if s.name == "ml.model_fit"]
        layers = {
            "bench.campaign_s": median(campaign),
            "bench.samples_per_s": median([
                op.detail["samples"] / c
                for op, c in zip(loop.ops, campaign, strict=True) if op.ok
            ]),
            "core.fit_s": median(per_iter(iters, "core.fit")),
            "ml.model_fit_ms": median(fits) * 1e3 if fits else 0.0,
            "ml.fit_models": median(count_per_iter(iters, "ml.model_fit")),
            "ml.fit_quarantined": median([
                op.detail.get("quarantined", 0) for op in loop.ops
            ]),
            "core.rules_s": median(per_iter(iters, "core.rules")),
        }
    return {
        "loop": loop,
        "metrics": metrics,
        "layers": layers,
        "record": {
            "setup_samples_s": setup,
            "grid": {"nodes": grid.nodes, "ppns": grid.ppns,
                     "msizes": grid.msizes},
            "op_qualities": [op.detail.get("quality") for op in loop.ops],
        },
    }
