#!/usr/bin/env python3
"""Distil the benchmark suite into a committed BENCH_<pr>.json.

Runs the quick pytest-benchmark subset (everything not marked ``slow``)
with ``--benchmark-json``, extracts the headline medians, adds direct
best-of-N measurements for the metrics the PR acceptance bars track
(prediction latency, kernel speedup, booster fit time and native-grower
speedup, campaign throughput, fastsim throughput and round-reuse
speedup), and writes ``BENCH_<pr>.json`` at the repo root. A
``provenance`` block records the commit (and whether the tree was
dirty), the Python version, the CPU model and count, whether the C
kernel loaded, and ``REPRO_JOBS``.

Usage::

    PYTHONPATH=src python scripts/bench_report.py --pr 1
    PYTHONPATH=src python scripts/bench_report.py --pr 1 \
        --baseline old_numbers.json   # merge pre-change numbers

The ``baseline`` block of the emitted file holds numbers measured on
the tree *before* the change (captured with the same measurement
loops); ``current`` holds this tree's numbers.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from unittest import mock

ROOT = Path(__file__).resolve().parent.parent


def _best_of(fn, rounds: int) -> float:
    best = float("inf")
    for _ in range(rounds):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


@contextlib.contextmanager
def numpy_grower():
    """Fit trees with the numpy oracle ``GradTree._build`` in the block
    (prediction kernels stay native, as before the native grower)."""
    from repro.ml import tree

    with mock.patch.object(tree, "_grows_natively", return_value=False):
        yield


def assert_same_booster(model, oracle, Xq) -> None:
    """Bit-identity of two boosters' node pools and predictions."""
    a, b = model.flat, oracle.flat
    for name in ("feature", "threshold", "left", "right", "value", "roots"):
        if getattr(a, name).tobytes() != getattr(b, name).tobytes():
            raise AssertionError(f"native grower differs from numpy in {name}")
    if model.predict(Xq).tobytes() != oracle.predict(Xq).tobytes():
        raise AssertionError("native grower changes booster predictions")


def provenance() -> dict:
    """What the numbers were measured on: commit, interpreter, CPU, and
    whether the C kernel was in play. Not a metric; the gate ignores it."""
    from repro.ml import _ckernel

    def git(*args: str) -> str | None:
        try:
            proc = subprocess.run(
                ["git", "-C", str(ROOT), *args],
                capture_output=True, text=True, timeout=30,
            )
        except (OSError, subprocess.TimeoutExpired):
            return None
        return proc.stdout.strip() if proc.returncode == 0 else None

    status = git("status", "--porcelain")
    cpu_model = platform.processor()
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.exists():
        for line in cpuinfo.read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    return {
        "git_sha": git("rev-parse", "HEAD"),
        "git_dirty": None if status is None else bool(status),
        "python": platform.python_version(),
        "cpu_model": cpu_model,
        "cpu_count": os.cpu_count(),
        "ckernel_loaded": _ckernel.available(),
        "repro_jobs": os.environ.get("REPRO_JOBS"),
    }


def direct_metrics() -> dict[str, float]:
    """Headline metrics, measured directly (best-of-N, one process)."""
    import numpy as np

    from repro.bench.repro_mpi import BenchmarkSpec
    from repro.bench.runner import DatasetRunner, GridSpec
    from repro.collectives.registry import make_algorithm
    from repro.machine.model import NoiseModel
    from repro.machine.topology import Topology
    from repro.machine.zoo import hydra, tiny_testbed
    from repro.ml import _ckernel
    from repro.ml.boosting import GradientBoostingRegressor
    from repro.mpilib import get_library

    out: dict[str, float] = {}

    # -- booster fit + predict (the paper's XGBoost configuration) ----
    _ckernel.load()  # compile outside every timed region (cold runners)
    rng = np.random.default_rng(42)
    X = rng.random((2000, 4))
    y = np.exp(rng.normal(size=2000)) * 1e-4
    Xq = rng.random((10_000, 4))

    def fit() -> GradientBoostingRegressor:
        return GradientBoostingRegressor(n_rounds=200, max_depth=6, rng=0).fit(X, y)

    # parity before any timing: a fast-but-wrong grower must not score
    # (the check also warms the flat ensemble for the predict timings)
    model = fit()
    with numpy_grower():
        oracle = fit()
    assert_same_booster(model, oracle, Xq)
    out["booster_fit_2000_s"] = _best_of(fit, 3)
    with numpy_grower():
        numpy_fit_s = _best_of(fit, 1)
    out["booster_fit_speedup_x"] = numpy_fit_s / out["booster_fit_2000_s"]
    out["booster_predict_10k_s"] = _best_of(lambda: model.predict(Xq), 7)
    out["booster_predict_10k_recursive_s"] = _best_of(
        lambda: model.predict_recursive(Xq), 3
    )
    out["kernel_speedup_x"] = (
        out["booster_predict_10k_recursive_s"] / out["booster_predict_10k_s"]
    )

    # -- campaign throughput ------------------------------------------
    runner = DatasetRunner(
        tiny_testbed, get_library("Open MPI"),
        BenchmarkSpec(max_nreps=10), seed=3,
    )
    grid = GridSpec(nodes=(2, 4, 8), ppns=(1, 2), msizes=(16, 1024, 65536))
    t0 = time.perf_counter()
    ds = runner.run("bcast", grid, name="bench")
    out["campaign_samples_per_s"] = len(ds) / (time.perf_counter() - t0)

    # -- serving layer: batched/cached vs cold single-request ---------
    from repro.core.tuner import AutoTuner
    from repro.serve import ModelRegistry, PredictionService

    library = get_library("Open MPI")
    tuner = AutoTuner(
        tiny_testbed, library, "bcast",
        learner="KNN", bench_spec=BenchmarkSpec(max_nreps=5), seed=7,
    )
    tuner.benchmark(
        GridSpec(nodes=(2, 4, 8), ppns=(1, 2), msizes=(64, 4096, 262144))
    )
    tuner.train()
    queries = [
        (n, p, m)
        for n in (2, 4, 6, 8)
        for p in (1, 2)
        for m in (0, 64, 512, 4096, 32768, 262144, 1 << 20, 4 << 20)
    ]
    assert len(queries) == 64
    registry = ModelRegistry(tiny_testbed, library)
    registry.publish(tuner.servable(), tag="bench")
    instances = [("bcast", n, p, m) for n, p, m in queries]

    def cold_serial():
        for n, p, m in queries:
            tuner.recommend(n, p, m)

    def batch_cold():
        PredictionService(registry).recommend_many(instances)

    warm = PredictionService(registry)
    warm.recommend_many(instances)
    out["serve_cold_64_s"] = _best_of(cold_serial, 3)
    out["serve_batch64_s"] = _best_of(batch_cold, 5)
    out["serve_cached_64_s"] = _best_of(
        lambda: warm.recommend_many(instances), 7
    )
    out["serve_batch64_speedup_x"] = (
        out["serve_cold_64_s"] / out["serve_batch64_s"]
    )
    out["serve_cached_speedup_x"] = (
        out["serve_cold_64_s"] / out["serve_cached_64_s"]
    )

    # -- compiled decision tables vs the all-L1-hit cached path -------
    # measured against a rules-backed registry: the tuner's exported
    # rules table covers every message size, so all 64 queries serve
    # from the L0 flat lookup (the selector grid covers only 18)
    with tempfile.TemporaryDirectory() as tmp:
        rules_path = Path(tmp) / "bcast.conf"
        tuner.write_rules(str(rules_path), nodes=8, ppn=2)
        rules_registry = ModelRegistry(tiny_testbed, library)
        rules_registry.load_rules(rules_path)
    compiled = PredictionService(rules_registry, compiled=True)
    first = compiled.recommend_many(instances)
    assert all(rec.compiled for rec in first)
    out["serve_compiled_64_s"] = _best_of(
        lambda: compiled.recommend_many(instances), 30
    )
    out["serve_compiled_speedup_x"] = (
        out["serve_cached_64_s"] / out["serve_compiled_64_s"]
    )

    # -- fast-tier simulator throughput -------------------------------
    quiet = hydra.with_noise(NoiseModel(sigma=0.0, spike_prob=0.0, floor=0.0))
    algo = make_algorithm("bcast", "chain", segsize=4096, chains=4)
    topo = Topology(36, 32)
    out["fastsim_chain_eval_s"] = _best_of(
        lambda: algo.base_time(quiet, topo, 4 << 20), 5
    )
    # the p-1 repeats of each ring phase share one Round: copy-per-round
    # cost / reused cost, bit-identity checked from untimed calls
    if str(ROOT) not in sys.path:  # the reference lives under tests/
        sys.path.insert(0, str(ROOT))
    from tests.simulator.round_reference import copy_per_round

    ring = make_algorithm("allreduce", "segmented_ring", segsize=4096)

    def ring_eval() -> float:
        return ring.base_time(quiet, topo, 4 << 20)

    reused = ring_eval()
    with copy_per_round():
        assert ring_eval() == reused
        copied_s = _best_of(ring_eval, 3)
    out["fastsim_round_reuse_speedup_x"] = copied_s / _best_of(ring_eval, 5)

    out.update(fleet_metrics(tuner))
    out.update(retrain_metrics())
    return out


def fleet_metrics(tuner) -> dict[str, float]:
    """Multi-worker socket fleet under concurrent clients.

    Sized to the machine: one worker per two cores (min 2) and twice as
    many client threads as workers, so the front-end loop, the worker
    processes and the client side together saturate the available
    cores. Reported client-side: requests/s over the timed window and
    the p99 round-trip latency — then the same hammer again with one
    worker SIGKILLed ~0.3 s in (``fleet_degraded_req_per_s``): the
    supervisor respawns it and failover routing keeps every response
    flowing, so the metric captures self-healing throughput, not
    availability (any dropped response still fails the run).
    """
    import os
    import signal
    import threading

    from repro.serve.fleet import FleetSpec, FleetThread, client_request

    cores = os.cpu_count() or 2
    workers = max(2, min(4, cores // 2))
    clients = workers * 2
    per_client = 250
    out: dict[str, float] = {}

    with tempfile.TemporaryDirectory() as tmp:
        rules_path = Path(tmp) / "bcast.conf"
        tuner.write_rules(str(rules_path), nodes=8, ppn=2)
        spec = FleetSpec(rules=(str(rules_path),), workers=workers)
        with FleetThread(spec) as fleet:
            keys = [
                (n, p, m)
                for n in (2, 4, 6, 8)
                for p in (1, 2)
                for m in (64, 4096, 262144, 1 << 20)
            ]
            # warm every worker's compiled tier + L1 through the socket
            client_request("127.0.0.1", fleet.port, [
                {"op": "recommend", "collective": "bcast",
                 "nodes": n, "ppn": p, "msize": m}
                for n, p, m in keys
            ])

            def hammer(seed: int, mine: list[float]) -> None:
                import socket

                with socket.create_connection(
                    ("127.0.0.1", fleet.port), timeout=60
                ) as sock:
                    reader = sock.makefile("r", encoding="utf-8")
                    for i in range(per_client):
                        n, p, m = keys[(seed + i) % len(keys)]
                        payload = json.dumps({
                            "op": "recommend", "collective": "bcast",
                            "nodes": n, "ppn": p, "msize": m,
                        }) + "\n"
                        t0 = time.perf_counter()
                        sock.sendall(payload.encode())
                        line = reader.readline()
                        if not line:
                            raise ConnectionError("fleet dropped a response")
                        response = json.loads(line)
                        if not response.get("ok"):
                            raise AssertionError(
                                f"fleet failed a request: {response}"
                            )
                        mine.append(time.perf_counter() - t0)

            def run_round(mid_round=None) -> tuple[float, list[float]]:
                latencies: list[list[float]] = []
                threads = []
                for seed in range(clients):
                    mine: list[float] = []
                    latencies.append(mine)
                    threads.append(
                        threading.Thread(target=hammer, args=(seed, mine))
                    )
                t0 = time.perf_counter()
                for thread in threads:
                    thread.start()
                if mid_round is not None:
                    time.sleep(0.3)
                    mid_round()
                for thread in threads:
                    thread.join()
                elapsed = time.perf_counter() - t0
                flat = sorted(lat for per in latencies for lat in per)
                assert len(flat) == clients * per_client
                return elapsed, flat

            elapsed, flat = run_round()
            out["fleet_workers"] = float(workers)
            out["fleet_req_per_s"] = len(flat) / elapsed
            out["fleet_p99_us"] = flat[int(len(flat) * 0.99)] * 1e6

            # degraded throughput: SIGKILL one worker mid-hammer; the
            # supervisor respawns it and failover keeps every response
            # flowing (a failed or dropped response fails the bench)
            victim = fleet.worker_pids()[0]
            elapsed, flat = run_round(
                mid_round=lambda: os.kill(victim, signal.SIGKILL)
            )
            out["fleet_degraded_req_per_s"] = len(flat) / elapsed
    return out


def retrain_metrics() -> dict[str, float]:
    """Closed-loop retrain cost: active sampling vs naive full refit.

    Reproduces the ISSUE-10 acceptance scenario deterministically: a
    GAM selector trained on the tiny testbed serves a traffic mix whose
    hot path (the dominant chosen algorithm family) silently slows down
    2x. The feedback log picks up the drift, and the retrainer refits —
    once with active sampling (measure only instances where the
    analytical prior calibrated on feedback disagrees with the learned
    model) and once exhaustively. ``retrain_budget_frac`` is the gated
    headline: measured samples / full-grid samples, which must stay at
    most half the naive refit while final selection agreement against
    the shifted oracle matches the exhaustive run.
    """
    from collections import Counter

    from repro.bench.repro_mpi import BenchmarkSpec
    from repro.bench.runner import GridSpec
    from repro.core.feedback import (
        FeedbackConfig,
        FeedbackLogger,
        WorldShift,
        read_feedback,
    )
    from repro.core.retrain import (
        Retrainer,
        RetrainPolicy,
        selection_agreement,
    )
    from repro.core.tuner import AutoTuner
    from repro.machine.zoo import tiny_testbed
    from repro.mpilib import get_library
    from repro.serve.service import Recommendation

    margin = 0.10
    library = get_library("Open MPI")
    msizes = (64, 1024, 4096, 65536, 262144, 1048576)
    tuner = AutoTuner(
        tiny_testbed, library, "bcast",
        learner="GAM", bench_spec=BenchmarkSpec(max_nreps=30), seed=1,
    )
    base = tuner.benchmark(
        GridSpec(nodes=(2, 4, 8), ppns=(1, 2), msizes=msizes)
    )
    selector = tuner.train()
    configs = library.config_space("bcast").configs
    instances = [
        (n, p, m) for n in (2, 4, 8) for p in (1, 2) for m in msizes
    ]
    chosen = {
        inst: int(selector.select_ids(*inst)[0]) for inst in instances
    }
    dominant = Counter(
        configs[cid].algid for cid in chosen.values() if cid >= 0
    ).most_common(1)[0][0]
    shift = WorldShift(factor=2.0, algids=(dominant,))
    hot = [
        inst for inst in instances
        if configs[chosen[inst]].algid == dominant
    ]

    out: dict[str, float] = {}
    t0 = time.perf_counter()
    with tempfile.TemporaryDirectory() as tmp:
        feedback = FeedbackLogger(
            FeedbackConfig(
                path=str(Path(tmp) / "feedback.jsonl"),
                seed=3, shift=2.0, shift_algids=(dominant,),
            ),
            tiny_testbed, library,
        )
        # traffic mix: every instance once, the drifting hot path 3x
        for n, p, m in list(instances) + 3 * hot:
            feedback.record(Recommendation(
                collective="bcast", nodes=n, ppn=p, msize=m,
                config=configs[chosen[(n, p, m)]],
                source="model", version=1,
            ))
        feedback.close()
        rows = read_feedback(feedback.path)
    out["retrain_feedback_rows"] = float(len(rows))

    active = Retrainer(
        tiny_testbed, library, "bcast", base,
        seed=1, learner="GAM", shift=shift,
        policy=RetrainPolicy(margin=margin),
    )
    assert active.scan(rows), "drift must fire on the 2x hot-path shift"
    result = active.retrain(rows)
    out["retrain_s"] = time.perf_counter() - t0
    out["retrain_budget_frac"] = result.budget_frac
    out["retrain_agreement"] = selection_agreement(
        result.selector, tiny_testbed, library, "bcast", instances,
        shift=shift, margin=margin,
    )

    exhaustive = Retrainer(
        tiny_testbed, library, "bcast", base,
        seed=1, learner="GAM", shift=shift,
        policy=RetrainPolicy(exhaustive=True, margin=margin),
    )
    full = exhaustive.retrain(rows)
    out["retrain_exhaustive_budget_frac"] = full.budget_frac
    out["retrain_exhaustive_agreement"] = selection_agreement(
        full.selector, tiny_testbed, library, "bcast", instances,
        shift=shift, margin=margin,
    )
    return out


def pytest_benchmark_medians() -> dict[str, float]:
    """Medians from the quick pytest-benchmark subset."""
    with tempfile.NamedTemporaryFile(suffix=".json", delete=False) as fh:
        json_path = fh.name
    cmd = [
        sys.executable, "-m", "pytest", "benchmarks", "-q",
        "-m", "not slow", f"--benchmark-json={json_path}",
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        print(proc.stdout[-4000:], file=sys.stderr)
        raise SystemExit("benchmark suite failed")
    data = json.loads(Path(json_path).read_text())
    return {
        bench["name"]: bench["stats"]["median"]
        for bench in data.get("benchmarks", [])
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--pr", type=int, required=True)
    parser.add_argument(
        "--baseline", type=Path, default=None,
        help="JSON of pre-change numbers to embed as the baseline block",
    )
    parser.add_argument(
        "--skip-pytest", action="store_true",
        help="only the direct metrics (faster; used by CI smoke runs)",
    )
    parser.add_argument(
        "--out", type=Path, default=None,
        help="write the report here instead of BENCH_<pr>.json at the "
        "repo root (used by the CI regression gate)",
    )
    args = parser.parse_args()

    report: dict = {"pr": args.pr, "provenance": provenance()}
    report["current"] = direct_metrics()
    if not args.skip_pytest:
        report["pytest_benchmark_medians_s"] = pytest_benchmark_medians()
    if args.baseline is not None:
        report["baseline"] = json.loads(args.baseline.read_text())

    out_path = args.out if args.out is not None else ROOT / f"BENCH_{args.pr}.json"
    existing = {}
    if out_path.exists():
        existing = json.loads(out_path.read_text())
    if "baseline" in existing and "baseline" not in report:
        report["baseline"] = existing["baseline"]  # keep recorded baseline
    tmp_path = out_path.with_name(f".{out_path.name}.{os.getpid()}.tmp")
    tmp_path.write_text(json.dumps(report, indent=2) + "\n")
    os.replace(tmp_path, out_path)
    print(json.dumps(report, indent=2))
    print(f"\nwrote {out_path}")


if __name__ == "__main__":
    main()
