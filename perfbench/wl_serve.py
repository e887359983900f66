"""``serve``: the runtime query path through the fleet's socket.

The fleet runs in its own process tree, booted with
``mpicollpred serve --workers 2 --port 0`` (as ``python -m repro.cli``)
over Hydra rules for bcast and allreduce. The rules are written with
``AutoTuner.write_rules`` on a message-size grid with non-power-of-two
boundaries, so part of the traffic falls through the compiled L0 tier.

One op is one ``recommend_many`` request of :data:`BATCH` instances on
one connection, closed loop. Each batch mixes three kinds of instance
(shares in :data:`MIX`): message sizes the compiled tables cover, a
small repeating pool of uncovered keys (L1 hits once seen) and
never-seen uncovered keys (exact lookups). Every answer is checked
against an in-process reference ``PredictionService`` over the same
rules files.

Why this workload: no learner and no campaign run here, so a fit or
campaign change predicts no change; what it measures is front-end
parse, routing, the pipe hops, the answering tiers and the merge.
"""

from __future__ import annotations

import collections
import json
import random
import socket
import subprocess
import sys
import threading
import time

from common import (
    children, closed_loop, cpu_seconds, derive_seed, end_to_end, median,
    peak_rss_mb, tail_percentile, terminate_tree,
)
from spans import per_iter

BATCH = 512
WORKERS = 2
SETUP_REPEATS = 5
COLLECTIVES = ("bcast", "allreduce")
#: rule boundaries; 1000, 3000, 50000 and 700000 split their log2
#: buckets, so sizes just above them are not in the compiled tables
RULE_MSIZES = (1, 1000, 3000, 16384, 50_000, 262_144, 700_000, 4_194_304)
#: uncovered ranges: from each splitting boundary to its bucket's end
UNCOVERED = ((1000, 1023), (3000, 4095), (50_000, 65_535),
             (700_000, 1_048_575))
#: sizes whose whole log2 bucket holds no interior boundary
COVERED_MSIZES = (1, 7, 64, 600, 2048, 5000, 20_000, 100_000, 300_000,
                  600_000, 2_000_000, 4_194_304, 8_000_000)
#: share of each batch: covered / repeating uncovered / fresh uncovered
MIX = (0.75, 0.125, 0.125)
REPEAT_POOL = 128
#: coprime to the number of uncovered sizes (see Inputs.batch)
STRIDE = 104_729
RULES_ALLOC = (16, 16)
RULES_GRID = dict(nodes=(4, 16), ppns=(1, 16),
                  msizes=(1, 1024, 65_536, 1_048_576))
#: what must match between a fleet answer and the reference
COMPARED = ("collective", "nodes", "ppn", "msize", "algid", "label",
            "params", "source", "version")


class Inputs:
    """The request stream of one run, a pure function of the seed."""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.span = sum(hi - lo + 1 for lo, hi in UNCOVERED)
        rng = random.Random(derive_seed("serve-pool", seed))
        self.repeat_pool = [self._uncovered(rng, rng.randrange(self.span))
                            for _ in range(REPEAT_POOL)]

    @staticmethod
    def _alloc(rng: random.Random) -> tuple[str, int, int]:
        return rng.choice(COLLECTIVES), rng.randint(2, 48), rng.randint(1, 32)

    def _uncovered(self, rng: random.Random, k: int) -> tuple:
        """The ``k``-th uncovered message size, on a random allocation."""
        coll, nodes, ppn = self._alloc(rng)
        for lo, hi in UNCOVERED:
            if k <= hi - lo:
                return coll, nodes, ppn, lo + k
            k -= hi - lo + 1
        raise ValueError("k beyond the uncovered sizes")

    def batch(self, op: int) -> list[tuple]:
        """Instances of request ``op``.

        Fresh keys take distinct uncovered sizes: ``k -> k * STRIDE mod
        span`` is a bijection, so no size repeats within a run of fewer
        than ``span / (BATCH * MIX[2])`` requests.
        """
        rng = random.Random(derive_seed("serve-batch", self.seed, op))
        n_repeat = int(BATCH * MIX[1])
        n_fresh = int(BATCH * MIX[2])
        out = []
        for _ in range(BATCH - n_repeat - n_fresh):
            coll, nodes, ppn = self._alloc(rng)
            out.append((coll, nodes, ppn, rng.choice(COVERED_MSIZES)))
        out.extend(rng.choice(self.repeat_pool) for _ in range(n_repeat))
        for j in range(n_fresh):
            k = ((op * n_fresh + j) * STRIDE) % self.span
            out.append(self._uncovered(rng, k))
        rng.shuffle(out)
        return out


def write_rules(seed: int, out_dir) -> list[str]:
    """Tune bcast and allreduce on a small Hydra grid and write their
    rules (benchmark-side input generation, not part of set-up)."""
    from repro.bench.repro_mpi import BenchmarkSpec
    from repro.bench.runner import GridSpec
    from repro.core.tuner import AutoTuner
    from repro.machine.zoo import get_machine
    from repro.mpilib import get_library

    machine = get_machine("Hydra")
    library = get_library("Open MPI")
    paths = []
    for coll in COLLECTIVES:
        tuner = AutoTuner(
            machine, library, coll, learner="KNN",
            bench_spec=BenchmarkSpec(max_nreps=10),
            seed=derive_seed("serve-rules", seed, coll) % (1 << 31),
        )
        tuner.benchmark(GridSpec(**RULES_GRID))
        tuner.train()
        path = out_dir / f"{coll}.conf"
        tuner.write_rules(str(path), *RULES_ALLOC, msizes=RULE_MSIZES)
        paths.append(str(path))
    return paths


class Fleet:
    """One fleet process tree and its client connection."""

    def __init__(self, rules: list[str], env: dict) -> None:
        cmd = [sys.executable, "-m", "repro.cli", "serve",
               "--workers", str(WORKERS), "--port", "0",
               "--machine", "Hydra"]
        for path in rules:
            cmd += ["--rules", path]
        self.stderr_tail: collections.deque[str] = collections.deque(
            maxlen=40
        )
        self.proc = subprocess.Popen(
            cmd, env=env, stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
        )
        self.workers: list[int] = []
        self.sock: socket.socket | None = None
        self._ready = threading.Event()
        self.port = 0
        self._reader = threading.Thread(target=self._drain, daemon=True)
        self._reader.start()

    def _drain(self) -> None:
        for line in self.proc.stderr:
            self.stderr_tail.append(line.rstrip())
            if not self.port and "listening on" in line:
                address = line.split("listening on ", 1)[1].split()[0]
                self.port = int(address.rsplit(":", 1)[1])
                self._ready.set()
        self._ready.set()  # EOF: the fleet exited

    def boot(self, timeout: float = 120.0) -> None:
        """Wait for the listening line, connect, answer one request."""
        if not self._ready.wait(timeout) or not self.port:
            raise RuntimeError("fleet did not start listening")
        self.workers = children(self.proc.pid)
        if len(self.workers) != WORKERS:
            raise RuntimeError(f"fleet has workers {self.workers}")
        self.sock = socket.create_connection(("127.0.0.1", self.port),
                                             timeout=60)
        self._rd = self.sock.makefile("r", encoding="utf-8")
        self.call({"op": "recommend", "collective": "bcast", "nodes": 4,
                   "ppn": 1, "msize": 1})

    def call(self, payload: dict) -> dict:
        self.sock.sendall((json.dumps(payload) + "\n").encode())
        line = self._rd.readline()
        if not line:
            raise ConnectionError("fleet closed the connection")
        response = json.loads(line)
        if not response.get("ok"):
            raise RuntimeError(f"fleet error: {response}")
        return response

    def pids(self) -> list[int]:
        return [self.proc.pid, *self.workers]

    def stop(self) -> list[int]:
        """Close, SIGTERM and reap; returns pids left alive (a failure)."""
        if self.sock is not None:
            self.sock.close()
        left = terminate_tree(self.proc, self.workers)
        self._reader.join(timeout=10)
        return left


def _counter_delta(before: dict, after: dict, name: str) -> int:
    return int(after.get(name, 0)) - int(before.get(name, 0))


def run(ctx) -> dict:
    from repro.machine.zoo import get_machine
    from repro.mpilib import get_library
    from repro.serve.registry import ModelRegistry
    from repro.serve.service import PredictionService

    rules_dir = ctx.work / "rules"
    rules_dir.mkdir(parents=True, exist_ok=True)
    rules = write_rules(ctx.seed, rules_dir)
    inputs = Inputs(ctx.seed)
    registry = ModelRegistry(get_machine("Hydra"), get_library("Open MPI"))
    for path in rules:
        registry.load_rules(path)
    reference = PredictionService(registry, compiled=True)

    setup: list[float] = []
    fleet = None
    try:
        for rep in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            fleet = Fleet(rules, ctx.env)
            ctx.on_failure(lambda f=fleet: list(f.stderr_tail))
            fleet.boot()
            setup.append(time.perf_counter() - t0)
            if rep < SETUP_REPEATS - 1:
                left = fleet.stop()
                if left:
                    raise RuntimeError(f"fleet left processes {left}")
        return _measure(ctx, fleet, inputs, reference, setup)
    finally:
        if fleet is not None:
            left = fleet.stop()
            if left:
                raise RuntimeError(f"fleet left processes alive: {left}")


def _measure(ctx, fleet: Fleet, inputs: Inputs, reference,
             setup: list[float]) -> dict:
    tracer = ctx.tracer
    client_cpu = [0.0]
    #: answers compared / identical, failed ops included
    tally = {"n": 0, "same": 0}
    fleet_pids = fleet.pids()

    def op(i: int):
        with tracer.span("iter"):
            batch = inputs.batch(i)
            c0 = time.process_time()
            with tracer.span("op"):
                t0 = time.perf_counter()
                payload = {"op": "recommend_many", "instances": [
                    {"collective": c, "nodes": n, "ppn": p, "msize": m}
                    for c, n, p, m in batch
                ]}
                with tracer.span("serve.fleet_request"):
                    response = fleet.call(payload)
                results = response["results"]
                latency = time.perf_counter() - t0
            with tracer.span("check.reference"):
                expected = reference.recommend_many(batch)
                same = sum(
                    all(got[k] == want[k] for k in COMPARED)
                    for got, want in zip(
                        results, (r.to_dict() for r in expected), strict=True
                    )
                )
            client_cpu[0] += time.process_time() - c0
        tally["n"] += len(batch)
        tally["same"] += same
        if same != len(batch):
            raise AssertionError(
                f"{len(batch) - same} of {len(batch)} answers differ from "
                "the in-process reference"
            )
        return latency, {}

    def worker_cpu() -> float:
        return sum(cpu_seconds(pid) for pid in fleet.workers)

    stats0 = fleet.call({"op": "stats"})["stats"]["fleet"]
    front0 = cpu_seconds(fleet.proc.pid)
    tracer.install()
    try:
        loop = closed_loop(op, ctx.seconds, worker_cpu)
    finally:
        tracer.uninstall()
    front_cpu = cpu_seconds(fleet.proc.pid) - front0
    stats1 = fleet.call({"op": "stats"})["stats"]["fleet"]
    peak = sum(peak_rss_mb(pid) for pid in fleet_pids)
    if fleet.workers != children(fleet.proc.pid):
        raise RuntimeError("a worker was replaced during the window")

    attempted = len(loop.ops)
    metrics = end_to_end(
        loop, setup_s=median(setup),
        cpu_s=loop.cpu_s + front_cpu + client_cpu[0], peak_mb=peak,
        quality=tally["same"] / tally["n"] if tally["n"] else 0.0,
    )
    merged0, merged1 = stats0["counters_merged"], stats1["counters_merged"]
    requests = _counter_delta(merged0, merged1, "serve.requests") or 1
    p90 = tail_percentile(loop.latencies, 90)
    layers = {}
    if tracer.enabled:
        iters = tracer.iterations()
        layers = {
            "serve.latency_p90_ms": p90 * 1e3 if p90 is not None else 0.0,
            "serve.frontend_cpu_ms_per_op": front_cpu * 1e3 / attempted,
            "serve.worker_cpu_ms_per_op": loop.cpu_s * 1e3 / attempted,
            "serve.answer_ms_per_op":
                median(per_iter(iters, "serve.recommend_many")) * 1e3,
            "serve.server_latency_p50_us":
                float(stats1["latency_us"].get("p50", 0.0)),
            "serve.l0_hit_frac": _counter_delta(
                merged0, merged1, "serve.compiled.hit") / requests,
            "serve.l1_hit_frac": _counter_delta(
                merged0, merged1, "serve.l1.hits") / requests,
            "serve.exact_frac": _counter_delta(
                merged0, merged1, "serve.l1.misses") / requests,
            "serve.shed": float(_counter_delta(
                stats0["counters"], stats1["counters"], "fleet.shed")),
            "serve.failover_retries": float(_counter_delta(
                stats0["counters"], stats1["counters"],
                "fleet.failover_retries")),
        }
    return {
        "loop": loop,
        "metrics": metrics,
        "layers": layers,
        "record": {
            "setup_samples_s": setup,
            "fleet_pids": fleet_pids,
            "latency_p90_ms": p90 * 1e3 if p90 is not None else None,
            "latency_samples": len(loop.latencies),
            "worker_counter_deltas": {
                name: _counter_delta(merged0, merged1, name)
                for name in sorted(set(merged0) | set(merged1))
            },
            "client_cpu_ms_per_op": client_cpu[0] * 1e3 / attempted,
        },
    }
