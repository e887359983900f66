"""Multi-worker serving fleet: asyncio front-end over worker processes.

``mpicollpred serve --workers N --port P`` turns the single-process
:class:`~repro.serve.service.PredictionService` into an operating
fleet:

* **N worker processes** (:mod:`repro.serve.worker`), each holding its
  own registry (loaded from rules files) + service (compiled L0 tables
  and L1 LRU intact), spawned as subprocesses and spoken to over stdio
  JSONL with pipelined, ``rid``-matched requests.
* **Consistent-hash routing** on ``(collective, nodes, ppn)``
  (:class:`HashRing`): the same allocation always lands on the same
  worker, so each worker's compiled tables and L1 cache stay hot
  instead of every worker cold-missing the whole key space.
  ``recommend_many`` batches split into per-worker sub-batches that run
  concurrently.
* **Self-healing** (:class:`FleetSupervisor`): a dead worker (pipe
  EOF, response-pipe overflow, call timeout, process exit) is
  respawned with exponential backoff and **boots at the committed
  version** — its spec lists the base rules plus every reload
  committed since boot, in order, and is snapshotted and installed
  under the reload lock, so a respawned worker never serves a stale
  registry or skews version numbers. A per-worker circuit breaker
  (more than ``max_worker_restarts`` crashes inside
  ``restart_window_s``) holds a crash-looping worker open instead of
  thrashing.
* **Failover routing & bounded retry**: while a worker is down its
  keys route to the next live owner on the hash ring (deterministic —
  keys return to the original owner after respawn), and a request that
  dies with its worker is retried once on the failover owner instead
  of surfacing :class:`WorkerError` to the client.
* **Backpressure**: each worker has a bounded in-flight queue
  (``queue_depth``); beyond the high-water mark the front-end answers
  ``ok: false, error: "overloaded"`` (HTTP 503 on the scrape paths
  that fan out to workers) instead of queueing unboundedly
  (``fleet.shed`` counter, per-worker ``fleet_queue_depth`` gauges).
* **One listening socket, two protocols**: a connection that opens
  with an HTTP verb gets the scrape surface (``GET /metrics``
  Prometheus text, ``GET /healthz`` — ``ok``/``degraded``/``down``
  with 503 when no live worker owns the ring — ``GET /stats``);
  anything else is the line-oriented JSONL protocol of
  :mod:`repro.serve.loop`.
* **Coordinated hot reload** — a two-phase version barrier
  (:meth:`Fleet._handle_reload`): phase one stages the candidate on
  every *live* worker while traffic still flows (a live worker that
  rejects it aborts the whole reload; a worker that dies mid-phase is
  simply excluded — its replacement boots at whatever the reload
  decides); phase two closes the request gate, waits for
  in-flight requests to drain, commits every staged worker, and
  reopens. Queued requests are *delayed, never dropped*, and no
  response can mix versions.
* **Metrics export**: per-request latency lands in a
  :class:`repro.obs.Histogram`; a scrape merges ``serve.*`` counters
  across workers and renders everything with
  :func:`repro.serve.exporter.render_prometheus`.

Deterministic fault injection for all of the above lives in
:mod:`repro.serve.chaos` (seeded kill/wedge/garbage/crash plans) and is
reachable over the socket via the ``chaos`` op when the fleet is booted
with ``chaos_ops=True`` (``--chaos-ops``) — disabled by default.

Outside the fleet, :class:`FleetClient` is the one JSONL client and
:func:`http_get` the scrape client; :class:`FleetThread` boots a fleet
on a private event-loop thread and :class:`FleetProcess` through the
real CLI.
"""

from __future__ import annotations

import asyncio
import bisect
import contextlib
import hashlib
import itertools
import json
import os
import re
import signal
import socket
import subprocess
import sys
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Container, Iterable, Mapping, Sequence

from repro.obs import get_telemetry
from repro.serve.exporter import render_prometheus

#: how many points each worker contributes to the hash ring — enough
#: that removing a worker moves ~1/N of the key space, not half of it
VNODES_PER_WORKER = 64

#: asyncio StreamReader line limit for worker pipes *and* client
#: connections — the default 64 KiB truncates a few-hundred-instance
#: ``recommend_many`` response, and an overflowing readline() raises
#: ValueError, not a short read
STREAM_LIMIT = 16 * 1024 * 1024

#: per-request deadline on a worker call — a wedged-but-alive worker
#: must fail the request (and be killed) rather than hold the reload
#: gate open forever
CALL_TIMEOUT_S = 60.0

#: trailing stderr lines of a worker kept in its quarantine buffer and
#: surfaced in the ``fleet_worker_died`` event when it crashes
STDERR_TAIL_LINES = 20

#: how often the supervisor rescans worker liveness when nothing kicks
#: it awake (deaths kick it immediately via ``WorkerHandle.on_death``)
SUPERVISOR_POLL_S = 0.5

#: ceiling on the supervisor's exponential respawn backoff
BACKOFF_CAP_S = 5.0

#: how long Fleet.stop() waits for in-flight requests to drain before
#: tearing the workers down anyway
DRAIN_TIMEOUT_S = 5.0

#: fleet-side latency buckets (microseconds): routed requests cross two
#: pipe hops, so the floor sits around tens of microseconds
LATENCY_BUCKETS_US = (
    50.0, 100.0, 200.0, 500.0, 1_000.0, 2_000.0, 5_000.0, 10_000.0,
    20_000.0, 50_000.0, 100_000.0, 200_000.0, 500_000.0, 1_000_000.0,
    5_000_000.0,
)

HELP_TEXTS = {
    "fleet.request_latency_us": "front-end request latency in microseconds",
    "fleet.reload_pause_us": "request-gate pause during reload commits (us)",
    "fleet.requests": "requests handled by the fleet front-end",
    "fleet.reloads": "coordinated reloads committed across all workers",
    "fleet.reload_rejected": "reloads aborted in the prepare phase",
    "fleet.worker_failures": "requests failed because no live worker could answer",
    "fleet.failover_retries": "requests retried on a failover ring owner",
    "fleet.shed": "requests shed because a worker queue hit its high-water mark",
    "fleet.worker_restarts": "dead workers respawned at the committed version",
    "fleet.breaker_open": "per-worker circuit breakers opened on crash loops",
    "fleet.worker_garbage_lines": "unparseable worker stdout lines skipped",
    "fleet.queue_depth": "in-flight requests per worker",
    "fleet.workers_alive": "workers currently alive",
    "fleet.breakers_open": "workers currently held open by their breaker",
    "serve.compiled.hit": "requests answered by the compiled L0 table",
    "serve.l1.hits": "requests answered by the L1 recommendation LRU",
    "serve.requests": "recommend requests across all workers",
    "serve.feedback.rows": "feedback rows appended by the serve loop",
    "serve.feedback.skipped_lines": "torn/garbage feedback lines skipped",
    "serve.feedback.guideline_violations":
        "performance-guideline violations seen at served instances",
    "serve.drift.residual_median":
        "median log(observed/predicted) residual per (collective, version)",
    "serve.drift.residual_mad":
        "normalised MAD of the residual window per (collective, version)",
    "serve.drift.samples": "residual window size per (collective, version)",
}


class WorkerError(RuntimeError):
    """A worker process died or answered garbage."""


class OverloadedError(RuntimeError):
    """A worker's in-flight queue is past the high-water mark."""


@dataclass(frozen=True)
class FleetSpec:
    """Everything needed to boot a fleet (JSON-safe, worker-shippable)."""

    machine: str = "Hydra"
    library: str = "Open MPI"
    rules: tuple[str, ...] = ()
    workers: int = 2
    cache_size: int = 4096
    #: per-worker in-flight high-water mark; beyond it requests are
    #: shed with ``ok: false, error: "overloaded"`` instead of queueing
    queue_depth: int = 128
    #: crashes per worker inside ``restart_window_s`` before its
    #: circuit breaker holds it open (no further respawns)
    max_worker_restarts: int = 5
    restart_window_s: float = 30.0
    #: first respawn delay; doubles per crash in the window (cap 5 s)
    backoff_base_s: float = 0.25
    #: per-request worker deadline — a wedged worker is killed and
    #: respawned when a call exceeds it
    call_timeout_s: float = CALL_TIMEOUT_S
    #: admit deterministic fault-injection ops (kill/wedge/garbage/
    #: crash) over the socket — chaos harness only, default off
    chaos_ops: bool = False
    #: directory for per-worker feedback JSONL logs ("" disables the
    #: closed loop); each worker appends to feedback-w<id>.jsonl
    feedback_dir: str = ""
    #: seed of the simulated observation RNG (pure function of the
    #: site, so respawned workers replay identical rows)
    feedback_seed: int = 0
    #: injected world shift for drift drills: observed times of the
    #: listed algids (all when empty) are scaled by this factor
    feedback_shift: float = 1.0
    feedback_shift_algids: tuple[int, ...] = ()

    def worker_spec(self, worker_id: int, committed: Sequence[str]) -> dict:
        """The boot spec of one worker: the base rules followed by the
        ``committed`` reloads in commit order, so a worker booted now
        lands on exactly the version numbers its peers serve."""
        spec = {
            "worker_id": worker_id,
            "machine": self.machine,
            "library": self.library,
            "rules": [*self.rules, *committed],
            "cache_size": self.cache_size,
            "chaos_ops": self.chaos_ops,
        }
        if self.feedback_dir:
            path = Path(self.feedback_dir) / f"feedback-w{worker_id}.jsonl"
            spec["feedback"] = {
                "path": str(path),
                "seed": self.feedback_seed,
                "shift": self.feedback_shift,
                "shift_algids": list(self.feedback_shift_algids),
            }
        return spec


def _stable_hash(text: str) -> int:
    """64-bit hash that is identical across processes and runs.

    (Python's builtin ``hash`` is salted per process — useless for
    routing decisions that tests and restarted front-ends must agree
    on.)
    """
    digest = hashlib.blake2b(text.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big")


class HashRing:
    """Consistent hashing of routing keys onto worker indices."""

    def __init__(self, n_workers: int, vnodes: int = VNODES_PER_WORKER) -> None:
        if n_workers < 1:
            raise ValueError("need at least one worker")
        points = sorted(
            (_stable_hash(f"worker-{worker}/vnode-{vnode}"), worker)
            for worker in range(n_workers)
            for vnode in range(vnodes)
        )
        self.n_workers = n_workers
        self._hashes = [point for point, _ in points]
        self._owners = [worker for _, worker in points]

    @staticmethod
    def route_key(collective: str, nodes: int, ppn: int) -> str:
        """The routing identity: message size deliberately excluded,
        so one allocation's whole msize sweep shares one worker's
        compiled table and LRU."""
        return f"{collective}|{nodes}|{ppn}"

    def owners_for(self, collective: str, nodes: int, ppn: int) -> tuple[int, ...]:
        """Every worker in ring order starting at the key's point.

        The first element is the key's home owner; the rest is the
        deterministic failover chain — while the home owner is down its
        keys belong to the next *live* entry, and they return home the
        moment it is respawned (the chain is a pure function of the
        ring, not of liveness history).
        """
        point = _stable_hash(self.route_key(collective, nodes, ppn))
        start = bisect.bisect_right(self._hashes, point)
        size = len(self._hashes)
        seen: set[int] = set()
        chain: list[int] = []
        for step in range(size):
            owner = self._owners[(start + step) % size]
            if owner not in seen:
                seen.add(owner)
                chain.append(owner)
                if len(chain) == self.n_workers:
                    break
        return tuple(chain)

    def worker_for(
        self, collective: str, nodes: int, ppn: int,
        alive: Iterable[int] | None = None,
    ) -> int:
        """The key's owner; with ``alive`` given, its first live owner."""
        chain = self.owners_for(collective, nodes, ppn)
        if alive is None:
            return chain[0]
        owner = first_live_owner(chain, set(alive))
        if owner is None:
            raise WorkerError("no live worker owns the ring")
        return owner


def first_live_owner(owners: Sequence[int], alive: Container[int]
                     ) -> int | None:
    """The one live-owner rule: the first of ``owners`` (a key's ring
    chain, home owner first) that is in ``alive``; None when none is.

    Request routing (:meth:`Fleet._scatter`,
    :meth:`Fleet._call_with_failover`) and :meth:`HashRing.worker_for`
    all decide through this function.
    """
    for owner in owners:
        if owner in alive:
            return owner
    return None


class _ReloadGate:
    """Requests are readers, a reload commit is the (sole) writer.

    ``close()`` stops admitting new requests and waits for in-flight
    ones to drain; ``open()`` releases the queue. Requests arriving
    while closed *wait* — nothing is ever rejected, which is the "zero
    dropped responses" half of the reload contract. Single event loop,
    so counter updates need no lock.
    """

    def __init__(self) -> None:
        self.inflight = 0
        self._admitting = asyncio.Event()
        self._admitting.set()
        self._drained = asyncio.Event()
        self._drained.set()

    async def acquire(self) -> None:
        while not self._admitting.is_set():
            await self._admitting.wait()
        self.inflight += 1

    def release(self) -> None:
        self.inflight -= 1
        if self.inflight == 0:
            self._drained.set()

    async def close(self) -> None:
        self._admitting.clear()
        if self.inflight:
            self._drained.clear()
            await self._drained.wait()

    def open(self) -> None:
        self._admitting.set()


class WorkerHandle:
    """One worker subprocess: pipelined rid-matched request/response."""

    def __init__(self, worker_id: int,
                 process: asyncio.subprocess.Process,
                 on_death: Callable[[], None] | None = None) -> None:
        self.worker_id = worker_id
        self.process = process
        self._rids = itertools.count(1)
        self._pending: dict[int, asyncio.Future] = {}
        self._reader: asyncio.Task | None = None
        self._stderr_task: asyncio.Task | None = None
        self._write_lock = asyncio.Lock()
        self.dead_reason: str | None = None
        self.ready_info: dict = {}
        #: quarantined trailing stderr of the worker — surfaced in the
        #: fleet_worker_died event instead of being lost with the crash
        self.stderr_tail: deque[str] = deque(maxlen=STDERR_TAIL_LINES)
        self._on_death = on_death

    @property
    def alive(self) -> bool:
        return self.dead_reason is None and self.process.returncode is None

    @property
    def inflight(self) -> int:
        """Requests sent but not yet answered (the bounded queue)."""
        return len(self._pending)

    async def start(self, timeout: float = 30.0) -> None:
        """Wait for the worker's ready line, then start the dispatcher."""
        if self.process.stderr is not None:
            self._stderr_task = asyncio.create_task(self._drain_stderr())
        stdout = self.process.stdout
        assert stdout is not None  # PIPE-spawned (see _spawn_worker)
        line = await asyncio.wait_for(stdout.readline(), timeout)
        info = json.loads(line) if line else {}
        if not info.get("ready"):
            raise WorkerError(
                f"worker {self.worker_id} failed to start: "
                f"{info.get('error', 'no ready line')}"
            )
        self.ready_info = info
        self._reader = asyncio.create_task(self._read_loop())

    async def _drain_stderr(self) -> None:
        """Quarantine + forward worker stderr line by line.

        The tail survives the process so a crash's last words end up in
        the ``fleet_worker_died`` event; the live stream is forwarded to
        the front-end's stderr (prefixed) so operators still see it.
        """
        stream = self.process.stderr
        assert stream is not None  # PIPE-spawned (see _spawn_worker)
        while True:
            try:
                line = await stream.readline()
            except ValueError:
                self.stderr_tail.append("<oversized stderr line dropped>")
                break
            if not line:
                return
            text = line.decode("utf-8", "replace").rstrip()
            self.stderr_tail.append(text)
            print(f"[worker {self.worker_id}] {text}",
                  file=sys.stderr, flush=True)

    async def _read_loop(self) -> None:
        reason = "died"
        stdout = self.process.stdout
        assert stdout is not None  # PIPE-spawned (see _spawn_worker)
        try:
            while True:
                try:
                    line = await stdout.readline()
                except ValueError:
                    # response line over STREAM_LIMIT: the stream has
                    # discarded it, so some rid can never be matched
                    # again — the pipe protocol is broken, fail the
                    # worker rather than hang its callers
                    reason = "overflowed its response pipe"
                    break
                if not line:
                    break
                try:
                    response = json.loads(line)
                except ValueError:
                    # a torn/garbage line cannot be matched to a caller;
                    # skip it — the caller's deadline (or the worker's
                    # death) resolves the orphaned rid
                    get_telemetry().add("fleet.worker_garbage_lines")
                    continue
                future = self._pending.pop(response.pop("rid", None), None)
                if future is not None and not future.done():
                    future.set_result(response)
        finally:
            # EOF, overflow, or reader cancellation: nothing further
            # will arrive — fail in-flight callers and refuse new ones
            self._fail(reason)

    def _fail(self, reason: str) -> None:
        """Mark this worker unusable: fail pending + future callers."""
        if self.dead_reason is None:
            self.dead_reason = reason
        for future in self._pending.values():
            if not future.done():
                future.set_exception(
                    WorkerError(f"worker {self.worker_id} {reason}")
                )
        self._pending.clear()
        if self.process.returncode is None:
            with contextlib.suppress(ProcessLookupError):
                self.process.kill()
        if self._on_death is not None:
            with contextlib.suppress(Exception):
                self._on_death()

    async def call(self, payload: dict,
                   timeout: float = CALL_TIMEOUT_S) -> dict:
        """Send one request; resolves when its rid-matched answer lands."""
        if self.dead_reason is not None:
            raise WorkerError(
                f"worker {self.worker_id} {self.dead_reason}"
            )
        if self.process.returncode is not None:
            raise WorkerError(f"worker {self.worker_id} is not running")
        rid = next(self._rids)
        future = asyncio.get_running_loop().create_future()
        self._pending[rid] = future
        data = json.dumps({**payload, "rid": rid}) + "\n"
        try:
            # one writer at a time: concurrent drain() on the same
            # transport is not supported by asyncio (bpo-29930)
            async with self._write_lock:
                stdin = self.process.stdin
                assert stdin is not None  # PIPE-spawned
                stdin.write(data.encode("utf-8"))
                await stdin.drain()
        except (ConnectionResetError, BrokenPipeError, RuntimeError) as exc:
            self._pending.pop(rid, None)
            self._fail("died (stdin closed)")
            raise WorkerError(f"worker {self.worker_id} died") from exc
        try:
            return await asyncio.wait_for(future, timeout)
        except asyncio.TimeoutError:
            self._pending.pop(rid, None)
            # a wedged worker must not wedge the fleet: kill it so the
            # reload gate can drain and callers get a clean error
            self._fail(f"timed out after {timeout:.0f}s")
            raise WorkerError(
                f"worker {self.worker_id} timed out after {timeout:.0f}s"
            ) from None

    async def stop(self, timeout: float = 5.0) -> None:
        # quit-then-reap order matters: cancelling the reader first
        # would run _fail() and kill the process before the graceful
        # quit; instead the quit's EOF lets the reader exit on its own
        if self.process.returncode is None and self.dead_reason is None:
            with contextlib.suppress(
                ConnectionResetError, BrokenPipeError, RuntimeError
            ):
                async with self._write_lock:
                    stdin = self.process.stdin
                    assert stdin is not None  # PIPE-spawned
                    stdin.write(b'{"op": "quit"}\n')
                    await stdin.drain()
                    stdin.close()
            try:
                await asyncio.wait_for(self.process.wait(), timeout)
            except asyncio.TimeoutError:
                self.process.kill()
                await self.process.wait()
        elif self.process.returncode is None:
            self.process.kill()
            await self.process.wait()
        for task in (self._reader, self._stderr_task):
            if task is not None:
                task.cancel()
                with contextlib.suppress(asyncio.CancelledError):
                    await task


def _worker_env() -> dict[str, str]:
    """Child env whose PYTHONPATH can import this very repro package."""
    import repro

    src_root = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ)
    existing = env.get("PYTHONPATH", "")
    if src_root not in existing.split(os.pathsep):
        env["PYTHONPATH"] = (
            f"{src_root}{os.pathsep}{existing}" if existing else src_root
        )
    return env


@dataclass
class _FleetStats:
    connections: int = 0
    served: int = 0
    # monotonic, not wall clock: uptime is an interval and must not jump
    # under NTP adjustments (and REP001 bans time.time on serve paths)
    started_at: float = field(default_factory=time.monotonic)


class FleetSupervisor:
    """Watches worker liveness; respawns, opens breakers.

    Deaths kick the watch loop awake immediately (``kick``); a slow
    poll catches anything the kick missed. Each dead slot gets its own
    respawn task: emit the ``fleet_worker_died`` event (with the
    quarantined stderr tail), reap the corpse, back off exponentially
    on repeated crashes, then — under the reload lock, so it cannot
    race a concurrent reload — spawn a replacement that **boots at the
    committed version** (base rules plus every committed reload) and
    install it back into the routing table. More than
    ``spec.max_worker_restarts`` crashes inside ``spec.restart_window_s``
    open the slot's circuit breaker: the worker is held open (no more
    respawns, ``fleet.breaker_open``) and the fleet keeps serving
    degraded on the survivors.
    """

    def __init__(self, fleet: "Fleet") -> None:
        self.fleet = fleet
        self.kick = asyncio.Event()
        self._task: asyncio.Task | None = None
        self._restarting: set[int] = set()
        self._breakers: set[int] = set()
        self._crashes: dict[int, list[float]] = {}
        self._respawns: dict[int, asyncio.Task] = {}

    # -- state the health surface reports --------------------------------
    def restarting_ids(self) -> list[int]:
        return sorted(self._restarting)

    def breaker_ids(self) -> list[int]:
        return sorted(self._breakers)

    def start(self) -> None:
        self._task = asyncio.create_task(self._watch())

    async def stop(self) -> None:
        tasks = [self._task, *self._respawns.values()]
        self._task = None
        self._respawns = {}
        for task in tasks:
            if task is not None:
                task.cancel()
                with contextlib.suppress(asyncio.CancelledError):
                    await task

    async def _watch(self) -> None:
        while not self.fleet._stopping:
            with contextlib.suppress(asyncio.TimeoutError):
                await asyncio.wait_for(self.kick.wait(), SUPERVISOR_POLL_S)
            self.kick.clear()
            if self.fleet._stopping:
                return
            for slot, handle in enumerate(self.fleet.workers):
                if (
                    handle.alive
                    or slot in self._restarting
                    or slot in self._breakers
                ):
                    continue
                self._restarting.add(slot)
                self._respawns[slot] = asyncio.create_task(
                    self._respawn(slot, handle)
                )

    def _note_crash(self, slot: int) -> bool:
        """Record a crash; True when the breaker must open."""
        now = time.monotonic()
        window = self.fleet.spec.restart_window_s
        crashes = self._crashes.setdefault(slot, [])
        crashes.append(now)
        while crashes and now - crashes[0] > window:
            crashes.pop(0)
        return len(crashes) > self.fleet.spec.max_worker_restarts

    async def _respawn(self, slot: int, dead: WorkerHandle) -> None:
        fleet = self.fleet
        telemetry = get_telemetry()
        telemetry.event(
            "fleet_worker_died", worker=slot,
            reason=dead.dead_reason
            or f"exited with code {dead.process.returncode}",
            stderr_tail=list(dead.stderr_tail),
        )
        with contextlib.suppress(ProcessLookupError):
            dead.process.kill()
        with contextlib.suppress(Exception):
            await dead.process.wait()
        try:
            while not fleet._stopping:
                if self._note_crash(slot):
                    self._breakers.add(slot)
                    telemetry.add("fleet.breaker_open")
                    telemetry.event(
                        "fleet_breaker_open", worker=slot,
                        crashes_in_window=len(self._crashes[slot]),
                        window_s=fleet.spec.restart_window_s,
                    )
                    return
                attempts = len(self._crashes[slot])
                delay = min(
                    fleet.spec.backoff_base_s * (2 ** max(attempts - 1, 0)),
                    BACKOFF_CAP_S,
                )
                await asyncio.sleep(delay)
                if fleet._stopping:
                    return
                try:
                    # boot + install under the reload lock: no reload
                    # can land between the spec snapshot and the
                    # install, so the rejoined worker can never be
                    # version-skewed (_spawn_handle reaps a failed boot)
                    async with fleet._reload_lock:
                        handle = await fleet._spawn_handle(slot)
                        fleet.workers[slot] = handle
                except Exception as exc:
                    telemetry.event(
                        "fleet_worker_respawn_failed", worker=slot,
                        error=f"{type(exc).__name__}: {exc}",
                    )
                    continue
                telemetry.add("fleet.worker_restarts")
                telemetry.event(
                    "fleet_worker_respawned", worker=slot,
                    pid=handle.process.pid,
                    committed_reloads=len(fleet._committed),
                )
                return
        finally:
            self._restarting.discard(slot)
            self._respawns.pop(slot, None)


class Fleet:
    """The front-end: socket server + worker pool + reload coordinator."""

    def __init__(self, spec: FleetSpec, host: str = "127.0.0.1",
                 port: int = 0) -> None:
        if spec.workers < 1:
            raise ValueError("a fleet needs at least one worker")
        self.spec = spec
        self.host = host
        self.port = port  # 0 = ephemeral; rewritten by start()
        self.workers: list[WorkerHandle] = []
        self.ring = HashRing(spec.workers)
        self.supervisor: FleetSupervisor | None = None
        self._gate = _ReloadGate()
        #: serialises reloads with each other and with respawns
        self._reload_lock = asyncio.Lock()
        self._reload_tokens = itertools.count(1)
        self._server: asyncio.AbstractServer | None = None
        self._stats = _FleetStats()
        #: rules paths committed by coordinated reloads since boot, in
        #: order — appended to every respawned worker's boot rules
        self._committed: list[str] = []
        self._connections: set[asyncio.Task] = set()
        self._stopping = False
        self._stopped = False

    # -- lifecycle -------------------------------------------------------
    async def _make_handle(self, worker_id: int) -> WorkerHandle:
        """Spawn a worker booting at the committed version.

        Its spec goes out as the first stdin line, not argv: the
        committed list grows with every reload, and Linux caps a single
        argument at 128 KiB.
        """
        process = await asyncio.create_subprocess_exec(
            sys.executable, "-m", "repro.serve.worker",
            stdin=asyncio.subprocess.PIPE,
            stdout=asyncio.subprocess.PIPE,
            stderr=asyncio.subprocess.PIPE,
            env=_worker_env(),
            limit=STREAM_LIMIT,
        )
        stdin = process.stdin
        assert stdin is not None  # PIPE-spawned
        spec = self.spec.worker_spec(worker_id, self._committed)
        stdin.write((json.dumps(spec) + "\n").encode("utf-8"))
        return WorkerHandle(worker_id, process, on_death=self._kick_supervisor)

    async def _spawn_handle(self, worker_id: int) -> WorkerHandle:
        """Spawn + await readiness, reaping the process on failure."""
        handle = await self._make_handle(worker_id)
        try:
            await handle.start()
        except BaseException:
            with contextlib.suppress(ProcessLookupError):
                handle.process.kill()
            with contextlib.suppress(Exception):
                await handle.process.wait()
            raise
        return handle

    def _kick_supervisor(self) -> None:
        if self.supervisor is not None:
            self.supervisor.kick.set()

    async def start(self) -> None:
        self.supervisor = FleetSupervisor(self)
        for worker_id in range(self.spec.workers):
            self.workers.append(await self._make_handle(worker_id))
        await asyncio.gather(*(worker.start() for worker in self.workers))
        self.supervisor.start()
        self._server = await asyncio.start_server(
            self._on_connection, self.host, self.port, limit=STREAM_LIMIT
        )
        self.port = self._server.sockets[0].getsockname()[1]
        telemetry = get_telemetry()
        telemetry.gauge("fleet.workers", len(self.workers))
        # pre-create the latency histogram so an early scrape sees it
        telemetry.histogram("fleet.request_latency_us", LATENCY_BUCKETS_US)
        print(
            f"fleet: listening on {self.host}:{self.port} "
            f"({len(self.workers)} workers)",
            file=sys.stderr, flush=True,
        )

    async def stop(self) -> None:
        """Idempotent teardown: safe twice, safe mid-startup, safe with
        already-reaped workers.

        Order: stop supervising (no respawns during teardown), stop
        accepting connections, give in-flight requests a bounded window
        to drain, then quit/reap the workers.
        """
        if self._stopped:
            return
        self._stopped = True
        self._stopping = True
        if self.supervisor is not None:
            await self.supervisor.stop()
        if self._server is not None:
            self._server.close()
            with contextlib.suppress(Exception):
                await self._server.wait_closed()
        if self._gate.inflight:
            with contextlib.suppress(asyncio.TimeoutError):
                await asyncio.wait_for(self._gate.close(), DRAIN_TIMEOUT_S)
            self._gate.open()
        # lingering connections (idle clients) would outlive the loop
        for task in list(self._connections):
            task.cancel()
        if self._connections:
            await asyncio.gather(
                *self._connections, return_exceptions=True
            )
        await asyncio.gather(
            *(worker.stop() for worker in self.workers),
            return_exceptions=True,
        )

    # -- connection handling --------------------------------------------
    async def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._stats.connections += 1
        task = asyncio.current_task()
        if task is not None:
            self._connections.add(task)
            task.add_done_callback(self._connections.discard)
        try:
            try:
                first = await reader.readline()
            except ValueError:
                await self._reject_oversized(writer)
                return
            if not first:
                return
            if first.split(b" ", 1)[0] in (b"GET", b"POST", b"HEAD"):
                await self._handle_http(first, reader, writer)
                return
            await self._handle_jsonl(first, reader, writer)
        except (ConnectionResetError, BrokenPipeError):
            pass  # client went away; nothing to answer
        finally:
            with contextlib.suppress(Exception):
                writer.close()
                await writer.wait_closed()

    async def _reject_oversized(self, writer: asyncio.StreamWriter) -> None:
        """A request line over STREAM_LIMIT still gets *a* response.

        The stream has discarded the oversized line, so byte positions
        after it are mid-line garbage — answer the error, then the
        caller closes the connection (it cannot be re-synchronised).
        """
        get_telemetry().add("fleet.bad_lines")
        writer.write((json.dumps({
            "ok": False,
            "error": "ValueError: request line exceeds "
            f"{STREAM_LIMIT} bytes",
        }) + "\n").encode("utf-8"))
        await writer.drain()

    async def _handle_jsonl(
        self, first: bytes, reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        """The JSONL protocol of :mod:`repro.serve.loop`, fleet-routed."""
        line = first
        while line:
            stripped = line.strip()
            if stripped:
                response, is_quit = await self._serve_line(stripped)
                writer.write((json.dumps(response) + "\n").encode("utf-8"))
                await writer.drain()
                if is_quit:
                    return
            try:
                line = await reader.readline()
            except ValueError:
                await self._reject_oversized(writer)
                return
    async def _serve_line(self, raw: bytes) -> tuple[dict, bool]:
        telemetry = get_telemetry()
        telemetry.add("fleet.requests")
        t0 = time.perf_counter()
        request_id = None
        is_quit = False
        try:
            payload = json.loads(raw)
            if not isinstance(payload, dict):
                raise ValueError("request must be a JSON object")
        except ValueError as exc:
            telemetry.add("fleet.bad_lines")
            return {"ok": False, "error": f"bad request line: {exc}"}, False
        request_id = payload.get("id")
        op = payload.get("op", "recommend")
        try:
            if op in ("recommend", "recommend_many"):
                await self._gate.acquire()
                try:
                    response = await self._route(op, payload)
                finally:
                    self._gate.release()
            elif op == "reload":
                response = await self._handle_reload(payload)
            elif op == "stats":
                response = await self._handle_stats()
            elif op == "chaos":
                response = await self._handle_chaos(payload)
            elif op == "quit":
                response, is_quit = {"ok": True, "bye": True}, True
            else:
                response = {
                    "ok": False, "error": f"ValueError: unknown op {op!r}",
                }
        except OverloadedError:
            response = {"ok": False, "error": "overloaded"}
        except WorkerError as exc:
            telemetry.add("fleet.worker_failures")
            response = {"ok": False, "error": f"WorkerError: {exc}"}
        if request_id is not None:
            response["id"] = request_id
        self._stats.served += 1
        telemetry.observe(
            "fleet.request_latency_us",
            (time.perf_counter() - t0) * 1e6,
        )
        return response, is_quit

    # -- request routing -------------------------------------------------
    def _owners_of(self, instance: dict) -> tuple[int, ...]:
        try:
            return self.ring.owners_for(
                str(instance.get("collective")),
                int(instance.get("nodes", 0)),
                int(instance.get("ppn", 0)),
            )
        except (TypeError, ValueError, OverflowError):
            # malformed: any worker can render the error
            return tuple(range(len(self.workers)))

    def _alive_ids(self) -> set[int]:
        return {slot for slot, worker in enumerate(self.workers) if worker.alive}

    def _admit(self, handle: WorkerHandle) -> None:
        """Backpressure: shed instead of queueing past the high-water
        mark — an overloaded worker answers *some* requests fast rather
        than all requests late."""
        if handle.inflight >= self.spec.queue_depth:
            get_telemetry().add("fleet.shed")
            raise OverloadedError(
                f"worker {handle.worker_id} at queue depth "
                f"{handle.inflight} >= {self.spec.queue_depth}"
            )

    async def _call_with_failover(
        self, owners: tuple[int, ...], payload: dict
    ) -> dict:
        """One request against its owner chain: primary, then one retry
        on the next live owner if the primary dies mid-call."""
        telemetry = get_telemetry()
        tried: set[int] = set()
        last: WorkerError | None = None
        for attempt in range(2):
            owner = first_live_owner(owners, self._alive_ids() - tried)
            if owner is None:
                break
            tried.add(owner)
            handle = self.workers[owner]
            if attempt:
                telemetry.add("fleet.failover_retries")
            self._admit(handle)
            try:
                return await handle.call(
                    payload, timeout=self.spec.call_timeout_s
                )
            except WorkerError as exc:
                last = exc
        raise last or WorkerError("no live worker owns the ring")

    async def _route(self, op: str, payload: dict) -> dict:
        payload = {k: v for k, v in payload.items() if k != "id"}
        if op == "recommend":
            return await self._call_with_failover(
                self._owners_of(payload), payload
            )
        instances = payload.get("instances")
        if not isinstance(instances, list):
            return {
                "ok": False,
                "error": "ValueError: recommend_many needs an "
                "'instances' list",
            }
        results: list = [None] * len(instances)
        error = await self._scatter(
            instances, list(range(len(instances))), results, retry=True
        )
        if error is not None:
            return error
        return {"ok": True, "results": results}

    async def _scatter(
        self, instances: list, positions: list[int], results: list,
        retry: bool,
    ) -> dict | None:
        """Fan sub-batches to their live owners; fill ``results`` in
        input order. Sub-batches whose worker dies mid-call regroup by
        the new live owners and retry once. Returns the first error
        response (verbatim), or None on success."""
        alive = self._alive_ids()  # once per scatter, not per instance
        groups: dict[int, list[int]] = {}
        for position in positions:
            instance = instances[position]
            owners = (
                self._owners_of(instance)
                if isinstance(instance, dict)
                else tuple(range(len(self.workers)))
            )
            target = first_live_owner(owners, alive)
            if target is None:
                raise WorkerError("no live worker owns the ring")
            groups.setdefault(target, []).append(position)
        ordered = sorted(groups.items())
        for target, _ in ordered:
            self._admit(self.workers[target])
        outcomes = await asyncio.gather(
            *(
                self.workers[target].call(
                    {
                        "op": "recommend_many",
                        "instances": [instances[p] for p in subset],
                    },
                    timeout=self.spec.call_timeout_s,
                )
                for target, subset in ordered
            ),
            return_exceptions=True,
        )
        for (_target, subset), outcome in zip(ordered, outcomes, strict=True):
            if isinstance(outcome, WorkerError):
                if not retry:
                    raise outcome
                get_telemetry().add("fleet.failover_retries")
                error = await self._scatter(
                    instances, subset, results, retry=False
                )
                if error is not None:
                    return error
            elif isinstance(outcome, BaseException):
                raise outcome
            elif not outcome.get("ok"):
                return outcome  # first sub-batch error wins, verbatim
            else:
                for position, result in zip(subset, outcome["results"], strict=False):
                    results[position] = result
        return None

    # -- coordinated reload ----------------------------------------------
    async def _ask_all(self, workers: Sequence[WorkerHandle], payload: dict
                       ) -> list[dict | BaseException]:
        """Send ``payload`` to every worker concurrently; one answer (or
        the exception its call raised) per worker, in input order."""
        return await asyncio.gather(
            *(
                worker.call(payload, timeout=self.spec.call_timeout_s)
                for worker in workers
            ),
            return_exceptions=True,
        )

    async def _handle_reload(self, payload: dict) -> dict:
        path = payload.get("path")
        if not path:
            return {"ok": False, "error": "ValueError: reload needs a 'path'"}
        telemetry = get_telemetry()
        async with self._reload_lock:  # one reload at a time, fleet-wide
            token = f"reload-{next(self._reload_tokens)}"
            # phase 1 — stage on every live worker, traffic still
            # flowing; a dead worker is excluded (its replacement
            # boots at whatever this reload decides)
            participants = [w for w in self.workers if w.alive]
            if not participants:
                telemetry.add("fleet.reload_rejected")
                return {"ok": False, "error": "WorkerError: no live workers"}
            prepares = await self._ask_all(
                participants,
                {"op": "prepare_reload", "path": path, "token": token},
            )
            rejections = [
                p for p in prepares
                if not isinstance(p, BaseException) and not p.get("ok")
            ]
            # workers that *died* during prepare (WorkerError, incl. a
            # wedge hitting the call timeout) drop out of the barrier
            staged = [
                worker for worker, prepared in zip(participants, prepares, strict=True)
                if not isinstance(prepared, BaseException)
                and prepared.get("ok")
            ]
            if rejections or not staged:
                await self._ask_all(
                    staged, {"op": "abort_reload", "token": token}
                )
                telemetry.add("fleet.reload_rejected")
                error = (
                    rejections[0].get("error", "prepare_reload failed")
                    if rejections
                    else "WorkerError: every live worker died during prepare"
                )
                return {"ok": False, "error": error}
            # phase 2 — barrier: drain in-flight, commit everywhere,
            # reopen; queued requests resume on the new version only
            pause_t0 = time.perf_counter()
            await self._gate.close()
            try:
                # return_exceptions so a worker dying mid-commit still
                # reaches the accounting below instead of leaving
                # survivors silently on the new version
                commits = await self._ask_all(
                    staged, {"op": "commit_reload", "token": token}
                )
            finally:
                self._gate.open()
            telemetry.observe(
                "fleet.reload_pause_us",
                (time.perf_counter() - pause_t0) * 1e6,
            )
            good = [
                commit for commit in commits
                if not isinstance(commit, BaseException) and commit.get("ok")
            ]
            versions = {commit.get("version") for commit in good}
            # a worker that died mid-commit is not skew — it is dead,
            # and its replacement boots at the committed version;
            # skew is a *live* worker on a different version
            bad_live = [
                worker.worker_id
                for worker, commit in zip(staged, commits, strict=True)
                if worker.alive and (
                    isinstance(commit, BaseException) or not commit.get("ok")
                )
            ]
            if not good or bad_live or len(versions) != 1:
                telemetry.add("fleet.version_skew")
                return {
                    "ok": False,
                    "error": "RuntimeError: partial reload commit: "
                    f"live workers {bad_live} failed, committed workers "
                    f"serve version(s) {sorted(versions)}",
                }
            # committed: respawned workers boot with this reload
            self._committed.append(str(path))
            telemetry.add("fleet.reloads")
        return {
            "ok": True,
            "collective": good[0].get("collective"),
            "version": good[0].get("version"),
            "tag": good[0].get("tag"),
            "workers": len(good),
        }

    # -- deterministic fault injection (chaos harness only) ---------------
    async def _handle_chaos(self, payload: dict) -> dict:
        """Seeded fault-plan ops (see :mod:`repro.serve.chaos`).

        Gated behind ``spec.chaos_ops`` (``--chaos-ops``): a production
        fleet answers "unknown op". Kinds: ``kill`` (SIGKILL the worker
        process), ``wedge`` (SIGSTOP — alive but unresponsive, caught
        by the call timeout), ``garbage`` (worker emits an unparseable
        stdout line before its next response), ``crash`` (worker
        answers, writes a torn line, and dies).
        """
        if not self.spec.chaos_ops:
            return {"ok": False, "error": "ValueError: unknown op 'chaos'"}
        kind = payload.get("kind")
        try:
            slot = int(payload.get("worker", -1))
            handle = self.workers[slot]
        except (TypeError, ValueError, OverflowError, IndexError):
            return {
                "ok": False,
                "error": "ValueError: chaos needs a valid 'worker' index",
            }
        if kind in ("kill", "wedge"):
            signum = signal.SIGKILL if kind == "kill" else signal.SIGSTOP
            if not handle.alive:
                return {"ok": True, "kind": kind, "worker": slot,
                        "skipped": "worker already dead"}
            with contextlib.suppress(ProcessLookupError):
                os.kill(handle.process.pid, signum)
            return {"ok": True, "kind": kind, "worker": slot}
        if kind in ("garbage", "crash"):
            if not handle.alive:
                return {"ok": True, "kind": kind, "worker": slot,
                        "skipped": "worker already dead"}
            try:
                response = await handle.call(
                    {"op": f"chaos_{kind}"}, timeout=self.spec.call_timeout_s
                )
            except WorkerError as exc:
                # the worker died applying the fault — that *is* the
                # fault landing, not an injection failure
                return {"ok": True, "kind": kind, "worker": slot,
                        "note": str(exc)}
            return {**response, "kind": kind, "worker": slot}
        return {
            "ok": False,
            "error": f"ValueError: unknown chaos kind {kind!r}",
        }

    # -- stats + metrics --------------------------------------------------
    async def _scrape(self, op: str) -> list[tuple[WorkerHandle, dict]]:
        """Admit, then ask ``op`` of every live worker: (worker, answer)
        for each ``ok`` answer. Raises :class:`OverloadedError` (before
        asking anyone) when any live worker is past its high-water mark."""
        live = [worker for worker in self.workers if worker.alive]
        for worker in live:
            self._admit(worker)
        answers = await self._ask_all(live, {"op": op})
        return [
            (worker, answer)
            for worker, answer in zip(live, answers, strict=True)
            if not isinstance(answer, BaseException) and answer.get("ok")
        ]

    async def _worker_counters(self) -> dict[str, int]:
        merged: dict[str, int] = {}
        for _worker, response in await self._scrape("counters"):
            for name, value in response.get("counters", {}).items():
                merged[name] = merged.get(name, 0) + int(value)
        return merged

    async def _worker_drift(self) -> dict[str, dict[str, float]]:
        """Per-worker drift gauges, labelled with the worker id.

        Residual windows live in each worker's feedback logger, so the
        series stay per-worker (no cross-worker median of medians —
        that would be statistically meaningless); the ``worker`` label
        keeps them distinct on the scrape surface.
        """
        from repro.obs.drift import ResidualStats

        merged: dict[str, dict[str, float]] = {}
        for worker, response in await self._scrape("drift"):
            drift = response.get("drift", {})
            for payload in drift.get("stats", ()):
                stats = ResidualStats.from_dict(payload)
                body = (
                    f'collective="{stats.collective}",'
                    f'version="{stats.version}",'
                    f'worker="{worker.worker_id}"'
                )
                merged.setdefault(
                    "serve.drift.residual_median", {}
                )[body] = stats.median
                merged.setdefault(
                    "serve.drift.residual_mad", {}
                )[body] = stats.mad
                merged.setdefault(
                    "serve.drift.samples", {}
                )[body] = float(stats.n)
        return merged

    def _health(self) -> dict:
        """The shared health snapshot behind /healthz and stats."""
        alive = self._alive_ids()
        restarting = (
            self.supervisor.restarting_ids() if self.supervisor else []
        )
        breakers = self.supervisor.breaker_ids() if self.supervisor else []
        if len(alive) == len(self.workers):
            status = "ok"
        elif alive:
            # failover still covers the whole ring from the survivors
            status = "degraded"
        else:
            status = "down"  # no live worker owns any part of the ring
        return {
            "ok": status == "ok",
            "status": status,
            "workers": len(self.workers),
            "alive": len(alive),
            "restarting": restarting,
            "breakers_open": breakers,
        }

    async def _handle_stats(self) -> dict:
        by_worker = dict(await self._scrape("stats"))
        telemetry = get_telemetry()
        latency = telemetry.histograms_snapshot().get(
            "fleet.request_latency_us"
        )
        versions: dict[str, set] = {}
        per_worker = []
        for worker in self.workers:
            response = by_worker.get(worker)
            if response is None:
                per_worker.append({"worker": worker.worker_id, "ok": False})
                continue
            stats = response["stats"]
            per_worker.append(
                {"worker": worker.worker_id, "ok": True,
                 "inflight": worker.inflight, **stats}
            )
            for collective, info in stats.get("versions", {}).items():
                versions.setdefault(collective, set()).add(info["version"])
        fleet_counters = {
            name: value
            for name, value in telemetry.counters_snapshot().items()
            if name.startswith("fleet.")
        }
        return {
            "ok": True,
            "stats": {
                "fleet": {
                    "workers": len(self.workers),
                    "connections": self._stats.connections,
                    "served": self._stats.served,
                    "uptime_s": time.monotonic() - self._stats.started_at,
                    "versions_consistent": all(
                        len(seen) == 1 for seen in versions.values()
                    ),
                    "health": self._health(),
                    "committed_reloads": len(self._committed),
                    "counters": fleet_counters,
                    "latency_us": (
                        latency.percentiles()
                        if latency is not None and latency.total else {}
                    ),
                    "counters_merged": await self._worker_counters(),
                },
                "workers": per_worker,
            },
        }

    async def metrics_text(self) -> str:
        """The ``GET /metrics`` payload: merged counters + histograms."""
        telemetry = get_telemetry()
        counters = dict(await self._worker_counters())
        for name, value in telemetry.counters_snapshot().items():
            if name.startswith("fleet."):
                counters[name] = value
        health = self._health()
        gauges: dict[str, float | Mapping[str, float]] = {
            "fleet.workers": float(len(self.workers)),
            "fleet.workers_alive": float(health["alive"]),
            "fleet.breakers_open": float(len(health["breakers_open"])),
            "fleet.queue_depth": {
                f'worker="{worker.worker_id}"': float(worker.inflight)
                for worker in self.workers
            },
            "fleet.uptime_seconds": time.monotonic() - self._stats.started_at,
        }
        if self.spec.feedback_dir:
            gauges.update(await self._worker_drift())
        return render_prometheus(
            counters, gauges, telemetry.histograms_snapshot(),
            help_texts=HELP_TEXTS,
        )

    # -- minimal HTTP (scrape surface only) --------------------------------
    async def _handle_http(
        self, first: bytes, reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        get_telemetry().add("fleet.http_requests")
        try:
            method, target, _version = (
                first.decode("latin-1").rstrip("\r\n").split(" ", 2)
            )
        except ValueError:
            await self._http_response(writer, 400, "bad request line\n")
            return
        while True:  # drain headers; the scrape surface ignores them
            line = await reader.readline()
            if line in (b"", b"\r\n", b"\n"):
                break
        if method not in ("GET", "HEAD"):
            await self._http_response(writer, 405, "method not allowed\n")
            return
        target = target.split("?", 1)[0]
        try:
            if target == "/metrics":
                body = await self.metrics_text()
                content_type = "text/plain; version=0.0.4; charset=utf-8"
            elif target == "/healthz":
                health = self._health()
                body = json.dumps(health) + "\n"
                content_type = "application/json"
                if health["status"] == "down":
                    await self._http_response(
                        writer, 503, body, content_type=content_type
                    )
                    return
            elif target == "/stats":
                body = json.dumps((await self._handle_stats())["stats"]) + "\n"
                content_type = "application/json"
            else:
                await self._http_response(writer, 404, "not found\n")
                return
        except OverloadedError:
            # scrape fan-out would pile onto saturated workers: shed it
            await self._http_response(writer, 503, "overloaded\n")
            return
        await self._http_response(
            writer, 200, body if method == "GET" else "",
            content_type=content_type,
        )

    @staticmethod
    async def _http_response(
        writer: asyncio.StreamWriter, status: int, body: str,
        content_type: str = "text/plain; charset=utf-8",
    ) -> None:
        reason = {
            200: "OK", 400: "Bad Request", 404: "Not Found",
            405: "Method Not Allowed", 503: "Service Unavailable",
        }.get(status, "OK")
        payload = body.encode("utf-8")
        head = (
            f"HTTP/1.1 {status} {reason}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(payload)}\r\n"
            "Connection: close\r\n"
            "\r\n"
        )
        writer.write(head.encode("latin-1") + payload)
        await writer.drain()


# -- entry points ---------------------------------------------------------
async def _run_until_signalled(spec: FleetSpec, host: str, port: int) -> None:
    fleet = Fleet(spec, host, port)
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    # handlers registered *before* start(): SIGTERM during a slow boot
    # must tear the partial fleet down, not kill the process uncleanly
    for signum in (signal.SIGINT, signal.SIGTERM):
        with contextlib.suppress(NotImplementedError, RuntimeError):
            loop.add_signal_handler(signum, stop.set)
    start_task = asyncio.create_task(fleet.start())
    stop_task = asyncio.create_task(stop.wait())
    try:
        done, _ = await asyncio.wait(
            {start_task, stop_task}, return_when=asyncio.FIRST_COMPLETED
        )
        if start_task in done:
            start_task.result()  # boot failures propagate
            await stop_task
    finally:
        stop_task.cancel()
        if not start_task.done():
            start_task.cancel()
        with contextlib.suppress(BaseException):
            await start_task
        print("fleet: shutting down", file=sys.stderr, flush=True)
        await fleet.stop()


def run_fleet(spec: FleetSpec, host: str = "127.0.0.1", port: int = 8077) -> int:
    """Blocking fleet entry point (what ``mpicollpred serve --workers N``
    calls); runs until SIGINT/SIGTERM."""
    try:
        asyncio.run(_run_until_signalled(spec, host, port))
    except KeyboardInterrupt:
        return 130
    return 0


class FleetThread:
    """A fleet on a private event-loop thread (tests and benchmarks).

    ``start()`` blocks until the socket is listening and exposes
    ``port``; ``stop()`` tears everything down. The context-manager
    form keeps worker processes from leaking on assertion failures.
    """

    def __init__(self, spec: FleetSpec, host: str = "127.0.0.1",
                 port: int = 0) -> None:
        self._spec = spec
        self._host = host
        self._port = port
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        self._fleet: Fleet | None = None
        self._ready = threading.Event()
        self._stop: asyncio.Event | None = None
        self._error: BaseException | None = None
        self.port: int | None = None

    def __enter__(self) -> "FleetThread":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    def start(self, timeout: float = 60.0) -> "FleetThread":
        self._thread = threading.Thread(
            target=self._thread_main, name="fleet", daemon=True
        )
        self._thread.start()
        if not self._ready.wait(timeout):
            raise TimeoutError("fleet did not start listening in time")
        if self._error is not None:
            raise self._error
        return self

    def worker_pids(self) -> list[int]:
        """Current worker process ids (chaos harnesses, benchmarks)."""
        if self._fleet is None:
            return []
        return [worker.process.pid for worker in self._fleet.workers]

    def _thread_main(self) -> None:
        self._loop = asyncio.new_event_loop()
        asyncio.set_event_loop(self._loop)
        try:
            self._loop.run_until_complete(self._main())
        except BaseException as exc:  # surfaced to start()/stop() callers
            self._error = exc
            self._ready.set()
        finally:
            self._loop.close()

    async def _main(self) -> None:
        self._fleet = Fleet(self._spec, self._host, self._port)
        self._stop = asyncio.Event()
        await self._fleet.start()
        self.port = self._fleet.port
        self._ready.set()
        try:
            await self._stop.wait()
        finally:
            await self._fleet.stop()

    def stop(self, timeout: float = 30.0) -> None:
        if self._loop is None or self._thread is None:
            return
        if self._stop is not None and not self._loop.is_closed():
            with contextlib.suppress(RuntimeError):
                self._loop.call_soon_threadsafe(self._stop.set)
        self._thread.join(timeout)


class FleetProcess:
    """``mpicollpred serve --port 0 ARGS`` as a child process (smoke scripts).

    Construction boots the real CLI, reads the port from its ``listening
    on`` stderr line and keeps draining stderr so the child never blocks
    on a full pipe. ``stop()`` sends SIGTERM, reaps the child and returns
    the shutdown contract's violations (a fleet exits 0 on SIGTERM).
    """

    def __init__(self, *serve_args: str, cwd: str | os.PathLike | None = None
                 ) -> None:
        self.returncode: int | None = None
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
             *serve_args],
            cwd=cwd, env=_worker_env(), stderr=subprocess.PIPE, text=True,
        )
        boot_log = ""
        for line in self.process.stderr:
            boot_log += line
            if match := re.search(r"listening on [\d.]+:(\d+)", line):
                self.port = int(match.group(1))
                break
        else:
            self.stop()
            raise RuntimeError(f"fleet never printed its listening line:\n"
                               f"{boot_log}")
        threading.Thread(target=self.process.stderr.read, daemon=True).start()

    def stop(self) -> list[str]:
        failures = []
        self.process.send_signal(signal.SIGTERM)
        try:
            self.returncode = self.process.wait(30)
        except subprocess.TimeoutExpired:
            self.process.kill()
            failures.append("fleet did not exit on SIGTERM")
            self.returncode = self.process.wait()
        if self.returncode != 0:
            failures.append(f"fleet exited {self.returncode} on SIGTERM")
        return failures


class FleetClient:
    """One persistent JSONL connection to a fleet (a context manager).

    ``ask`` sends one request and reads its answer; a connection closed
    before the answer raises :class:`ConnectionError`, so a dropped
    response always fails loudly, and so does an answer that takes more
    than 60 s. ``sock``/``reader`` stay public for callers that write
    raw lines.
    """

    def __init__(self, port: int, host: str = "127.0.0.1") -> None:
        self.sock = socket.create_connection((host, port), timeout=60)
        self.reader = self.sock.makefile("r", encoding="utf-8")

    def __enter__(self) -> "FleetClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.reader.close()
        self.sock.close()

    def ask(self, payload: dict) -> dict:
        self.sock.sendall((json.dumps(payload) + "\n").encode("utf-8"))
        line = self.reader.readline()
        if not line:
            raise ConnectionError("fleet dropped the connection")
        return json.loads(line)


def http_get(host: str, port: int, target: str, timeout: float = 30.0
             ) -> tuple[int, str]:
    """Tiny HTTP GET against the fleet's scrape surface -> (status, body)."""
    with socket.create_connection((host, port), timeout=timeout) as sock:
        sock.sendall(
            f"GET {target} HTTP/1.1\r\nHost: {host}\r\n"
            "Connection: close\r\n\r\n".encode("latin-1")
        )
        raw = b""
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            raw += chunk
    head, _, body = raw.partition(b"\r\n\r\n")
    status = int(head.split(b" ", 2)[1])
    return status, body.decode("utf-8")


__all__ = [
    "Fleet",
    "FleetClient",
    "FleetProcess",
    "FleetSpec",
    "FleetSupervisor",
    "FleetThread",
    "HashRing",
    "OverloadedError",
    "WorkerError",
    "WorkerHandle",
    "first_live_owner",
    "http_get",
    "run_fleet",
]
