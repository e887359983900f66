"""Deterministic fault plans for the serving fleet.

The offline pipeline already treats faults as first-class, seeded
inputs (:mod:`repro.bench.faults`): every fault decision is a pure
function of ``(seed, site identity)``, which is what makes chaos runs
replayable bit for bit. This module applies the same discipline to the
*online* tier. A :class:`FleetChaosPlan` decides — before a single
request is sent — exactly which worker gets killed, wedged
(``SIGSTOP``), garbage-corrupted, or crashed mid-line, and at which
request index, as a pure function of
``stable_seed("fleet-chaos", seed, n_requests, n_workers)``.

The driver (``scripts/smoke_fleet_chaos.py``) walks a request sequence,
fires ``plan.at(i)`` events through the fleet's gated ``chaos`` op, and
checks zero client-visible failures and answers bit-identical to a
fault-free twin fleet, across repeated worker kills and one hot reload
with a wedge in its prepare phase. Its checks, and those of
``scripts/smoke_fleet.py`` (reload under fire, the ``/metrics``
scrape), are the functions at the end of this module, which the fleet
tests run too.

Fault kinds (see the failure-classes table in ``docs/robustness.md``):

==========  =========================================================
kind        what happens to the worker
==========  =========================================================
``kill``    ``SIGKILL`` from the front-end — pipe EOF, no goodbye
``wedge``   ``SIGSTOP`` — alive but unresponsive; only the per-call
            deadline can detect it (scheduled to land *mid-reload*)
``garbage``  the worker emits an unparseable stdout line before its
            next response (a torn log write leaking into the protocol)
``crash``   the worker answers, writes a *partial* line, and
            ``os._exit(23)`` s — EOF with a torn tail
==========  =========================================================

Plan shape: every worker is killed once in an early stratum of the
request range and crashed once in a late stratum (so respawned workers
die again — the supervisor's crash-window accounting is exercised, not
just its happy path), the wedge lands exactly at ``reload_at``, and
garbage events scatter between the strata. Events never share a
request index, so the driver's event loop stays a simple dict lookup.
"""

from __future__ import annotations

import json
import random
import re
import threading
import time
from dataclasses import dataclass, field
from typing import Sequence

from repro.serve.fleet import FleetClient, http_get
from repro.utils.rng import stable_seed

#: fault kinds a plan may schedule (mirrors Fleet._handle_chaos)
CHAOS_KINDS = ("kill", "wedge", "garbage", "crash")

#: per-round strata as fractions of the request range: each worker is
#: killed somewhere in the first window and crashed in the second, with
#: the reload (and its wedge) in the gap between them
KILL_WINDOW = (0.05, 0.45)
CRASH_WINDOW = (0.65, 0.92)
RELOAD_AT_FRACTION = 0.55


@dataclass(frozen=True)
class ChaosEvent:
    """One scheduled fault: *kind* hits *worker* at request *index*."""

    index: int
    kind: str
    worker: int

    def __post_init__(self) -> None:
        if self.kind not in CHAOS_KINDS:
            raise ValueError(f"unknown chaos kind {self.kind!r}")
        if self.index < 0 or self.worker < 0:
            raise ValueError("chaos event index/worker must be >= 0")


@dataclass(frozen=True)
class FleetChaosPlan:
    """A fully resolved fault schedule for one chaos campaign."""

    seed: int
    n_requests: int
    n_workers: int
    reload_at: int
    events: tuple[ChaosEvent, ...]
    _by_index: dict[int, ChaosEvent] = field(
        init=False, repr=False, compare=False, default_factory=dict
    )

    def __post_init__(self) -> None:
        by_index: dict[int, ChaosEvent] = {}
        for event in self.events:
            if event.index in by_index:
                raise ValueError(
                    f"two chaos events share request index {event.index}"
                )
            if not 0 <= event.index < self.n_requests:
                raise ValueError(
                    f"event index {event.index} outside the request range"
                )
            if event.worker >= self.n_workers:
                raise ValueError(
                    f"event worker {event.worker} outside the fleet"
                )
            by_index[event.index] = event
        object.__setattr__(self, "_by_index", by_index)

    def at(self, index: int) -> ChaosEvent | None:
        """The event scheduled at request ``index`` (None = clean)."""
        return self._by_index.get(index)

    def kinds(self) -> dict[str, int]:
        """Event count per kind (smoke-report summary)."""
        counts: dict[str, int] = {}
        for event in self.events:
            counts[event.kind] = counts.get(event.kind, 0) + 1
        return counts


def build_plan(
    seed: int,
    n_requests: int,
    n_workers: int,
    *,
    crash_round: bool = True,
    garbage_events: int = 2,
    wedge: bool = True,
) -> FleetChaosPlan:
    """A deterministic fault schedule for ``n_requests`` requests.

    Pure function of its arguments: the RNG is keyed by
    ``stable_seed("fleet-chaos", seed, n_requests, n_workers)``, so the
    same campaign shape always yields the same schedule — on any
    machine, in any process, which is what lets the smoke run be
    replayed exactly when it fails.

    Guarantees (property-tested in ``tests/serve/test_chaos.py``):

    * every worker appears in exactly one ``kill`` event inside
      ``KILL_WINDOW`` and (when ``crash_round``) one ``crash`` event
      inside ``CRASH_WINDOW``;
    * kill events for different workers are spaced at least one
      stratum apart, so the supervisor always has room to respawn the
      previous victim before the next one dies (the plan exercises
      degraded serving, never a total outage by construction);
    * the wedge lands exactly at ``reload_at`` — the driver fires it
      and then immediately issues the reload, putting the stopped
      worker inside the reload's prepare phase;
    * no two events share a request index.
    """
    if n_requests < 40 * max(n_workers, 1):
        raise ValueError(
            "chaos plan needs >= 40 requests per worker to spread "
            f"events (got {n_requests} for {n_workers} workers)"
        )
    if n_workers < 1:
        raise ValueError("chaos plan needs at least one worker")
    rng = random.Random(
        stable_seed("fleet-chaos", seed, n_requests, n_workers)
    )
    taken: set[int] = set()

    def pick(lo: int, hi: int) -> int:
        for _ in range(10_000):
            index = rng.randrange(lo, max(hi, lo + 1))
            if index not in taken:
                taken.add(index)
                return index
        raise RuntimeError("could not place a chaos event")  # pragma: no cover

    events: list[ChaosEvent] = []
    windows = [(KILL_WINDOW, "kill")]
    if crash_round:
        windows.append((CRASH_WINDOW, "crash"))
    for (lo_frac, hi_frac), kind in windows:
        lo = int(lo_frac * n_requests)
        hi = int(hi_frac * n_requests)
        stratum = (hi - lo) // n_workers
        order = list(range(n_workers))
        rng.shuffle(order)
        for slot, worker in enumerate(order):
            index = pick(lo + slot * stratum, lo + (slot + 1) * stratum)
            events.append(ChaosEvent(index, kind, worker))

    reload_at = int(RELOAD_AT_FRACTION * n_requests)
    reload_at += rng.randrange(-max(n_requests // 100, 1),
                               max(n_requests // 100, 1) + 1)
    while reload_at in taken:
        reload_at += 1
    taken.add(reload_at)
    if wedge:
        events.append(ChaosEvent(reload_at, "wedge",
                                 rng.randrange(n_workers)))

    garbage_lo = int(KILL_WINDOW[0] * n_requests)
    garbage_hi = int(CRASH_WINDOW[1] * n_requests)
    for _ in range(garbage_events):
        index = pick(garbage_lo, garbage_hi)
        events.append(
            ChaosEvent(index, "garbage", rng.randrange(n_workers))
        )

    return FleetChaosPlan(
        seed=seed,
        n_requests=n_requests,
        n_workers=n_workers,
        reload_at=reload_at,
        events=tuple(sorted(events, key=lambda event: event.index)),
    )


# -- campaign verification ---------------------------------------------
# The assertion core shared by the CI smoke scripts
# (scripts/smoke_fleet.py, scripts/smoke_fleet_chaos.py) and the fleet
# tests: each returns the violations it found, so the same contract is
# checked whether the fleet runs behind the real CLI or in a thread.

#: one Prometheus text-format sample line: name, optional {labels}, value
METRIC_LINE = re.compile(
    r"^[a-zA-Z_:][a-zA-Z0-9_:]*"
    r'(\{[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\.)*"'
    r'(,[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\.)*")*\})?'
    r" (?:[+-]?(?:\d+(?:\.\d+)?(?:e[+-]?\d+)?|Inf)|NaN)$"
)

#: cache-tier provenance differs legitimately after a respawn (a fresh
#: worker's L1 is cold); the *answer* must not
PROVENANCE_FIELDS = ("cached", "compiled")


def strip_provenance(response: dict) -> dict:
    """Drop the response fields a respawn may legitimately change."""
    return {
        key: value for key, value in response.items()
        if key not in PROVENANCE_FIELDS
    }


def verify_chaos_invariants(
    *,
    n_workers: int,
    restarts: float,
    garbage: float,
    health: dict,
    stats: dict,
    expected_reloads: int = 1,
) -> list[str]:
    """The campaign-level self-healing contract; returns violations.

    ``stats`` is the fleet block of ``{"op": "stats"}``; ``restarts``/
    ``garbage`` are the scraped ``fleet_worker_restarts_total`` /
    ``fleet_worker_garbage_lines_total`` metric values.
    """
    failures: list[str] = []
    if restarts < n_workers:
        failures.append(
            f"fleet_worker_restarts_total {restarts} < {n_workers}: "
            "not every killed worker was respawned"
        )
    if garbage < 1:
        failures.append("no garbage stdout line was ever skipped")
    if health.get("status") != "ok":
        failures.append(f"final healthz not ok: {health}")
    if stats.get("committed_reloads") != expected_reloads:
        failures.append(
            f"reload committed {stats.get('committed_reloads')} times, "
            f"expected exactly {expected_reloads}"
        )
    if not stats.get("versions_consistent"):
        failures.append(f"version skew after the campaign: {stats}")
    return failures


def verify_bit_identity(
    chaos_answers: list[dict],
    clean_answers: list[dict],
    *,
    max_reported: int = 3,
) -> list[str]:
    """Chaos answers must equal the fault-free twin's, provenance aside."""
    failures: list[str] = []
    mismatches = 0
    for index, (chaotic, clean) in enumerate(
        zip(chaos_answers, clean_answers, strict=True)
    ):
        if strip_provenance(chaotic) != strip_provenance(clean):
            mismatches += 1
            if mismatches <= max_reported:
                failures.append(
                    f"answer {index} diverged: chaos={chaotic!r} "
                    f"clean={clean!r}"
                )
    if mismatches:
        failures.append(
            f"{mismatches}/{len(chaos_answers)} answers diverged from "
            "the fault-free oracle"
        )
    return failures


def verify_reload_contract(
    chaos_reload: dict, clean_reload: dict,
    keys: tuple[str, ...] = ("ok", "version", "collective", "tag"),
) -> list[str]:
    """Reload responses compare on the version contract only (a wedged
    worker legitimately sits out the chaos commit)."""
    return [
        f"reload {key!r} diverged: chaos={chaos_reload.get(key)!r} "
        f"clean={clean_reload.get(key)!r}"
        for key in keys
        if chaos_reload.get(key) != clean_reload.get(key)
    ]


def verify_metrics_scrape(body: str) -> list[str]:
    """A fleet's ``/metrics`` body; returns violations.

    Every sample line must be well-formed, the compiled tier must have
    taken hits, the request-latency histogram must carry its buckets and
    p50/p99/p999 gauges, and the text must end with ``# EOF``.
    """
    lines = [
        line for line in body.splitlines()
        if line and not line.startswith("#")
    ]
    failures = [
        f"malformed metric line: {line!r}"
        for line in lines
        if not METRIC_LINE.match(line)
    ]
    if not any(
        line.startswith("serve_compiled_hits_total ")
        and float(line.split()[-1]) > 0
        for line in lines
    ):
        failures.append("no positive serve_compiled_hits_total")
    if not any(
        line.startswith("fleet_request_latency_us_bucket") for line in lines
    ):
        failures.append("no fleet_request_latency_us histogram buckets")
    for quantile in ("p50", "p99", "p999"):
        if f"fleet_request_latency_us_{quantile} " not in body:
            failures.append(f"missing latency quantile {quantile}")
    if not body.endswith("# EOF\n"):
        failures.append("scrape does not end with # EOF")
    return failures


def wait_for_healthy(port: int, n_workers: int) -> list[str]:
    """Block until ``/healthz`` shows every worker alive and none
    restarting; returns the violation if the fleet has not re-healed
    within 60 s."""
    deadline = time.monotonic() + 60
    while True:
        health = json.loads(http_get("127.0.0.1", port, "/healthz")[1])
        if (
            health.get("status") == "ok"
            and health.get("alive") == n_workers
            and not health.get("restarting")
        ):
            return []
        if time.monotonic() > deadline:
            return [f"fleet never re-healed: {health}"]
        time.sleep(0.05)


#: reload_under_fire's load: client threads hammering the fleet, and
#: the coordinated reloads issued underneath them
HAMMER_CLIENTS = 4
RELOAD_ROUNDS = 6


def reload_under_fire(
    port: int, rules: Sequence[str], n_workers: int
) -> tuple[list, str]:
    """The reload barrier under load; returns (violations, a one-line
    summary of the load it ran).

    :data:`HAMMER_CLIENTS` threads hammer ``recommend`` and
    ``recommend_many`` while :data:`RELOAD_ROUNDS` coordinated reloads
    alternate over ``rules``, then a reload of a missing file must be
    rejected. The contract: no failed response or dropped connection,
    every reload commits on all ``n_workers``, no batch answer mixes
    versions, every client is answered and sees versions only
    increase, the reloads land mid-traffic, and ``stats`` shows no
    version skew afterwards.
    """
    stop = threading.Event()
    failures: list = []
    seen: list[list[int]] = [[] for _ in range(HAMMER_CLIENTS)]

    def hammer(seed: int) -> None:
        try:
            with FleetClient(port) as client:
                n = 0
                while not stop.is_set():
                    n += 1
                    one = {"collective": "bcast", "nodes": 2 << (n % 5),
                           "ppn": 1 + seed, "msize": 512 << (n % 8)}
                    if n % 4:
                        response = client.ask({"op": "recommend", **one})
                        answers = [response]
                    else:
                        other = {"collective": "bcast", "nodes": 16,
                                 "ppn": 2 << (seed % 4), "msize": 65536}
                        response = client.ask({
                            "op": "recommend_many", "instances": [one, other],
                        })
                        answers = response.get("results", [])
                    versions = {answer.get("version") for answer in answers}
                    if not response.get("ok"):
                        failures.append(response)
                    elif len(versions) != 1:
                        failures.append({"mixed-version response": response})
                    else:
                        seen[seed].extend(versions)
        except Exception as exc:  # a dropped connection is a failure too
            failures.append(f"{type(exc).__name__}: {exc}")

    threads = [
        threading.Thread(target=hammer, args=(seed,))
        for seed in range(HAMMER_CLIENTS)
    ]
    with FleetClient(port) as admin:
        for thread in threads:
            thread.start()
        try:
            for round_ in range(RELOAD_ROUNDS):
                response = admin.ask(
                    {"op": "reload", "path": rules[round_ % len(rules)]}
                )
                if not response.get("ok") or response.get("workers") != n_workers:
                    failures.append({"reload failed": response})
            rejected = admin.ask({"op": "reload", "path": "/nonexistent.conf"})
            if rejected.get("ok"):
                failures.append("reload of a nonexistent file claimed ok")
        finally:
            stop.set()
            for thread in threads:
                thread.join(timeout=60)
        if any(thread.is_alive() for thread in threads):
            failures.append("a hammer client did not stop within 60 s")
        stats = admin.ask({"op": "stats"})
    if not stats.get("ok") or not stats["stats"]["fleet"]["versions_consistent"]:
        failures.append({"version skew in stats": stats})
    for versions in seen:
        if not versions:
            failures.append("a hammer client completed zero requests")
        elif versions != sorted(versions):
            failures.append("client observed versions going backwards")
    if max((max(versions) for versions in seen if versions), default=0) <= 1:
        failures.append("reloads never landed mid-traffic")
    answered = sum(len(versions) for versions in seen)
    return failures, (f"hammered {answered} requests across "
                      f"{HAMMER_CLIENTS} clients, {RELOAD_ROUNDS} reloads")


__all__ = [
    "CHAOS_KINDS",
    "METRIC_LINE",
    "PROVENANCE_FIELDS",
    "ChaosEvent",
    "FleetChaosPlan",
    "build_plan",
    "reload_under_fire",
    "strip_provenance",
    "verify_bit_identity",
    "verify_chaos_invariants",
    "verify_metrics_scrape",
    "verify_reload_contract",
    "wait_for_healthy",
]
