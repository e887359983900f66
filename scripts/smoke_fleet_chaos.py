#!/usr/bin/env python3
"""CI smoke test: the fleet's self-healing under a seeded fault plan.

The self-healing acceptance bar, end to end through the real CLI:

1. **Plan** — :func:`repro.serve.chaos.build_plan` schedules, purely
   from a seed, a kill of *every* worker in an early stratum, a crash
   of every worker in a late stratum, scattered garbage-output events,
   and one wedge (``SIGSTOP``) placed exactly at the hot-reload index.
2. **Campaign** — boot ``mpicollpred serve --workers 3 --chaos-ops``
   and walk a deterministic 5000-request sequence over one client
   connection, firing each planned fault through the gated ``chaos``
   op at its request index. Before every kill/crash/wedge the driver
   waits for the fleet to report fully healthy again (faults never
   stack, so by construction at most one worker is down at a time —
   the hammer keeps running *through* each outage, which is what
   exercises failover routing and bounded retry). At ``reload_at`` the
   wedge lands and the reload is issued immediately after, putting the
   stopped worker inside the reload's prepare phase.
3. **Oracle** — the same 5000-request sequence (reload included, at
   the same index) against a fault-free twin fleet.
4. **Contract** — zero client-visible failures; every answer
   bit-identical to the twin's (cache-tier provenance fields
   stripped — *which* cache answered may differ after a respawn, the
   answer itself may not); the reload committed exactly once with no
   version skew; ``fleet_worker_restarts_total >= workers``; garbage
   lines were actually skipped; final ``/healthz`` is ``ok``; both
   fleets exit 0 on SIGTERM.

Exits non-zero on any violation.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from repro.serve.chaos import (  # noqa: E402
    build_plan,
    strip_provenance,
    verify_bit_identity,
    verify_chaos_invariants,
    verify_reload_contract,
    wait_for_healthy,
)
from repro.serve.fleet import FleetClient, FleetProcess, http_get  # noqa: E402

SEED = 8
WORKERS = 3
N_REQUESTS = 5000
RULES = "hydra_bcast_rules.conf"

#: the deterministic request mix: every index maps to one allocation
NODES = (2, 4, 8, 16, 34)
PPNS = (1, 2, 16, 32)
MSIZES = (64, 1024, 16384, 65536, 262144, 1 << 20)


def request_at(index: int) -> dict:
    return {
        "op": "recommend",
        "collective": "bcast",
        "nodes": NODES[index % len(NODES)],
        "ppn": PPNS[(index // len(NODES)) % len(PPNS)],
        "msize": MSIZES[(index // 7) % len(MSIZES)],
    }


def boot(*extra: str) -> FleetProcess:
    return FleetProcess(
        "--workers", str(WORKERS), "--rules", RULES, "--call-timeout", "2",
        "--max-worker-restarts", "8", "--queue-depth", "256", *extra,
        cwd=ROOT,
    )


def run_campaign(
    client: FleetClient, port: int, plan, failures: list, chaos: bool
) -> tuple[list[dict], dict]:
    """Walk the request sequence; returns (answers, reload_response)."""
    answers: list[dict] = []
    reload_response: dict = {}
    for index in range(N_REQUESTS):
        event = plan.at(index) if chaos else None
        if event is not None:
            if event.kind in ("kill", "crash", "wedge"):
                failures.extend(wait_for_healthy(port, WORKERS))
            fired = client.ask(
                {"op": "chaos", "kind": event.kind, "worker": event.worker}
            )
            if not fired.get("ok"):
                failures.append({"chaos op failed": fired})
        if index == plan.reload_at:
            # in the chaos campaign the wedge just landed: the reload's
            # prepare phase now meets an unresponsive worker and must
            # commit without it
            reload_response = client.ask({"op": "reload", "path": RULES})
            if not reload_response.get("ok"):
                failures.append({"reload failed": reload_response})
        response = client.ask(request_at(index))
        if not response.get("ok"):
            failures.append({f"request {index} failed": response})
        answers.append(strip_provenance(response))
    return answers, reload_response


def metric_values(port: int, *names: str) -> list[float]:
    lines = http_get("127.0.0.1", port, "/metrics")[1].splitlines()
    values = dict(line.split(" ", 1) for line in lines
                  if line and not line.startswith("#"))
    return [float(values.get(name, 0.0)) for name in names]


def main() -> int:
    plan = build_plan(SEED, N_REQUESTS, WORKERS)
    print(f"chaos plan: {plan.kinds()} over {N_REQUESTS} requests, "
          f"reload at {plan.reload_at}")
    failures: list = []

    # -- the chaos campaign -------------------------------------------
    fleet = boot("--chaos-ops")
    t0 = time.time()
    try:
        with FleetClient(fleet.port) as client:
            chaos_answers, chaos_reload = run_campaign(
                client, fleet.port, plan, failures, chaos=True
            )
            failures.extend(wait_for_healthy(fleet.port, WORKERS))
            restarts, garbage, failovers = metric_values(
                fleet.port, "fleet_worker_restarts_total",
                "fleet_worker_garbage_lines_total",
                "fleet_failover_retries_total",
            )
            health = json.loads(http_get("127.0.0.1", fleet.port,
                                         "/healthz")[1])
            stats = client.ask({"op": "stats"})["stats"]["fleet"]
    finally:
        failures.extend(f"chaos {failure}" for failure in fleet.stop())
    print(f"chaos campaign: {len(chaos_answers)} answers in "
          f"{time.time() - t0:.1f}s; restarts={restarts:.0f} "
          f"garbage={garbage:.0f} failovers={failovers:.0f}")
    failures.extend(
        verify_chaos_invariants(
            n_workers=WORKERS, restarts=restarts, garbage=garbage,
            health=health, stats=stats,
        )
    )

    # -- the fault-free oracle ----------------------------------------
    fleet = boot()
    t0 = time.time()
    try:
        with FleetClient(fleet.port) as client:
            clean_answers, clean_reload = run_campaign(
                client, fleet.port, plan, failures, chaos=False
            )
    finally:
        failures.extend(f"oracle {failure}" for failure in fleet.stop())
    print(f"oracle campaign: {len(clean_answers)} answers in "
          f"{time.time() - t0:.1f}s")

    # -- bit-identity -------------------------------------------------
    failures.extend(verify_bit_identity(chaos_answers, clean_answers))
    failures.extend(verify_reload_contract(chaos_reload, clean_reload))

    if failures:
        for failure in failures[:20]:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    print(
        f"OK: {N_REQUESTS} requests bit-identical under "
        f"{len(plan.events)} faults ({plan.kinds()}), "
        f"{restarts:.0f} respawns, reload committed once, zero "
        "client-visible failures"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
