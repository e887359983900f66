#!/usr/bin/env python3
"""CI smoke test: the fleet's self-healing under a seeded fault plan.

The acceptance bar of ISSUE 8, end to end through the real CLI:

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
   lines were actually skipped; final ``/healthz`` is ``ok``.

Exits non-zero on any violation.
"""

from __future__ import annotations

import json
import os
import re
import signal
import socket
import subprocess
import sys
import threading
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
)
from repro.serve.fleet import http_get  # noqa: E402

SEED = 8
WORKERS = 3
N_REQUESTS = 5000
RULES = "hydra_bcast_rules.conf"
CALL_TIMEOUT_S = "2"
HEAL_TIMEOUT_S = 60.0

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


def boot_fleet(chaos_ops: bool) -> tuple[subprocess.Popen, int]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    cmd = [
        sys.executable, "-m", "repro.cli", "serve",
        "--workers", str(WORKERS), "--port", "0", "--rules", RULES,
        "--call-timeout", CALL_TIMEOUT_S,
        "--max-worker-restarts", "8", "--queue-depth", "256",
    ]
    if chaos_ops:
        cmd.append("--chaos-ops")
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=env, stderr=subprocess.PIPE, text=True,
    )
    port = None
    for line in proc.stderr:
        match = re.search(r"listening on [\d.]+:(\d+)", line)
        if match:
            port = int(match.group(1))
            break
    if port is None:
        raise RuntimeError("fleet never printed its listening line")
    # keep draining stderr so the child never blocks on a full pipe
    threading.Thread(
        target=lambda: [None for _ in proc.stderr], daemon=True
    ).start()
    return proc, port


class Client:
    def __init__(self, port: int) -> None:
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=60)
        self.reader = self.sock.makefile("r", encoding="utf-8")

    def ask(self, payload: dict) -> dict:
        self.sock.sendall((json.dumps(payload) + "\n").encode())
        line = self.reader.readline()
        if not line:
            raise ConnectionError("dropped response")
        return json.loads(line)

    def close(self) -> None:
        self.sock.close()


def healthz(port: int) -> dict:
    return json.loads(http_get("127.0.0.1", port, "/healthz")[1])


def metric_value(port: int, name: str) -> float:
    for line in http_get("127.0.0.1", port, "/metrics")[1].splitlines():
        if line.startswith(f"{name} "):
            return float(line.split()[-1])
    return 0.0


def wait_for_healthy(port: int, failures: list) -> None:
    """Block until every worker is alive and nothing is restarting.

    This is the pacing rule that makes the campaign total-outage-free
    by construction: a new fault only fires once the previous victim
    has fully rejoined the ring.
    """
    deadline = time.time() + HEAL_TIMEOUT_S
    while time.time() < deadline:
        health = healthz(port)
        if (
            health.get("status") == "ok"
            and health.get("alive") == WORKERS
            and not health.get("restarting")
        ):
            return
        time.sleep(0.05)
    failures.append(f"fleet never re-healed: {healthz(port)}")


def run_campaign(
    port: int, plan, failures: list, chaos: bool
) -> tuple[list[dict], dict]:
    """Walk the request sequence; returns (answers, reload_response)."""
    client = Client(port)
    answers: list[dict] = []
    reload_response: dict = {}
    try:
        for index in range(N_REQUESTS):
            event = plan.at(index) if chaos else None
            if event is not None:
                if event.kind in ("kill", "crash", "wedge"):
                    wait_for_healthy(port, failures)
                fired = client.ask({
                    "op": "chaos", "kind": event.kind,
                    "worker": event.worker,
                })
                if not fired.get("ok"):
                    failures.append({"chaos op failed": fired})
            if index == plan.reload_at:
                # in the chaos campaign the wedge just landed: the
                # reload's prepare phase now meets an unresponsive
                # worker and must commit without it
                reload_response = client.ask(
                    {"op": "reload", "path": RULES}
                )
                if not reload_response.get("ok"):
                    failures.append({"reload failed": reload_response})
            response = client.ask(request_at(index))
            if not response.get("ok"):
                failures.append({f"request {index} failed": response})
            answers.append(strip_provenance(response))
    finally:
        client.close()
    return answers, reload_response


def main() -> int:
    plan = build_plan(SEED, N_REQUESTS, WORKERS)
    print(f"chaos plan: {plan.kinds()} over {N_REQUESTS} requests, "
          f"reload at {plan.reload_at}")
    failures: list = []

    # -- the chaos campaign -------------------------------------------
    proc, port = boot_fleet(chaos_ops=True)
    t0 = time.time()
    try:
        chaos_answers, chaos_reload = run_campaign(
            port, plan, failures, chaos=True
        )
        wait_for_healthy(port, failures)
        restarts = metric_value(port, "fleet_worker_restarts_total")
        garbage = metric_value(port, "fleet_worker_garbage_lines_total")
        failovers = metric_value(port, "fleet_failover_retries_total")
        health = healthz(port)
        admin = Client(port)
        stats = admin.ask({"op": "stats"})["stats"]["fleet"]
        admin.close()
    finally:
        proc.send_signal(signal.SIGTERM)
        try:
            code = proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            proc.kill()
            failures.append("chaos fleet did not exit on SIGTERM")
            code = proc.wait()
    if code != 0:
        failures.append(f"chaos fleet exited {code} on SIGTERM")
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
    proc, port = boot_fleet(chaos_ops=False)
    t0 = time.time()
    try:
        clean_answers, clean_reload = run_campaign(
            port, plan, failures, chaos=False
        )
    finally:
        proc.send_signal(signal.SIGTERM)
        try:
            code = proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            proc.kill()
            failures.append("oracle fleet did not exit on SIGTERM")
            code = proc.wait()
    if code != 0:
        failures.append(f"oracle fleet exited {code} on SIGTERM")
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
