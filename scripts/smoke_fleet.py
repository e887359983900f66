#!/usr/bin/env python3
"""CI smoke test: a real fleet under fire, scraped like Prometheus would.

What an operator's first day with ``mpicollpred serve --workers N``
looks like, end to end through the real CLI entry point:

1. **Boot** — ``python -m repro.cli serve --workers 2 --port 0 --rules
   hydra_bcast_rules.conf`` as a subprocess
   (:class:`repro.serve.fleet.FleetProcess`).
2. **Fire** — :func:`repro.serve.chaos.reload_under_fire`: client
   threads hammer ``recommend`` / ``recommend_many`` over the socket
   while coordinated ``reload`` requests flip the live rules back and
   forth, then a reload of a missing file must be rejected.
3. **Contract** — zero failed responses, zero dropped connections, no
   response mixing model versions, every client observes versions
   monotonically (the two-phase barrier at work), no version skew in
   ``stats``.
4. **Scrape** — ``curl http://…/metrics`` (``http_get`` when curl is
   absent) must pass :func:`repro.serve.chaos.verify_metrics_scrape`:
   well-formed Prometheus text with a positive
   ``serve_compiled_hits_total`` and the request-latency histogram with
   p50/p99/p999.
5. **Shutdown** — SIGTERM must exit 0.

Exits non-zero on any violation.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from repro.serve.chaos import (  # noqa: E402
    reload_under_fire,
    verify_metrics_scrape,
)
from repro.serve.fleet import FleetProcess, http_get  # noqa: E402

RULES = ("hydra_bcast_rules.conf", "quickstart_rules.conf")
WORKERS = 2


def scrape_metrics(port: int) -> tuple[str, str]:
    """The ``/metrics`` body and the tool that fetched it."""
    url = f"http://127.0.0.1:{port}/metrics"
    curl = shutil.which("curl")
    if curl:
        return subprocess.run(
            [curl, "-sSf", url], check=True, capture_output=True, text=True,
            timeout=60,
        ).stdout, "curl"
    return http_get("127.0.0.1", port, "/metrics")[1], "http_get"


def main() -> int:
    fleet = FleetProcess("--workers", str(WORKERS), "--rules", RULES[0],
                         cwd=ROOT)
    try:
        failures, load = reload_under_fire(fleet.port, RULES, WORKERS)
        print(load)
        body, tool = scrape_metrics(fleet.port)
        failures.extend(verify_metrics_scrape(body))
        print(f"scraped {len(body.splitlines())} metric-text lines ({tool})")
    finally:
        shutdown = fleet.stop()
    failures.extend(shutdown)

    if failures:
        for failure in failures[:20]:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    print(f"OK: zero failed responses, no mixed versions, "
          f"metrics scrape well-formed, clean shutdown "
          f"(exit {fleet.returncode})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
