#!/usr/bin/env python3
"""CI bench regression gate.

Compares a fresh bench report against the highest-numbered committed
``BENCH_<pr>.json`` on the same-process speedup ratios
(:data:`repro.obs.gate.GATE_METRICS`) and exits non-zero when any ratio
dropped beyond the failure threshold (25%; warnings at 10%) or is
absent from the fresh report. The comparison logic lives in
:mod:`repro.obs.gate` where it is unit-tested — this script is only
argument plumbing.

Usage (what ``.github/workflows/ci.yml`` runs)::

    PYTHONPATH=src python scripts/bench_report.py --pr 0 \
        --out fresh_bench.json
    PYTHONPATH=src python scripts/bench_gate.py --current fresh_bench.json
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from repro.obs.gate import (  # noqa: E402  (path bootstrap above)
    compare_reports,
    gate_verdict,
    latest_committed_report,
)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--current", type=Path, required=True,
        help="freshly measured bench report (scripts/bench_report.py --out)",
    )
    args = parser.parse_args()

    baseline = latest_committed_report(ROOT)
    print(f"baseline: {baseline}")
    print(f"current:  {args.current}")
    passed, text = gate_verdict(compare_reports(baseline, args.current))
    print(text)
    return 0 if passed else 1


if __name__ == "__main__":
    raise SystemExit(main())
