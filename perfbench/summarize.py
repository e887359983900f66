#!/usr/bin/env python3
"""Fold the run records of one workload into ``results/<workload>.json``.

Usage, after untraced runs on several seeds and one traced run::

    python3 perfbench/summarize.py --workload serve

Reads ``.perfbench/runs/<workload>-s*-t*.json`` in the checkout. The
end-to-end block gives each metric's median and quartiles over the
untraced runs (``statistics.quantiles(n=4)``); the per-layer block is
the traced run's, with each metric's prediction from ``layers.py``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from layers import PER_LAYER  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    args = parser.parse_args()
    runs = HERE.parent / ".perfbench" / "runs"
    records = [json.loads(p.read_text())
               for p in sorted(runs.glob(f"{args.workload}-s*-t*.json"))]
    plain = [r for r in records if r["trace"] == 0 and "result" in r]
    traced = [r for r in records if r["trace"] == 1 and "result" in r]
    if len(plain) < 2 or not traced:
        print("need >= 2 untraced runs and 1 traced run", file=sys.stderr)
        return 1
    end_to_end = {}
    for name, first in plain[0]["result"]["metrics"].items():
        values = [r["result"]["metrics"][name]["value"] for r in plain]
        q1, q2, q3 = statistics.quantiles(values, n=4)
        end_to_end[name] = {
            "unit": first["unit"], "median": q2, "q1": q1, "q3": q3,
            "iqr_frac": (q3 - q1) / q2 if q2 else 0.0,
        }
    trace = traced[-1]
    exercised = set(trace["reduction"]["exercised"])
    per_layer = {
        m.name: {
            "value": trace["result"]["metrics"][m.name]["value"],
            "unit": m.unit,
            "measured_by": m.measured_by,
            "moves": m.moves,
            "no_change_on": list(m.no_change_on),
        }
        for m in PER_LAYER if m.name in exercised
    }
    untraced_p50 = end_to_end["latency_p50_ms"]["median"]
    summary = {
        "workload": args.workload,
        "untraced_runs": {"seeds": [r["seed"] for r in plain],
                          "seconds": plain[0]["seconds"],
                          "all_correct": all(r["result"]["correct"]
                                             for r in plain)},
        "end_to_end": end_to_end,
        "traced_run": {"seed": trace["seed"],
                       "attempted": trace["result"]["attempted"],
                       "failed": trace["result"]["failed"]},
        "per_layer": per_layer,
        "trace": {
            key: trace["reduction"][key]
            for key in ("op_p50_ms", "self_ms_per_op", "unaccounted_frac",
                        "blocking_steps", "span_cost_us", "spans_per_iter")
        },
        # the cross-run counterpart of trace.overhead_frac; machine
        # noise between the runs dominates it
        "traced_over_untraced_op_p50": (
            trace["reduction"]["op_p50_ms"] / untraced_p50 - 1.0
        ),
        "provenance": {
            key: plain[0]["provenance"][key]
            for key in ("git_sha", "git_dirty", "src_sha256", "python",
                        "cpu_model", "cpu_count", "ckernel_loaded",
                        "env_found")
        },
    }
    out = HERE / "results" / f"{args.workload}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(summary, indent=1) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
