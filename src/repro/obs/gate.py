"""Bench regression gate: compare a fresh BENCH report to the baseline.

CI runs ``scripts/bench_report.py`` on every push and feeds the fresh
numbers plus the committed ``BENCH_<pr>.json`` through
:func:`compare_reports`. A metric that moved against its preferred
direction by more than ``fail_frac`` (default 25%) fails the build;
beyond ``warn_frac`` (default 10%) it warns. The comparison logic
lives here (not in the script) so the thresholds are unit-tested —
the gate must demonstrably fire on a synthetic 30% slowdown.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping

#: headline metrics the gate tracks -> whether larger values are better
GATE_METRICS: dict[str, bool] = {
    "booster_predict_10k_s": False,
    "booster_fit_2000_s": False,
    # numpy oracle fit / native grower fit, same process and data
    "booster_fit_speedup_x": True,
    "campaign_samples_per_s": True,
    "fastsim_chain_eval_s": False,
    # copy-per-round / reused segmented-ring cost, same process
    "fastsim_round_reuse_speedup_x": True,
    "serve_batch64_speedup_x": True,
    "serve_cached_speedup_x": True,
    "serve_compiled_speedup_x": True,
    "fleet_req_per_s": True,
    "fleet_p99_us": False,
    "fleet_degraded_req_per_s": True,
    # active-sampling retrain cost: measured / full-grid samples at
    # equal final selection agreement — lower is better, must not creep
    # back toward the naive full refit (1.0)
    "retrain_budget_frac": False,
}

#: default thresholds (fractions of the baseline)
WARN_FRAC = 0.10
FAIL_FRAC = 0.25


@dataclass(frozen=True)
class GateResult:
    """Verdict for one metric."""

    metric: str
    baseline: float
    current: float
    #: fractional regression (>0 = worse than baseline, <0 = better)
    regression: float
    status: str  # "ok" | "warn" | "fail" | "missing"
    higher_is_better: bool

    @property
    def ok(self) -> bool:
        return self.status in ("ok", "warn", "missing")

    def describe(self) -> str:
        arrow = "↑" if self.higher_is_better else "↓"
        if self.status == "missing":
            return f"[missing] {self.metric}: no baseline/current value"
        return (
            f"[{self.status:>4s}] {self.metric} ({arrow} better): "
            f"baseline {self.baseline:.6g} -> current {self.current:.6g} "
            f"({self.regression * 100:+.1f}% vs baseline)"
        )


def regression_fraction(
    baseline: float, current: float, higher_is_better: bool
) -> float:
    """How much worse ``current`` is than ``baseline`` (signed fraction).

    0.30 means "30% worse": for a lower-is-better latency that is a
    30% slowdown; for a higher-is-better throughput it is a 30% drop.
    Negative values are improvements.
    """
    if baseline <= 0:
        raise ValueError(f"non-positive baseline {baseline!r}")
    if higher_is_better:
        return (baseline - current) / baseline
    return (current - baseline) / baseline


def compare_metrics(
    baseline: Mapping[str, float],
    current: Mapping[str, float],
    *,
    metrics: Mapping[str, bool] = GATE_METRICS,
    warn_frac: float = WARN_FRAC,
    fail_frac: float = FAIL_FRAC,
) -> list[GateResult]:
    """Grade every gate metric; missing metrics are reported, not failed.

    A metric absent from either side cannot regress silently *or* block
    unrelated work, so it surfaces as ``missing`` (visible in CI logs)
    rather than ``fail``.
    """
    if not 0 <= warn_frac <= fail_frac:
        raise ValueError(
            f"need 0 <= warn_frac <= fail_frac, got {warn_frac}, {fail_frac}"
        )
    results: list[GateResult] = []
    for metric, higher_is_better in metrics.items():
        base = baseline.get(metric)
        cur = current.get(metric)
        if base is None or cur is None or base <= 0:
            results.append(
                GateResult(metric, base or float("nan"), cur or float("nan"),
                           0.0, "missing", higher_is_better)
            )
            continue
        reg = regression_fraction(base, cur, higher_is_better)
        if reg > fail_frac:
            status = "fail"
        elif reg > warn_frac:
            status = "warn"
        else:
            status = "ok"
        results.append(
            GateResult(metric, float(base), float(cur), reg, status,
                       higher_is_better)
        )
    return results


def _current_block(report: Mapping) -> Mapping[str, float]:
    """The ``current`` metrics block of a BENCH_<pr>.json payload."""
    block = report.get("current", report)
    if not isinstance(block, Mapping):
        raise ValueError("malformed bench report: no 'current' mapping")
    return block


def compare_reports(
    baseline_path: str | Path,
    current_path: str | Path,
    *,
    warn_frac: float = WARN_FRAC,
    fail_frac: float = FAIL_FRAC,
) -> list[GateResult]:
    """Compare two BENCH_<pr>.json files on the gate metrics."""
    baseline = json.loads(Path(baseline_path).read_text())
    current = json.loads(Path(current_path).read_text())
    return compare_metrics(
        _current_block(baseline),
        _current_block(current),
        warn_frac=warn_frac,
        fail_frac=fail_frac,
    )


def latest_committed_report(root: str | Path) -> Path:
    """The highest-numbered ``BENCH_<pr>.json`` at the repo root."""
    candidates = sorted(
        Path(root).glob("BENCH_*.json"),
        key=lambda p: int(p.stem.split("_")[1]),
    )
    if not candidates:
        raise FileNotFoundError(f"no BENCH_*.json baseline under {root}")
    return candidates[-1]


def gate_verdict(results: list[GateResult]) -> tuple[bool, str]:
    """(passed, human-readable report) for a list of metric verdicts."""
    lines = [r.describe() for r in results]
    failed = [r for r in results if not r.ok]
    if failed:
        lines.append(
            f"GATE FAILED: {len(failed)} metric(s) regressed beyond the "
            "failure threshold"
        )
    else:
        lines.append("GATE PASSED")
    return (not failed, "\n".join(lines))
