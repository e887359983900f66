"""Bench regression gate: compare a fresh BENCH report to the baseline.

CI runs ``scripts/bench_report.py`` on every push; it runs the quick
benchmark subset and collects the same-process speedup ratios the
bar-asserting tests record. The fresh ratios and the committed
``BENCH_<pr>.json`` go through :func:`compare_reports`. A ratio that
dropped by more than ``fail_frac`` (default 25%) fails the build;
beyond ``warn_frac`` (default 10%) it warns. A gated ratio absent from
the fresh report fails too, so a renamed or skipped ratio test cannot
leave the gate unnoticed. The comparison logic lives here (not in the
script) so the thresholds are unit-tested — the gate must demonstrably
fire on a synthetic 30% drop.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping

#: gated metrics -> whether larger values are better. Each is a
#: reference-path / fast-path time ratio measured in one process by the
#: benchmark that asserts the pair's parity and floor bar, so it needs
#: no baseline machine. Absolute speed is perfbench's to measure.
GATE_METRICS: dict[str, bool] = {
    # recursive / flat-ensemble booster predict (test_kernel_speedup)
    "kernel_speedup_x": True,
    # numpy oracle fit / native grower fit (test_kernel_speedup)
    "booster_fit_speedup_x": True,
    # cold serial / batched, cold / L1-cached, cached / compiled
    # recommend at batch 64 (test_serve_throughput)
    "serve_batch64_speedup_x": True,
    "serve_cached_speedup_x": True,
    "serve_compiled_speedup_x": True,
    # copy-per-round / reused segmented-ring cost
    # (test_simulator_throughput)
    "fastsim_round_reuse_speedup_x": True,
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
            return f"[missing] {self.metric}: no baseline value"
        if math.isnan(self.current):
            return f"[fail] {self.metric}: absent from the current report"
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
    """Grade every gate metric.

    A metric absent from the *current* report fails: the test that
    records it was renamed, skipped or failed. One absent from the
    *baseline* (added since it was recorded) surfaces as ``missing``
    (visible in CI logs) and does not block the change that adds it.
    """
    if not 0 <= warn_frac <= fail_frac:
        raise ValueError(
            f"need 0 <= warn_frac <= fail_frac, got {warn_frac}, {fail_frac}"
        )
    results: list[GateResult] = []
    for metric, higher_is_better in metrics.items():
        base = baseline.get(metric)
        cur = current.get(metric)
        if cur is None:
            results.append(
                GateResult(metric, base or math.nan, math.nan, 0.0, "fail",
                           higher_is_better)
            )
            continue
        if base is None or base <= 0:
            results.append(
                GateResult(metric, math.nan, float(cur), 0.0, "missing",
                           higher_is_better)
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
    baseline_path: str | Path, current_path: str | Path
) -> list[GateResult]:
    """Compare two BENCH_<pr>.json files on the gate metrics."""
    baseline = json.loads(Path(baseline_path).read_text())
    current = json.loads(Path(current_path).read_text())
    return compare_metrics(_current_block(baseline), _current_block(current))


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
            "failure threshold or are absent from the current report"
        )
    else:
        lines.append("GATE PASSED")
    return (not failed, "\n".join(lines))
