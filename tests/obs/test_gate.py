"""Bench regression gate — the CI acceptance bar's comparison logic.

The acceptance criterion: the gate must demonstrably fail on a
synthetic 30% slowdown, which for the gated speedup ratios is a 30%
drop. That case is pinned here, together with the direction handling
(latency vs throughput), the warn band and the absent-metric rules.
"""

import json

import pytest

from repro.obs.gate import (
    GATE_METRICS,
    compare_metrics,
    compare_reports,
    gate_verdict,
    latest_committed_report,
    regression_fraction,
)

BASE = {
    "kernel_speedup_x": 11.0,
    "booster_fit_speedup_x": 8.0,
    "serve_batch64_speedup_x": 30.0,
    "serve_cached_speedup_x": 50.0,
    "serve_compiled_speedup_x": 6.0,
    "fastsim_round_reuse_speedup_x": 500.0,
    "fastsim_tree_plan_speedup_x": 18.0,
}


def _with(**overrides):
    return {**BASE, **overrides}


class TestRegressionFraction:
    def test_latency_slowdown_positive(self):
        assert regression_fraction(1.0, 1.3, False) == pytest.approx(0.30)

    def test_latency_speedup_negative(self):
        assert regression_fraction(1.0, 0.8, False) == pytest.approx(-0.20)

    def test_throughput_drop_positive(self):
        assert regression_fraction(1000.0, 700.0, True) == pytest.approx(0.30)

    def test_throughput_gain_negative(self):
        assert regression_fraction(1000.0, 1200.0, True) == pytest.approx(-0.20)

    def test_zero_baseline_rejected(self):
        with pytest.raises(ValueError):
            regression_fraction(0.0, 1.0, False)


class TestCompareMetrics:
    def test_identical_passes(self):
        results = compare_metrics(BASE, BASE)
        assert all(r.status == "ok" for r in results)
        passed, text = gate_verdict(results)
        assert passed and "GATE PASSED" in text

    def test_synthetic_30pct_predict_slowdown_fails(self):
        # the acceptance-criteria case: the flat predict kernel 30%
        # slower against the recursive reference
        current = _with(kernel_speedup_x=11.0 * 0.70)
        results = compare_metrics(BASE, current)
        verdicts = {r.metric: r.status for r in results}
        assert verdicts["kernel_speedup_x"] == "fail"
        passed, text = gate_verdict(results)
        assert not passed and "GATE FAILED" in text

    def test_synthetic_30pct_throughput_drop_fails(self):
        current = _with(serve_batch64_speedup_x=30.0 * 0.70)
        results = compare_metrics(BASE, current)
        verdicts = {r.metric: r.status for r in results}
        assert verdicts["serve_batch64_speedup_x"] == "fail"
        assert not gate_verdict(results)[0]

    def test_15pct_slowdown_warns_but_passes(self):
        current = _with(kernel_speedup_x=11.0 * 0.85)
        results = compare_metrics(BASE, current)
        verdicts = {r.metric: r.status for r in results}
        assert verdicts["kernel_speedup_x"] == "warn"
        assert gate_verdict(results)[0]  # warnings do not fail the build

    def test_5pct_jitter_ok(self):
        current = _with(kernel_speedup_x=11.0 * 0.95,
                        serve_batch64_speedup_x=30.0 * 0.95)
        assert all(r.status == "ok" for r in compare_metrics(BASE, current))

    def test_improvement_ok(self):
        current = _with(kernel_speedup_x=20.0,
                        serve_batch64_speedup_x=60.0)
        results = compare_metrics(BASE, current)
        assert all(r.status == "ok" for r in results)
        assert all(r.regression < 0 for r in results
                   if r.metric in ("kernel_speedup_x",
                                   "serve_batch64_speedup_x"))

    def test_missing_metric_reported_not_failed(self):
        # a ratio added since the baseline was recorded
        base = dict(BASE)
        del base["fastsim_round_reuse_speedup_x"]
        results = compare_metrics(base, BASE)
        verdicts = {r.metric: r.status for r in results}
        assert verdicts["fastsim_round_reuse_speedup_x"] == "missing"
        assert gate_verdict(results)[0]

    def test_metric_absent_from_current_fails(self):
        # a renamed or skipped ratio test must not leave the gate quietly
        current = dict(BASE)
        del current["booster_fit_speedup_x"]
        results = compare_metrics(BASE, current)
        verdicts = {r.metric: r.status for r in results}
        assert verdicts["booster_fit_speedup_x"] == "fail"
        passed, text = gate_verdict(results)
        assert not passed
        assert "booster_fit_speedup_x: absent from the current report" in text

    def test_custom_thresholds(self):
        current = _with(kernel_speedup_x=11.0 * 0.94)
        results = compare_metrics(BASE, current, warn_frac=0.02, fail_frac=0.05)
        verdicts = {r.metric: r.status for r in results}
        assert verdicts["kernel_speedup_x"] == "fail"

    def test_invalid_thresholds_rejected(self):
        with pytest.raises(ValueError):
            compare_metrics(BASE, BASE, warn_frac=0.5, fail_frac=0.1)

    def test_every_gate_metric_has_direction(self):
        # the gate tracks exactly the seven same-process speedup ratios
        assert set(GATE_METRICS) == set(BASE)
        assert all(GATE_METRICS.values())


class TestCompareReports:
    def _write(self, path, metrics):
        path.write_text(json.dumps({"pr": 1, "current": metrics}))

    def test_file_comparison(self, tmp_path):
        baseline, current = tmp_path / "b.json", tmp_path / "c.json"
        self._write(baseline, BASE)
        self._write(current, _with(serve_cached_speedup_x=50.0 * 0.65))
        results = compare_reports(baseline, current)
        verdicts = {r.metric: r.status for r in results}
        assert verdicts["serve_cached_speedup_x"] == "fail"

    def test_flat_report_accepted(self, tmp_path):
        # a bare metrics dict (no "current" wrapper) also works
        baseline, current = tmp_path / "b.json", tmp_path / "c.json"
        baseline.write_text(json.dumps(BASE))
        current.write_text(json.dumps(BASE))
        assert gate_verdict(compare_reports(baseline, current))[0]

    def test_provenance_block_ignored(self, tmp_path):
        # bench_report writes a non-metric provenance block beside the
        # metrics; strings, booleans and nulls there must not be graded
        provenance = {
            "git_sha": "0" * 40, "git_dirty": True, "python": "3.11.7",
            "cpu_model": "Example CPU @ 2.0GHz", "cpu_count": 4,
            "ckernel_loaded": False, "repro_jobs": None,
        }
        baseline, current = tmp_path / "b.json", tmp_path / "c.json"
        baseline.write_text(json.dumps({"pr": 1, "current": BASE}))
        current.write_text(json.dumps(
            {"pr": 2, "provenance": provenance, "current": BASE}
        ))
        results = compare_reports(baseline, current)
        assert {r.metric for r in results} == set(GATE_METRICS)
        assert all(r.status == "ok" for r in results)
        assert gate_verdict(results)[0]

    def test_latest_committed_report(self, tmp_path):
        for pr in (1, 2, 10):
            self._write(tmp_path / f"BENCH_{pr}.json", BASE)
        assert latest_committed_report(tmp_path).name == "BENCH_10.json"

    def test_latest_missing_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            latest_committed_report(tmp_path)

    def test_gate_against_committed_baseline(self):
        # the repo's own committed baseline must carry every gated ratio
        from pathlib import Path

        root = Path(__file__).resolve().parents[2]
        baseline = latest_committed_report(root)
        current = json.loads(baseline.read_text())["current"]
        assert set(GATE_METRICS) <= set(current), baseline.name
        results = compare_metrics(current, current)
        assert all(r.status == "ok" for r in results)
