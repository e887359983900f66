"""The per-layer metric catalogue.

Each entry names the workloads that exercise it, how it is measured,
the end-to-end metric it should move and the workloads on which it
predicts no change. ``BENCHMARK.json`` lists the same names, units and
directions (``selftest.py`` checks that the two agree). A traced run
reports every metric; on a workload that does not exercise a layer the
value is 0, the amount of that work the workload did.
"""

from __future__ import annotations

from typing import NamedTuple


class LayerMetric(NamedTuple):
    name: str
    unit: str
    better: str
    workloads: tuple[str, ...]
    measured_by: str
    moves: str
    no_change_on: tuple[str, ...]


PER_LAYER: tuple[LayerMetric, ...] = (
    LayerMetric("bench.campaign_s", "s", "lower", ("tune",),
                "AutoTuner.benchmark span per op",
                "tune/latency_p50_ms, tune/throughput_ops_s", ("serve",)),
    LayerMetric("bench.samples_per_s", "1/s", "higher", ("tune",),
                "campaign samples / AutoTuner.benchmark span",
                "tune/latency_p50_ms, tune/throughput_ops_s", ("serve",)),
    LayerMetric("core.fit_s", "s", "lower", ("tune", "retrain"),
                "AutoTuner.train spans per op",
                "tune/latency_p50_ms, tune/throughput_ops_s, "
                "retrain/latency_p50_ms", ("serve",)),
    LayerMetric("ml.model_fit_ms", "ms", "lower", ("tune", "retrain"),
                "median GradientBoostingRegressor.fit / GAMRegressor.fit span",
                "tune/latency_p50_ms, tune/cpu_ms_per_op",
                ("serve", "retrain")),
    LayerMetric("ml.fit_models", "count", "higher", ("tune", "retrain"),
                "learner fits per op", "tune/latency_p50_ms", ("serve",)),
    LayerMetric("ml.fit_quarantined", "count", "lower", ("tune",),
                "AlgorithmSelector.quarantined_ after the fit",
                "tune/quality", ("serve", "retrain")),
    LayerMetric("core.rules_s", "s", "lower", ("tune",),
                "AutoTuner.write_rules span (includes validate_rules)",
                "tune/latency_p50_ms (small)", ("serve",)),
    LayerMetric("serve.latency_p90_ms", "ms", "lower", ("serve",),
                "p90 client round trip; reported only with >= 10 samples "
                "beyond it", "serve/latency_p50_ms", ("tune", "retrain")),
    LayerMetric("serve.frontend_cpu_ms_per_op", "ms", "lower", ("serve",),
                "/proc CPU of the fleet front-end pid per request",
                "serve/throughput_ops_s (the single asyncio loop)",
                ("tune", "retrain")),
    LayerMetric("serve.worker_cpu_ms_per_op", "ms", "lower", ("serve",),
                "/proc CPU summed over worker pids per request",
                "serve/latency_p50_ms, serve/cpu_ms_per_op",
                ("tune", "retrain")),
    LayerMetric("serve.answer_ms_per_op", "ms", "lower", ("serve",),
                "in-process PredictionService.recommend_many on the batch",
                "serve/latency_p50_ms, by at most its share", ("tune",)),
    LayerMetric("serve.server_latency_p50_us", "us", "lower", ("serve",),
                "the fleet's fleet.request_latency_us p50 (stats op)",
                "client minus server p50 = socket + client cost", ()),
    LayerMetric("serve.l0_hit_frac", "frac", "higher", ("serve", "retrain"),
                "worker serve.compiled.hit delta / serve.requests delta",
                "serve/cpu_ms_per_op", ()),
    LayerMetric("serve.l1_hit_frac", "frac", "higher", ("serve", "retrain"),
                "serve.l1.hits delta / serve.requests delta",
                "serve/cpu_ms_per_op", ()),
    LayerMetric("serve.exact_frac", "frac", "lower", ("serve", "retrain"),
                "serve.l1.misses delta / serve.requests delta",
                "serve/cpu_ms_per_op, retrain/latency_p50_ms", ()),
    LayerMetric("serve.shed", "count", "lower", ("serve",),
                "fleet.shed delta", "serve/ok_frac", ()),
    LayerMetric("serve.failover_retries", "count", "lower", ("serve",),
                "fleet.failover_retries delta", "serve/ok_frac", ()),
    LayerMetric("serve.feedback_serve_ms_per_req", "ms", "lower",
                ("retrain",),
                "PredictionService.recommend span with feedback attached",
                "retrain/latency_p50_ms (largest share)", ("serve", "tune")),
    LayerMetric("core.feedback_read_ms", "ms", "lower", ("retrain",),
                "read_feedback span", "retrain/latency_p50_ms", ("serve",)),
    LayerMetric("core.retrainer_init_ms", "ms", "lower", ("retrain",),
                "Retrainer(...) span", "retrain/latency_p50_ms",
                ("serve", "tune")),
    LayerMetric("obs.drift_scan_ms", "ms", "lower", ("retrain",),
                "Retrainer.scan span", "retrain/latency_p50_ms",
                ("serve", "tune")),
    LayerMetric("core.retrain_ms", "ms", "lower", ("retrain",),
                "Retrainer.retrain span", "retrain/latency_p50_ms",
                ("serve",)),
    LayerMetric("core.retrain_measure_ms", "ms", "lower", ("retrain",),
                "the program's retrain/measure span",
                "retrain/latency_p50_ms", ("serve",)),
    LayerMetric("core.retrain_fit_ms", "ms", "lower", ("retrain",),
                "the program's retrain/fit span", "retrain/latency_p50_ms",
                ("serve",)),
    LayerMetric("serve.publish_ms", "ms", "lower", ("retrain",),
                "ModelRegistry.publish spans (stage probes and commit)",
                "retrain/latency_p50_ms (small)", ("serve",)),
    LayerMetric("core.budget_frac", "frac", "lower", ("retrain",),
                "RetrainResult.budget_frac (an exact count ratio)",
                "the cost of core.retrain_measure_ms", ()),
    LayerMetric("self.bench_ms", "ms", "lower", ("tune",),
                "self time of repro.bench spans per op",
                "tune/latency_p50_ms", ("serve",)),
    LayerMetric("self.ml_ms", "ms", "lower", ("tune", "retrain"),
                "self time of repro.ml spans per op",
                "tune/latency_p50_ms, retrain/latency_p50_ms", ("serve",)),
    LayerMetric("self.core_ms", "ms", "lower", ("tune", "retrain"),
                "self time of repro.core spans per op",
                "tune/latency_p50_ms, retrain/latency_p50_ms", ("serve",)),
    LayerMetric("self.serve_ms", "ms", "lower", ("serve", "retrain"),
                "self time of repro.serve spans per op (the fleet request "
                "counts whole)", "serve/latency_p50_ms", ("tune",)),
    LayerMetric("self.obs_ms", "ms", "lower", ("retrain",),
                "self time of repro.obs spans per op",
                "retrain/latency_p50_ms", ("serve", "tune")),
    LayerMetric("trace.overhead_frac", "frac", "lower",
                ("tune", "serve", "retrain"),
                "spans per op x calibrated cost of one span / op p50", "", ()),
    LayerMetric("trace.unaccounted_frac", "frac", "lower",
                ("tune", "serve", "retrain"),
                "op time covered by no layer span", "", ()),
)
