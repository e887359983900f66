"""Prometheus exporter: naming, escaping, type lines, golden bytes.

The golden file pins the exporter's exact output for a fixed snapshot:
any change to metric naming, ordering, or formatting shows up as a
golden diff — scrape consumers (dashboards, recording rules) depend on
those names being stable across releases.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.obs import Histogram
from repro.serve.chaos import METRIC_LINE, verify_metrics_scrape
from repro.serve.exporter import (
    escape_help,
    escape_label_value,
    render_counter,
    render_gauge,
    render_histogram,
    render_prometheus,
    sanitize_metric_name,
)

GOLDEN = Path(__file__).parent / "data" / "metrics.golden.txt"

def _snapshot():
    """The fixed telemetry state the golden file renders."""
    latency = Histogram("fleet.request_latency_us", bounds=(10.0, 100.0, 1000.0))
    for value in (3.0, 7.0, 55.0, 250.0, 250.0, 5000.0):
        latency.observe(value)
    empty = Histogram("fleet.reload_pause_us", bounds=(100.0, 10000.0))
    counters = {
        "serve.compiled.hit": 1203,
        "serve.compiled.fallthrough": 47,
        "serve.l1.hits": 912,
        "serve.l1.stale": 3,
        "serve.requests": 2162,
        "bench.retry": 5,
        "fleet.requests": 2162,
        "fleet.shed": 12,
        "fleet.worker_restarts": 3,
        "serve.feedback.rows": 180,
        "serve.feedback.skipped_lines": 1,
        "serve.feedback.stale_rows": 4,
        "serve.feedback.errors": 0,
        "serve.feedback.guideline_violations": 2,
    }
    gauges = {
        "fleet.workers": 4,
        "fleet.workers_alive": 3,
        "fleet.breakers_open": 1,
        "fleet.queue_depth": {
            'worker="0"': 2,
            'worker="1"': 0,
            'worker="2"': 117,
            'worker="3"': 0,
        },
        "serve.l1.fill_ratio": 0.625,
        "serve.drift.residual_median": {
            'collective="bcast",version="1"': 0.71,
            'collective="bcast",version="2"': 0.02,
        },
        "serve.drift.residual_mad": {
            'collective="bcast",version="1"': 0.09,
            'collective="bcast",version="2"': 0.05,
        },
        "serve.drift.samples": {
            'collective="bcast",version="1"': 512,
            'collective="bcast",version="2"': 36,
        },
    }
    histograms = {
        "fleet.request_latency_us": latency.snapshot(),
        "fleet.reload_pause_us": empty.snapshot(),
    }
    help_texts = {
        "serve.compiled.hit": "requests answered by the compiled L0 table",
        "fleet.request_latency_us": "front-end request latency (us)",
        "fleet.shed": "requests shed at the queue high-water mark",
        "fleet.worker_restarts": "dead workers respawned and warm-restored",
        "fleet.queue_depth": "in-flight requests per worker",
        "serve.feedback.rows": "feedback rows appended by the serve loop",
        "serve.drift.residual_median": (
            "median log(observed/predicted) per (collective, version)"
        ),
    }
    return counters, gauges, histograms, help_texts


def parse_metric_lines(text: str) -> list[str]:
    """Every non-comment, non-blank line; asserts each is well-formed."""
    lines = []
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        assert METRIC_LINE.match(line), f"malformed metric line: {line!r}"
        lines.append(line)
    return lines


class TestNaming:
    def test_dots_flatten_to_underscores(self):
        assert sanitize_metric_name("serve.l1.hits") == "serve_l1_hits"

    def test_invalid_chars_replaced(self):
        assert sanitize_metric_name("serve.l1 hits-EMA") == "serve_l1_hits_EMA"

    def test_leading_digit_prefixed(self):
        assert sanitize_metric_name("99th.pct").startswith("_")

    def test_counter_rename_table_applies(self):
        lines = render_counter("serve.compiled.hit", 5)
        assert "serve_compiled_hits_total 5" in lines
        assert "# TYPE serve_compiled_hits_total counter" in lines

    def test_plain_counter_gets_total_suffix(self):
        lines = render_counter("serve.requests", 7)
        assert "serve_requests_total 7" in lines


class TestEscaping:
    def test_help_escapes_backslash_and_newline(self):
        assert escape_help("a\\b\nc") == "a\\\\b\\nc"

    def test_label_value_escapes_quote_too(self):
        assert escape_label_value('say "hi"\n') == 'say \\"hi\\"\\n'

    def test_help_line_renders_escaped(self):
        (help_line, *_rest) = render_gauge(
            "g", 1.0, help_text="line one\nline two"
        )
        assert help_line == "# HELP g line one\\nline two"


class TestHistogramRendering:
    def test_buckets_are_cumulative_with_inf(self):
        h = Histogram("lat", bounds=(1.0, 10.0))
        for value in (0.5, 5.0, 100.0):
            h.observe(value)
        lines = render_histogram("lat", h.snapshot())
        assert 'lat_bucket{le="1"} 1' in lines
        assert 'lat_bucket{le="10"} 2' in lines
        assert 'lat_bucket{le="+Inf"} 3' in lines
        assert "lat_count 3" in lines
        assert any(line.startswith("lat_sum ") for line in lines)

    def test_quantile_gauges_ride_along(self):
        h = Histogram("lat", bounds=(1.0, 10.0, 100.0))
        for _ in range(100):
            h.observe(5.0)
        lines = render_histogram("lat", h.snapshot())
        for quantile in ("p50", "p99", "p999"):
            assert f"# TYPE lat_{quantile} gauge" in lines
            assert any(line.startswith(f"lat_{quantile} ") for line in lines)

    def test_empty_histogram_has_no_quantiles(self):
        lines = render_histogram("lat", Histogram("lat").snapshot())
        assert not any("p50" in line for line in lines)
        assert 'lat_bucket{le="+Inf"} 0' in lines


class TestLabeledGauges:
    """Mapping-valued gauges: one labelled series per entry."""

    def test_labelled_series_render_sorted(self):
        lines = render_gauge(
            "fleet.queue_depth",
            {'worker="1"': 5, 'worker="0"': 2},
        )
        assert lines == [
            "# TYPE fleet_queue_depth gauge",
            'fleet_queue_depth{worker="0"} 2',
            'fleet_queue_depth{worker="1"} 5',
        ]

    def test_empty_mapping_still_emits_a_sample(self):
        # a dangling TYPE line with no sample is invalid exposition
        lines = render_gauge("fleet.queue_depth", {})
        assert lines == [
            "# TYPE fleet_queue_depth gauge",
            "fleet_queue_depth 0",
        ]

    def test_labelled_lines_are_wellformed(self):
        text = render_prometheus(
            {},
            {"fleet.queue_depth": {'worker="0"': 1, 'worker="1"': 0.5}},
        )
        lines = parse_metric_lines(text)
        assert 'fleet_queue_depth{worker="0"} 1' in lines
        assert 'fleet_queue_depth{worker="1"} 0.5' in lines

    def test_help_text_applies_to_the_family(self):
        lines = render_gauge(
            "fleet.queue_depth", {'worker="0"': 1}, help_text="depth"
        )
        assert lines[0] == "# HELP fleet_queue_depth depth"


class TestDriftGaugeSeries:
    """DriftDetector.gauges() must plug straight into render_gauge."""

    @pytest.fixture()
    def detector(self):
        from repro.obs.drift import DriftDetector

        det = DriftDetector(min_samples=2, window=8)
        for obs in (2.0, 2.2, 1.9, 2.1):
            det.observe("bcast", 1, obs * 1e-4, 1e-4)
        for obs in (1.0, 1.01):
            det.observe("bcast", 2, obs * 1e-4, 1e-4)
        return det

    def test_label_bodies_key_collective_and_version(self, detector):
        series = detector.gauges()
        assert set(series) == {
            "serve.drift.residual_median",
            "serve.drift.residual_mad",
            "serve.drift.samples",
        }
        for family in series.values():
            assert set(family) == {
                'collective="bcast",version="1"',
                'collective="bcast",version="2"',
            }

    def test_extra_labels_append_to_every_series(self, detector):
        series = detector.gauges(labels='worker="3"')
        body = 'collective="bcast",version="1",worker="3"'
        assert body in series["serve.drift.samples"]
        assert series["serve.drift.samples"][body] == 4.0

    def test_rendered_lines_are_wellformed_and_labelled(self, detector):
        text = render_prometheus({}, detector.gauges(labels='worker="0"'))
        lines = parse_metric_lines(text)
        assert any(
            line.startswith(
                'serve_drift_residual_median{collective="bcast"'
            )
            and ',worker="0"}' in line
            for line in lines
        )
        # one sample per (collective, version) per family
        assert sum(
            line.startswith("serve_drift_samples{") for line in lines
        ) == 2

    def test_median_value_round_trips_through_exposition(self, detector):
        import math

        text = render_prometheus({}, detector.gauges())
        line = next(
            line for line in text.splitlines()
            if line.startswith(
                'serve_drift_residual_median{collective="bcast",version="1"}'
            )
        )
        rendered = float(line.rsplit(" ", 1)[1])
        assert rendered == pytest.approx(math.log(2.05), abs=0.1)


class TestFullRender:
    def test_matches_golden_file(self):
        counters, gauges, histograms, help_texts = _snapshot()
        text = render_prometheus(
            counters, gauges, histograms, help_texts=help_texts
        )
        golden = GOLDEN.read_text().split("# --8<--\n", 1)[1]
        assert text == golden, (
            "exporter output drifted from the golden file; if the change "
            "is intentional, regenerate tests/serve/data/metrics.golden.txt "
            "(see that file's header comment) and review the diff"
        )

    def test_every_metric_line_is_well_formed(self):
        counters, gauges, histograms, help_texts = _snapshot()
        text = render_prometheus(
            counters, gauges, histograms, help_texts=help_texts
        )
        lines = parse_metric_lines(text)
        assert len(lines) > 10

    def test_required_serve_names_present(self):
        counters, gauges, histograms, _ = _snapshot()
        text = render_prometheus(counters, gauges, histograms)
        assert "serve_compiled_hits_total 1203" in text
        assert verify_metrics_scrape(text) == []

    def test_sections_sorted_for_stable_diffs(self):
        counters, gauges, histograms, _ = _snapshot()
        text = render_prometheus(counters, gauges, histograms)
        type_lines = [
            line for line in text.splitlines() if line.startswith("# TYPE")
        ]
        counter_metrics = [
            line.split()[2] for line in type_lines
            if line.endswith(" counter")
        ]
        assert counter_metrics == sorted(counter_metrics)

    @pytest.mark.parametrize("value,rendered", [
        (3, "3"), (3.0, "3"), (0.625, "0.625"),
        (float("inf"), "+Inf"), (True, "1"),
    ])
    def test_value_formatting(self, value, rendered):
        assert render_gauge("g", value)[-1] == f"g {rendered}"
