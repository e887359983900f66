"""Observability layer: spans, counters, structured events, sinks.

The substrate every long-running stage of the pipeline emits into —
benchmark campaigns (:mod:`repro.bench.runner`), model training
(:mod:`repro.core.selector`), and selection serving
(:mod:`repro.core.tuner`, :mod:`repro.serve`). See
``docs/observability.md`` for the event schema and span naming
conventions.

Typical wiring (what the CLI does for ``--telemetry run.jsonl``)::

    from repro.obs import FileSink, get_telemetry

    telemetry = get_telemetry()
    telemetry.add_sink(FileSink("run.jsonl"))
    ...  # run the pipeline
    telemetry.flush()  # counters -> events
"""

from repro.obs.drift import DriftDetector, ResidualStats
from repro.obs.events import TelemetryEvent
from repro.obs.gate import (
    GATE_METRICS,
    GateResult,
    compare_metrics,
    compare_reports,
    gate_verdict,
)
from repro.obs.report import (
    SpanStats,
    TelemetrySummary,
    load_events,
    render_summary,
    report_telemetry,
    summarize,
)
from repro.obs.sinks import FileSink, MemorySink, NullSink, Sink, StderrSink
from repro.obs.telemetry import (
    DEFAULT_BUCKETS_US,
    Histogram,
    HistogramSnapshot,
    Span,
    Telemetry,
    get_telemetry,
)

__all__ = [
    "TelemetryEvent",
    "Telemetry",
    "Span",
    "Histogram",
    "HistogramSnapshot",
    "DEFAULT_BUCKETS_US",
    "get_telemetry",
    "Sink",
    "MemorySink",
    "FileSink",
    "StderrSink",
    "NullSink",
    "SpanStats",
    "TelemetrySummary",
    "load_events",
    "summarize",
    "render_summary",
    "report_telemetry",
    "GATE_METRICS",
    "GateResult",
    "compare_metrics",
    "compare_reports",
    "gate_verdict",
    "DriftDetector",
    "ResidualStats",
]
