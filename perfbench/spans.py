"""Span tracing from the benchmark's side, and its reduction.

A traced run installs thin wrappers around public functions of
``repro.bench``/``repro.core``/``repro.ml``/``repro.serve``/``repro.obs``
(see :data:`TARGETS`) and attaches a ``repro.obs.MemorySink`` to collect
the spans the program already emits (campaign chunks, selector fit,
``retrain/*``, service batches). Spans stay in memory; at the end they
are folded into one tree per thread by time containment and reduced to
per-layer self time: a span's duration minus the part of it that its
child spans cover.

The untraced run uses :class:`NullTracer`, which records nothing.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import threading
import time
from dataclasses import dataclass, field
from typing import Iterator

from common import median

#: (module, class or None, attribute, span name); the span name's prefix
#: before the first dot is the layer it is charged to
TARGETS: tuple[tuple[str, str | None, str, str], ...] = (
    ("repro.core.tuner", "AutoTuner", "benchmark", "bench.campaign"),
    ("repro.core.tuner", "AutoTuner", "train", "core.fit"),
    ("repro.core.tuner", "AutoTuner", "write_rules", "core.rules"),
    ("repro.core.selector", "AlgorithmSelector", "fit", "core.selector_fit"),
    ("repro.ml.boosting", "GradientBoostingRegressor", "fit", "ml.model_fit"),
    ("repro.ml.gam", "GAMRegressor", "fit", "ml.model_fit"),
    ("repro.serve.service", "PredictionService", "recommend",
     "serve.recommend"),
    ("repro.serve.service", "PredictionService", "recommend_many",
     "serve.recommend_many"),
    ("repro.serve.registry", "ModelRegistry", "publish", "serve.publish"),
    ("repro.core.feedback", None, "read_feedback", "core.feedback_read"),
    ("repro.core.retrain", "Retrainer", "__init__", "core.retrainer_init"),
    ("repro.core.retrain", "Retrainer", "scan", "obs.drift_scan"),
    ("repro.core.retrain", "Retrainer", "retrain", "core.retrain"),
)

LAYERS = ("bench", "ml", "core", "serve", "obs")

#: containment slack between the benchmark clock and program span
#: timestamps (the program stamps a span's end with the wall clock)
EPS_S = 50e-6


@dataclass
class Span:
    name: str
    start: float
    end: float
    thread: str
    children: list["Span"] = field(default_factory=list)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def covered(self) -> float:
        """Length of this span's interval covered by its children."""
        covered = 0.0
        cursor = self.start
        for child in sorted(self.children, key=lambda c: c.start):
            lo = max(child.start, cursor)
            hi = min(child.end, self.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        return covered

    def self_time(self) -> float:
        return max(0.0, self.duration - self.covered())

    def walk(self) -> Iterator["Span"]:
        yield self
        for child in self.children:
            yield from child.walk()


def layer_of(name: str) -> str:
    """The layer a span is charged to.

    Benchmark wrapper spans carry it as their dotted prefix; program
    spans are mapped by the name the program gives them.
    """
    head = name.split("/")[0]
    if "." in head:
        prefix = head.split(".")[0]
        return prefix if prefix in LAYERS else "harness"
    if "/cid=" in name or "selector/predict" in name:
        return "ml"
    if name.startswith("campaign"):
        return "bench"
    if name.startswith(("selector/", "retrain/", "surface/")):
        return "core"
    if name.startswith("serve/"):
        return "serve"
    return "harness"  # iter/op/check spans: the benchmark itself


def build_tree(spans: list[Span]) -> list[Span]:
    """Nest spans by time containment, per thread; returns the roots."""
    roots: list[Span] = []
    by_thread: dict[str, list[Span]] = {}
    for span in spans:
        span.children = []
        by_thread.setdefault(span.thread, []).append(span)
    for group in by_thread.values():
        stack: list[Span] = []
        for span in sorted(group, key=lambda s: (s.start, -s.duration)):
            # a span that starts once its predecessor has ended is a
            # sibling, however close: the slack only absorbs clock skew
            # at the edges of a real parent
            while stack and not (
                stack[-1].start - EPS_S <= span.start < stack[-1].end
                and span.end <= stack[-1].end + EPS_S
            ):
                stack.pop()
            (stack[-1].children if stack else roots).append(span)
            stack.append(span)
    return roots


class NullTracer:
    """The untraced run: every hook is free and records nothing."""

    enabled = False

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        yield

    def install(self) -> None:
        pass

    def uninstall(self) -> None:
        pass


class Tracer(NullTracer):
    """Records benchmark and program spans in memory."""

    enabled = True

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._patches: list[tuple[object, str, object]] = []
        self._sink = None
        self._clock_offset = 0.0
        self.program_spans = 0

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        start = time.perf_counter()
        try:
            yield
        finally:
            self.spans.append(Span(name, start, time.perf_counter(),
                                   threading.current_thread().name))

    def _wrap(self, func, name: str):
        tracer = self

        @functools.wraps(func)
        def traced(*args, **kwargs):
            start = time.perf_counter()
            try:
                return func(*args, **kwargs)
            finally:
                tracer.spans.append(Span(
                    name, start, time.perf_counter(),
                    threading.current_thread().name,
                ))

        return traced

    def install(self) -> None:
        from repro.obs import MemorySink, get_telemetry

        for module_name, cls_name, attr, name in TARGETS:
            module = importlib.import_module(module_name)
            owner = getattr(module, cls_name) if cls_name else module
            original = owner.__dict__[attr] if cls_name else getattr(owner, attr)
            self._patches.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name))
        self._sink = get_telemetry().add_sink(MemorySink())
        # the program stamps span events with time.time() at their end
        self._clock_offset = time.time() - time.perf_counter()

    def uninstall(self) -> None:
        from repro.obs import get_telemetry

        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        if self._sink is not None:
            get_telemetry().remove_sink(self._sink)
            for event in self._sink.of_kind("span"):
                end = event.ts - self._clock_offset
                self.spans.append(Span(
                    event.name, end - float(event.fields["wall_s"]), end,
                    event.thread,
                ))
            self.program_spans = len(self._sink.of_kind("span"))
            self._sink = None

    # -- reduction ----------------------------------------------------
    def iterations(self) -> list[Span]:
        """One tree per closed-loop iteration (the ``iter`` spans)."""
        roots = build_tree(self.spans)
        return [s for root in roots for s in root.walk() if s.name == "iter"]


def per_iter(iters: list[Span], name: str) -> list[float]:
    """Summed duration (s) of spans called ``name`` in each iteration."""
    return [
        sum(s.duration for s in it.walk() if s.name == name) for it in iters
    ]


def count_per_iter(iters: list[Span], name: str) -> list[int]:
    return [sum(1 for s in it.walk() if s.name == name) for it in iters]


def self_by_layer(span: Span) -> dict[str, float]:
    """Self time (s) per layer over ``span``'s subtree."""
    out = {layer: 0.0 for layer in (*LAYERS, "harness")}
    for node in span.walk():
        layer = layer_of(node.name)
        out[layer] = out.get(layer, 0.0) + node.self_time()
    return out


def reduce_iterations(iters: list[Span]) -> dict:
    """Per-layer self time, unaccounted share and the blocking steps.

    Computed over each iteration's ``op`` span, the timed part; the
    correctness checks that follow it are left out. The blocking steps
    of an op are the direct children of its ``op`` span, in order: the
    layer calls the op waited on. Time inside the ``op`` span that no
    child covers is *unaccounted*: benchmark glue, or program work
    outside every traced call.
    """
    ops = [s for it in iters for s in it.children if s.name == "op"]
    if not ops:
        return {"iterations": len(iters)}
    layers = [self_by_layer(op) for op in ops]
    order: list[str] = []
    for op in ops:
        for child in sorted(op.children, key=lambda c: c.start):
            if child.name not in order:
                order.append(child.name)
    op_ms = median([op.duration * 1e3 for op in ops])
    steps = []
    for name in order:
        ms = median([
            sum(c.duration for c in op.children if c.name == name) * 1e3
            for op in ops
        ])
        steps.append({"span": name, "layer": layer_of(name),
                      "ms_per_op": ms, "share_of_op": ms / op_ms})
    return {
        "iterations": len(iters),
        "op_p50_ms": op_ms,
        "self_ms_per_op": {
            layer: median([by[layer] * 1e3 for by in layers])
            for layer in (*LAYERS, "harness")
        },
        "unaccounted_frac": median(
            [op.self_time() / op.duration for op in ops]
        ),
        "blocking_steps": steps,
    }


def span_cost_s(n: int = 20000) -> tuple[float, float]:
    """Measured cost of one wrapped call and of one sink emission.

    The traced run multiplies these by the spans it recorded per op to
    estimate the time tracing added (``trace.overhead_frac``).
    """
    from repro.obs import MemorySink
    from repro.obs.events import TelemetryEvent

    tracer = Tracer()
    noop = tracer._wrap(lambda: None, "calibrate")
    plain = lambda: None  # noqa: E731
    t0 = time.perf_counter()
    for _ in range(n):
        plain()
    base = time.perf_counter() - t0
    t0 = time.perf_counter()
    for _ in range(n):
        noop()
    wrapped = (time.perf_counter() - t0 - base) / n
    sink = MemorySink()
    event = TelemetryEvent(kind="span", name="calibrate", fields={"wall_s": 0})
    t0 = time.perf_counter()
    for _ in range(n):
        sink.emit(event)
    emitted = (time.perf_counter() - t0) / n
    return max(wrapped, 0.0), emitted
