#!/usr/bin/env python3
"""Self-tests of the benchmark's own helpers.

Run from the root of a checkout with ``python3 perfbench/selftest.py``
(or hand the file to pytest). The input-determinism test of the serve
rules needs the program under ``src/``; everything else is
benchmark-only.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from common import (  # noqa: E402
    alive, children, cpu_seconds, derive_seed, peak_rss_mb, tail_percentile,
    terminate_tree,
)
from layers import PER_LAYER  # noqa: E402
from spans import Span, build_tree, reduce_iterations, self_by_layer  # noqa: E402


def test_tail_percentile_needs_ten_samples_beyond() -> None:
    assert tail_percentile([1.0] * 99, 90) is None  # 9.9 beyond
    assert tail_percentile([1.0] * 100, 90) == 1.0  # 10 beyond
    assert tail_percentile(list(range(19)), 50) is None
    assert tail_percentile(list(range(20)), 50) == 9.5
    assert tail_percentile(list(range(1000)), 99) is not None
    assert tail_percentile(list(range(999)), 99) is None


_BUSY_CHILD = """\
import sys, time
block = bytearray(96 * 1024 * 1024)
for i in range(0, len(block), 4096):
    block[i] = 1
t0 = time.process_time()
while time.process_time() - t0 < 0.6:
    pass
print("done", flush=True)
time.sleep(30)
"""


def test_proc_readers_against_busy_child() -> None:
    child = subprocess.Popen([sys.executable, "-c", _BUSY_CHILD],
                             stdout=subprocess.PIPE, text=True)
    try:
        t0 = time.perf_counter()
        assert child.stdout.readline().strip() == "done"
        wall = time.perf_counter() - t0
        assert child.pid in children(os.getpid())
        cpu = cpu_seconds(child.pid)
        assert 0.55 <= cpu <= wall + 0.05, (cpu, wall)
        assert peak_rss_mb(child.pid) >= 96, peak_rss_mb(child.pid)
        assert alive(child.pid)
    finally:
        left = terminate_tree(child, [child.pid], timeout=10)
        child.stdout.close()
    assert left == [] and not alive(child.pid)


def _span(name: str, start: float, end: float) -> Span:
    return Span(name, start, end, "main")


def test_span_self_time_on_synthetic_tree() -> None:
    spans = [
        _span("iter", 0.0, 12.0),
        _span("op", 0.0, 10.0),
        _span("core.fit", 1.0, 4.0),
        _span("ml.model_fit", 2.0, 3.0),
        _span("ml.model_fit", 3.0, 3.5),
        _span("bench.campaign", 5.0, 9.0),
        _span("campaign/x/n=1/ppn=1", 5.5, 6.5),  # program span
        _span("check.quality", 10.0, 12.0),
    ]
    (root,) = build_tree(spans)
    op = root.children[0]
    assert [c.name for c in op.children] == ["core.fit", "bench.campaign"]
    fit = op.children[0]
    assert math.isclose(fit.self_time(), 1.5)
    assert math.isclose(op.self_time(), 3.0)  # 10 - (3 + 4)
    by_layer = self_by_layer(op)
    assert math.isclose(by_layer["core"], 1.5)
    assert math.isclose(by_layer["ml"], 1.5)
    assert math.isclose(by_layer["bench"], 4.0)
    assert math.isclose(by_layer["harness"], 3.0)
    # self times partition the op: nothing counted twice or lost
    assert math.isclose(sum(by_layer.values()), op.duration)
    reduced = reduce_iterations([root])
    assert math.isclose(reduced["unaccounted_frac"], 0.3)
    assert [s["span"] for s in reduced["blocking_steps"]] == [
        "core.fit", "bench.campaign"
    ]


def test_back_to_back_spans_are_siblings() -> None:
    spans = [_span("op", 0.0, 1.0), _span("a", 0.1, 0.5),
             _span("b", 0.5, 0.50001), _span("c", 0.50001, 0.9)]
    (op,) = build_tree(spans)
    assert [c.name for c in op.children] == ["a", "b", "c"]


def test_overlapping_children_are_not_double_counted() -> None:
    parent = _span("op", 0.0, 10.0)
    parent.children = [_span("a", 1.0, 5.0), _span("b", 4.0, 7.0)]
    assert math.isclose(parent.covered(), 6.0)
    assert math.isclose(parent.self_time(), 4.0)


def test_same_seed_same_inputs() -> None:
    import wl_retrain
    import wl_serve
    import wl_tune

    def serve_bytes(seed: int) -> bytes:
        inputs = wl_serve.Inputs(seed)
        return json.dumps([inputs.batch(i) for i in range(4)]).encode()

    assert serve_bytes(7) == serve_bytes(7)
    assert serve_bytes(7) != serve_bytes(8)
    assert [wl_tune.op_seed(3, i) for i in range(5)] == [
        wl_tune.op_seed(3, i) for i in range(5)
    ]
    assert len({wl_tune.op_seed(3, i) for i in range(50)}) == 50
    mix = list(range(81))
    assert wl_retrain.arrival_order(5, mix) == wl_retrain.arrival_order(5, mix)
    assert wl_retrain.arrival_order(5, mix) != wl_retrain.arrival_order(6, mix)
    assert derive_seed("a", 1) == derive_seed("a", 1) != derive_seed("a", 2)


def test_serve_mix_shares_and_fresh_keys() -> None:
    import wl_serve

    inputs = wl_serve.Inputs(0)
    seen: set = set()
    repeat = set(inputs.repeat_pool)
    for op in range(200):
        batch = inputs.batch(op)
        assert len(batch) == wl_serve.BATCH
        uncovered = [k for k in batch if any(
            lo <= k[3] <= hi for lo, hi in wl_serve.UNCOVERED)]
        fresh = [k for k in uncovered if k not in repeat]
        assert len(uncovered) == 128 and len(fresh) >= 63
        sizes = {k[3] for k in fresh}
        assert not sizes & seen, "a fresh size repeated"
        seen |= sizes
    assert math.gcd(wl_serve.STRIDE, inputs.span) == 1


def test_serve_rules_are_seed_determined() -> None:
    src = HERE.parent / "src"
    if not (src / "repro").is_dir():
        print("skip: program not under src/")
        return
    sys.path.insert(0, str(src))
    import tempfile

    import wl_serve

    with tempfile.TemporaryDirectory() as tmp:
        texts = []
        for run in ("a", "b"):
            out = Path(tmp) / run
            out.mkdir()
            texts.append([Path(p).read_bytes()
                          for p in wl_serve.write_rules(11, out)])
    assert texts[0] == texts[1]


def test_catalogue_matches_benchmark_json() -> None:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    listed = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    assert listed == [(m.name, m.unit, m.better) for m in PER_LAYER]
    names = [w["name"] for w in spec["workloads"]]
    for metric in PER_LAYER:
        assert set(metric.workloads) <= set(names), metric.name
        assert set(metric.no_change_on) <= set(names), metric.name


def main() -> int:
    tests = [(name, fn) for name, fn in sorted(globals().items())
             if name.startswith("test_") and callable(fn)]
    failed = 0
    for name, fn in tests:
        try:
            fn()
            print(f"ok    {name}")
        except Exception as exc:  # noqa: BLE001 - report every test
            failed += 1
            print(f"FAIL  {name}: {type(exc).__name__}: {exc}")
    print(f"{len(tests) - failed}/{len(tests)} passed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
