"""Serving-layer throughput: batched/cached recommend vs the cold path.

The serving acceptance bars at batch 64: the batched (one vectorized
selector call) and cached (L1 hit) paths must each deliver at least 5x
the throughput of 64 sequential cold ``AutoTuner.recommend`` calls,
and the compiled decision-table tier must deliver at least 5x the
all-L1-hit cached path on top — while returning bit-identical
recommendations throughout. Each pair of paths is timed best-of-N,
interleaved, in one process. The tests record the speedups as
``serve_batch64_speedup_x``, ``serve_cached_speedup_x`` and
``serve_compiled_speedup_x``; ``scripts/bench_report.py`` collects
them into ``BENCH_<pr>.json`` for the regression gate.
"""

from __future__ import annotations

import pytest

from repro.bench.repro_mpi import BenchmarkSpec
from repro.bench.runner import GridSpec
from repro.core.tuner import AutoTuner
from repro.machine.zoo import tiny_testbed
from repro.mpilib import get_library
from repro.serve import ModelRegistry, PredictionService

#: 4 node counts x 2 ppn x 8 message sizes = the batch of 64
QUERIES = [
    (n, p, m)
    for n in (2, 4, 6, 8)
    for p in (1, 2)
    for m in (0, 64, 512, 4096, 32768, 262144, 1 << 20, 4 << 20)
]
INSTANCES = [("bcast", n, p, m) for n, p, m in QUERIES]


@pytest.fixture(scope="module")
def tuned():
    tuner = AutoTuner(
        tiny_testbed, get_library("Open MPI"), "bcast",
        learner="KNN", bench_spec=BenchmarkSpec(max_nreps=5), seed=7,
    )
    tuner.benchmark(
        GridSpec(nodes=(2, 4, 8), ppns=(1, 2), msizes=(64, 4096, 262144))
    )
    tuner.train()
    return tuner


@pytest.fixture(scope="module")
def registry(tuned):
    registry = ModelRegistry(tiny_testbed, tuned.library)
    registry.publish(tuned.servable(), tag="bench")
    return registry


@pytest.fixture(scope="module")
def rules_registry(tuned, tmp_path_factory):
    """A rules-backed registry: full msize coverage for the L0 tier.

    The selector grid only covers 18 of the 64 bench queries exactly;
    the tuner's exported rules table covers every message size, which
    is the deployment shape the compiled tier is built for.
    """
    path = tmp_path_factory.mktemp("bench-rules") / "bcast.conf"
    tuned.write_rules(str(path), nodes=8, ppn=2)
    registry = ModelRegistry(tiny_testbed, tuned.library)
    registry.load_rules(path)
    return registry


def test_batch64_meets_5x_bar_and_is_bit_identical(tuned, registry,
                                                   best_ratio,
                                                   record_property):
    expected = [tuned.recommend(n, p, m) for n, p, m in QUERIES]

    # bit-identity: batching and caching never change an answer
    service = PredictionService(registry)
    first = service.recommend_many(INSTANCES)
    assert [rec.config for rec in first] == expected
    again = service.recommend_many(INSTANCES)
    assert [rec.config for rec in again] == expected
    assert all(rec.cached for rec in again)

    def cold():
        for n, p, m in QUERIES:
            tuned.recommend(n, p, m)

    batch_x = best_ratio(
        cold, lambda: PredictionService(registry).recommend_many(INSTANCES),
        rounds=15,
    )
    warm = PredictionService(registry)
    warm.recommend_many(INSTANCES)
    cached_x = best_ratio(
        cold, lambda: warm.recommend_many(INSTANCES), rounds=15
    )
    record_property("serve_batch64_speedup_x", batch_x)
    record_property("serve_cached_speedup_x", cached_x)
    print(
        f"\nserve batch=64 over cold: batched {batch_x:.1f}x, "
        f"cached {cached_x:.1f}x"
    )
    assert batch_x >= 5.0, f"batched path only {batch_x:.1f}x over cold"
    assert cached_x >= 5.0, f"cached path only {cached_x:.1f}x over cold"


def test_compiled_batch64_meets_5x_bar_over_cached(tuned, registry,
                                                   rules_registry,
                                                   best_ratio,
                                                   record_property):
    """The L0 tier beats even the all-L1-hit path by >= 5x at batch 64.

    The 5x acceptance bar holds for the C-kernel build (what the gate's
    ``serve_compiled_speedup_x`` measures); the numpy twin under
    ``REPRO_NO_CKERNEL=1`` typically lands ~5x too but is only held to
    3x here — its job is bit-identical coverage, not the record.
    """
    from repro.ml import _ckernel

    bar = 5.0 if _ckernel.available() else 3.0
    rules_model = rules_registry.get("bcast").model
    import numpy as np

    expected = rules_model.select_configs(
        None, None, np.asarray([m for _, _, m in QUERIES], dtype=np.int64)
    )

    compiled = PredictionService(rules_registry, compiled=True)
    first = compiled.recommend_many(INSTANCES)
    # full coverage and bit-identity to the interpreted bracket
    assert all(rec.compiled for rec in first)
    assert [rec.config for rec in first] == expected

    warm = PredictionService(registry)
    warm.recommend_many(INSTANCES)
    compiled_x = best_ratio(
        lambda: warm.recommend_many(INSTANCES),
        lambda: compiled.recommend_many(INSTANCES),
        rounds=200,
    )
    record_property("serve_compiled_speedup_x", compiled_x)
    print(f"\nserve batch=64: compiled {compiled_x:.1f}x over cached")
    assert compiled_x >= bar, (
        f"compiled path only {compiled_x:.1f}x over cached (bar {bar}x)"
    )


def test_serve_batched_recommend_64(benchmark, registry):
    recs = benchmark(
        lambda: PredictionService(registry).recommend_many(INSTANCES)
    )
    assert len(recs) == 64 and all(r.source == "model" for r in recs)


def test_serve_cached_recommend_64(benchmark, registry):
    warm = PredictionService(registry)
    warm.recommend_many(INSTANCES)
    recs = benchmark(warm.recommend_many, INSTANCES)
    assert all(rec.cached for rec in recs)


def test_serve_compiled_recommend_64(benchmark, rules_registry):
    service = PredictionService(rules_registry, compiled=True)
    service.recommend_many(INSTANCES)  # builds the table once
    recs = benchmark(service.recommend_many, INSTANCES)
    assert all(rec.compiled for rec in recs)
