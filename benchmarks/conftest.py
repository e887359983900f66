"""Benchmark-suite plumbing.

Each benchmark regenerates one paper exhibit (at CI scale by default;
set ``REPRO_SCALE=paper`` for the full grids), prints it, and writes the
rendered text under ``results/exhibits/`` so EXPERIMENTS.md can link to
concrete outputs. Datasets are shared through the on-disk cache.

The speedup benchmarks time a reference path against the fast path in
one process (:func:`_best_ratio`), assert parity and a floor bar, and
record the ratio with ``record_property``; ``scripts/bench_report.py``
collects those ratios for the CI regression gate.
"""

from __future__ import annotations

import os
import sys
import time
from pathlib import Path

import pytest

os.environ.setdefault("REPRO_CACHE_DIR", "results/datasets")
# reference implementations shared with the tier-1 suite live under tests/
ROOT = str(Path(__file__).resolve().parent.parent)
if ROOT not in sys.path:
    sys.path.insert(0, ROOT)

from repro.experiments.datasets import Scale  # noqa: E402


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "slow: long-running benchmarks"
    )


@pytest.fixture(scope="session")
def scale() -> Scale:
    return Scale(os.environ.get("REPRO_SCALE", "ci"))


@pytest.fixture(scope="session")
def exhibit_dir() -> Path:
    path = Path("results/exhibits")
    path.mkdir(parents=True, exist_ok=True)
    return path


@pytest.fixture
def record_exhibit(exhibit_dir):
    """Print a regenerated exhibit and persist its rendering."""

    def _record(name: str, exhibit) -> None:
        text = exhibit.render()
        print(f"\n{text}\n")
        (exhibit_dir / f"{name}.txt").write_text(text + "\n")

    return _record


def _timed(fn, number: int = 1) -> float:
    """Mean wall time of ``number`` back-to-back calls of ``fn``."""
    t0 = time.perf_counter()
    for _ in range(number):
        fn()
    return (time.perf_counter() - t0) / number


def _best_ratio(slow, fast, rounds: int) -> float:
    """Best ``slow`` time over best ``fast`` time, measured in one process.

    Each round times one ``slow`` call, then a block of ``fast`` calls
    sized (from one warm-up call of each) to span about as long. The
    two sides alternate, so a change in machine load hits both alike,
    and they span equal times, so a short lull cannot favour the
    shorter call: the ratio tracks the code, not the runner.
    """
    number = max(1, round(_timed(slow) / _timed(fast)))
    best_slow = best_fast = float("inf")
    for _ in range(rounds):
        best_slow = min(best_slow, _timed(slow))
        best_fast = min(best_fast, _timed(fast, number))
    return best_slow / best_fast


@pytest.fixture
def best_ratio():
    """``best_ratio(slow, fast, rounds)``: interleaved best-of speedup."""
    return _best_ratio
