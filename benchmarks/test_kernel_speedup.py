"""Native kernel speedups: flat-ensemble inference and tree growing.

The compiled flat-ensemble descent must beat the recursive reference
by >= 10x on a realistic workload: a 200-round depth-6 booster (the
paper's XGBoost configuration) predicting a 10k-row batch. The native
exact-greedy grower must fit that booster >= 5x faster than the numpy
``GradTree._build`` it replaces. Each pair of paths is timed best-of-N
in the same process, so the ratios are robust to machine-to-machine
variance; bit-parity between them is asserted by the tier-1 suite
(tests/ml/test_kernels.py, tests/ml/test_tree_grow_parity.py) and
re-checked here before any timing.
"""

import time
from unittest import mock

import numpy as np
import pytest

from repro.ml import _ckernel
from repro.ml import tree as tree_mod
from repro.ml.boosting import GradientBoostingRegressor
from repro.ml.forest import RandomForestRegressor

N_TRAIN = 2000
N_QUERY = 10_000
N_FEATURES = 4  # the instance-feature width used throughout the repo


@pytest.fixture(scope="module")
def booster_and_batch():
    rng = np.random.default_rng(42)
    X = rng.random((N_TRAIN, N_FEATURES))
    y = np.exp(rng.normal(size=N_TRAIN)) * 1e-4
    model = GradientBoostingRegressor(n_rounds=200, max_depth=6, rng=0)
    model.fit(X, y)
    Xq = rng.random((N_QUERY, N_FEATURES))
    return model, Xq


def _best_of(fn, rounds: int) -> float:
    best = np.inf
    for _ in range(rounds):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def test_booster_flat_kernel_10x(booster_and_batch):
    model, Xq = booster_and_batch
    # Parity first: a fast-but-wrong kernel must never pass this bench.
    assert np.array_equal(model.predict(Xq), model.predict_recursive(Xq))
    t_fast = _best_of(lambda: model.predict(Xq), rounds=7)
    t_ref = _best_of(lambda: model.predict_recursive(Xq), rounds=3)
    speedup = t_ref / t_fast
    print(
        f"\nflat {t_fast * 1e3:.2f} ms  recursive {t_ref * 1e3:.2f} ms"
        f"  speedup {speedup:.1f}x"
    )
    assert speedup >= 10.0, (
        f"flat kernel only {speedup:.1f}x faster than the recursive path "
        f"({t_fast * 1e3:.2f} ms vs {t_ref * 1e3:.2f} ms)"
    )


@pytest.mark.skipif(not _ckernel.available(), reason="native kernel unavailable")
def test_booster_fit_native_grower_5x():
    rng = np.random.default_rng(42)
    X = rng.random((N_TRAIN, N_FEATURES))
    y = np.exp(rng.normal(size=N_TRAIN)) * 1e-4

    def fit():
        return GradientBoostingRegressor(n_rounds=200, max_depth=6, rng=0).fit(X, y)

    numpy_grower = mock.patch.object(
        tree_mod, "_grows_natively", return_value=False
    )
    # Parity first: the native trees must be the numpy oracle's, bit for bit.
    native = fit()
    with numpy_grower:
        oracle = fit()
    for name in ("feature", "threshold", "left", "right", "value", "roots"):
        assert (
            getattr(native.flat, name).tobytes()
            == getattr(oracle.flat, name).tobytes()
        ), name
    t_fast = _best_of(fit, rounds=3)
    with numpy_grower:
        t_ref = _best_of(fit, rounds=1)
    speedup = t_ref / t_fast
    print(
        f"\nnative fit {t_fast:.3f} s  numpy fit {t_ref:.3f} s"
        f"  speedup {speedup:.1f}x"
    )
    assert speedup >= 5.0, (
        f"native grower only {speedup:.1f}x faster than the numpy oracle "
        f"({t_fast:.3f} s vs {t_ref:.3f} s)"
    )


def test_booster_predict_latency(benchmark, booster_and_batch):
    model, Xq = booster_and_batch
    out = benchmark(model.predict, Xq)
    assert out.shape == (N_QUERY,)
    # 10k rows x 200 trees in well under a tenth of a second.
    assert benchmark.stats["mean"] < 0.1


def test_forest_flat_kernel_faster(benchmark):
    rng = np.random.default_rng(3)
    X = rng.random((1500, N_FEATURES))
    y = np.exp(rng.normal(size=1500))
    model = RandomForestRegressor(n_trees=64, max_depth=10, rng=1).fit(X, y)
    Xq = rng.random((5000, N_FEATURES))
    assert np.array_equal(model.predict(Xq), model.predict_recursive(Xq))
    out = benchmark(model.predict, Xq)
    assert out.shape == (5000,)
    t_ref = _best_of(lambda: model.predict_recursive(Xq), rounds=3)
    assert benchmark.stats["min"] < t_ref, "flat forest slower than oracle"
