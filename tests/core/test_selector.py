"""Per-configuration regression selection (the contribution)."""

import numpy as np
import pytest

from repro.collectives.base import AlgorithmConfig, CollectiveKind
from repro.core.dataset import PerfDataset
from repro.core.selector import AlgorithmSelector
from repro.ml import GAMRegressor, KNNRegressor


def crossover_dataset() -> PerfDataset:
    """Two synthetic algorithms with a known crossover in msize.

    * config 0 'latency' costs 10us + m * 1ns  (wins for small m)
    * config 1 'bandwidth' costs 50us + m * 0.1ns (wins for large m)

    Crossover at m ~ 44.4 KB.
    """
    configs = (
        AlgorithmConfig.make("bcast", 1, "latency"),
        AlgorithmConfig.make("bcast", 2, "bandwidth"),
    )
    nodes_grid = [2, 4, 8, 16]
    msizes = [2**k for k in range(0, 23, 2)]
    rows = {k: [] for k in ("cid", "n", "ppn", "m", "t")}
    for n in nodes_grid:
        for m in msizes:
            rows["cid"] += [0, 1]
            rows["n"] += [n, n]
            rows["ppn"] += [1, 1]
            rows["m"] += [m, m]
            rows["t"] += [10e-6 + m * 1e-9, 50e-6 + m * 0.1e-9]
    return PerfDataset(
        name="crossover",
        collective=CollectiveKind.BCAST,
        library="synthetic",
        machine="synthetic",
        configs=configs,
        config_id=np.array(rows["cid"]),
        nodes=np.array(rows["n"]),
        ppn=np.array(rows["ppn"]),
        msize=np.array(rows["m"]),
        time=np.array(rows["t"]),
    )


class TestFitting:
    def test_unfitted_raises(self):
        sel = AlgorithmSelector(lambda: KNNRegressor())
        with pytest.raises(RuntimeError):
            sel.select(2, 1, 64)

    def test_models_per_config(self):
        sel = AlgorithmSelector(lambda: KNNRegressor()).fit(crossover_dataset())
        assert sel.num_models == 2

    def test_min_samples_leaves_config_unmodelled(self):
        ds = crossover_dataset()
        # Starve config 1 of samples.
        keep = (ds.config_id == 0) | (np.arange(len(ds)) < 4)
        sel = AlgorithmSelector(lambda: KNNRegressor(), min_samples=8)
        sel.fit(ds.subset(keep))
        assert 1 not in sel.models_
        times = sel.predict_times(4, 1, 10**6)
        assert np.isinf(times[0, 1])

    def test_all_starved_raises(self):
        ds = crossover_dataset()
        tiny = ds.subset(np.arange(len(ds)) < 4)
        with pytest.raises(ValueError, match="enough samples"):
            AlgorithmSelector(lambda: KNNRegressor(), min_samples=50).fit(tiny)


class TestSelection:
    @pytest.mark.parametrize(
        "learner", [lambda: KNNRegressor(), lambda: GAMRegressor()]
    )
    def test_crossover_learned(self, learner):
        sel = AlgorithmSelector(learner).fit(crossover_dataset())
        # Far below / above the 44 KB crossover, on unseen node counts.
        assert sel.select(6, 1, 64).name == "latency"
        assert sel.select(6, 1, 4 << 20).name == "bandwidth"

    def test_select_ids_vectorised(self):
        sel = AlgorithmSelector(lambda: KNNRegressor()).fit(crossover_dataset())
        ids = sel.select_ids([4, 4], [1, 1], [64, 4 << 20])
        assert ids.tolist() == [0, 1]

    def test_ranked_sorted(self):
        sel = AlgorithmSelector(lambda: KNNRegressor()).fit(crossover_dataset())
        ranked = sel.ranked(4, 1, 64)
        assert len(ranked) == 2
        assert ranked[0][1] <= ranked[1][1]
        assert ranked[0][0].name == "latency"

    def test_predicted_times_close_to_truth(self):
        sel = AlgorithmSelector(lambda: GAMRegressor()).fit(crossover_dataset())
        times = sel.predict_times(8, 1, 1 << 14)[0]
        truth = [10e-6 + (1 << 14) * 1e-9, 50e-6 + (1 << 14) * 0.1e-9]
        np.testing.assert_allclose(times, truth, rtol=0.3)


class TestParallelFit:
    """fit(n_jobs=N) must reproduce the serial models bit-for-bit."""

    @pytest.mark.parametrize("n_jobs", [2, 4])
    def test_predict_times_identical(self, n_jobs):
        from repro.ml.boosting import GradientBoostingRegressor

        ds = crossover_dataset()
        factory = lambda: GradientBoostingRegressor(n_rounds=20, rng=9)
        serial = AlgorithmSelector(factory).fit(ds, n_jobs=1)
        parallel = AlgorithmSelector(factory).fit(ds, n_jobs=n_jobs)
        grid_m = np.array([2**k for k in range(0, 23)])
        t_serial = serial.predict_times(8, 1, grid_m)
        t_parallel = parallel.predict_times(8, 1, grid_m)
        np.testing.assert_array_equal(t_serial, t_parallel)

    def test_xgboost_threads_bit_identical(self):
        """Native tree growers running on 4 threads at once (ctypes
        drops the GIL) build exactly the serial trees."""
        from repro.ml.boosting import GradientBoostingRegressor

        rng = np.random.default_rng(21)
        base = crossover_dataset()
        k = 8
        configs = tuple(
            AlgorithmConfig.make("bcast", i + 1, f"algo{i}") for i in range(k)
        )
        reps = len(base.time)
        ds = PerfDataset(
            name="eight", collective=base.collective, library="synthetic",
            machine="synthetic", configs=configs,
            config_id=np.repeat(np.arange(k), reps),
            nodes=np.tile(base.nodes, k), ppn=np.tile(base.ppn, k),
            msize=np.tile(base.msize, k),
            time=np.tile(base.time, k) * np.exp(rng.normal(0, 0.3, k * reps)),
        )
        factory = lambda: GradientBoostingRegressor(rng=9)  # paper: 200 rounds
        serial = AlgorithmSelector(factory).fit(ds, n_jobs=1)
        threaded = AlgorithmSelector(factory).fit(ds, n_jobs=4)
        assert sorted(threaded.models_) == list(range(k))
        for cid in range(k):
            a, b = serial.models_[cid].flat, threaded.models_[cid].flat
            for name in ("feature", "threshold", "left", "right", "value"):
                assert getattr(a, name).tobytes() == getattr(b, name).tobytes()
        grid_m = np.array([2**j for j in range(0, 23)])
        np.testing.assert_array_equal(
            serial.predict_times(8, 1, grid_m), threaded.predict_times(8, 1, grid_m)
        )

    def test_env_knob(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "4")
        sel = AlgorithmSelector(lambda: KNNRegressor()).fit(crossover_dataset())
        assert sel.num_models == 2

    def test_model_ids_stable(self):
        ds = crossover_dataset()
        sel = AlgorithmSelector(lambda: KNNRegressor()).fit(ds, n_jobs=4)
        assert sorted(sel.models_) == [0, 1]
