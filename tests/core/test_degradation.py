"""Graceful degradation: fit quarantine, inf fallbacks, rules validation."""

import json

import numpy as np
import pytest

from repro.bench.repro_mpi import BenchmarkSpec
from repro.bench.runner import GridSpec
from repro.collectives.base import AlgorithmConfig, CollectiveKind
from repro.core.config_gen import (
    RulesValidationError,
    parse_ompi_rules,
    render_json,
    render_ompi_rules,
    selection_table,
    validate_rules,
)
from repro.core.dataset import CorruptDatasetError, PerfDataset
from repro.core.selector import AlgorithmSelector, NoModelError
from repro.core.tuner import AutoTuner
from repro.machine.zoo import tiny_testbed
from repro.ml import KNNRegressor
from repro.ml.base import Regressor
from repro.mpilib import get_library
from repro.obs import get_telemetry

from .test_selector import crossover_dataset


class ExplodingRegressor(Regressor):
    """fit() always raises — a deliberately broken learner."""

    def fit(self, X, y):
        raise RuntimeError("numerical meltdown")

    def predict(self, X):  # pragma: no cover - never fitted
        raise AssertionError("predict on an unfitted exploding regressor")


class NaNRegressor(Regressor):
    """Fits fine, predicts NaN everywhere — a model gone bad quietly."""

    def fit(self, X, y):
        self._fitted = True
        return self

    def predict(self, X):
        self._check_fitted()
        return np.full(len(np.atleast_2d(X)), np.nan)


def one_bad_factory(bad_calls: set[int]):
    """Factory whose Nth call (0-based) yields an exploding regressor.

    Model creation is serial and in configuration order (documented in
    AlgorithmSelector.fit), so call index == eligible-config index.
    """
    calls = {"n": 0}

    def factory():
        i = calls["n"]
        calls["n"] += 1
        return ExplodingRegressor() if i in bad_calls else KNNRegressor()

    return factory


class TestSelectorQuarantine:
    def test_one_failing_config_trains_the_rest(self):
        ds = crossover_dataset()
        telemetry = get_telemetry()
        before = telemetry.counters_snapshot().get("selector.fit_failures", 0)
        with telemetry.capture() as sink:
            sel = AlgorithmSelector(one_bad_factory({1})).fit(ds)
        assert sel.quarantined_ == {1}
        assert sorted(sel.models_) == [0]
        after = telemetry.counters_snapshot().get("selector.fit_failures", 0)
        assert after - before == 1
        events = [e for e in sink.events if e.name == "selector_fit_failure"]
        assert len(events) == 1
        assert events[0].fields["cid"] == 1
        assert "meltdown" in events[0].fields["error"]
        # the quarantined config can never win
        times = sel.predict_times(4, 1, 64)
        assert np.isinf(times[0, 1]) and np.isfinite(times[0, 0])
        assert sel.select(4, 1, 64).name == "latency"

    def test_all_failing_raises_with_quarantine_count(self):
        with pytest.raises(ValueError, match="failed to fit"):
            AlgorithmSelector(lambda: ExplodingRegressor()).fit(
                crossover_dataset()
            )

    @pytest.mark.parametrize("n_jobs", [1, 4])
    def test_quarantine_deterministic_across_jobs(self, n_jobs):
        sel = AlgorithmSelector(one_bad_factory({0})).fit(
            crossover_dataset(), n_jobs=n_jobs
        )
        assert sel.quarantined_ == {0}
        assert sorted(sel.models_) == [1]


class TestNaNPredictions:
    def test_sanitized_to_inf_with_counter(self):
        telemetry = get_telemetry()
        sel = AlgorithmSelector(lambda: NaNRegressor()).fit(crossover_dataset())
        before = telemetry.counters_snapshot().get(
            "selector.predictions_sanitized", 0
        )
        times = sel.predict_times([4, 8], [1, 1], [64, 128])
        assert np.isinf(times).all()  # NaN never reaches the argmin
        after = telemetry.counters_snapshot().get(
            "selector.predictions_sanitized", 0
        )
        assert after - before == times.size

    def test_select_ids_sentinel_and_scalar_error(self):
        sel = AlgorithmSelector(lambda: NaNRegressor()).fit(crossover_dataset())
        assert sel.select_ids([4, 8], [1, 1], [64, 128]).tolist() == [-1, -1]
        with pytest.raises(NoModelError):
            sel.select(4, 1, 64)
        assert sel.ranked(4, 1, 64) == []


class TestSelectionTableFallback:
    def test_fallback_fills_uncovered_rows(self):
        sel = AlgorithmSelector(lambda: NaNRegressor()).fit(crossover_dataset())
        default = AlgorithmConfig.make("bcast", 99, "default")
        table = selection_table(
            sel, 4, 1, (64, 1024), fallback=lambda m: default
        )
        assert [m for m, _ in table] == [64, 1024]
        assert all(cfg is default for _, cfg in table)

    def test_no_fallback_raises(self):
        sel = AlgorithmSelector(lambda: NaNRegressor()).fit(crossover_dataset())
        with pytest.raises(NoModelError, match="no fallback"):
            selection_table(sel, 4, 1, (64,))


def make_tuner(learner) -> AutoTuner:
    return AutoTuner(
        machine=tiny_testbed,
        library=get_library("Open MPI"),
        collective="bcast",
        learner=learner,
        bench_spec=BenchmarkSpec(max_nreps=5),
        seed=0,
    )


TINY_GRID = GridSpec((2, 4), (1, 2), (1, 1024))


class TestTunerFallback:
    def test_recommend_falls_back_to_library_default(self):
        tuner = make_tuner(lambda: NaNRegressor())
        tuner.benchmark(TINY_GRID, name="fb")
        tuner.train()
        telemetry = get_telemetry()
        before = telemetry.counters_snapshot().get("tuner.fallback_default", 0)
        with telemetry.capture() as sink:
            config = tuner.recommend(4, 2, 1024)
        assert config == tuner.default_config(4, 2, 1024)
        after = telemetry.counters_snapshot().get("tuner.fallback_default", 0)
        assert after - before == 1
        events = [e for e in sink.events if e.name == "tuner_fallback"]
        assert events and events[0].fields["source"] == "recommend"

    def test_healthy_tuner_never_falls_back(self):
        tuner = make_tuner("KNN")
        tuner.benchmark(TINY_GRID, name="ok")
        tuner.train()
        with get_telemetry().capture() as sink:
            tuner.recommend(4, 2, 1024)
        assert not [e for e in sink.events if e.name == "tuner_fallback"]


class TestWriteRules:
    @pytest.mark.parametrize("fmt", ["ompi", "json"])
    def test_degraded_tuner_still_emits_complete_valid_file(
        self, fmt, tmp_path
    ):
        """Every model NaN -> every row from the library default, file
        still parses back clean. The ISSUE's acceptance scenario."""
        tuner = make_tuner(lambda: NaNRegressor())
        tuner.benchmark(TINY_GRID, name="wr")
        tuner.train()
        path = tmp_path / f"rules.{fmt}"
        msizes = (0, 1024, 65536)
        text = tuner.write_rules(str(path), 4, 2, msizes=msizes, fmt=fmt)
        assert path.read_text() == text
        validate_rules(text, fmt, "bcast")  # idempotent round trip
        if fmt == "ompi":
            kind, comm, rules = parse_ompi_rules(text)
            assert kind is CollectiveKind.BCAST
            assert comm == 8 and len(rules) == len(msizes)
        else:
            payload = json.loads(text)
            assert len(payload["rules"]) == len(msizes)
        # atomic write leaves no droppings behind
        assert [p.name for p in tmp_path.iterdir()] == [path.name]

    def test_write_is_atomic_under_validation_failure(self, tmp_path):
        """Validation rejects before anything reaches disk."""
        tuner = make_tuner("KNN")
        tuner.benchmark(TINY_GRID, name="at")
        tuner.train()
        path = tmp_path / "rules.txt"
        with pytest.raises(ValueError, match="unknown format"):
            tuner.write_rules(str(path), 4, 2, fmt="yaml")
        assert not list(tmp_path.iterdir())


class TestValidateRules:
    def test_ompi_wrong_collective(self):
        cfg = AlgorithmConfig.make("bcast", 1, "linear")
        text = render_ompi_rules("bcast", 4, 2, [(0, cfg)])
        with pytest.raises(RulesValidationError, match="expected"):
            validate_rules(text, "ompi", "allreduce")

    def test_ompi_negative_field(self):
        cfg = AlgorithmConfig.make("bcast", 1, "linear")
        text = render_ompi_rules("bcast", 4, 2, [(0, cfg)])
        broken = text.replace("0 1 0 0", "-4 1 0 0")
        with pytest.raises(RulesValidationError, match="negative"):
            validate_rules(broken, "ompi", "bcast")

    def test_ompi_truncated(self):
        with pytest.raises(RulesValidationError, match="parse back"):
            validate_rules("1\n7\n", "ompi", "bcast")

    def test_json_nan_constant(self):
        cfg = AlgorithmConfig.make("bcast", 1, "linear")
        text = render_json("bcast", 4, 2, [(0, cfg)])
        broken = text.replace('"algid": 1', '"algid": 1, "x": NaN')
        with pytest.raises(RulesValidationError, match="[Nn]on-finite"):
            validate_rules(broken, "json", "bcast")

    def test_json_negative_msize(self):
        cfg = AlgorithmConfig.make("bcast", 1, "linear")
        text = render_json("bcast", 4, 2, [(0, cfg)])
        broken = text.replace('"msize": 0', '"msize": -1')
        with pytest.raises(RulesValidationError, match="msize"):
            validate_rules(broken, "json", "bcast")

    def test_unknown_format(self):
        with pytest.raises(RulesValidationError, match="unknown"):
            validate_rules("{}", "toml", "bcast")


def toy_dataset(times) -> PerfDataset:
    configs = (AlgorithmConfig.make("bcast", 1, "linear"),)
    n = len(times)
    return PerfDataset(
        name="toy",
        collective=CollectiveKind.BCAST,
        library="l",
        machine="m",
        configs=configs,
        config_id=np.zeros(n, np.int64),
        nodes=np.full(n, 2, np.int64),
        ppn=np.ones(n, np.int64),
        msize=np.full(n, 64, np.int64),
        time=np.asarray(times, dtype=float),
    )


class TestDatasetGuard:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, -1e-6])
    def test_validate_rejects_bad_times(self, bad):
        with pytest.raises(CorruptDatasetError, match="row"):
            toy_dataset([1e-5, bad, 2e-5]).validate()

    def test_validate_accepts_clean(self):
        ds = toy_dataset([1e-5, 2e-5])
        assert ds.validate() is ds

    def test_merge_validates_both_operands(self):
        clean = toy_dataset([1e-5])
        corrupt = toy_dataset([np.nan])
        with pytest.raises(CorruptDatasetError):
            clean.merge(corrupt)
        with pytest.raises(CorruptDatasetError):
            corrupt.merge(clean)

    def test_merge_concatenates(self):
        merged = toy_dataset([1e-5]).merge(toy_dataset([2e-5]), name="m")
        assert len(merged) == 2 and merged.name == "m"

    def test_load_rejects_corrupt_archive_with_event(self, tmp_path):
        ds = toy_dataset([1e-5, 2e-5])
        ds.time[1] = np.nan  # poison after construction, then save
        ds.save(tmp_path / "bad")
        telemetry = get_telemetry()
        before = telemetry.counters_snapshot().get("dataset.corrupt", 0)
        with telemetry.capture() as sink:
            with pytest.raises(CorruptDatasetError):
                PerfDataset.load(tmp_path / "bad")
        assert telemetry.counters_snapshot().get("dataset.corrupt", 0) > before
        assert any(e.name == "dataset_corrupt" for e in sink.events)
