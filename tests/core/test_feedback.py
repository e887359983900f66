"""Feedback logging: JSONL schema, torn-line tolerance, merge, logger.

The feedback log is the *measure* step of the serve→retrain loop
(docs/online-learning.md). These tests pin its three contracts:

* the row schema round-trips bit-exactly through JSONL (hypothesis);
* the reader never raises — torn/garbage lines are counted and
  skipped, exactly like the ``repro.obs`` event-log reader;
* the logger is a pure function of ``(seed, site)`` so a respawned
  worker re-logs bit-identical rows, and it can never fail a request.
"""

from __future__ import annotations

import json
import math
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.feedback import (
    FEEDBACK_SCHEMA,
    FeedbackConfig,
    FeedbackLogger,
    FeedbackRow,
    FeedbackWriter,
    WorldShift,
    feedback_dataset,
    merge_feedback,
    read_feedback,
)
from repro.machine.zoo import tiny_testbed
from repro.mpilib import get_library
from repro.obs import get_telemetry
from repro.obs.sinks import MemorySink
from repro.serve.service import Recommendation


@pytest.fixture(autouse=True)
def clean_telemetry():
    """Counter deltas in these tests start from zero."""
    get_telemetry().reset()
    yield
    get_telemetry().reset()


@pytest.fixture(scope="module")
def library():
    return get_library("Open MPI")


@pytest.fixture(scope="module")
def bcast_configs(library):
    return library.config_space("bcast").configs


def counter(name: str) -> int:
    return get_telemetry().counters_snapshot().get(name, 0)


def make_row(**overrides) -> FeedbackRow:
    base = dict(
        collective="bcast", nodes=8, ppn=2, msize=65536,
        config_id=7, config="chain[seg=8192,chains=4]",
        observed_time=1.2e-4, predicted_time=1.1e-4,
        version=1, source="model",
    )
    base.update(overrides)
    return FeedbackRow(**base)


# ---------------------------------------------------------------------------
class TestWorldShift:
    def test_identity_by_default(self):
        shift = WorldShift()
        assert shift.identity
        assert shift.scale(3) == 1.0

    def test_scales_only_selected_algids(self):
        shift = WorldShift(factor=2.0, algids=(3, 7))
        assert shift.scale(3) == 2.0
        assert shift.scale(7) == 2.0
        assert shift.scale(1) == 1.0

    def test_empty_algids_scales_everything(self):
        shift = WorldShift(factor=1.5)
        assert shift.scale(0) == shift.scale(99) == 1.5
        assert not shift.identity

    @pytest.mark.parametrize("factor", [0.0, -1.0, float("nan"), float("inf")])
    def test_rejects_degenerate_factor(self, factor):
        with pytest.raises(ValueError):
            WorldShift(factor=factor)


# ---------------------------------------------------------------------------
row_strategy = st.builds(
    FeedbackRow,
    collective=st.sampled_from(["bcast", "reduce", "allgather"]),
    nodes=st.integers(min_value=1, max_value=1024),
    ppn=st.integers(min_value=1, max_value=128),
    msize=st.integers(min_value=0, max_value=1 << 30),
    config_id=st.integers(min_value=0, max_value=500),
    config=st.text(
        alphabet=st.characters(blacklist_characters="\n\r"), max_size=40
    ),
    observed_time=st.floats(
        min_value=1e-12, max_value=1e3,
        allow_nan=False, allow_infinity=False,
    ),
    predicted_time=st.floats(
        min_value=1e-12, max_value=1e3,
        allow_nan=False, allow_infinity=False,
    ),
    version=st.integers(min_value=0, max_value=1000),
    source=st.sampled_from(["model", "default"]),
)


class TestRowSchema:
    @given(row=row_strategy)
    def test_json_round_trip_is_bit_exact(self, row):
        assert FeedbackRow.from_dict(json.loads(row.to_json())) == row

    @given(rows=st.lists(row_strategy, max_size=20))
    @settings(max_examples=25)
    def test_jsonl_file_round_trip(self, rows, tmp_path_factory):
        path = tmp_path_factory.mktemp("fb") / "log.jsonl"
        with FeedbackWriter(path) as writer:
            for row in rows:
                writer.append(row)
        assert read_feedback(path) == rows

    def test_residual_is_log_ratio(self):
        row = make_row(observed_time=2e-4, predicted_time=1e-4)
        assert row.residual == pytest.approx(math.log(2.0))

    def test_unknown_schema_rejected(self):
        payload = make_row().to_dict()
        payload["schema"] = FEEDBACK_SCHEMA + 1
        with pytest.raises(ValueError, match="schema"):
            FeedbackRow.from_dict(payload)

    @pytest.mark.parametrize("overrides", [
        {"nodes": 0}, {"ppn": 0}, {"msize": -1}, {"config_id": -1},
        {"version": -1}, {"observed_time": 0.0},
        {"observed_time": float("nan")}, {"predicted_time": -1.0},
        {"predicted_time": float("inf")},
    ])
    def test_invalid_fields_rejected(self, overrides):
        with pytest.raises(ValueError):
            make_row(**overrides)


# ---------------------------------------------------------------------------
class TestReader:
    def test_missing_file_is_empty_log(self, tmp_path):
        assert read_feedback(tmp_path / "never-written.jsonl") == []

    def test_torn_final_line_skipped_and_counted(self, tmp_path):
        path = tmp_path / "log.jsonl"
        rows = [make_row(msize=m) for m in (64, 4096)]
        text = "".join(r.to_json() + "\n" for r in rows)
        path.write_text(text + rows[0].to_json()[: len(rows[0].to_json()) // 2])
        sink = get_telemetry().add_sink(MemorySink())
        assert read_feedback(path) == rows
        assert counter("serve.feedback.skipped_lines") == 1
        assert sink.named("feedback_skipped_lines")

    @given(garbage=st.lists(
        st.text(
            # utf-8 only: a lone surrogate cannot be written to the file
            alphabet=st.characters(codec="utf-8", blacklist_characters="\n\r"),
            max_size=60,
        ).filter(lambda s: not s.strip().startswith("{")),
        min_size=1, max_size=6,
    ))
    @settings(max_examples=30)
    def test_garbage_lines_never_crash_the_reader(self, garbage, tmp_path_factory):
        path = tmp_path_factory.mktemp("fb") / "log.jsonl"
        rows = [make_row(msize=m) for m in (64, 1024, 65536)]
        lines = [rows[0].to_json(), *garbage, rows[1].to_json(),
                 rows[2].to_json()]
        path.write_text("\n".join(lines) + "\n")
        assert read_feedback(path) == rows

    def test_blank_lines_are_not_skip_counted(self, tmp_path):
        path = tmp_path / "log.jsonl"
        path.write_text(f"\n{make_row().to_json()}\n\n")
        assert len(read_feedback(path)) == 1
        assert counter("serve.feedback.skipped_lines") == 0

    def test_wrong_schema_row_is_skipped(self, tmp_path):
        path = tmp_path / "log.jsonl"
        stale = make_row().to_dict()
        stale["schema"] = 999
        path.write_text(json.dumps(stale) + "\n" + make_row().to_json() + "\n")
        assert len(read_feedback(path)) == 1
        assert counter("serve.feedback.skipped_lines") == 1

    def test_directory_reads_every_worker_file_sorted(self, tmp_path):
        for worker, msize in ((1, 4096), (0, 64)):
            with FeedbackWriter(tmp_path / f"feedback-w{worker}.jsonl") as w:
                w.append(make_row(msize=msize))
        (tmp_path / "notes.txt").write_text("not a log\n")
        rows = read_feedback(tmp_path)
        # sorted by file name: w0 before w1, other files ignored
        assert [r.msize for r in rows] == [64, 4096]


# ---------------------------------------------------------------------------
class TestWriter:
    def test_append_after_close_raises(self, tmp_path):
        writer = FeedbackWriter(tmp_path / "log.jsonl")
        writer.close()
        with pytest.raises(ValueError, match="closed"):
            writer.append(make_row())

    def test_close_is_idempotent(self, tmp_path):
        writer = FeedbackWriter(tmp_path / "log.jsonl")
        writer.close()
        writer.close()

    def test_creates_parent_directories(self, tmp_path):
        path = tmp_path / "deep" / "nested" / "log.jsonl"
        with FeedbackWriter(path) as writer:
            writer.append(make_row())
        assert len(read_feedback(path)) == 1

    def test_concurrent_appends_never_tear(self, tmp_path):
        path = tmp_path / "log.jsonl"
        per_thread, n_threads = 50, 8
        with FeedbackWriter(path) as writer:
            def hammer(tid: int) -> None:
                for i in range(per_thread):
                    writer.append(make_row(nodes=tid + 1, version=i))

            threads = [
                threading.Thread(target=hammer, args=(tid,))
                for tid in range(n_threads)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        rows = read_feedback(path)
        assert len(rows) == per_thread * n_threads
        assert counter("serve.feedback.skipped_lines") == 0


# ---------------------------------------------------------------------------
class TestDatasetMerge:
    def real_rows(self, configs, msizes=(64, 4096)):
        return [
            make_row(
                msize=m, config_id=cid, config=configs[cid].label,
                observed_time=1e-4 * (cid + 1),
            )
            for m in msizes
            for cid in (0, 5, 9)
        ]

    def test_rows_become_validated_dataset(self, library, bcast_configs):
        rows = self.real_rows(bcast_configs)
        ds = feedback_dataset(rows, library=library, collective="bcast")
        assert len(ds) == len(rows)
        assert sorted(set(ds.msize.tolist())) == [64, 4096]

    def test_other_collectives_ignored(self, library, bcast_configs):
        rows = self.real_rows(bcast_configs)
        rows.append(make_row(collective="reduce"))
        ds = feedback_dataset(rows, library=library, collective="bcast")
        assert len(ds) == len(rows) - 1
        # silently skipping a *foreign* collective is not staleness
        assert counter("serve.feedback.stale_rows") == 0

    def test_stale_rows_skipped_and_counted(self, library, bcast_configs):
        rows = self.real_rows(bcast_configs)
        stale = [
            make_row(config_id=len(bcast_configs) + 3),  # out of space
            make_row(config_id=2, config="label-from-older-library"),
        ]
        ds = feedback_dataset(rows + stale, library=library, collective="bcast")
        assert len(ds) == len(rows)
        assert counter("serve.feedback.stale_rows") == 2

    def test_merge_extends_base_campaign(self, library, bcast_configs):
        from repro.bench.repro_mpi import BenchmarkSpec
        from repro.bench.runner import DatasetRunner, GridSpec

        runner = DatasetRunner(
            tiny_testbed, library, BenchmarkSpec(max_nreps=3), seed=5
        )
        base = runner.run(
            "bcast",
            GridSpec(nodes=(2, 4), ppns=(1,), msizes=(64, 4096)),
            name="base",
        )
        rows = self.real_rows(bcast_configs, msizes=(1024,))
        merged = merge_feedback(base, rows, library=library)
        merged.validate()
        assert len(merged) == len(base) + len(rows)

    def test_merge_with_no_surviving_rows_returns_base(self, library):
        from repro.bench.repro_mpi import BenchmarkSpec
        from repro.bench.runner import DatasetRunner, GridSpec

        runner = DatasetRunner(
            tiny_testbed, library, BenchmarkSpec(max_nreps=3), seed=5
        )
        base = runner.run(
            "bcast", GridSpec(nodes=(2,), ppns=(1,), msizes=(64,)),
            name="base",
        )
        merged = merge_feedback(
            base, [make_row(collective="reduce")], library=library
        )
        assert merged is base


# ---------------------------------------------------------------------------
class TestFeedbackConfig:
    def test_spec_round_trip(self):
        config = FeedbackConfig(
            path="/tmp/fb.jsonl", seed=3, shift=2.0, shift_algids=(1, 7)
        )
        assert FeedbackConfig.from_spec(config.to_spec()) == config
        assert json.dumps(config.to_spec())  # plain data, JSON-shippable

    def test_world_shift_built_from_knobs(self):
        config = FeedbackConfig(path="x.jsonl", shift=2.0, shift_algids=(7,))
        assert config.world_shift() == WorldShift(factor=2.0, algids=(7,))

    def test_empty_path_rejected(self):
        with pytest.raises(ValueError, match="path"):
            FeedbackConfig(path="")


# ---------------------------------------------------------------------------
def rec_for(configs, cid: int, nodes=4, ppn=2, msize=4096, version=1):
    return Recommendation(
        collective="bcast", nodes=nodes, ppn=ppn, msize=msize,
        config=configs[cid], source="model", version=version,
    )


class TestLogger:
    def make_logger(self, tmp_path, library, **knobs) -> FeedbackLogger:
        config = FeedbackConfig(
            path=str(tmp_path / "fb.jsonl"), **knobs
        )
        return FeedbackLogger(config, tiny_testbed, library)

    def test_rows_are_bit_identical_across_logger_lifetimes(
        self, tmp_path, library, bcast_configs
    ):
        recs = [rec_for(bcast_configs, cid) for cid in (0, 5, 9)]
        for sub in ("a", "b"):
            (tmp_path / sub).mkdir()
            logger = self.make_logger(tmp_path / sub, library, seed=3)
            logger.record_many(recs)
            logger.close()
        first = (tmp_path / "a" / "fb.jsonl").read_bytes()
        assert first == (tmp_path / "b" / "fb.jsonl").read_bytes()
        assert first  # actually wrote something

    def test_observation_keyed_by_site_not_call_order(
        self, tmp_path, library, bcast_configs
    ):
        logger = self.make_logger(tmp_path, library, seed=3)
        rec = rec_for(bcast_configs, 5)
        logger.record_many([rec, rec])
        logger.close()
        rows = read_feedback(logger.path)
        assert len(rows) == 2
        # same site, same seed -> same simulated observation: a
        # respawned worker replays identical rows (chaos bit-identity)
        assert rows[0] == rows[1]

    def test_shift_scales_only_the_target_algid(
        self, tmp_path, library, bcast_configs
    ):
        quiet = tiny_testbed.with_noise(
            tiny_testbed.noise.__class__(sigma=0.0, spike_prob=0.0, floor=0.0)
        )
        target = bcast_configs[9].algid
        other = next(
            cid for cid, cfg in enumerate(bcast_configs)
            if cfg.algid != target
        )
        config = FeedbackConfig(
            path=str(tmp_path / "fb.jsonl"), shift=2.0,
            shift_algids=(target,),
        )
        logger = FeedbackLogger(config, quiet, library)
        observed, predicted = logger.observe(bcast_configs[9], 4, 2, 4096)
        assert observed == pytest.approx(2.0 * predicted)
        observed, predicted = logger.observe(bcast_configs[other], 4, 2, 4096)
        assert observed == pytest.approx(predicted)
        logger.close()

    def test_record_never_raises(self, tmp_path, library):
        logger = self.make_logger(tmp_path, library)
        sink = get_telemetry().add_sink(MemorySink())

        class Bogus:
            collective = "bcast"

        logger.record(Bogus())  # missing every other field
        logger.close()
        assert counter("serve.feedback.errors") == 1
        assert sink.named("feedback_error")
        assert read_feedback(logger.path) == []

    def test_detector_fed_per_row(self, tmp_path, library, bcast_configs):
        logger = self.make_logger(tmp_path, library, seed=1)
        logger.record_many([rec_for(bcast_configs, cid) for cid in (0, 5)])
        stats = logger.detector.stats()
        assert sum(s.n for s in stats) == 2
        logger.close()

    def test_guideline_tripwire_runs_once_per_distinct_instance(
        self, tmp_path, library, bcast_configs, monkeypatch
    ):
        import repro.experiments.guidelines as guidelines

        calls: list[list] = []

        def fake_check(machine, lib, instances, **kwargs):
            calls.append(list(instances))
            return []

        monkeypatch.setattr(guidelines, "check_guidelines", fake_check)
        logger = self.make_logger(tmp_path, library)
        logger.record_many([
            rec_for(bcast_configs, 0, msize=64),
            rec_for(bcast_configs, 5, msize=64),   # same instance
            rec_for(bcast_configs, 0, msize=4096),  # new instance
        ])
        logger.close()
        assert calls == [[(4, 2, 64)], [(4, 2, 4096)]]


# ---------------------------------------------------------------------------
class TestServiceIntegration:
    """The service records one row per resolved recommendation."""

    @pytest.fixture()
    def serving(self, tmp_path, library):
        from repro.bench.repro_mpi import BenchmarkSpec
        from repro.bench.runner import GridSpec
        from repro.core.tuner import AutoTuner
        from repro.serve import ModelRegistry, PredictionService

        tuner = AutoTuner(
            tiny_testbed, library, "bcast",
            learner="KNN", bench_spec=BenchmarkSpec(max_nreps=3), seed=1,
        )
        tuner.benchmark(
            GridSpec(nodes=(2, 4), ppns=(1, 2), msizes=(64, 4096))
        )
        tuner.train()
        registry = ModelRegistry(tiny_testbed, library)
        registry.publish(tuner.servable(), tag="t")
        logger = FeedbackLogger(
            FeedbackConfig(path=str(tmp_path / "fb.jsonl"), seed=2),
            tiny_testbed, library,
        )
        yield PredictionService(registry, feedback=logger), logger
        logger.close()

    def test_single_and_cached_requests_both_logged(self, serving):
        service, logger = serving
        cold = service.recommend("bcast", 4, 2, 4096)
        warm = service.recommend("bcast", 4, 2, 4096)
        assert warm.cached
        logger.close()
        rows = read_feedback(logger.path)
        assert len(rows) == 2
        assert rows[0] == rows[1]  # L1 hit logs the same site row
        assert rows[0].config == cold.config.label

    def test_batch_requests_logged_per_instance(self, serving):
        service, logger = serving
        instances = [("bcast", n, p, 4096) for n in (2, 4) for p in (1, 2)]
        service.recommend_many(instances)
        logger.close()
        rows = read_feedback(logger.path)
        assert len(rows) == len(instances)
        assert counter("serve.feedback.rows") == len(instances)

    def test_feedback_rows_align_with_config_space(self, serving, library):
        service, logger = serving
        service.recommend("bcast", 2, 1, 64)
        logger.close()
        (row,) = read_feedback(logger.path)
        configs = library.config_space("bcast").configs
        assert configs[row.config_id].label == row.config
