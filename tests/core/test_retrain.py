"""Drift detection + retraining: trigger properties and the closed loop.

Two layers of guarantees:

* **Detector properties** (hypothesis): stationary residuals never
  trigger, an injected median shift past the threshold always does,
  and a rebase absorbs exactly the corrected shift — the trigger can
  neither false-positive on noise nor miss a real drift.
* **Closed-loop end-to-end** (the ISSUE-10 acceptance scenario,
  deterministic for a fixed seed): a served model's hot path slows 2x,
  the feedback log trips the detector, and the active-sampling retrain
  restores ≥95% selection agreement against the shifted oracle while
  measuring ≤50% of what the naive full-grid refit would.
"""

from __future__ import annotations

import math
import threading
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.repro_mpi import BenchmarkSpec
from repro.bench.runner import GridSpec
from repro.core.feedback import (
    FeedbackConfig,
    FeedbackLogger,
    FeedbackRow,
    FeedbackWriter,
    WorldShift,
    read_feedback,
)
from repro.core.retrain import (
    RetrainPolicy,
    Retrainer,
    oracle_ids,
    selection_agreement,
    shifted_times,
)
from repro.core.tuner import AutoTuner
from repro.machine.zoo import tiny_testbed
from repro.mpilib import get_library
from repro.obs.drift import DriftDetector, ResidualStats
from repro.serve.service import Recommendation

MARGIN = 0.10


@pytest.fixture(scope="module")
def library():
    return get_library("Open MPI")


# ---------------------------------------------------------------------------
class TestDriftDetectorProperties:
    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=30)
    def test_stationary_residuals_never_trigger(self, seed):
        detector = DriftDetector(threshold=0.25, min_samples=30, window=256)
        rng = np.random.default_rng(seed)
        predicted = 1e-4
        for residual in rng.normal(0.0, 0.05, size=200):
            detector.observe("bcast", 1, predicted * math.exp(residual),
                             predicted)
        assert detector.drifting() == []

    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        delta=st.floats(min_value=0.35, max_value=1.5),
    )
    @settings(max_examples=30)
    def test_median_shift_past_threshold_always_triggers(self, seed, delta):
        detector = DriftDetector(threshold=0.25, min_samples=30, window=256)
        rng = np.random.default_rng(seed)
        predicted = 1e-4
        for residual in rng.normal(delta, 0.02, size=40):
            detector.observe("bcast", 1, predicted * math.exp(residual),
                             predicted)
        drifting = detector.drifting()
        assert len(drifting) == 1
        assert drifting[0].collective == "bcast"
        assert abs(drifting[0].median - delta) < 0.05

    def test_no_trigger_below_min_samples(self):
        detector = DriftDetector(threshold=0.25, min_samples=30, window=256)
        for _ in range(29):
            detector.observe("bcast", 1, 2e-4, 1e-4)  # residual ~0.69
        assert detector.drifting() == []
        detector.observe("bcast", 1, 2e-4, 1e-4)
        assert detector.drifting()

    def test_rebase_absorbs_corrected_shift_only(self):
        detector = DriftDetector(threshold=0.25, min_samples=5, window=64)
        shift = math.log(2.0)
        for _ in range(10):
            detector.observe("bcast", 1, 2e-4, 1e-4)
        assert detector.drifting()
        detector.rebase("bcast", shift)
        assert detector.drifting() == []
        # a FURTHER 2x on top of the corrected one re-triggers
        for _ in range(10):
            detector.observe("bcast", 2, 4e-4, 1e-4)
        (stats,) = detector.drifting()
        assert stats.version == 2
        assert stats.excess == pytest.approx(shift, abs=0.01)

    def test_window_evicts_old_residuals(self):
        detector = DriftDetector(threshold=0.25, min_samples=5, window=10)
        for _ in range(50):
            detector.observe("bcast", 1, 2e-4, 1e-4)  # old drifted world
        for _ in range(10):
            detector.observe("bcast", 1, 1e-4, 1e-4)  # world healed
        assert detector.drifting() == []

    def test_versions_tracked_separately(self):
        detector = DriftDetector(threshold=0.25, min_samples=5, window=64)
        for _ in range(10):
            detector.observe("bcast", 1, 2e-4, 1e-4)
            detector.observe("bcast", 2, 1e-4, 1e-4)
        drifting = detector.drifting()
        assert [s.version for s in drifting] == [1]

    @pytest.mark.parametrize("observed,predicted", [
        (0.0, 1e-4), (-1e-4, 1e-4), (float("nan"), 1e-4),
        (1e-4, 0.0), (1e-4, float("inf")),
    ])
    def test_degenerate_observations_rejected(self, observed, predicted):
        detector = DriftDetector()
        with pytest.raises(ValueError):
            detector.observe("bcast", 1, observed, predicted)

    def test_stats_payload_round_trips(self):
        detector = DriftDetector(threshold=0.25, min_samples=2, window=16)
        for _ in range(4):
            detector.observe("bcast", 3, 2e-4, 1e-4)
        detector.record_violations("bcast", 2)
        payload = detector.payload()
        assert payload["violations"] == {"bcast": 2}
        (stats,) = [ResidualStats.from_dict(s) for s in payload["stats"]]
        assert stats == detector.stats()[0]
        assert stats.drifting


# ---------------------------------------------------------------------------
class TestCalibration:
    @pytest.fixture(scope="class")
    def retrainer(self, library):
        tuner = AutoTuner(
            tiny_testbed, library, "bcast",
            learner="KNN", bench_spec=BenchmarkSpec(max_nreps=3), seed=1,
        )
        base = tuner.benchmark(
            GridSpec(nodes=(2, 4), ppns=(1, 2), msizes=(64, 4096))
        )
        return Retrainer(
            tiny_testbed, library, "bcast", base, seed=1, learner="KNN",
        )

    def row(self, library, cid, ratio):
        configs = library.config_space("bcast").configs
        return FeedbackRow(
            collective="bcast", nodes=4, ppn=1, msize=4096,
            config_id=cid, config=configs[cid].label,
            observed_time=ratio * 1e-4, predicted_time=1e-4, version=1,
        )

    def test_median_ratio_per_algid(self, retrainer, library):
        configs = library.config_space("bcast").configs
        cid = 5
        rows = [self.row(library, cid, r) for r in (1.8, 2.0, 2.4)]
        calib = retrainer.calibration(rows)
        assert calib == {configs[cid].algid: pytest.approx(2.0)}

    def test_foreign_and_stale_rows_ignored(self, retrainer, library):
        good = self.row(library, 5, 2.0)
        foreign = FeedbackRow(
            collective="reduce", nodes=4, ppn=1, msize=64,
            config_id=1, config="x", observed_time=9e-4,
            predicted_time=1e-4, version=1,
        )
        stale = FeedbackRow(
            collective="bcast", nodes=4, ppn=1, msize=64,
            config_id=10_000, config="gone", observed_time=9e-4,
            predicted_time=1e-4, version=1,
        )
        assert retrainer.calibration([good, foreign, stale]) == \
            retrainer.calibration([good])


# ---------------------------------------------------------------------------
@pytest.fixture(scope="module")
def closed_loop(library, tmp_path_factory):
    """The deterministic drift scenario shared by the e2e tests.

    A GAM selector trained on the tiny testbed serves a traffic mix;
    the dominant chosen algorithm family then slows down 2x (the
    injected WorldShift). Weighting the serve stream 3x toward the hot
    instances makes the shifted rows the majority of traffic, which is
    what lets the *median* residual cross the trigger.
    """
    msizes = (64, 1024, 4096, 65536, 262144, 1048576)
    tuner = AutoTuner(
        tiny_testbed, library, "bcast",
        learner="GAM", bench_spec=BenchmarkSpec(max_nreps=30), seed=1,
    )
    base = tuner.benchmark(
        GridSpec(nodes=(2, 4, 8), ppns=(1, 2), msizes=msizes)
    )
    selector = tuner.train()
    configs = library.config_space("bcast").configs
    instances = [
        (n, p, m) for n in (2, 4, 8) for p in (1, 2) for m in msizes
    ]
    chosen = {
        inst: int(selector.select_ids(*inst)[0]) for inst in instances
    }
    dominant = Counter(
        configs[cid].algid for cid in chosen.values() if cid >= 0
    ).most_common(1)[0][0]
    shift = WorldShift(factor=2.0, algids=(dominant,))
    hot = [
        inst for inst in instances
        if configs[chosen[inst]].algid == dominant
    ]
    feedback_dir = tmp_path_factory.mktemp("closed-loop")
    logger = FeedbackLogger(
        FeedbackConfig(
            path=str(feedback_dir / "feedback.jsonl"),
            seed=3, shift=2.0, shift_algids=(dominant,),
        ),
        tiny_testbed, library,
    )
    for n, p, m in list(instances) + 3 * hot:
        logger.record(Recommendation(
            collective="bcast", nodes=n, ppn=p, msize=m,
            config=configs[chosen[(n, p, m)]], source="model", version=1,
        ))
    logger.close()
    return {
        "base": base,
        "instances": instances,
        "shift": shift,
        "rows": read_feedback(logger.path),
        "feedback_path": logger.path,
    }


def make_retrainer(world, library, **policy_knobs) -> Retrainer:
    policy = RetrainPolicy(**{"margin": MARGIN, **policy_knobs})
    return Retrainer(
        tiny_testbed, library, "bcast", world["base"],
        seed=1, learner="GAM", shift=world["shift"], policy=policy,
    )


class TestClosedLoopEndToEnd:
    def test_drift_fires_on_the_hot_path_shift(self, closed_loop, library):
        retrainer = make_retrainer(closed_loop, library)
        drifting = retrainer.scan(closed_loop["rows"])
        assert drifting, "2x hot-path shift must trip the detector"
        assert drifting[0].collective == "bcast"
        assert drifting[0].excess > retrainer.policy.threshold

    def test_active_sampling_restores_agreement_on_half_the_budget(
        self, closed_loop, library
    ):
        retrainer = make_retrainer(closed_loop, library)
        retrainer.scan(closed_loop["rows"])
        result = retrainer.retrain(closed_loop["rows"])
        # the acceptance bar: <=50% of the naive full-grid refit...
        assert 0.0 < result.budget_frac <= 0.5
        assert result.disagreements < result.instances
        # ...at >=95% time-based agreement with the shifted oracle
        agreement = selection_agreement(
            result.selector, tiny_testbed, library, "bcast",
            closed_loop["instances"], shift=closed_loop["shift"],
            margin=MARGIN,
        )
        assert agreement >= 0.95
        # and the detector is rebased: the same shift cannot re-trigger
        assert retrainer.scan(closed_loop["rows"]) == []
        assert result.log_shift > 0.25

    def test_matches_exhaustive_agreement_at_fraction_of_cost(
        self, closed_loop, library
    ):
        active = make_retrainer(closed_loop, library)
        exhaustive = make_retrainer(closed_loop, library, exhaustive=True)
        got = active.retrain(closed_loop["rows"])
        full = exhaustive.retrain(closed_loop["rows"])
        assert full.budget_frac == 1.0
        assert got.budget_frac <= 0.5 * full.budget_frac
        agree = selection_agreement(
            got.selector, tiny_testbed, library, "bcast",
            closed_loop["instances"], shift=closed_loop["shift"],
            margin=MARGIN,
        )
        agree_full = selection_agreement(
            full.selector, tiny_testbed, library, "bcast",
            closed_loop["instances"], shift=closed_loop["shift"],
            margin=MARGIN,
        )
        assert agree == pytest.approx(agree_full)

    def test_base_model_is_actually_stale_under_the_shift(
        self, closed_loop, library
    ):
        """Sanity: without retraining, agreement is below the bar."""
        retrainer = make_retrainer(closed_loop, library)
        before = selection_agreement(
            retrainer._base_selector, tiny_testbed, library, "bcast",
            closed_loop["instances"], shift=closed_loop["shift"],
            margin=MARGIN,
        )
        assert before < 0.95

    def test_retrain_is_bit_reproducible(self, closed_loop, library):
        results = [
            make_retrainer(closed_loop, library).retrain(closed_loop["rows"])
            for _ in range(2)
        ]
        a, b = (r.dataset for r in results)
        np.testing.assert_array_equal(a.config_id, b.config_id)
        np.testing.assert_array_equal(a.nodes, b.nodes)
        np.testing.assert_array_equal(a.ppn, b.ppn)
        np.testing.assert_array_equal(a.msize, b.msize)
        np.testing.assert_array_equal(a.time, b.time)
        nodes = np.asarray([i[0] for i in closed_loop["instances"]])
        ppn = np.asarray([i[1] for i in closed_loop["instances"]])
        msize = np.asarray([i[2] for i in closed_loop["instances"]])
        np.testing.assert_array_equal(
            results[0].selector.select_ids(nodes, ppn, msize),
            results[1].selector.select_ids(nodes, ppn, msize),
        )

    def test_merged_dataset_replaces_stale_sites(self, closed_loop, library):
        retrainer = make_retrainer(closed_loop, library)
        result = retrainer.retrain(closed_loop["rows"])
        result.dataset.validate()
        # measured + feedback rows joined the base campaign, and the
        # stale base rows at re-measured instances were dropped — the
        # merged set can only have grown by at most the fresh rows
        fresh = result.measured_samples + len(closed_loop["rows"])
        base_len = len(closed_loop["base"])
        assert base_len < len(result.dataset) <= base_len + fresh


# ---------------------------------------------------------------------------
class TestOracleHelpers:
    def test_shifted_times_scales_only_target_family(self, library):
        instance = (4, 2, 4096)
        plain = shifted_times(tiny_testbed, library, "bcast", instance)
        shifted = shifted_times(
            tiny_testbed, library, "bcast", instance,
            shift=WorldShift(factor=2.0, algids=(7,)),
        )
        configs = library.config_space("bcast").configs
        for cid, cfg in enumerate(configs):
            if not math.isfinite(plain[cid]):
                assert not math.isfinite(shifted[cid])
            elif cfg.algid == 7:
                assert shifted[cid] == pytest.approx(2.0 * plain[cid])
            else:
                assert shifted[cid] == plain[cid]

    def test_oracle_ids_track_the_shift(self, library):
        instances = [(4, 2, 1 << 20)]
        base = oracle_ids(tiny_testbed, library, "bcast", instances)[0]
        configs = library.config_space("bcast").configs
        assert base >= 0
        # penalise the winner's whole family 100x: the oracle must move
        shifted = oracle_ids(
            tiny_testbed, library, "bcast", instances,
            shift=WorldShift(factor=100.0, algids=(configs[base].algid,)),
        )[0]
        assert configs[shifted].algid != configs[base].algid

    def test_agreement_is_tie_robust(self, library):
        """Any config tied with the optimum counts as agreeing."""
        instances = [(4, 2, 4096)]
        times = shifted_times(tiny_testbed, library, "bcast", instances[0])
        best = float(np.min(times))
        tied = [cid for cid, t in enumerate(times) if t == best]
        assert len(tied) > 1  # segsize >= msize behave identically

        class Pinned:
            def __init__(self, cid):
                self.cid = cid

            def select_ids(self, nodes, ppn, msize):
                return np.full(np.asarray(nodes).size, self.cid)

        for cid in tied:
            assert selection_agreement(
                Pinned(cid), tiny_testbed, library, "bcast", instances,
            ) == 1.0

    def test_agreement_empty_instances_is_vacuous(self, library):
        class Never:
            def select_ids(self, nodes, ppn, msize):  # pragma: no cover
                raise AssertionError("must not be called")

        assert selection_agreement(
            Never(), tiny_testbed, library, "bcast", [],
        ) == 1.0


# ---------------------------------------------------------------------------
class TestWatch:
    def test_one_shot_round_triggers_and_publishes(
        self, closed_loop, library
    ):
        retrainer = make_retrainer(closed_loop, library)
        published = []
        results = retrainer.watch(
            closed_loop["feedback_path"], interval_s=0.01, max_rounds=1,
            on_result=published.append,
        )
        assert len(results) == 1
        assert published == results
        assert results[0].budget_frac <= 0.5

    def test_stop_event_exits_without_retraining(self, closed_loop, library):
        retrainer = make_retrainer(closed_loop, library)
        stop = threading.Event()
        stop.set()
        assert retrainer.watch(
            closed_loop["feedback_path"], interval_s=0.01, stop=stop,
        ) == []

    def test_quiet_log_never_triggers(self, tmp_path, library):
        """Unshifted feedback on a fresh log must not cause a retrain."""
        tuner = AutoTuner(
            tiny_testbed, library, "bcast",
            learner="KNN", bench_spec=BenchmarkSpec(max_nreps=3), seed=1,
        )
        base = tuner.benchmark(
            GridSpec(nodes=(2, 4), ppns=(1, 2), msizes=(64, 4096))
        )
        retrainer = Retrainer(
            tiny_testbed, library, "bcast", base, seed=1, learner="KNN",
        )
        configs = library.config_space("bcast").configs
        path = tmp_path / "quiet.jsonl"
        with FeedbackWriter(path) as writer:
            for i in range(40):
                writer.append(FeedbackRow(
                    collective="bcast", nodes=4, ppn=1, msize=4096,
                    config_id=5, config=configs[5].label,
                    observed_time=1.02e-4, predicted_time=1e-4,
                    version=1,
                ))
        assert retrainer.scan(read_feedback(path)) == []


# ---------------------------------------------------------------------------
@pytest.mark.slow
class TestRetrainCli:
    def test_force_retrain_reloads_the_fleet(
        self, closed_loop, library, tmp_path, capsys
    ):
        """``mpicollpred retrain --rules-out R --fleet HOST:PORT`` refits,
        writes R and publishes it through the fleet's two-phase reload."""
        from repro.cli import main as cli_main
        from repro.serve.fleet import FleetClient, FleetSpec, FleetThread

        from tests.serve.conftest import make_rules_text

        dataset = tmp_path / "base"
        closed_loop["base"].save(dataset)
        boot_rules = tmp_path / "boot.conf"
        boot_rules.write_text(
            make_rules_text(library, "bcast", 4, 2, [(0, 1)])
        )
        rules_out = tmp_path / "retrained.conf"
        spec = FleetSpec(
            machine="TinyTestbed", rules=(str(boot_rules),), workers=1
        )
        with FleetThread(spec) as running:
            code = cli_main([
                "retrain", "--feedback", str(closed_loop["feedback_path"]),
                "--dataset", str(dataset), "--machine", "TinyTestbed",
                "--seed", "1", "--force", "--rules-out", str(rules_out),
                "--fleet", f"127.0.0.1:{running.port}",
            ])
            with FleetClient(running.port) as client:
                response = client.ask(
                    {"op": "recommend", "collective": "bcast", "nodes": 4,
                     "ppn": 2, "msize": 4096}
                )
        assert code == 0
        assert rules_out.read_text().strip()
        assert f"fleet reload @127.0.0.1:{running.port}: {{'ok': True" in (
            capsys.readouterr().err
        )
        assert response["ok"] and response["version"] == 2
