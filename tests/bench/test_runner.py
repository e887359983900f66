"""Benchmark campaign runner -> PerfDataset."""

import dataclasses

import numpy as np
import pytest

from repro.bench.repro_mpi import BenchmarkSpec
from repro.bench.runner import DatasetRunner, GridSpec
from repro.experiments.datasets import Scale, dataset_spec
from repro.machine.zoo import get_machine, tiny_testbed
from repro.mpilib import get_library
from repro.simulator import fastsim

from tests.simulator.round_reference import copy_per_round
from tests.simulator.tree_reference import per_rank_trees


@pytest.fixture(scope="module")
def small_dataset():
    runner = DatasetRunner(
        tiny_testbed, get_library("Open MPI"),
        BenchmarkSpec(max_nreps=5), seed=11,
    )
    grid = GridSpec(nodes=(2, 4), ppns=(1, 2), msizes=(16, 4096))
    return runner.run("alltoall", grid, name="t-alltoall")


class TestGridSpec:
    def test_num_instances(self):
        grid = GridSpec(nodes=(2, 4), ppns=(1, 2, 3), msizes=(1, 2))
        assert grid.num_instances == 12

    def test_empty_axis_rejected(self):
        with pytest.raises(ValueError):
            GridSpec(nodes=(), ppns=(1,), msizes=(1,))

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            GridSpec(nodes=(2,), ppns=(1,), msizes=(-1,))


class TestRunner:
    def test_covers_full_grid(self, small_dataset):
        ds = small_dataset
        # alltoall space has 5 configs, all supported on these instances.
        assert len(ds) == 5 * 8
        assert set(np.unique(ds.nodes)) == {2, 4}
        assert set(np.unique(ds.ppn)) == {1, 2}
        assert set(np.unique(ds.msize)) == {16, 4096}

    def test_times_positive(self, small_dataset):
        assert (small_dataset.time > 0).all()

    def test_metadata(self, small_dataset):
        assert small_dataset.machine == "TinyTestbed"
        assert small_dataset.library == "Open MPI 4.0.2"
        assert small_dataset.name == "t-alltoall"

    def test_deterministic_across_runs(self):
        def make():
            runner = DatasetRunner(
                tiny_testbed, get_library("Open MPI"),
                BenchmarkSpec(max_nreps=5), seed=11,
            )
            grid = GridSpec(nodes=(2,), ppns=(2,), msizes=(1024,))
            return runner.run("bcast", grid, name="det")

        a, b = make(), make()
        np.testing.assert_array_equal(a.time, b.time)

    def test_seed_changes_results(self):
        def make(seed):
            runner = DatasetRunner(
                tiny_testbed, get_library("Open MPI"),
                BenchmarkSpec(max_nreps=5), seed=seed,
            )
            grid = GridSpec(nodes=(2,), ppns=(2,), msizes=(1024,))
            return runner.run("bcast", grid, name="det")

        assert not np.array_equal(make(1).time, make(2).time)

    def test_exclude_algids(self):
        runner = DatasetRunner(
            tiny_testbed, get_library("Open MPI"),
            BenchmarkSpec(max_nreps=3), seed=0,
        )
        grid = GridSpec(nodes=(2,), ppns=(1,), msizes=(64,))
        ds = runner.run("bcast", grid, name="x", exclude_algids=(8, 9))
        algids = {c.algid for c in ds.configs}
        assert 8 not in algids and 9 not in algids

    def test_unsupported_instances_skipped(self):
        # split_binary (algid 4) cannot run on 2 ranks.
        runner = DatasetRunner(
            tiny_testbed, get_library("Open MPI"),
            BenchmarkSpec(max_nreps=3), seed=0,
        )
        grid = GridSpec(nodes=(2,), ppns=(1,), msizes=(64,))
        ds = runner.run("bcast", grid, name="x")
        split_ids = [
            i for i, c in enumerate(ds.configs) if c.name == "split_binary"
        ]
        for cid in split_ids:
            assert not ds.rows_of_config(cid).any()

    def test_shape_validation(self):
        runner = DatasetRunner(
            tiny_testbed, get_library("Open MPI"), BenchmarkSpec(max_nreps=3)
        )
        grid = GridSpec(nodes=(64,), ppns=(1,), msizes=(1,))
        with pytest.raises(ValueError):
            runner.run("bcast", grid)

    def test_progress_callback(self):
        seen = []
        runner = DatasetRunner(
            tiny_testbed, get_library("Open MPI"),
            BenchmarkSpec(max_nreps=3), seed=0,
        )
        grid = GridSpec(nodes=(2,), ppns=(1, 2), msizes=(64,))
        runner.run(
            "alltoall", grid, name="p",
            progress=lambda done, total: seen.append((done, total)),
        )
        assert seen and seen[-1][0] == seen[-1][1]


class TestGridSpecBounds:
    """PR 1 bugfix: 0-node / 0-ppn grids used to pass validation."""

    def test_zero_nodes_rejected(self):
        with pytest.raises(ValueError, match="nodes"):
            GridSpec(nodes=(0,), ppns=(1,), msizes=(1,))

    def test_zero_ppn_rejected(self):
        with pytest.raises(ValueError, match="ppns"):
            GridSpec(nodes=(2,), ppns=(0, 1), msizes=(1,))

    def test_zero_msize_allowed(self):
        # A 0-byte collective invocation is legitimate.
        grid = GridSpec(nodes=(2,), ppns=(1,), msizes=(0, 16))
        assert grid.num_instances == 2

    def test_negative_nodes_rejected(self):
        with pytest.raises(ValueError, match="nodes"):
            GridSpec(nodes=(-2,), ppns=(1,), msizes=(1,))


class TestParallelRunner:
    GRID = GridSpec(nodes=(2, 4), ppns=(1, 2), msizes=(16, 1024, 65536))

    def _run(self, n_jobs, progress=None):
        runner = DatasetRunner(
            tiny_testbed, get_library("Open MPI"),
            BenchmarkSpec(max_nreps=5), seed=11,
        )
        return runner.run(
            "bcast", self.GRID, name="par", n_jobs=n_jobs, progress=progress
        )

    @pytest.mark.parametrize("n_jobs", [2, 4])
    def test_bit_identical_to_serial(self, n_jobs):
        serial = self._run(1)
        parallel = self._run(n_jobs)
        for attr in ("config_id", "nodes", "ppn", "msize", "time"):
            np.testing.assert_array_equal(
                getattr(serial, attr), getattr(parallel, attr)
            )

    def test_env_knob_bit_identical(self, monkeypatch):
        serial = self._run(1)
        monkeypatch.setenv("REPRO_JOBS", "4")
        parallel = self._run(None)
        np.testing.assert_array_equal(serial.time, parallel.time)

    def test_progress_monotone_and_complete(self):
        calls = []
        self._run(4, progress=lambda done, total: calls.append((done, total)))
        dones = [d for d, _ in calls]
        assert dones == sorted(dones)
        total = calls[-1][1]
        assert calls[-1][0] == total
        assert total == 63 * self.GRID.num_instances  # 63 bcast configs


def d2_campaign(seed: int, n_jobs: int):
    """d2's CI grid trimmed to nodes (4, 8)."""
    spec = dataset_spec("d2")
    grid = dataclasses.replace(spec.grid(Scale.CI), nodes=(4, 8))
    runner = DatasetRunner(
        get_machine(spec.machine), get_library(spec.library),
        BenchmarkSpec(max_nreps=25), seed=seed,
    )
    return runner.run(
        spec.collective, grid, name="d2-ci",
        exclude_algids=spec.exclude_algids, n_jobs=n_jobs,
    )


class TestRoundReuseCampaign:
    """The d2 campaign with round reuse is array-equal to one costing a
    fresh copy of every round, at any worker count."""

    @pytest.mark.parametrize("seed", [1, 2])
    def test_d2_campaign_matches_copy_per_round(self, seed):
        with copy_per_round():
            reference = d2_campaign(seed, 1)
        for n_jobs in (1, 2):
            reused = d2_campaign(seed, n_jobs)
            for attr in ("config_id", "nodes", "ppn", "msize", "time"):
                np.testing.assert_array_equal(
                    getattr(reused, attr), getattr(reference, attr)
                )


class TestTreePlanCampaign:
    """Campaigns costed through planned trees are array-equal to ones
    walking every tree rank by rank, at any worker count."""

    COLUMNS = ("config_id", "nodes", "ppn", "msize", "time")

    @staticmethod
    def assert_planned_matches_reference(campaign):
        with per_rank_trees():
            reference = campaign(1)
        for n_jobs in (1, 2):
            fastsim._tree_plan.cache_clear()  # threads build the plans
            planned = campaign(n_jobs)
            for attr in TestTreePlanCampaign.COLUMNS:
                np.testing.assert_array_equal(
                    getattr(planned, attr), getattr(reference, attr)
                )

    @pytest.mark.parametrize("seed", [1, 2])
    def test_d2_campaign_matches_per_rank_trees(self, seed):
        self.assert_planned_matches_reference(
            lambda n_jobs: d2_campaign(seed, n_jobs)
        )

    def test_tiny_testbed_bcast_campaign_matches_per_rank_trees(self):
        # the retrain workload's base campaign: chains, split-binary and
        # hierarchical trees on small allocations
        grid = GridSpec(
            nodes=(2, 4, 8), ppns=(1, 2),
            msizes=(64, 1024, 4096, 65_536, 262_144, 1_048_576),
        )

        def campaign(n_jobs):
            runner = DatasetRunner(
                tiny_testbed, get_library("Open MPI"),
                BenchmarkSpec(max_nreps=30), seed=1,
            )
            return runner.run("bcast", grid, name="tiny-bcast", n_jobs=n_jobs)

        self.assert_planned_matches_reference(campaign)
