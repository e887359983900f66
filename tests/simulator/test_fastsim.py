"""Fast-tier evaluators: segments, pipeline scan, rounds, linear sweeps."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.collectives import trees
from repro.collectives.registry import algorithm_from_config
from repro.machine.model import NoiseModel
from repro.machine.topology import Topology
from repro.machine.zoo import tiny_testbed
from repro.mpilib import get_library
from repro.simulator.fastsim import (
    Round,
    contention_counts,
    linear_time,
    pipeline_tree_time,
    round_time,
    segment_sizes,
)
from repro.simulator.fastsim import _pipeline_scan

from tests.simulator.round_reference import copy_per_round

QUIET = tiny_testbed.with_noise(NoiseModel(sigma=0.0, spike_prob=0.0, floor=0.0))


class TestSegmentSizes:
    def test_unsegmented(self):
        np.testing.assert_array_equal(segment_sizes(1000, None), [1000])

    def test_exact_division(self):
        np.testing.assert_array_equal(segment_sizes(4096, 1024), [1024] * 4)

    def test_remainder(self):
        np.testing.assert_array_equal(segment_sizes(4100, 1024), [1024] * 4 + [4])

    def test_zero_bytes(self):
        np.testing.assert_array_equal(segment_sizes(0, 1024), [0])

    def test_segment_larger_than_message(self):
        np.testing.assert_array_equal(segment_sizes(10, 1024), [10])

    def test_invalid(self):
        with pytest.raises(ValueError):
            segment_sizes(-1, 10)
        with pytest.raises(ValueError):
            segment_sizes(10, 0)

    @given(
        st.integers(min_value=0, max_value=10**7),
        st.integers(min_value=1, max_value=10**6),
    )
    def test_sum_preserved(self, nbytes, seg):
        sizes = segment_sizes(nbytes, seg)
        assert sizes.sum() == max(nbytes, 0)
        assert (sizes[:-1] == seg).all() or nbytes <= seg
        assert len(sizes) == max(1, -(-nbytes // seg) if nbytes else 1)


class TestPipelineScan:
    @staticmethod
    def brute_force(ready, busy):
        end = np.empty_like(ready)
        prev = -np.inf
        for s in range(len(ready)):
            prev = max(prev, ready[s]) + busy[s]
            end[s] = prev
        return end

    @given(
        st.lists(
            st.floats(min_value=0, max_value=1e3, allow_nan=False),
            min_size=1,
            max_size=60,
        ),
        st.data(),
    )
    def test_matches_brute_force(self, ready_list, data):
        # `ready` must be nondecreasing (arrivals from an in-order
        # upstream), which the evaluator relies on.
        ready = np.cumsum(np.asarray(ready_list))
        busy = np.asarray(
            data.draw(
                st.lists(
                    st.floats(min_value=0, max_value=1e3, allow_nan=False),
                    min_size=len(ready),
                    max_size=len(ready),
                )
            )
        )
        start, end = _pipeline_scan(ready, busy)
        np.testing.assert_allclose(end, self.brute_force(ready, busy), rtol=1e-12)
        np.testing.assert_allclose(end - busy, start, rtol=1e-12)


class TestContentionCounts:
    def test_single_node_no_inter_edges(self):
        topo = Topology(1, 4)
        parent, _ = trees.binomial_tree(4)
        inject, drain = contention_counts(topo, parent)
        np.testing.assert_array_equal(inject, [1])
        np.testing.assert_array_equal(drain, [1])

    def test_chain_across_nodes(self):
        # Chain 0-1-2-3 over 2 nodes: one inter edge (1 -> 2).
        topo = Topology(2, 2)
        parent, _ = trees.pipeline_tree(4)
        inject, drain = contention_counts(topo, parent)
        np.testing.assert_array_equal(inject, [1, 1])
        np.testing.assert_array_equal(drain, [1, 1])

    def test_counts_at_least_one(self):
        topo = Topology(3, 2)
        parent, _ = trees.binomial_tree(6)
        inject, drain = contention_counts(topo, parent)
        assert (inject >= 1).all() and (drain >= 1).all()


class TestPipelineTreeTime:
    def test_single_rank_zero(self):
        topo = Topology(1, 1)
        parent = np.array([-1])
        assert pipeline_tree_time(QUIET, topo, parent, [[]], 1024, None) == 0.0

    def test_requires_spanning_by_default(self):
        topo = Topology(1, 3)
        parent = np.array([-1, 0, -2])
        with pytest.raises(ValueError, match="span"):
            pipeline_tree_time(QUIET, topo, parent, [[1], [], []], 10, None)

    def test_non_spanning_allowed_when_requested(self):
        topo = Topology(1, 3)
        parent = np.array([-1, 0, -2])
        t = pipeline_tree_time(
            QUIET, topo, parent, [[1], [], []], 10, None, require_spanning=False
        )
        assert t > 0

    def test_two_roots_rejected(self):
        topo = Topology(1, 2)
        parent = np.array([-1, -1])
        with pytest.raises(ValueError, match="root"):
            pipeline_tree_time(QUIET, topo, parent, [[], []], 10, None)

    def test_segmentation_helps_deep_chain_large_message(self):
        topo = Topology(8, 1)
        parent, children = trees.pipeline_tree(8)
        big = 1 << 20
        unseg = pipeline_tree_time(QUIET, topo, parent, children, big, None)
        seg = pipeline_tree_time(QUIET, topo, parent, children, big, 16384)
        assert seg < unseg * 0.5  # pipelining must pay off massively

    def test_segmentation_hurts_small_message(self):
        topo = Topology(8, 1)
        parent, children = trees.binomial_tree(8)
        t_one = pipeline_tree_time(QUIET, topo, parent, children, 64, None)
        t_many = pipeline_tree_time(QUIET, topo, parent, children, 64, 16)
        assert t_many > t_one  # per-segment overheads dominate

    def test_monotone_in_message_size(self):
        topo = Topology(4, 2)
        parent, children = trees.binomial_tree(8)
        times = [
            pipeline_tree_time(QUIET, topo, parent, children, m, 4096)
            for m in (0, 100, 10**4, 10**6)
        ]
        assert all(a < b for a, b in zip(times, times[1:], strict=False))

    def test_reduce_up_includes_gamma(self):
        topo = Topology(4, 1)
        parent, children = trees.binomial_tree(4)
        down = pipeline_tree_time(QUIET, topo, parent, children, 10**6, None)
        up = pipeline_tree_time(
            QUIET, topo, parent, children, 10**6, None, reduce_up=True
        )
        assert up > down  # reduction work on the way up


class TestRoundTime:
    def test_empty_rounds(self):
        assert round_time(QUIET, Topology(2, 1), []) == 0.0

    def test_rounds_additive(self):
        topo = Topology(2, 1)
        one = Round.make([0], [1], 1000)
        t1 = round_time(QUIET, topo, [one])
        t2 = round_time(QUIET, topo, [one, one])
        assert t2 == pytest.approx(2 * t1)

    def test_intra_cheaper_than_inter(self):
        intra = round_time(QUIET, Topology(1, 2), [Round.make([0], [1], 4096)])
        inter = round_time(QUIET, Topology(2, 1), [Round.make([0], [1], 4096)])
        assert intra < inter

    def test_nic_contention_scales_round(self):
        # 4 ranks on one node all sending to a second node.
        topo = Topology(2, 4)
        srcs, dsts = [0, 1, 2, 3], [4, 5, 6, 7]
        m = 10**6
        t = round_time(QUIET, topo, [Round.make(srcs, dsts, m)])
        t_single = round_time(QUIET, topo, [Round.make([0], [4], m)])
        assert t > 3 * t_single  # injections share the NIC

    def test_overlap_compute(self):
        topo = Topology(2, 1)
        m = 10**6
        summed = Round.make([0], [1], m, m)
        overlapped = Round.make([0], [1], m, m, overlap_compute=True)
        assert round_time(QUIET, topo, [overlapped]) < round_time(
            QUIET, topo, [summed]
        )

    def test_extra_seconds(self):
        topo = Topology(2, 1)
        base = Round.make([0], [1], 10)
        extra = Round.make([0], [1], 10, extra_seconds=1.0)
        assert round_time(QUIET, topo, [extra]) == pytest.approx(
            round_time(QUIET, topo, [base]) + 1.0
        )

    def test_mismatched_shapes_rejected(self):
        with pytest.raises(ValueError):
            round_time(
                QUIET, Topology(2, 1),
                [Round.make([0, 1], [1], 10)],
            )


@st.composite
def _round(draw, p: int) -> Round:
    """One round over ``p`` ranks: maybe no edges, scalar or per-edge
    byte counts, either compute mode, maybe an additive overhead."""
    k = draw(st.integers(0, 2 * p))
    ranks = st.integers(0, p - 1)
    srcs = draw(st.lists(ranks, min_size=k, max_size=k))
    dsts = draw(st.lists(ranks, min_size=k, max_size=k))
    sizes = st.integers(0, 1 << 22)
    nbytes = draw(st.one_of(sizes, st.lists(sizes, min_size=k, max_size=k)))
    compute = draw(st.one_of(sizes, st.lists(sizes, min_size=k, max_size=k)))
    return Round.make(
        srcs, dsts, nbytes, compute,
        overlap_compute=draw(st.booleans()),
        extra_seconds=draw(st.one_of(
            st.just(0.0), st.floats(0.0, 1e-3, allow_subnormal=False)
        )),
    )


class TestRoundReuse:
    """A repeated ``Round`` object is costed once; the total must equal,
    bit for bit, costing a fresh copy of every repeat."""

    @settings(max_examples=150, deadline=None)
    @given(
        nodes=st.integers(1, 4),
        ppn=st.integers(1, 3),
        data=st.data(),
    )
    def test_equals_copy_per_round(self, nodes, ppn, data):
        topo = Topology(nodes, ppn)
        pool = data.draw(st.lists(_round(topo.size), min_size=1, max_size=4))
        picks = data.draw(st.lists(
            st.tuples(st.integers(0, len(pool) - 1), st.integers(1, 6)),
            max_size=8,
        ))
        rounds = [pool[i] for i, repeat in picks for _ in range(repeat)]
        copies = [dataclasses.replace(r) for r in rounds]
        assert round_time(QUIET, topo, rounds) == round_time(QUIET, topo, copies)

    @pytest.mark.parametrize(
        "collective", ["allreduce", "allgather", "bcast", "reduce", "alltoall"]
    )
    def test_every_open_mpi_algorithm_matches_reference(self, collective):
        algos = [
            algorithm_from_config(config)
            for config in get_library("Open MPI").config_space(collective).configs
        ]
        cases = [
            (topo, nbytes)
            for topo in (Topology(1, 1), Topology(3, 1), Topology(4, 8),
                         Topology(5, 3))
            for nbytes in (0, 1, 1 << 20)
        ]

        def costs():
            return [
                [algo.base_time(QUIET, topo, m) for topo, m in cases
                 if algo.supported(topo, m)]
                for algo in algos
            ]

        reused = costs()
        with copy_per_round():
            reference = costs()
        for algo, got, want in zip(algos, reused, reference, strict=True):
            assert got == want, algo.config.label


class TestLinearTime:
    def test_no_peers_zero(self):
        assert linear_time(QUIET, Topology(2, 1), 0, [], 100) == 0.0

    def test_scatter_grows_with_peers(self):
        topo = Topology(4, 2)
        t2 = linear_time(QUIET, topo, 0, [1, 2], 10**5)
        t6 = linear_time(QUIET, topo, 0, list(range(1, 8)), 10**5)
        assert t6 > t2

    def test_gather_with_reduce_slower(self):
        topo = Topology(4, 1)
        peers = [1, 2, 3]
        plain = linear_time(QUIET, topo, 0, peers, 10**6, gather=True)
        reduced = linear_time(
            QUIET, topo, 0, peers, 10**6, gather=True, reduce_at_root=True
        )
        assert reduced > plain

    def test_negative_bytes_rejected(self):
        with pytest.raises(ValueError):
            linear_time(QUIET, Topology(2, 1), 0, [1], -1)
