"""Planned ``pipeline_tree_time`` against the per-rank reference.

``pipeline_tree_time`` plans a tree once and costs it one BFS level at
a time; every result must equal, bit for bit (``==``), the per-rank
walk in ``tests/simulator/tree_reference.py``, and every malformed tree
must be refused with the reference's ``ValueError``.
"""

import re
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.collectives import trees
from repro.collectives.bcast import BcastSplitBinary
from repro.machine.topology import Topology
from repro.machine.zoo import hydra, supermuc_ng, tiny_testbed
from repro.simulator import fastsim
from repro.simulator.fastsim import pipeline_tree_time
from repro.utils.parallel import parallel_map

from tests.simulator.tree_reference import pipeline_tree_time_reference

MACHINES = (hydra, supermuc_ng, tiny_testbed)
MiB = 1 << 20

BUILDERS = {
    "binomial": lambda p, root, k: trees.binomial_tree(p, root),
    "knomial": lambda p, root, k: trees.knomial_tree(p, 2 + k % 4, root),
    "binary": lambda p, root, k: trees.binary_tree(p, root),
    "chain": lambda p, root, k: trees.chain_tree(p, 1 + k % 8, root),
    "pipeline": lambda p, root, k: trees.pipeline_tree(p, root),
}


def restrict(tree, root, keep):
    """The root plus the subtrees of the root's children in ``keep``;
    every other rank is marked absent (-2), as split-binary's sides are."""
    parent, children = tree
    member = {root}
    stack = [c for c in children[root] if c in keep]
    while stack:
        r = stack.pop()
        member.add(r)
        stack.extend(children[r])
    sub_parent = np.where(np.isin(np.arange(len(parent)), list(member)), parent, -2)
    sub_children = [
        [c for c in kids if c in member] if r in member else []
        for r, kids in enumerate(children)
    ]
    return sub_parent, sub_children


@st.composite
def tree_cases(draw):
    topo = Topology(draw(st.integers(1, 36)), draw(st.integers(1, 32)))
    p = topo.size
    root = draw(st.integers(0, p - 1))
    name = draw(st.sampled_from(sorted(BUILDERS)))
    tree = BUILDERS[name](p, root, draw(st.integers(0, 7)))
    spanning = draw(st.booleans())
    if not spanning:
        heads = tree[1][root]
        keep = draw(st.lists(st.sampled_from(heads), unique=True)) if heads else []
        tree = restrict(tree, root, set(keep))
    nbytes = draw(st.one_of(
        st.sampled_from([0, 1, 4 * MiB]),
        st.integers(0, 3 * MiB).map(lambda m: m | 1),
    ))
    # at most 256 segments keeps the per-rank reference quick
    seg = draw(st.one_of(
        st.none(), st.integers(max(1, -(-nbytes // 256)), 64 * 1024)
    ))
    return topo, tree, nbytes, seg, spanning


class TestPlannedEqualsReference:
    @settings(max_examples=120, deadline=None)
    @given(
        case=tree_cases(),
        machine=st.sampled_from(MACHINES),
        reduce_up=st.booleans(),
    )
    def test_bit_equal(self, case, machine, reduce_up):
        topo, (parent, children), nbytes, seg, spanning = case
        kwargs = dict(reduce_up=reduce_up, require_spanning=spanning)
        want = pipeline_tree_time_reference(
            machine, topo, parent, children, nbytes, seg, **kwargs
        )
        got = pipeline_tree_time(machine, topo, parent, children, nbytes, seg, **kwargs)
        assert got == want
        # a second call reads the cached plan
        assert pipeline_tree_time(
            machine, topo, parent, children, nbytes, seg, **kwargs
        ) == want

    @pytest.mark.parametrize("topo", [Topology(1, 1), Topology(1, 2), Topology(3, 1),
                                      Topology(5, 3), Topology(36, 32)])
    @pytest.mark.parametrize("reduce_up", [False, True])
    def test_split_binary_sides(self, topo, reduce_up):
        algo = BcastSplitBinary(segsize=1024, root=topo.size // 2)
        for side in algo._halves(topo):
            if not side:
                continue
            parent, children = algo._side_tree(topo, side)
            for nbytes in (0, 1, 4097, 4 * MiB):
                args = (hydra, topo, parent, children, nbytes, 16384)
                kwargs = dict(reduce_up=reduce_up, require_spanning=False)
                assert pipeline_tree_time(*args, **kwargs) == \
                    pipeline_tree_time_reference(*args, **kwargs)


def _same_error(parent, children, **kwargs):
    args = (hydra, Topology(1, 3), np.asarray(parent), children, 10, None)
    with pytest.raises(ValueError) as want:
        pipeline_tree_time_reference(*args, **kwargs)
    with pytest.raises(ValueError, match=re.escape(str(want.value))):
        pipeline_tree_time(*args, **kwargs)


class TestMalformedTrees:
    @pytest.mark.parametrize("reduce_up", [False, True])
    def test_two_roots(self, reduce_up):
        _same_error([-1, -1, 0], [[2], [], []], reduce_up=reduce_up)

    @pytest.mark.parametrize("reduce_up", [False, True])
    def test_duplicate_rank(self, reduce_up):
        _same_error([-1, 0, 0], [[1, 2], [2], []], reduce_up=reduce_up)

    @pytest.mark.parametrize("reduce_up", [False, True])
    def test_not_spanning(self, reduce_up):
        _same_error([-1, 0, -2], [[1], [], []], reduce_up=reduce_up)

    def test_wrong_shape(self):
        _same_error([-1, 0], [[1], []])

    def test_errors_are_not_cached(self):
        parent, children = np.array([-1, 0, -2]), [[1], [], []]
        for _ in range(2):
            with pytest.raises(ValueError, match="span"):
                pipeline_tree_time(hydra, Topology(1, 3), parent, children, 10, None)

    def test_parent_entry_must_match_lister(self):
        # rank 2 is listed by rank 1 but claims rank 0 as its parent:
        # the plan indexes edges by child, so this is refused.
        with pytest.raises(ValueError, match="rank 2 is a child of rank 1"):
            pipeline_tree_time(
                hydra, Topology(1, 3), np.array([-1, 0, 0]), [[1], [2], []], 10, None
            )


class TestPlanCache:
    def test_keyed_by_value(self):
        topo = Topology(4, 2)
        fastsim._tree_plan.cache_clear()
        first = trees.binomial_tree(topo.size, 3)
        pipeline_tree_time(hydra, topo, *first, 4096, 512)
        # an equal tree built afresh (new objects) reuses the plan ...
        pipeline_tree_time(hydra, topo, *trees.binomial_tree(topo.size, 3), 4096, 512)
        assert fastsim._tree_plan.cache_info().hits == 1
        # ... while a tree of equal shape but other children does not
        other = trees.binomial_tree(topo.size, 4)
        got = pipeline_tree_time(hydra, topo, *other, 4096, 512)
        assert got == pipeline_tree_time_reference(hydra, topo, *other, 4096, 512)
        assert fastsim._tree_plan.cache_info().misses == 2

    def test_bounded(self):
        fastsim._tree_plan.cache_clear()
        for n in range(1, fastsim._PLAN_CACHE_SIZE + 8):
            pipeline_tree_time(hydra, Topology(n, 1), *trees.binomial_tree(n), 1, None)
        assert fastsim._tree_plan.cache_info().misses == fastsim._PLAN_CACHE_SIZE + 7
        assert fastsim._tree_plan.cache_info().currsize <= fastsim._PLAN_CACHE_SIZE

    def test_threads_agree_with_reference(self):
        # more threads than cores, switching often, on a cache smaller
        # than the working set: plans are built, evicted and read
        # concurrently, and every result must still be the reference's
        topo = Topology(6, 4)
        cases = [
            (BUILDERS[name](topo.size, root, k), nbytes, up)
            for name in sorted(BUILDERS)
            for root in range(0, topo.size, 2)
            for k in (1, 3)
            for nbytes in (1, 65537)
            for up in (False, True)
        ]
        want = [
            pipeline_tree_time_reference(hydra, topo, *tree, nbytes, 4096, reduce_up=up)
            for tree, nbytes, up in cases
        ]

        def cost(case):
            tree, nbytes, up = case
            return pipeline_tree_time(hydra, topo, *tree, nbytes, 4096, reduce_up=up)

        fastsim._tree_plan.cache_clear()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = parallel_map(cost, cases * 2, n_jobs=6)
        finally:
            sys.setswitchinterval(interval)
        assert got == want * 2
        assert fastsim._tree_plan.cache_info().currsize <= fastsim._PLAN_CACHE_SIZE
