"""Per-rank reference for ``fastsim.pipeline_tree_time``.

``pipeline_tree_time`` plans a tree once (BFS levels, padded child
matrices, per-edge costs as arrays) and then costs it one BFS level at
a time. :func:`pipeline_tree_time_reference` is the per-rank walk it
replaced: one Python step per rank and one scalar cost per tree edge.
Inside :func:`per_rank_trees` every collective module's
``pipeline_tree_time`` is this reference — what the planned path must
match bit for bit.
"""

from __future__ import annotations

import contextlib
import importlib
import pkgutil
from collections.abc import Sequence
from dataclasses import dataclass
from unittest import mock

import numpy as np

import repro.collectives
from repro.machine.model import MachineModel
from repro.machine.topology import Topology
from repro.simulator import fastsim
from repro.simulator.fastsim import contention_counts, segment_sizes


@dataclass(frozen=True)
class _EdgeCost:
    """Per-byte and fixed costs of one tree edge under contention."""

    busy_per_byte: float  # sender occupancy
    wire_per_byte: float  # end-to-end per-byte rate
    latency: float
    overhead: float

    def busy(self, sizes: np.ndarray) -> np.ndarray:
        return self.overhead + sizes * self.busy_per_byte

    def in_flight(self, sizes: np.ndarray) -> np.ndarray:
        """Time between injection end and payload arrival at the peer.

        Excludes the receiver's cpu overhead: that is charged to the
        *receiving rank's* occupancy (it serialises with its own sends),
        not to the wire.
        """
        extra = sizes * np.maximum(self.wire_per_byte - self.busy_per_byte, 0.0)
        return self.latency + extra


def _pipeline_scan(
    ready: np.ndarray, batch_busy: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``end[s] = max(end[s-1], ready[s]) + batch_busy[s]`` on one rank."""
    cum = np.cumsum(batch_busy)
    offset = np.maximum.accumulate(ready - (cum - batch_busy))
    end = cum + offset
    return end - batch_busy, end


def _edge_cost(
    machine: MachineModel,
    topo: Topology,
    src: int,
    dst: int,
    inject_count: np.ndarray,
    drain_count: np.ndarray,
) -> _EdgeCost:
    if topo.same_node(src, dst):
        return _EdgeCost(
            busy_per_byte=machine.beta_intra,
            wire_per_byte=machine.beta_intra,
            latency=machine.alpha_intra,
            overhead=machine.cpu_overhead,
        )
    inj = machine.nic_gap * inject_count[topo.node_of(src)]
    drain = machine.nic_gap * drain_count[topo.node_of(dst)]
    wire = max(machine.beta_inter, inj, drain)
    return _EdgeCost(
        busy_per_byte=inj,
        wire_per_byte=wire,
        latency=machine.alpha_inter,
        overhead=machine.cpu_overhead,
    )


def pipeline_tree_time_reference(
    machine: MachineModel,
    topo: Topology,
    parent: Sequence[int] | np.ndarray,
    children: Sequence[Sequence[int]],
    nbytes: int,
    seg_bytes: int | None,
    *,
    reduce_up: bool = False,
    require_spanning: bool = True,
) -> float:
    """Completion time of a segmented tree broadcast (or reduce).

    ``parent``/``children`` describe the tree over all ranks of
    ``topo``; segment ``seg_bytes`` splits the ``nbytes`` payload.
    With ``require_spanning=False`` ranks unreachable from the root are
    treated as non-participants (used by subtree phases of composite
    algorithms such as split-binary broadcast).

    Downward direction (``reduce_up=False``): the root owns all
    segments at t=0; every rank forwards each received segment to its
    children in the given order. Returns the time at which the last
    rank holds the last segment.

    Upward direction (``reduce_up=True``): leaves own their data; every
    parent receives each segment from each child (serialised) and folds
    it into its accumulator at the machine's reduction rate. Returns
    the time the root finishes combining the last segment.
    """
    parent = np.asarray(parent, dtype=np.int64)
    if parent.shape != (topo.size,):
        raise ValueError(
            f"parent array has shape {parent.shape}, expected ({topo.size},)"
        )
    # Convention: parent == -1 marks the root, parent == -2 marks ranks
    # absent from this (sub)tree phase.
    roots = np.flatnonzero(parent == -1)
    if len(roots) != 1:
        raise ValueError(f"tree must have exactly one root, found {len(roots)}")
    root = int(roots[0])
    sizes = segment_sizes(nbytes, seg_bytes)
    nseg = len(sizes)
    inject, drain = contention_counts(topo, parent)

    order = _bfs_order(root, children, topo.size, require_spanning)

    o = machine.cpu_overhead
    if not reduce_up:
        # ready[r] = *arrival* time of each segment at rank r (before
        # the receive overhead, which serialises with r's own sends).
        ready: list[np.ndarray | None] = [None] * topo.size
        ready[root] = np.zeros(nseg)
        finish = np.zeros(topo.size)
        for r in order:
            r_ready = ready[r]
            assert r_ready is not None
            recv_o = 0.0 if r == root else o
            kids = list(children[r])
            if not kids:
                finish[r] = r_ready[-1] + recv_o
                continue
            costs = [_edge_cost(machine, topo, r, c, inject, drain) for c in kids]
            batch_busy = np.full(nseg, recv_o)
            for cost in costs:
                batch_busy += cost.busy(sizes)
            start, end = _pipeline_scan(r_ready, batch_busy)
            finish[r] = end[-1]
            # Child c's copy of segment s arrives when its send (the
            # c-th in the batch) completes plus the in-flight part.
            prefix = np.full(nseg, recv_o)
            for cost, child in zip(costs, kids, strict=True):
                prefix += cost.busy(sizes)
                ready[child] = start + prefix + cost.in_flight(sizes)
        return float(finish.max())

    # Upward (reduce): process leaves first.
    sent: list[np.ndarray | None] = [None] * topo.size  # per-rank send end
    done = np.zeros(topo.size)
    for r in reversed(order):
        kids = list(children[r])
        if kids:
            # Receive from each child per segment, fold with gamma.
            arrive = np.zeros(nseg)
            for c in kids:
                cost = _edge_cost(machine, topo, c, r, inject, drain)
                c_send = sent[c]
                assert c_send is not None
                arrive = np.maximum(arrive, c_send + cost.in_flight(sizes))
            fold = len(kids) * (
                sizes * machine.gamma_reduce + machine.cpu_overhead
            )
            _, combined = _pipeline_scan(arrive, fold)
        else:
            combined = np.zeros(nseg)
        done[r] = combined[-1]
        if parent[r] >= 0:
            cost = _edge_cost(machine, topo, r, int(parent[r]), inject, drain)
            _, send_end = _pipeline_scan(combined, cost.busy(sizes))
            sent[r] = send_end
    return float(done[root])


def _bfs_order(
    root: int,
    children: Sequence[Sequence[int]],
    size: int,
    require_spanning: bool = True,
) -> list[int]:
    order = [root]
    seen = {root}
    head = 0
    while head < len(order):
        r = order[head]
        head += 1
        for c in children[r]:
            if c in seen:
                raise ValueError(f"rank {c} appears twice in the tree")
            seen.add(c)
            order.append(c)
    if require_spanning and len(order) != size:
        missing = size - len(order)
        raise ValueError(f"tree does not span all ranks ({missing} unreachable)")
    return order


@contextlib.contextmanager
def per_rank_trees():
    """Route every collective's ``pipeline_tree_time`` through the reference."""
    with contextlib.ExitStack() as stack:
        patched = []
        for info in pkgutil.iter_modules(repro.collectives.__path__):
            module = importlib.import_module(f"repro.collectives.{info.name}")
            planned = getattr(module, "pipeline_tree_time", None)
            if planned is fastsim.pipeline_tree_time:
                stack.enter_context(mock.patch.object(
                    module, "pipeline_tree_time", pipeline_tree_time_reference
                ))
                patched.append(info.name)
        assert set(patched) == {"allreduce", "bcast", "hierarchical", "reduce"}, patched
        yield
