"""Vectorised cost evaluators for the structural families of collectives.

Every collective algorithm in :mod:`repro.collectives` is, structurally,
one of three things (or a composition of them):

* a **linear sweep** — one rank sends to / receives from a list of peers
  sequentially (basic linear broadcast / reduce / gather),
* a **segmented pipelined tree** — data cut into segments flowing down
  (broadcast) or up (reduce) a tree, with every rank forwarding each
  segment to its children in a fixed order (chain, pipeline, binary,
  binomial, k-nomial, split-binary),
* a sequence of **synchronous rounds** — in round ``k`` every rank
  exchanges a message with one peer and possibly reduces (recursive
  doubling, ring, Bruck, pairwise exchange).

The evaluators below compute the same dependency recurrences the exact
engine (:mod:`repro.simulator.engine`) resolves event by event, but
vectorised with NumPy over the segment (resp. rank) dimension. The key
identity for pipelines: with per-segment batch busy time ``B[s]`` and
upstream availability ``ready[s]``, the completion of segment ``s`` is ::

    end[s] = max(end[s-1], ready[s]) + B[s]
           = C[s] + max_{j<=s} (ready[j] - C[j-1]),   C = cumsum(B)

a running maximum, i.e. ``np.maximum.accumulate``.

NIC contention is approximated *structurally*: each edge's effective
per-byte rate is inflated by the number of distinct ranks on the source
(resp. destination) node that send (resp. receive) inter-node traffic
concurrently in the same phase. The exact engine resolves the true
interleaving; the agreement between the two tiers is covered by
``tests/simulator/test_fastsim_vs_engine.py`` and the A1 ablation bench.

All evaluators return *deterministic* base times; measurement noise is
applied per repetition by the benchmark harness (:mod:`repro.bench`).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.machine.model import MachineModel
from repro.machine.topology import Topology

__all__ = [
    "linear_time",
    "pipeline_tree_time",
    "round_time",
    "Round",
    "segment_sizes",
    "contention_counts",
]


def segment_sizes(nbytes: int, seg_bytes: int | None) -> np.ndarray:
    """Split ``nbytes`` into segments of ``seg_bytes`` (last may be short).

    ``seg_bytes=None`` (or a segment at least as large as the message)
    yields a single segment. A zero-byte message still produces one
    zero-byte segment, because MPI collectives on empty buffers still
    synchronise.
    """
    if nbytes < 0:
        raise ValueError(f"nbytes must be >= 0, got {nbytes}")
    if seg_bytes is not None and seg_bytes <= 0:
        raise ValueError(f"seg_bytes must be positive, got {seg_bytes}")
    if nbytes == 0:
        return np.zeros(1, dtype=np.int64)
    if seg_bytes is None or seg_bytes >= nbytes:
        return np.array([nbytes], dtype=np.int64)
    nfull, rest = divmod(nbytes, seg_bytes)
    sizes = np.full(nfull + (1 if rest else 0), seg_bytes, dtype=np.int64)
    if rest:
        sizes[-1] = rest
    return sizes


def contention_counts(
    topo: Topology, parent: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Per-node counts of concurrently injecting / draining ranks.

    ``parent[r]`` is rank ``r``'s parent in a tree (-1 for the root).
    Returns ``(inject_count, drain_count)`` per node: the number of
    distinct ranks on each node that have at least one inter-node child
    (they inject) and the number with an inter-node parent (they drain).
    Counts are clipped to at least 1 so they can be used directly as
    rate multipliers.
    """
    node = topo.node_map
    ranks = np.arange(topo.size)
    has_parent = parent >= 0
    inter_edge = has_parent & (node[parent.clip(min=0)] != node[ranks])
    drain = np.bincount(node[ranks[inter_edge]], minlength=topo.num_nodes)
    # A rank injects if at least one of its children is on another node.
    injecting_parents = np.unique(parent[inter_edge]) if inter_edge.any() else []
    inject = np.zeros(topo.num_nodes, dtype=np.int64)
    if len(injecting_parents):
        inject = np.bincount(
            node[np.asarray(injecting_parents)], minlength=topo.num_nodes
        )
    return inject.clip(min=1), drain.clip(min=1)


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


def _pipeline_scan(
    ready: np.ndarray, batch_busy: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Max-plus scan: completion of each segment batch on one rank.

    ``ready[s]`` is when segment ``s`` becomes available locally,
    ``batch_busy[s]`` the rank's total occupancy to forward it.
    Returns ``(start, end)`` arrays with
    ``end[s] = max(end[s-1], ready[s]) + batch_busy[s]``.
    """
    cum = np.cumsum(batch_busy)
    offset = np.maximum.accumulate(ready - (cum - batch_busy))
    end = cum + offset
    return end - batch_busy, end


def pipeline_tree_time(
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


@dataclass(frozen=True)
class Round:
    """One synchronous communication round.

    ``srcs[i] -> dsts[i]`` carries ``nbytes[i]`` bytes; after receiving,
    each destination performs ``compute_bytes[i]`` bytes of reduction
    work. Scalars broadcast over the edge dimension.

    ``overlap_compute=True`` models algorithms that pipeline the
    reduction with the transfer (e.g. the segmented ring): the round
    then costs ``max(comm, compute)`` instead of their sum.
    ``extra_seconds`` is an additive per-round overhead (e.g. the
    per-segment message overheads of a segmented exchange).

    A builder that repeats a round returns the *same object* for every
    repeat; :func:`round_time` costs consecutive repeats once and still
    adds that cost once per repeat, in order.
    """

    srcs: np.ndarray
    dsts: np.ndarray
    nbytes: np.ndarray | int
    compute_bytes: np.ndarray | int = 0
    overlap_compute: bool = False
    extra_seconds: float = 0.0

    @staticmethod
    def make(
        srcs: Sequence[int],
        dsts: Sequence[int],
        nbytes: Sequence[int] | int,
        compute_bytes: Sequence[int] | int = 0,
        *,
        overlap_compute: bool = False,
        extra_seconds: float = 0.0,
    ) -> "Round":
        return Round(
            srcs=np.asarray(srcs, dtype=np.int64),
            dsts=np.asarray(dsts, dtype=np.int64),
            nbytes=np.asarray(nbytes, dtype=np.int64)
            if not np.isscalar(nbytes)
            else int(nbytes),
            compute_bytes=np.asarray(compute_bytes, dtype=np.int64)
            if not np.isscalar(compute_bytes)
            else int(compute_bytes),
            overlap_compute=overlap_compute,
            extra_seconds=extra_seconds,
        )


def round_time(
    machine: MachineModel, topo: Topology, rounds: Sequence[Round]
) -> float:
    """Total time of a sequence of synchronous rounds.

    Each round lasts as long as its slowest edge; edges within a round
    run concurrently but share node NICs (every node's inter-node
    injections serialise at ``nic_gap`` per byte, likewise drains).
    This matches how round-based algorithms (recursive doubling, ring,
    Bruck, pairwise) behave under a single-port model: rank ``r``
    cannot start round ``k+1`` before finishing round ``k``, and in the
    symmetric patterns used here the slowest edge gates everyone.

    Consecutive repeats of one ``Round`` object are costed once; the
    sum still adds one term per repeat in sequence order, so the result
    is bit-identical to costing a fresh copy of every repeat.
    """
    node = topo.node_map
    total = 0.0
    last: Round | None = None
    cost = 0.0
    for rnd in rounds:
        if rnd is last:
            total += cost
            continue
        srcs = np.asarray(rnd.srcs, dtype=np.int64)
        dsts = np.asarray(rnd.dsts, dtype=np.int64)
        if srcs.shape != dsts.shape:
            raise ValueError("srcs and dsts must have the same shape")
        if len(srcs) == 0:
            continue
        nbytes = np.broadcast_to(np.asarray(rnd.nbytes), srcs.shape).astype(float)
        compute = np.broadcast_to(np.asarray(rnd.compute_bytes), srcs.shape)
        src_node = node[srcs]
        dst_node = node[dsts]
        inter = src_node != dst_node

        time = np.empty(len(srcs))
        # Intra-node edges: plain shared-memory copy.
        time[~inter] = machine.alpha_intra + nbytes[~inter] * machine.beta_intra
        if inter.any():
            inj_bytes = np.bincount(
                src_node[inter], weights=nbytes[inter], minlength=topo.num_nodes
            )
            drain_bytes = np.bincount(
                dst_node[inter], weights=nbytes[inter], minlength=topo.num_nodes
            )
            per_edge = np.maximum(
                nbytes[inter] * machine.beta_inter,
                np.maximum(
                    inj_bytes[src_node[inter]], drain_bytes[dst_node[inter]]
                )
                * machine.nic_gap,
            )
            time[inter] = machine.alpha_inter + per_edge
        compute_time = compute * machine.gamma_reduce
        if rnd.overlap_compute:
            time = np.maximum(time, compute_time)
        else:
            time = time + compute_time
        time += 2 * machine.cpu_overhead
        last, cost = rnd, float(time.max()) + rnd.extra_seconds
        total += cost
    return total


def linear_time(
    machine: MachineModel,
    topo: Topology,
    root: int,
    peers: Sequence[int],
    nbytes: int,
    *,
    gather: bool = False,
    reduce_at_root: bool = False,
) -> float:
    """Sequential root-centred sweep (basic linear algorithms).

    ``gather=False``: the root sends ``nbytes`` to each peer in order
    (linear broadcast / scatter leg); completion is the last delivery.
    ``gather=True``: each peer sends to the root, which receives them in
    order, optionally folding each into an accumulator
    (``reduce_at_root``) at the machine's reduction rate.
    """
    if nbytes < 0:
        raise ValueError(f"nbytes must be >= 0, got {nbytes}")
    o = machine.cpu_overhead
    m = float(nbytes)
    if not gather:
        clock = 0.0
        last_delivery = 0.0
        dst_nic_free = np.zeros(topo.num_nodes)
        for dst in peers:
            clock += o
            if topo.same_node(root, dst):
                busy = m * machine.beta_intra
                arrival = clock + machine.alpha_intra + busy
                clock += busy
            else:
                inject_end = clock + m * machine.nic_gap
                dnode = topo.node_of(dst)
                drain_start = max(
                    clock + machine.alpha_inter, dst_nic_free[dnode]
                )
                arrival = max(
                    drain_start + m * machine.nic_gap,
                    clock + machine.alpha_inter + m * machine.beta_inter,
                )
                dst_nic_free[dnode] = arrival
                clock = inject_end
            last_delivery = max(last_delivery, arrival + o)
        return max(clock, last_delivery)

    # Gather direction: peers race to the root's NIC; the root drains
    # them one after another and (optionally) folds each buffer.
    clock = 0.0
    src_nic_free = np.zeros(topo.num_nodes)
    for src in peers:
        if topo.same_node(src, root):
            arrival = o + machine.alpha_intra + m * machine.beta_intra
        else:
            snode = topo.node_of(src)
            inject_start = max(o, src_nic_free[snode])
            src_nic_free[snode] = inject_start + m * machine.nic_gap
            arrival = inject_start + machine.alpha_inter + m * machine.beta_inter
        clock = max(clock, arrival) + o
        if not topo.same_node(src, root):
            clock += m * machine.nic_gap  # root NIC drains serially
        if reduce_at_root:
            clock += m * machine.gamma_reduce
    return clock
