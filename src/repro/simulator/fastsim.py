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

a running maximum, i.e. ``np.maximum.accumulate``. A tree is planned
once (BFS levels, padded child columns, per-edge costs as arrays; cached
by value) and each call scans all ranks of one BFS level as one
``(ranks, segments)`` array, bit-identical to scanning rank by rank.

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

import functools
from collections.abc import Sequence
from dataclasses import dataclass
from typing import NamedTuple

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


def _pipeline_scan(
    ready: np.ndarray, batch_busy: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Max-plus scan: completion of each segment batch on one rank.

    ``ready[..., s]`` is when segment ``s`` becomes available locally,
    ``batch_busy[..., s]`` the rank's total occupancy to forward it.
    Returns ``(start, end)`` arrays with
    ``end[s] = max(end[s-1], ready[s]) + batch_busy[s]`` along the last
    axis. A 2-D input holds one rank per row; each row is scanned in
    segment order on its own, exactly as it would be alone.
    """
    cum = np.cumsum(batch_busy, axis=-1)
    offset = np.maximum.accumulate(ready - (cum - batch_busy), axis=-1)
    end = cum + offset
    return end - batch_busy, end


class _LinkCosts(NamedTuple):
    """The machine constants a tree plan depends on (its cache key)."""

    alpha_inter: float
    beta_inter: float
    nic_gap: float
    alpha_intra: float
    beta_intra: float
    cpu_overhead: float

    @classmethod
    def of(cls, machine: MachineModel) -> "_LinkCosts":
        return cls(
            machine.alpha_inter, machine.beta_inter, machine.nic_gap,
            machine.alpha_intra, machine.beta_intra, machine.cpu_overhead,
        )


class _Hop(NamedTuple):
    """The ``j``-th child of every sending rank of one BFS level.

    ``kid`` holds the child ranks, padded with the dummy edge for ranks
    with fewer than ``j + 1`` children. The cost columns are ``(R, 1)``
    so they broadcast over segments; the dummy edge costs exactly zero,
    so a padded hop adds ``+0.0``.
    """

    kid: np.ndarray
    overhead: np.ndarray
    busy_per_byte: np.ndarray  # sender occupancy per byte
    latency: np.ndarray
    excess_per_byte: np.ndarray  # max(wire - busy, 0) per byte in flight


class _Level(NamedTuple):
    """One BFS depth: its ranks (those with children first), their
    children in send order and, upward, each rank's edge to its parent."""

    ranks: np.ndarray
    n_internal: int
    hops: tuple[_Hop, ...]
    nkids: np.ndarray  # (n_internal, 1)
    up_overhead: np.ndarray | None  # (len(ranks), 1); upward, depth >= 1
    up_busy_per_byte: np.ndarray | None


class _TreePlan(NamedTuple):
    """Everything about a tree that does not depend on the message."""

    size: int
    levels: tuple[_Level, ...]
    leaves: np.ndarray  # non-root ranks without children


#: plans kept per process; a campaign chunk needs a few per topology
_PLAN_CACHE_SIZE = 64


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

    The tree is planned once per (tree, topology, link costs,
    direction) and the plan is cached by value; each call then costs
    one BFS level at a time as ``(ranks, segments)`` array steps.
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
    sizes = segment_sizes(nbytes, seg_bytes)
    plan = _tree_plan(
        parent.tobytes(), tuple(map(tuple, children)),
        topo.num_nodes, topo.ppn, _LinkCosts.of(machine),
        reduce_up, require_spanning,
    )
    if reduce_up:
        return _reduce_up(plan, sizes, machine)
    return _bcast_down(plan, sizes, machine.cpu_overhead)


def _bcast_down(plan: _TreePlan, sizes: np.ndarray, o: float) -> float:
    # ready[r] = *arrival* time of each segment at rank r (before the
    # receive overhead, which serialises with r's own sends); the last
    # row belongs to the dummy edge and is never read.
    ready = np.empty((plan.size + 1, len(sizes)))
    ready[plan.levels[0].ranks] = 0.0
    finish = 0.0
    for depth, level in enumerate(plan.levels):
        if not level.n_internal:
            continue
        recv_o = 0.0 if depth == 0 else o
        # prefix[j]: occupancy up to and including the send to child j
        prefix = []
        for hop in level.hops:
            busy = hop.overhead + sizes * hop.busy_per_byte
            prefix.append(busy + (prefix[-1] if prefix else recv_o))
        start, end = _pipeline_scan(
            ready[level.ranks[: level.n_internal]], prefix[-1]
        )
        finish = max(finish, end[:, -1].max())
        # Child j's copy of segment s arrives when its send (the j-th
        # in the batch) completes plus the in-flight part.
        for hop, done in zip(level.hops, prefix, strict=True):
            in_flight = hop.latency + sizes * hop.excess_per_byte
            ready[hop.kid] = start + done + in_flight
    if len(plan.leaves):
        finish = max(finish, (ready[plan.leaves, -1] + o).max())
    return float(finish)


def _reduce_up(plan: _TreePlan, sizes: np.ndarray, machine: MachineModel) -> float:
    # sent[r] = when rank r's send of each segment to its parent ends;
    # the dummy edge's row stays zero so padded hops never win a max.
    sent = np.empty((plan.size + 1, len(sizes)))
    sent[plan.size] = 0.0
    fold = sizes * machine.gamma_reduce + machine.cpu_overhead

    def combined(level: _Level) -> np.ndarray:
        """When each rank of ``level`` has folded in each segment."""
        out = np.zeros((len(level.ranks), len(sizes)))  # leaves: own data
        if level.n_internal:
            # Receive from each child per segment, fold with gamma.
            arrive = None
            for hop in level.hops:
                got = sent[hop.kid] + (hop.latency + sizes * hop.excess_per_byte)
                arrive = got if arrive is None else np.maximum(arrive, got)
            _, out[: level.n_internal] = _pipeline_scan(arrive, level.nkids * fold)
        return out

    for level in reversed(plan.levels[1:]):
        busy = level.up_overhead + sizes * level.up_busy_per_byte
        _, sent[level.ranks] = _pipeline_scan(combined(level), busy)
    return float(combined(plan.levels[0])[0, -1])


@functools.lru_cache(maxsize=_PLAN_CACHE_SIZE)
def _tree_plan(
    parent_bytes: bytes,
    children: tuple[tuple[int, ...], ...],
    num_nodes: int,
    ppn: int,
    costs: _LinkCosts,
    reduce_up: bool,
    require_spanning: bool,
) -> _TreePlan:
    """BFS levels, padded hop matrices and per-edge costs of one tree."""
    topo = Topology(num_nodes, ppn)
    parent = np.frombuffer(parent_bytes, dtype=np.int64)
    root = int(np.flatnonzero(parent == -1)[0])
    depths = _bfs_levels(root, children, topo.size, require_spanning)
    order = np.array([r for ranks in depths for r in ranks], dtype=np.int64)
    # The edges are indexed by child, so each child's parent entry must
    # name the rank that lists it.
    lister = np.repeat(order, [len(children[r]) for r in order])
    wrong = np.flatnonzero(parent[order[1:]] != lister)
    if len(wrong):
        c = int(order[1 + wrong[0]])
        raise ValueError(
            f"rank {c} is a child of rank {lister[wrong[0]]} "
            f"but its parent entry is {parent[c]}"
        )
    edge = _edge_costs(costs, topo, parent, order[1:], reduce_up)
    overhead, busy_per_byte = edge[:2]
    dummy = topo.size
    levels = []
    leaves: list[int] = []
    for depth, ranks in enumerate(depths):
        internal = [r for r in ranks if children[r]]
        tips = [r for r in ranks if not children[r]]
        if depth:
            leaves.extend(tips)
        nkids = [len(children[r]) for r in internal]
        kid = np.full((len(internal), max(nkids, default=0)), dummy, dtype=np.int64)
        for row, r in enumerate(internal):
            kid[row, : nkids[row]] = children[r]
        # _edge_costs yields the constants in _Hop's field order
        hops = tuple(
            _Hop(column, *(values[column][:, None] for values in edge))
            for column in (kid[:, j].copy() for j in range(kid.shape[1]))
        )
        rows = np.array(internal + tips, dtype=np.int64)
        up = (None, None)
        if reduce_up and depth:
            up = (overhead[rows][:, None], busy_per_byte[rows][:, None])
        levels.append(_Level(
            rows, len(internal), hops,
            np.array(nkids, dtype=np.int64)[:, None], *up,
        ))
    return _TreePlan(topo.size, tuple(levels), np.array(leaves, dtype=np.int64))


def _bfs_levels(
    root: int,
    children: Sequence[Sequence[int]],
    size: int,
    require_spanning: bool,
) -> list[list[int]]:
    """The ranks reachable from ``root``, grouped by depth in BFS order;
    checks that every child is listed once and, if asked, that the tree
    spans all ``size`` ranks."""
    depths = [[root]]
    seen = {root}
    while True:
        below = []
        for r in depths[-1]:
            for c in children[r]:
                if c in seen:
                    raise ValueError(f"rank {c} appears twice in the tree")
                seen.add(c)
                below.append(c)
        if not below:
            break
        depths.append(below)
    if require_spanning and len(seen) != size:
        missing = size - len(seen)
        raise ValueError(f"tree does not span all ranks ({missing} unreachable)")
    return depths


def _edge_costs(
    costs: _LinkCosts,
    topo: Topology,
    parent: np.ndarray,
    kids: np.ndarray,
    reduce_up: bool,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``(overhead, busy_per_byte, latency, excess_per_byte)`` per edge.

    The edge of child ``c`` runs ``parent[c] -> c`` downward and
    ``c -> parent[c]`` upward; index ``topo.size`` is the zero-cost
    dummy edge. An intra-node edge is a shared-memory copy. An
    inter-node edge occupies its sender at the source NIC's gap times
    the node's injecting ranks, and moves at the slowest of the link
    rate and the two NICs' shares (:func:`contention_counts`).
    """
    up = parent[kids]
    inject, drain = contention_counts(topo, parent)
    node = topo.node_map
    src, dst = (kids, up) if reduce_up else (up, kids)
    inter = node[src] != node[dst]
    inj = costs.nic_gap * inject[node[src]]
    wire = np.maximum(
        np.maximum(costs.beta_inter, inj), costs.nic_gap * drain[node[dst]]
    )
    per_edge = (
        costs.cpu_overhead,
        np.where(inter, inj, costs.beta_intra),
        np.where(inter, costs.alpha_inter, costs.alpha_intra),
        np.where(inter, np.maximum(wire - inj, 0.0), 0.0),
    )
    out = []
    for values in per_edge:
        column = np.zeros(topo.size + 1)
        column[kids] = values
        out.append(column)
    return out[0], out[1], out[2], out[3]


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
    peer_nodes: list[int] = []
    if len(peers):
        home = topo.node_of(root)
        ranks = np.asarray(peers, dtype=np.int64)
        outside = ranks[(ranks < 0) | (ranks >= topo.size)]
        if len(outside):
            topo.node_of(int(outside[0]))  # raises, naming the rank
        peer_nodes = topo.node_map[ranks].tolist()
    if not gather:
        clock = 0.0
        last_delivery = 0.0
        dst_nic_free = np.zeros(topo.num_nodes)
        for dnode in peer_nodes:
            clock += o
            if dnode == home:
                busy = m * machine.beta_intra
                arrival = clock + machine.alpha_intra + busy
                clock += busy
            else:
                inject_end = clock + m * machine.nic_gap
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
    for snode in peer_nodes:
        if snode == home:
            arrival = o + machine.alpha_intra + m * machine.beta_intra
        else:
            inject_start = max(o, src_nic_free[snode])
            src_nic_free[snode] = inject_start + m * machine.nic_gap
            arrival = inject_start + machine.alpha_inter + m * machine.beta_inter
        clock = max(clock, arrival) + o
        if snode != home:
            clock += m * machine.nic_gap  # root NIC drains serially
        if reduce_at_root:
            clock += m * machine.gamma_reduce
    return clock
