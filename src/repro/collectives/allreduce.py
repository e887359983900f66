"""Allreduce algorithms (Open MPI 4.0.2 numbering, plus id 7).

====  ====================  ================================================
id    name                  structure
====  ====================  ================================================
1     linear                linear reduce to root + linear broadcast
2     nonoverlapping        binomial-tree reduce + binomial-tree broadcast
3     recursive_doubling    log2(p) full-vector exchanges (+ rem folding)
4     ring                  ring reduce-scatter + ring allgather
5     segmented_ring        ring with segment-pipelined compute overlap
6     rabenseifner          recursive-halving reduce-scatter + doubling
                            allgather
7     allgather_reduce      recursive-doubling allgather of all inputs +
                            local reduction (latency-optimal, tiny messages)
====  ====================  ================================================

Verification payloads are frozensets of contributing ranks; the merge is
set union, which is associative and commutative like MPI reduction ops.
A correct allreduce leaves ``frozenset(range(p))`` (per block) on every
rank.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import replace
from typing import Any

import numpy as np

from repro.collectives import trees
from repro.collectives.base import (
    AlgorithmConfig,
    CollectiveAlgorithm,
    CollectiveKind,
)
from repro.collectives.patterns import (
    allgather_doubling_rounds,
    block_bytes,
    exchange,
    phase_tag,
    recursive_doubling_rounds,
    reduce_scatter_halving_rounds,
    ring_rounds,
    tree_bcast_program,
    tree_reduce_program,
)
from repro.machine.model import MachineModel
from repro.machine.topology import Topology
from repro.simulator.engine import (
    Irecv,
    Isend,
    Recv,
    Reduce,
    Send,
    SimResult,
    Wait,
)
from repro.simulator.fastsim import (
    linear_time,
    pipeline_tree_time,
    round_time,
    segment_sizes,
)


def _merge(a: frozenset, b: frozenset) -> frozenset:
    return a | b


class _AllreduceBase(CollectiveAlgorithm):
    """Shared verification: every rank holds the full contributor set.

    Every concrete ``programs`` accepts an optional ``initial`` callable
    mapping a rank to its starting contribution (default
    ``frozenset({rank})``). Hierarchical algorithms use it to feed the
    node-level partial reductions through the flat algorithms.
    """

    @staticmethod
    def _init_fn(initial):
        return initial if initial is not None else (lambda r: frozenset({r}))

    def verify_result(self, topo: Topology, nbytes: int, result: SimResult) -> None:
        expected = frozenset(range(topo.size))
        for rank, output in enumerate(result.outputs):
            if isinstance(output, dict):
                assert set(output) == set(range(len(output))), (
                    f"{self.config.label}: rank {rank} block keys wrong"
                )
                values = output.values()
            else:
                values = [output] if isinstance(output, frozenset) else list(output)
            for value in values:
                assert value == expected, (
                    f"{self.config.label}: rank {rank} reduced {value!r}, "
                    f"expected all of 0..{topo.size - 1}"
                )


class AllreduceLinear(_AllreduceBase):
    """Algorithm 1: linear reduce to rank 0, then linear broadcast."""

    def __init__(self) -> None:
        super().__init__(AlgorithmConfig.make(CollectiveKind.ALLREDUCE, 1, "linear"))

    def base_time(self, machine: MachineModel, topo: Topology, nbytes: int) -> float:
        peers = list(range(1, topo.size))
        up = linear_time(
            machine, topo, 0, peers, nbytes, gather=True, reduce_at_root=True
        )
        down = linear_time(machine, topo, 0, peers, nbytes)
        return up + down

    def programs(
        self, topo: Topology, nbytes: int, initial=None
    ) -> Sequence[Callable[[int], Any]]:
        p = topo.size
        init = self._init_fn(initial)

        def factory(rank: int):
            def prog():
                if rank == 0:
                    acc = init(0)
                    for src in range(1, p):
                        value = yield Recv(src, tag=phase_tag(0))
                        yield Reduce(nbytes)
                        acc = _merge(acc, value)
                    for dst in range(1, p):
                        yield Send(dst, nbytes, acc, tag=phase_tag(1))
                    return acc
                yield Send(0, nbytes, init(rank), tag=phase_tag(0))
                final = yield Recv(0, tag=phase_tag(1))
                return final

            return prog()

        return [factory] * p


class AllreduceNonOverlapping(_AllreduceBase):
    """Algorithm 2: binomial-tree reduce followed by binomial-tree bcast."""

    def __init__(self) -> None:
        super().__init__(
            AlgorithmConfig.make(CollectiveKind.ALLREDUCE, 2, "nonoverlapping")
        )

    def base_time(self, machine: MachineModel, topo: Topology, nbytes: int) -> float:
        parent, children = trees.binomial_tree(topo.size, 0)
        up = pipeline_tree_time(
            machine, topo, parent, children, nbytes, None, reduce_up=True
        )
        down = pipeline_tree_time(machine, topo, parent, children, nbytes, None)
        return up + down

    def programs(
        self, topo: Topology, nbytes: int, initial=None
    ) -> Sequence[Callable[[int], Any]]:
        parent, children = trees.binomial_tree(topo.size, 0)
        sizes = segment_sizes(nbytes, None)
        init = self._init_fn(initial)

        def factory(rank: int):
            def prog():
                acc = yield from tree_reduce_program(
                    rank, parent, children, sizes,
                    [init(rank)], _merge, phase=0,
                )
                if rank == 0:
                    final = yield from tree_bcast_program(
                        rank, parent, children, sizes, acc, phase=1
                    )
                else:
                    final = yield from tree_bcast_program(
                        rank, parent, children, sizes, [None], phase=1
                    )
                return final[0]

            return prog()

        return [factory] * topo.size


class AllreduceRecursiveDoubling(_AllreduceBase):
    """Algorithm 3: full-vector butterfly exchanges at doubling distance."""

    def __init__(self) -> None:
        super().__init__(
            AlgorithmConfig.make(
                CollectiveKind.ALLREDUCE, 3, "recursive_doubling"
            )
        )

    def base_time(self, machine: MachineModel, topo: Topology, nbytes: int) -> float:
        return round_time(
            machine, topo, recursive_doubling_rounds(topo, nbytes, compute=True)
        )

    def programs(
        self, topo: Topology, nbytes: int, initial=None
    ) -> Sequence[Callable[[int], Any]]:
        p = topo.size
        pof2 = 1 << (p.bit_length() - 1)
        rem = p - pof2
        init = self._init_fn(initial)

        def factory(rank: int):
            def prog():
                acc = init(rank)
                # Fold phase: odd ranks of the first 2*rem retire.
                if rem and rank < 2 * rem:
                    if rank % 2 == 1:
                        yield Send(rank - 1, nbytes, acc, tag=phase_tag(0))
                        final = yield Recv(rank - 1, tag=phase_tag(2))
                        return final
                    value = yield Recv(rank + 1, tag=phase_tag(0))
                    yield Reduce(nbytes)
                    acc = _merge(acc, value)
                # Core butterfly on surviving ranks (virtual numbering).
                vrank = rank // 2 if rank < 2 * rem else rank - rem

                def real(v: int) -> int:
                    return v * 2 if v < rem else v + rem

                dist = 1
                while dist < pof2:
                    peer = real(vrank ^ dist)
                    value = yield from exchange(
                        peer, peer, nbytes_send=nbytes, payload=acc,
                        tag=phase_tag(1, dist),
                    )
                    yield Reduce(nbytes)
                    acc = _merge(acc, value)
                    dist <<= 1
                if rem and rank < 2 * rem:
                    yield Send(rank + 1, nbytes, acc, tag=phase_tag(2))
                return acc

            return prog()

        return [factory] * p


class AllreduceRing(_AllreduceBase):
    """Algorithm 4: ring reduce-scatter followed by ring allgather."""

    def __init__(self) -> None:
        super().__init__(AlgorithmConfig.make(CollectiveKind.ALLREDUCE, 4, "ring"))

    def base_time(self, machine: MachineModel, topo: Topology, nbytes: int) -> float:
        p = topo.size
        block = block_bytes(nbytes, p)
        rounds = ring_rounds(topo, block, p - 1, compute=True)
        rounds += ring_rounds(topo, block, p - 1)
        return round_time(machine, topo, rounds)

    def programs(
        self, topo: Topology, nbytes: int, initial=None
    ) -> Sequence[Callable[[int], Any]]:
        return _ring_programs(
            topo, nbytes, seg_bytes=None, initial=self._init_fn(initial)
        )


class AllreduceSegmentedRing(_AllreduceBase):
    """Algorithm 5: ring allreduce with segment-pipelined reduction overlap."""

    def __init__(self, segsize: int) -> None:
        super().__init__(
            AlgorithmConfig.make(
                CollectiveKind.ALLREDUCE, 5, "segmented_ring", segsize=segsize
            )
        )

    def base_time(self, machine: MachineModel, topo: Topology, nbytes: int) -> float:
        p = topo.size
        seg = self.config.param_dict["segsize"]
        block = block_bytes(nbytes, p)
        nseg = len(segment_sizes(block, seg))
        # Reduction overlaps the next segment's transfer; each extra
        # segment costs its message overheads.
        extra = (nseg - 1) * 2 * machine.cpu_overhead
        # One round object per phase, repeated (see ``round_time``).
        if p == 1:
            return 0.0
        (shift,) = ring_rounds(topo, block, 1)
        rs = replace(
            shift, compute_bytes=shift.nbytes, overlap_compute=True,
            extra_seconds=extra,
        )
        ag = replace(shift, extra_seconds=extra)
        return round_time(machine, topo, [rs] * (p - 1) + [ag] * (p - 1))

    def programs(
        self, topo: Topology, nbytes: int, initial=None
    ) -> Sequence[Callable[[int], Any]]:
        return _ring_programs(
            topo, nbytes,
            seg_bytes=self.config.param_dict["segsize"],
            initial=self._init_fn(initial),
        )


def _ring_programs(
    topo: Topology, nbytes: int, seg_bytes: int | None, initial=None
) -> Sequence[Callable[[int], Any]]:
    """Ring allreduce engine programs (optionally segmented blocks).

    Block ``b``'s running reduction travels the ring; rank ``r`` owns
    block ``r`` after the reduce-scatter phase and the allgather phase
    circulates the finished blocks. Each block transfer is split into
    ``segment_sizes(block, seg_bytes)`` messages.
    """
    p = topo.size
    block = block_bytes(nbytes, p)
    sizes = segment_sizes(block, seg_bytes)
    init = initial if initial is not None else (lambda r: frozenset({r}))

    def factory(rank: int):
        def prog():
            blocks = {b: init(rank) for b in range(p)}
            nxt = (rank + 1) % p
            prev = (rank - 1) % p
            # Reduce-scatter: in step k, send block (rank - k) and fold
            # the incoming block (rank - k - 1). All segments of the
            # block are in flight concurrently (the real segmented ring
            # overlaps the folds with later segments' transfers).
            for k in range(p - 1):
                send_b = (rank - k) % p
                recv_b = (rank - k - 1) % p
                handles = []
                for s, _size in enumerate(sizes):
                    tag = phase_tag(0, k * len(sizes) + s)
                    handles.append((yield Irecv(prev, tag=tag)))
                for s, size in enumerate(sizes):
                    tag = phase_tag(0, k * len(sizes) + s)
                    yield Isend(nxt, int(size), blocks[send_b], tag=tag)
                merged = blocks[recv_b]
                for s, size in enumerate(sizes):
                    got = yield Wait(handles[s])
                    yield Reduce(int(size))
                    merged = _merge(merged, got)
                blocks[recv_b] = merged
            # Allgather: circulate the finished blocks the same way.
            for k in range(p - 1):
                send_b = (rank + 1 - k) % p
                recv_b = (rank - k) % p
                handles = []
                for s, _size in enumerate(sizes):
                    tag = phase_tag(1, k * len(sizes) + s)
                    handles.append((yield Irecv(prev, tag=tag)))
                for s, size in enumerate(sizes):
                    tag = phase_tag(1, k * len(sizes) + s)
                    yield Isend(nxt, int(size), blocks[send_b], tag=tag)
                got = None
                for s, _size in enumerate(sizes):
                    got = yield Wait(handles[s])
                blocks[recv_b] = got
            return blocks

        return prog()

    return [factory] * p


class AllreduceRabenseifner(_AllreduceBase):
    """Algorithm 6: recursive-halving reduce-scatter + doubling allgather."""

    def __init__(self) -> None:
        super().__init__(
            AlgorithmConfig.make(CollectiveKind.ALLREDUCE, 6, "rabenseifner")
        )

    def base_time(self, machine: MachineModel, topo: Topology, nbytes: int) -> float:
        rounds = reduce_scatter_halving_rounds(topo, nbytes)
        rounds += allgather_doubling_rounds(topo, nbytes)
        return round_time(machine, topo, rounds)

    def programs(
        self, topo: Topology, nbytes: int, initial=None
    ) -> Sequence[Callable[[int], Any]]:
        p = topo.size
        pof2 = 1 << (p.bit_length() - 1)
        rem = p - pof2
        # Work on pof2 virtual blocks; real block count folds in.
        block = block_bytes(nbytes, pof2)

        init = self._init_fn(initial)

        def factory(rank: int):
            def prog():
                acc = {b: init(rank) for b in range(pof2)}
                if rem and rank < 2 * rem:
                    if rank % 2 == 1:
                        yield Send(rank - 1, nbytes, acc, tag=phase_tag(0))
                        final = yield Recv(rank - 1, tag=phase_tag(3))
                        return final
                    other = yield Recv(rank + 1, tag=phase_tag(0))
                    yield Reduce(nbytes)
                    acc = {b: _merge(acc[b], other[b]) for b in acc}
                vrank = rank // 2 if rank < 2 * rem else rank - rem

                def real(v: int) -> int:
                    return v * 2 if v < rem else v + rem

                # Recursive halving: shrink owned block range each step.
                lo, hi = 0, pof2
                dist = pof2 // 2
                while dist >= 1:
                    peer_v = vrank ^ dist
                    peer = real(peer_v)
                    mid = (lo + hi) // 2
                    if vrank < peer_v:
                        send_rng, keep = (mid, hi), (lo, mid)
                    else:
                        send_rng, keep = (lo, mid), (mid, hi)
                    send_blocks = {
                        b: acc[b] for b in range(send_rng[0], send_rng[1])
                    }
                    got = yield from exchange(
                        peer, peer,
                        nbytes_send=len(send_blocks) * block,
                        payload=send_blocks,
                        tag=phase_tag(1, dist),
                    )
                    yield Reduce(len(got) * block)
                    for b, value in got.items():
                        acc[b] = _merge(acc[b], value)
                    lo, hi = keep
                    dist //= 2
                # Doubling allgather: regrow the owned range.
                owned = {b: acc[b] for b in range(lo, hi)}
                dist = 1
                while dist < pof2:
                    peer = real(vrank ^ dist)
                    got = yield from exchange(
                        peer, peer,
                        nbytes_send=len(owned) * block,
                        payload=dict(owned),
                        tag=phase_tag(2, dist),
                    )
                    owned.update(got)
                    dist <<= 1
                if rem and rank < 2 * rem:
                    yield Send(rank + 1, nbytes, dict(owned), tag=phase_tag(3))
                return owned

            return prog()

        return [factory] * p


class AllreduceKnomialReduceBcast(_AllreduceBase):
    """Algorithm 8: k-nomial-tree reduce followed by k-nomial broadcast.

    A higher radix trades tree depth (latency) for more serialised
    sends per parent (bandwidth) — Intel MPI's "Knomial" allreduce.
    """

    def __init__(self, radix: int) -> None:
        super().__init__(
            AlgorithmConfig.make(
                CollectiveKind.ALLREDUCE, 8, "knomial_reduce_bcast", radix=radix
            )
        )

    def base_time(self, machine: MachineModel, topo: Topology, nbytes: int) -> float:
        radix = self.config.param_dict["radix"]
        parent, children = trees.knomial_tree(topo.size, radix, 0)
        up = pipeline_tree_time(
            machine, topo, parent, children, nbytes, None, reduce_up=True
        )
        down = pipeline_tree_time(machine, topo, parent, children, nbytes, None)
        return up + down

    def programs(
        self, topo: Topology, nbytes: int, initial=None
    ) -> Sequence[Callable[[int], Any]]:
        radix = self.config.param_dict["radix"]
        parent, children = trees.knomial_tree(topo.size, radix, 0)
        sizes = segment_sizes(nbytes, None)
        init = self._init_fn(initial)

        def factory(rank: int):
            def prog():
                acc = yield from tree_reduce_program(
                    rank, parent, children, sizes, [init(rank)], _merge,
                    phase=0,
                )
                final = yield from tree_bcast_program(
                    rank, parent, children, sizes,
                    acc if rank == 0 else [None], phase=1,
                )
                return final[0]

            return prog()

        return [factory] * topo.size


class AllreduceAllgatherReduce(_AllreduceBase):
    """Algorithm 7: allgather all inputs, reduce locally.

    Latency-optimal for tiny messages (log2 p rounds, no serialised
    reductions on the critical path), hopeless for large ones (p*m
    traffic) — a genuinely different trade-off point for the selector
    to learn.
    """

    def __init__(self) -> None:
        super().__init__(
            AlgorithmConfig.make(CollectiveKind.ALLREDUCE, 7, "allgather_reduce")
        )

    def base_time(self, machine: MachineModel, topo: Topology, nbytes: int) -> float:
        p = topo.size
        rounds = allgather_doubling_rounds(topo, nbytes * p)
        comm = round_time(machine, topo, rounds)
        return comm + float((p - 1) * machine.reduce_time(nbytes))

    def programs(
        self, topo: Topology, nbytes: int, initial=None
    ) -> Sequence[Callable[[int], Any]]:
        p = topo.size
        pof2 = 1 << (p.bit_length() - 1)
        rem = p - pof2

        init = self._init_fn(initial)

        def factory(rank: int):
            def prog():
                gathered = {rank: init(rank)}
                # Fold extras into the core like the round builder does.
                if rem and rank < 2 * rem and rank % 2 == 1:
                    yield Send(rank - 1, nbytes, gathered, tag=phase_tag(0))
                    full = yield Recv(rank - 1, tag=phase_tag(2))
                    acc = frozenset()
                    for _, value in sorted(full.items()):
                        acc = _merge(acc, value)
                    yield Reduce((p - 1) * nbytes)
                    return acc
                if rem and rank < 2 * rem:
                    extra = yield Recv(rank + 1, tag=phase_tag(0))
                    gathered.update(extra)
                vrank = rank // 2 if rank < 2 * rem else rank - rem

                def real(v: int) -> int:
                    return v * 2 if v < rem else v + rem

                dist = 1
                while dist < pof2:
                    peer = real(vrank ^ dist)
                    got = yield from exchange(
                        peer, peer,
                        nbytes_send=len(gathered) * nbytes,
                        payload=dict(gathered),
                        tag=phase_tag(1, dist),
                    )
                    gathered.update(got)
                    dist <<= 1
                if rem and rank < 2 * rem:
                    yield Send(rank + 1, p * nbytes, dict(gathered), tag=phase_tag(2))
                acc = frozenset()
                for _, value in sorted(gathered.items()):
                    acc = _merge(acc, value)
                yield Reduce((p - 1) * nbytes)
                return acc

            return prog()

        return [factory] * p
