"""Reusable communication patterns.

Two kinds of building blocks live here:

* **engine programs** — generator templates executed by the exact
  engine; they move verification payloads (sets of contributing ranks,
  block dictionaries) so tests can check collective semantics,
* **round builders** — functions producing :class:`Round` sequences for
  the fast tier (recursive doubling / halving, ring, Bruck, pairwise,
  binomial scatter), mirroring the engine programs' structure.

Tag conventions: composite algorithms offset tags per phase with
:func:`phase_tag` so messages of different phases never cross-match.
"""

from __future__ import annotations

from collections.abc import Generator, Sequence
from typing import Any

import numpy as np

from repro.machine.topology import Topology
from repro.simulator.engine import Irecv, Recv, Reduce, Send, Wait
from repro.simulator.fastsim import Round, segment_sizes

_PHASE_STRIDE = 1 << 20


def phase_tag(phase: int, tag: int = 0) -> int:
    """Namespaced tag for multi-phase algorithms."""
    return phase * _PHASE_STRIDE + tag


# ----------------------------------------------------------------------
# Engine program templates
# ----------------------------------------------------------------------
def tree_bcast_program(
    rank: int,
    parent: np.ndarray,
    children: Sequence[Sequence[int]],
    sizes: np.ndarray,
    payloads: Sequence[Any],
    phase: int = 0,
) -> Generator:
    """Segmented tree broadcast; returns the list of received segments.

    The root's segment payloads are given in ``payloads``; every other
    rank receives each segment from its parent, then forwards it to its
    children in order (matching the fast tier's batching).
    """
    received: list[Any] = []
    is_root = parent[rank] < 0
    for s, size in enumerate(sizes):
        if is_root:
            payload = payloads[s]
        else:
            payload = yield Recv(int(parent[rank]), tag=phase_tag(phase, s))
        received.append(payload)
        for child in children[rank]:
            yield Send(int(child), int(size), payload, tag=phase_tag(phase, s))
    return received


def tree_reduce_program(
    rank: int,
    parent: np.ndarray,
    children: Sequence[Sequence[int]],
    sizes: np.ndarray,
    leaf_values: Sequence[Any],
    merge,
    phase: int = 0,
) -> Generator:
    """Segmented tree reduction; the root returns the combined segments.

    ``leaf_values[s]`` is this rank's contribution for segment ``s``;
    ``merge(a, b)`` folds two contributions (must be associative and
    commutative, like MPI reduction ops).
    """
    acc: list[Any] = list(leaf_values)
    for s, size in enumerate(sizes):
        for child in children[rank]:
            value = yield Recv(int(child), tag=phase_tag(phase, s))
            yield Reduce(int(size))
            acc[s] = merge(acc[s], value)
        if parent[rank] >= 0:
            yield Send(int(parent[rank]), int(size), acc[s], tag=phase_tag(phase, s))
    return acc


def exchange(
    send_to: int,
    recv_from: int,
    nbytes_send: int,
    payload: Any,
    *,
    tag: int = 0,
    recv_tag: int | None = None,
) -> Generator:
    """Full-duplex sendrecv: post the receive, send, then wait.

    Returns the received payload. ``yield from`` this from algorithm
    programs.
    """
    handle = yield Irecv(recv_from, tag=tag if recv_tag is None else recv_tag)
    yield Send(send_to, nbytes_send, payload, tag=tag)
    data = yield Wait(handle)
    return data


# ----------------------------------------------------------------------
# Block bookkeeping for scatter/allgather style algorithms
# ----------------------------------------------------------------------
def block_bytes(nbytes: int, nblocks: int) -> int:
    """Size of one block when a buffer is cut into ``nblocks`` pieces.

    We charge the rounded-up uniform block size — the real algorithms
    pad or carry a remainder block; the difference is at most one byte
    per block and irrelevant for model fidelity.
    """
    if nblocks < 1:
        raise ValueError(f"nblocks must be >= 1, got {nblocks}")
    return -(-nbytes // nblocks)  # ceil division


# ----------------------------------------------------------------------
# Round builders (fast tier)
# ----------------------------------------------------------------------
def recursive_doubling_rounds(
    topo: Topology, nbytes: int, *, compute: bool = False
) -> list[Round]:
    """Recursive-doubling exchange pattern for allreduce/allgather cores.

    With ``p`` not a power of two, the standard pre/post folding steps
    are included: the first ``2*rem`` ranks pair up, odd members retire
    for the core rounds and are refilled at the end.
    """
    p = topo.size
    if p == 1:
        return []
    pof2 = 1 << (p.bit_length() - 1)
    rem = p - pof2
    rounds: list[Round] = []
    comp = nbytes if compute else 0
    if rem:
        extras = np.arange(rem) * 2 + 1  # odd ranks of the first 2*rem
        partners = extras - 1
        rounds.append(Round.make(extras, partners, nbytes, comp))
    # Core: the surviving pof2 ranks exchange at doubling distances.
    core = _core_ranks(p, rem)
    vrank = np.arange(pof2)
    dist = 1
    while dist < pof2:
        peers = core[vrank ^ dist]
        rounds.append(Round.make(core, peers, nbytes, comp))
        dist <<= 1
    if rem:
        extras = np.arange(rem) * 2 + 1
        rounds.append(Round.make(extras - 1, extras, nbytes, 0))
    return rounds


def _core_ranks(p: int, rem: int) -> np.ndarray:
    """Real ranks participating in the power-of-two core rounds."""
    ranks = np.arange(p)
    if rem == 0:
        return ranks
    # Of the first 2*rem ranks only the even ones survive; the rest all do.
    survivors = np.concatenate([ranks[: 2 * rem : 2], ranks[2 * rem :]])
    return survivors


def reduce_scatter_halving_rounds(topo: Topology, nbytes: int) -> list[Round]:
    """Recursive-halving reduce-scatter (first half of Rabenseifner)."""
    p = topo.size
    if p == 1:
        return []
    pof2 = 1 << (p.bit_length() - 1)
    rem = p - pof2
    rounds: list[Round] = []
    if rem:
        extras = np.arange(rem) * 2 + 1
        # Extras ship half their vector each way in the classic variant;
        # we charge the dominant full-vector fold.
        rounds.append(Round.make(extras, extras - 1, nbytes, nbytes))
    core = _core_ranks(p, rem)
    vrank = np.arange(pof2)
    dist = pof2 // 2
    size = nbytes
    while dist >= 1:
        size = block_bytes(size, 2)
        peers = core[vrank ^ dist]
        rounds.append(Round.make(core, peers, size, size))
        dist //= 2
    return rounds


def allgather_doubling_rounds(topo: Topology, nbytes: int) -> list[Round]:
    """Recursive-doubling allgather over per-rank blocks of ``nbytes/p``."""
    p = topo.size
    if p == 1:
        return []
    pof2 = 1 << (p.bit_length() - 1)
    rem = p - pof2
    block = block_bytes(nbytes, p)
    rounds: list[Round] = []
    if rem:
        extras = np.arange(rem) * 2 + 1
        rounds.append(Round.make(extras, extras - 1, block, 0))
    core = _core_ranks(p, rem)
    vrank = np.arange(pof2)
    dist = 1
    size = block
    while dist < pof2:
        peers = core[vrank ^ dist]
        rounds.append(Round.make(core, peers, size, 0))
        size *= 2
        dist <<= 1
    if rem:
        extras = np.arange(rem) * 2 + 1
        rounds.append(Round.make(extras - 1, extras, nbytes, 0))
    return rounds


def ring_rounds(
    topo: Topology,
    block: int,
    num_rounds: int,
    *,
    compute: bool = False,
) -> list[Round]:
    """``num_rounds`` shifts of ``block`` bytes around the rank ring.

    Every shift is the same :class:`Round` object, repeated, so
    ``round_time`` costs it once (and adds it ``num_rounds`` times).
    """
    p = topo.size
    if p == 1 or num_rounds == 0:
        return []
    ranks = np.arange(p)
    nxt = (ranks + 1) % p
    comp = block if compute else 0
    one = Round.make(ranks, nxt, block, comp)
    return [one] * num_rounds


def pairwise_rounds(topo: Topology, block: int) -> list[Round]:
    """Pairwise-exchange alltoall: round k pairs rank with rank+k / rank-k."""
    p = topo.size
    rounds: list[Round] = []
    ranks = np.arange(p)
    for k in range(1, p):
        rounds.append(Round.make(ranks, (ranks + k) % p, block))
    return rounds


def bruck_alltoall_rounds(topo: Topology, block: int) -> list[Round]:
    """Bruck's alltoall: ceil(log2 p) rounds of ~half the buffer each."""
    p = topo.size
    rounds: list[Round] = []
    ranks = np.arange(p)
    k = 1
    while k < p:
        # Blocks whose index has bit k set travel distance k.
        nblocks = sum(1 for b in range(p) if b & k)
        rounds.append(Round.make(ranks, (ranks + k) % p, nblocks * block))
        k <<= 1
    return rounds


def binomial_scatter_rounds(
    topo: Topology, root: int, nbytes: int
) -> list[Round]:
    """Binomial scatter of ``nbytes/p`` blocks from ``root``.

    Round ``k`` (from the top): every rank holding data sends the upper
    half of its block range to the rank at distance ``2^k``.
    """
    p = topo.size
    if p == 1:
        return []
    block = block_bytes(nbytes, p)
    rounds: list[Round] = []
    dist = 1 << ((p - 1).bit_length() - 1)
    while dist >= 1:
        srcs, dsts, sizes = [], [], []
        for vr in range(0, p, 2 * dist):
            peer = vr + dist
            if peer < p:
                count = min(dist, p - peer)
                srcs.append((vr + root) % p)
                dsts.append((peer + root) % p)
                sizes.append(count * block)
        if srcs:
            rounds.append(Round.make(srcs, dsts, np.asarray(sizes)))
        dist //= 2
    return rounds


__all__ = [
    "phase_tag",
    "tree_bcast_program",
    "tree_reduce_program",
    "exchange",
    "block_bytes",
    "segment_sizes",
    "recursive_doubling_rounds",
    "reduce_scatter_halving_rounds",
    "allgather_doubling_rounds",
    "ring_rounds",
    "pairwise_rounds",
    "bruck_alltoall_rounds",
    "binomial_scatter_rounds",
]
