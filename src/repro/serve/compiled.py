"""Decision-table compiler: branchless sub-microsecond lookups.

The paper's end product is literally a decision table — Open MPI
dynamic rules mapping ``(collective, msize, nodes, ppn)`` to a forced
algorithm configuration — so once selection is decided, runtime lookup
should cost an array index, not a model evaluation (Nuriyev &
Lastovetsky make the same argument from the analytical side). This
module lowers both servable model families into one flat layout,
:class:`CompiledTable`:

* ``node_index`` / ``ppn_index`` — small dense int32 maps from the raw
  query value to an axis position. The final slot is the overflow cell
  and carries ``-1`` (off-table); a rules table, which ignores the
  allocation entirely, uses single-slot maps that accept everything.
* ``msize_lo`` / ``msize_hi`` — 64 per-bucket int64 admission ranges,
  bucket = ``msize.bit_length()`` (0 for ``msize <= 0``). A query is
  answered only when ``lo[b] <= msize <= hi[b]``; buckets the table
  cannot answer *exactly* keep an empty range (``lo > hi``), so the
  admission compare doubles as the coverage check.
* ``cells`` — contiguous int32 of shape ``(64, NN, NP)``: the winning
  config id per (bucket, node, ppn) cell, ``-1`` for uncovered cells.

Lookups run in the runtime-compiled C kernel
(:func:`repro.ml._ckernel.table_lookup`) when the toolchain allows,
else in the vectorised numpy twin
(:func:`repro.ml.kernels.table_lookup_numpy`); scalar lookups use
plain-list mirrors, which beat numpy scalar indexing ~10x at batch 1.

**The table never guesses.** A cell is populated only where the
lowering is provably bit-identical to the interpreted model:

* a :class:`~repro.serve.rules.RulesModel` selects a constant config
  on every inter-boundary interval, so a bucket is admitted up to (not
  including) the first rule boundary strictly inside it — full-bucket
  coverage when rule msizes are powers of two, a partial prefix
  otherwise;
* a selector is lowered from one batched ``predict_times`` sweep over
  its serving grid (:func:`compile_selector`); each grid cell's argmin
  came from a real prediction row for that very instance, so admission
  is pinned to the grid msize itself (``lo == hi``) and buckets shared
  by several grid msizes are dropped.

Everything else returns ``-1`` and the serving layer falls through to
the LRU and the exact selector/fallback chain, which is what keeps
`PredictionService`'s bit-identity contract intact.
"""

from __future__ import annotations

from bisect import bisect_right

import numpy as np

from repro.collectives.base import AlgorithmConfig, CollectiveKind
from repro.ml import _ckernel
from repro.ml.kernels import table_lookup_numpy
from repro.obs import get_telemetry
from repro.serve.registry import SelectorModel
from repro.serve.rules import RulesModel

_INT64_MAX = (1 << 63) - 1
_N_BUCKETS = 64
#: refuse dense node/ppn index maps beyond this axis value — a table
#: for an absurd axis would spend more on memory than it saves on time
_DENSE_CAP = 1 << 16


class CompiledTable:
    """One collective's decision table in branchless flat layout."""

    __slots__ = (
        "collective", "version", "configs",
        "node_index", "ppn_index", "msize_lo", "msize_hi", "cells",
        "dropped_buckets", "partial_buckets",
        "_node_list", "_ppn_list", "_lo_list", "_hi_list",
        "_cells_list", "_nn", "_np", "_c_fixed",
    )

    def __init__(
        self,
        *,
        collective: CollectiveKind,
        version: int,
        configs: tuple[AlgorithmConfig, ...],
        node_index: np.ndarray,
        ppn_index: np.ndarray,
        msize_lo: np.ndarray,
        msize_hi: np.ndarray,
        cells: np.ndarray,
        dropped_buckets: int = 0,
        partial_buckets: int = 0,
    ) -> None:
        self.collective = collective
        self.version = version
        self.configs = configs
        self.node_index = np.ascontiguousarray(node_index, dtype=np.int32)
        self.ppn_index = np.ascontiguousarray(ppn_index, dtype=np.int32)
        self.msize_lo = np.ascontiguousarray(msize_lo, dtype=np.int64)
        self.msize_hi = np.ascontiguousarray(msize_hi, dtype=np.int64)
        self.cells = np.ascontiguousarray(cells, dtype=np.int32)
        assert self.cells.shape[0] == _N_BUCKETS
        assert len(self.msize_lo) == len(self.msize_hi) == _N_BUCKETS
        self.dropped_buckets = dropped_buckets
        self.partial_buckets = partial_buckets
        # plain-list mirrors for the scalar hot path: attribute + list
        # indexing on interned ints, no numpy scalar boxing per query
        self._node_list = self.node_index.tolist()
        self._ppn_list = self.ppn_index.tolist()
        self._lo_list = self.msize_lo.tolist()
        self._hi_list = self.msize_hi.tolist()
        self._cells_list = self.cells.ravel().tolist()
        self._nn = self.cells.shape[1]
        self._np = self.cells.shape[2]
        #: lazily-built raw-address args for the C kernel (per table —
        #: the arrays above outlive it, so the addresses stay valid)
        self._c_fixed: tuple | None = None

    # -- lookups -------------------------------------------------------
    def lookup(self, nodes: int, ppn: int, msize: int) -> int:
        """Config id for one instance, ``-1`` = fall through.

        Pure Python on the list mirrors; ``msize`` may be an arbitrary
        Python int (anything past the int64 buckets falls through).
        """
        nl = self._node_list
        i = nl[nodes] if 0 <= nodes < len(nl) else nl[-1]
        if i < 0:
            return -1
        pl = self._ppn_list
        j = pl[ppn] if 0 <= ppn < len(pl) else pl[-1]
        if j < 0:
            return -1
        b = msize.bit_length() if msize > 0 else 0
        if b >= _N_BUCKETS or not self._lo_list[b] <= msize <= self._hi_list[b]:
            return -1
        return self._cells_list[(b * self._nn + i) * self._np + j]

    def lookup_many(
        self, nodes: np.ndarray, ppn: np.ndarray, msize: np.ndarray
    ) -> np.ndarray:
        """Vectorised :meth:`lookup` over contiguous int64 columns."""
        if _ckernel.available():
            fixed = self._c_fixed
            if fixed is None:
                fixed = self._c_fixed = _ckernel.table_fixed_args(
                    self.node_index, self.ppn_index,
                    self.msize_lo, self.msize_hi, self.cells,
                )
            return _ckernel.table_lookup(nodes, ppn, msize, fixed)
        return table_lookup_numpy(
            nodes, ppn, msize,
            self.node_index, self.ppn_index,
            self.msize_lo, self.msize_hi, self.cells,
        )

    # -- introspection -------------------------------------------------
    def coverage(self) -> dict:
        """Size/coverage snapshot for ``PredictionService.stats()``."""
        return {
            "buckets": int(np.count_nonzero(self.msize_lo <= self.msize_hi)),
            "partial_buckets": self.partial_buckets,
            "dropped_buckets": self.dropped_buckets,
            "cells": int(np.count_nonzero(self.cells >= 0)),
            "configs": len(self.configs),
        }


def _bucket_range(bucket: int) -> tuple[int, int]:
    """The int64 msize interval ``[lo, hi]`` a log2 bucket spans."""
    if bucket == 0:
        return 0, 0
    return 1 << (bucket - 1), min((1 << bucket) - 1, _INT64_MAX)


def compile_rules_model(model: RulesModel, version: int) -> CompiledTable:
    """Lower a resolved rules table into a :class:`CompiledTable`.

    The bracket lookup ("largest rule msize <= query wins") is constant
    between consecutive rule boundaries, so each bucket is admitted
    from its start up to the first boundary strictly inside it — the
    interpreted path keeps answering the remainder of a partial bucket.
    The allocation axes collapse to a single always-match cell because
    ``RulesModel.select_configs`` ignores nodes/ppn by construction.
    """
    bounds = [int(m) for m in model.bracket_bounds]
    if not bounds:
        raise ValueError("cannot compile an empty rules table")
    lo = np.ones(_N_BUCKETS, dtype=np.int64)
    hi = np.zeros(_N_BUCKETS, dtype=np.int64)
    cells = np.full((_N_BUCKETS, 1, 1), -1, dtype=np.int32)
    partial = 0
    for bucket in range(_N_BUCKETS):
        blo, bhi = _bucket_range(bucket)
        nxt = bisect_right(bounds, blo)
        if nxt < len(bounds) and bounds[nxt] <= bhi:
            bhi = bounds[nxt] - 1  # boundary inside: admit the prefix
            partial += 1
        lo[bucket] = blo
        hi[bucket] = bhi
        cells[bucket, 0, 0] = max(nxt - 1, 0)  # clip below first rule
    return CompiledTable(
        collective=model.collective,
        version=version,
        configs=model.configs,
        node_index=np.zeros(1, dtype=np.int32),
        ppn_index=np.zeros(1, dtype=np.int32),
        msize_lo=lo,
        msize_hi=hi,
        cells=cells,
        partial_buckets=partial,
    )


def _dense_index(axis: np.ndarray) -> np.ndarray:
    """Dense value -> axis-position map with a trailing overflow slot."""
    top = int(axis[-1])
    if top > _DENSE_CAP:
        raise ValueError(
            f"axis value {top} too large for a dense index map "
            f"(cap {_DENSE_CAP})"
        )
    index = np.full(top + 2, -1, dtype=np.int32)
    index[axis] = np.arange(len(axis), dtype=np.int32)
    return index


def compile_selector(model: SelectorModel, version: int) -> CompiledTable:
    """Lower a fitted selector into a :class:`CompiledTable`.

    One batched ``predict_times`` call scores the full ``grid_axes``
    mesh. Only exact grid points are admitted (``lo == hi`` per
    bucket), and a bucket shared by several grid msizes is dropped —
    one admission range cannot pin two exact points. Cells where every
    configuration predicts ``+inf`` (all candidates quarantined) stay
    ``-1``, so the exact path answers them with the library default.
    """
    nodes_axis, ppn_axis, msize_axis = (
        np.unique(np.asarray(axis, dtype=np.int64))
        for axis in model.grid_axes
    )
    if min(len(nodes_axis), len(ppn_axis), len(msize_axis)) == 0:
        raise ValueError("all three grid axes must be non-empty")
    grid_n, grid_p, grid_m = np.meshgrid(
        nodes_axis, ppn_axis, msize_axis, indexing="ij"
    )
    selector = model.selector
    telemetry = get_telemetry()
    with telemetry.span(
        "surface/build", cells=int(grid_n.size),
        configs=len(selector.configs_),
    ):
        times = selector.predict_times(
            grid_n.ravel(), grid_p.ravel(), grid_m.ravel()
        )
    best = np.argmin(times, axis=1)
    covered = np.isfinite(times).any(axis=1)
    if not covered.all():
        best = np.where(covered, best, -1)
        telemetry.add("surface.uncovered_cells", int((~covered).sum()))
    best_cid = best.reshape(grid_n.shape)

    lo = np.ones(_N_BUCKETS, dtype=np.int64)
    hi = np.zeros(_N_BUCKETS, dtype=np.int64)
    cells = np.full(
        (_N_BUCKETS, len(nodes_axis), len(ppn_axis)), -1, dtype=np.int32
    )
    buckets: dict[int, list[int]] = {}
    for k, m in enumerate(msize_axis.tolist()):
        bucket = m.bit_length() if m > 0 else 0
        buckets.setdefault(bucket, []).append(k)
    dropped = 0
    for bucket, positions in buckets.items():
        if len(positions) > 1:
            dropped += 1
            continue
        k = positions[0]
        lo[bucket] = hi[bucket] = int(msize_axis[k])
        cells[bucket] = best_cid[:, :, k]
    return CompiledTable(
        collective=model.collective,
        version=version,
        configs=selector.configs_,
        node_index=_dense_index(nodes_axis),
        ppn_index=_dense_index(ppn_axis),
        msize_lo=lo,
        msize_hi=hi,
        cells=cells,
        dropped_buckets=dropped,
    )


def compile_servable(model, version: int) -> CompiledTable | None:
    """Lower any servable with an exact table form; ``None`` = skip tier.

    Rules models and selector models lower directly. Anything else —
    wrappers, test doubles, custom servables — has no provably-identical
    flat form, so the compiled tier stays out of the way and every
    request falls through to the interpreted path.
    """
    if isinstance(model, RulesModel):
        return compile_rules_model(model, version)
    if isinstance(model, SelectorModel):
        return compile_selector(model, version)
    return None


__all__ = [
    "CompiledTable",
    "compile_rules_model",
    "compile_selector",
    "compile_servable",
]
