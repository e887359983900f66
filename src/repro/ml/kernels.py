"""Flat-array tree inference kernels.

Fitted trees are pointer-chasing structures (``_Node`` objects); fine
for growing, terrible for querying. This module *compiles* them into
five contiguous numpy arrays

    ``feature / threshold / left / right / value``

indexed by node id, and evaluates batches with an **iterative
level-wise descent**: every row starts at a root and, for ``depth``
rounds, takes one branchless step

    ``node = child_base[node] + (x[feature[node]] > threshold[node])``

which works because children are allocated adjacently (``right ==
left + 1``) and leaves are encoded as self-loops with ``threshold =
+inf`` (the comparison is always false, so finished rows spin in
place). No masks, no Python recursion, no per-row work.

Two layouts are provided:

* :class:`FlatTree` — one tree (the native grower writes these arrays
  directly; numpy-grown trees are flattened from ``_Node`` objects),
* :class:`FlatEnsemble` — *all* trees of a booster or forest stacked
  into one node pool with a ``roots`` vector; ``predict_all`` descends
  every (row, tree) pair simultaneously, so a 200-round booster costs
  ``depth`` gather sweeps instead of 200 recursive traversals.

When the host toolchain allows, the descent runs in a tiny compiled
kernel (:mod:`repro.ml._ckernel`, ~1 ns per visit, GIL released);
otherwise a pure-numpy gather loop with identical semantics is used.

Bit-parity: every variant performs exactly the same ``x <= threshold``
comparisons as the recursive path, reaches exactly the same leaves,
and returns the same float64 leaf values — predictions are
bit-identical, which the parity suite (``tests/ml/test_kernels.py``)
asserts. The recursive implementations are kept as parity oracles
only.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.ml import _ckernel

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.ml.tree import _Node


# ----------------------------------------------------------------------
def _flatten(root: "_Node") -> tuple[np.ndarray, ...]:
    """Serialise a ``_Node`` tree into flat arrays (iterative DFS).

    Children always get larger ids than their parent and are allocated
    back to back, so ``right == left + 1`` for every internal node —
    the invariant the branchless step relies on. Leaves keep the
    provisional self-loop (``left == right == own id``).
    """
    feature: list[int] = []
    threshold: list[float] = []
    left: list[int] = []
    right: list[int] = []
    value: list[float] = []

    stack: list[tuple["_Node", int]] = []

    def alloc(node: "_Node") -> int:
        nid = len(feature)
        feature.append(node.feature)
        threshold.append(node.threshold)
        value.append(node.value)
        left.append(nid)  # provisional self-loop (correct for leaves)
        right.append(nid)
        return nid

    root_id = alloc(root)
    stack.append((root, root_id))
    while stack:
        node, nid = stack.pop()
        if node.feature < 0:
            continue  # leaf: self-loops already in place
        assert node.left is not None and node.right is not None
        left[nid] = alloc(node.left)
        right[nid] = alloc(node.right)
        stack.append((node.left, left[nid]))
        stack.append((node.right, right[nid]))

    return (
        np.asarray(feature, dtype=np.int32),
        np.asarray(threshold, dtype=np.float64),
        np.asarray(left, dtype=np.int32),
        np.asarray(right, dtype=np.int32),
        np.asarray(value, dtype=np.float64),
    )


def _tree_depth(feature: np.ndarray, left: np.ndarray, right: np.ndarray) -> int:
    """Depth (edges on the longest root-to-leaf path) of a flat tree."""
    depth = 0
    frontier = np.array([0], dtype=np.int64)
    while True:
        internal = frontier[feature[frontier] >= 0]
        if len(internal) == 0:
            return depth
        frontier = np.concatenate([left[internal], right[internal]])
        depth += 1


class _StepArraysMixin:
    """Derived arrays for the branchless step, shared by both layouts.

    All three are cached: compiled kernels are immutable after
    construction (the dataclasses are frozen).
    """

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    value: np.ndarray

    @cached_property
    def gather_feature(self) -> np.ndarray:
        """``feature`` with leaves clamped to column 0 (int32).

        The value gathered at a leaf is discarded — its step threshold
        is ``+inf`` — but the gather index must stay in bounds.
        """
        return np.maximum(self.feature, 0)

    @cached_property
    def step_threshold(self) -> np.ndarray:
        """``threshold`` with ``+inf`` at leaves (descent never exits)."""
        th = self.threshold.copy()
        th[self.feature < 0] = np.inf
        return th

    @property
    def child_base(self) -> np.ndarray:
        """Step base: left child at internal nodes, self at leaves.

        Exactly the ``left`` array (leaves store self-loops), aliased
        for readability at the call sites.
        """
        return self.left

    @cached_property
    def _intp_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """intp copies for the numpy gather loop (avoids per-use casts)."""
        return (
            self.gather_feature.astype(np.intp),
            self.child_base.astype(np.intp),
        )

    @cached_property
    def packed_nodes(self) -> np.ndarray:
        """Array-of-structs node pool for the native kernel.

        One 16-byte record per node — ``(threshold, child_base,
        gather_feature)`` — matching the C ``Node`` struct layout, so a
        descent step touches a single cache line instead of three
        scattered arrays.
        """
        dtype = np.dtype(
            [("th", np.float64), ("base", np.int32), ("feat", np.int32)]
        )
        assert dtype.itemsize == 16  # must mirror the C struct exactly
        nodes = np.empty(len(self.feature), dtype=dtype)
        nodes["th"] = self.step_threshold
        nodes["base"] = self.child_base
        nodes["feat"] = self.gather_feature
        return nodes


@dataclass(frozen=True)
class FlatTree(_StepArraysMixin):
    """One compiled tree: contiguous arrays + iterative batch predict."""

    feature: np.ndarray  #: int32, -1 at leaves
    threshold: np.ndarray  #: float64 split threshold (0 at leaves)
    left: np.ndarray  #: int32 child ids; self id at leaves
    right: np.ndarray  #: int32; always ``left + 1`` at internal nodes
    value: np.ndarray  #: float64 leaf weight (0 at internal nodes)
    depth: int  #: longest root-to-leaf path (descent iteration count)

    @staticmethod
    def from_node(root: "_Node") -> "FlatTree":
        feature, threshold, left, right, value = _flatten(root)
        return FlatTree(
            feature=feature,
            threshold=threshold,
            left=left,
            right=right,
            value=value,
            depth=_tree_depth(feature, left, right),
        )

    @property
    def num_nodes(self) -> int:
        return len(self.feature)

    @property
    def n_trees(self) -> int:
        return 1

    @cached_property
    def roots(self) -> np.ndarray:
        return np.zeros(1, dtype=np.int32)

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Vectorised batch prediction (bit-identical to the oracle)."""
        X = np.ascontiguousarray(X, dtype=np.float64)
        if _ckernel.available():
            return _ckernel.predict_matrix(X, self)[:, 0]
        n, n_features = X.shape
        feat, base = self._intp_arrays
        th = self.step_threshold
        x_flat = X.ravel()
        idx = np.zeros(n, dtype=np.intp)
        row_base = np.arange(n, dtype=np.intp) * n_features
        for _ in range(self.depth):
            idx = base[idx] + (x_flat[row_base + feat[idx]] > th[idx])
        return self.value[idx]


@dataclass(frozen=True)
class FlatEnsemble(_StepArraysMixin):
    """All trees of a booster/forest in one node pool.

    ``roots[t]`` is the root id of tree ``t``; ``predict_all`` returns
    the (n_rows, n_trees) leaf-value matrix in one level-wise sweep.
    """

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray
    roots: np.ndarray  #: int32, shape (n_trees,)
    depth: int  #: max depth over member trees

    @staticmethod
    def from_roots(root_nodes: Sequence["_Node"]) -> "FlatEnsemble":
        return FlatEnsemble.from_trees([FlatTree.from_node(r) for r in root_nodes])

    @staticmethod
    def from_trees(trees: Sequence[FlatTree]) -> "FlatEnsemble":
        """Stack compiled trees into one pool, shifting child ids."""
        if not trees:
            raise ValueError("cannot compile an empty ensemble")
        sizes = np.asarray([t.num_nodes for t in trees], dtype=np.int32)
        roots = np.concatenate([[0], np.cumsum(sizes[:-1])]).astype(np.int32)
        offsets = np.repeat(roots, sizes)
        return FlatEnsemble(
            feature=np.concatenate([t.feature for t in trees]),
            threshold=np.concatenate([t.threshold for t in trees]),
            left=np.concatenate([t.left for t in trees]) + offsets,
            right=np.concatenate([t.right for t in trees]) + offsets,
            value=np.concatenate([t.value for t in trees]),
            roots=roots,
            depth=max(t.depth for t in trees),
        )

    @property
    def n_trees(self) -> int:
        return len(self.roots)

    @property
    def num_nodes(self) -> int:
        return len(self.feature)

    def predict_all(self, X: np.ndarray) -> np.ndarray:
        """Leaf-value matrix of shape (n_rows, n_trees)."""
        X = np.ascontiguousarray(X, dtype=np.float64)
        if _ckernel.available():
            return _ckernel.predict_matrix(X, self)
        n, n_features = X.shape
        feat, base = self._intp_arrays
        th = self.step_threshold
        x_flat = X.ravel()
        # (n, T) index matrix: row i, tree t -> current node id.
        idx = np.broadcast_to(
            self.roots.astype(np.intp), (n, self.n_trees)
        ).copy()
        row_base = (np.arange(n, dtype=np.intp) * n_features)[:, None]
        for _ in range(self.depth):
            idx = base[idx] + (x_flat[row_base + feat[idx]] > th[idx])
        return self.value[idx]

    def predict_weighted_sum(
        self, X: np.ndarray, scale: float, offset: float
    ) -> np.ndarray:
        """``offset + scale * sum_t(tree_t(x))``, accumulated in tree
        order — the booster's exact round order, so the result is
        bit-identical to the oracle's sequential accumulation."""
        X = np.ascontiguousarray(X, dtype=np.float64)
        if _ckernel.available():
            return _ckernel.predict_sum(X, self, scale, offset)
        # Fortran order makes each accumulated column contiguous.
        leaf_values = np.asfortranarray(self.predict_all(X))
        score = np.full(len(X), offset)
        for t in range(leaf_values.shape[1]):
            score += scale * leaf_values[:, t]
        return score


# ----------------------------------------------------------------------
#: powers of two up to 2^62; searchsorted(side="right") on this array is
#: the vectorised ``int.bit_length`` for non-negative int64 values (and
#: clamps negatives to bucket 0), mirroring the C kernel's
#: ``64 - clzll`` bucket map bit for bit.
_POW2_BUCKETS = np.asarray([1 << k for k in range(63)], dtype=np.int64)


def table_lookup_numpy(
    nodes: np.ndarray,
    ppn: np.ndarray,
    msize: np.ndarray,
    node_index: np.ndarray,
    ppn_index: np.ndarray,
    msize_lo: np.ndarray,
    msize_hi: np.ndarray,
    cells: np.ndarray,
) -> np.ndarray:
    """Pure-numpy compiled-table lookup, identical to the C kernel.

    The ``REPRO_NO_CKERNEL`` fallback for
    ``repro.ml._ckernel.table_lookup``: nodes/ppn clamp into the dense
    index maps (whose final slot is the off-table overflow cell),
    msize maps to its ``bit_length`` bucket and must sit inside the
    bucket's ``[lo, hi]`` admission range, and ``-1`` per query tells
    the serving layer to fall through to the interpreted path.
    """
    i = node_index[np.clip(nodes, 0, len(node_index) - 1)]
    j = ppn_index[np.clip(ppn, 0, len(ppn_index) - 1)]
    b = np.searchsorted(_POW2_BUCKETS, msize, side="right")
    ok = (i >= 0) & (j >= 0) & (msize >= msize_lo[b]) & (msize <= msize_hi[b])
    cid = cells[b, np.maximum(i, 0), np.maximum(j, 0)]
    return np.where(ok & (cid >= 0), cid, np.int32(-1)).astype(
        np.int32, copy=False
    )
