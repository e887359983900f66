"""Exact-greedy regression trees on gradient/hessian statistics.

One tree implementation serves two masters:

* **gradient boosting** fits each tree to per-sample gradients ``g``
  and hessians ``h`` of an arbitrary twice-differentiable loss; the
  optimal leaf weight is ``-G/(H + lambda)`` and the split gain is the
  XGBoost gain formula,
* a **plain regression tree** (and hence the random forest) is the
  special case ``g = -y, h = 1, lambda = 0``: leaf weights become leaf
  means and the gain reduces to the classic SSE reduction.

Trees grow in the native C grower (``repro_grow_tree`` in
:mod:`repro.ml._ckernel`) whenever the kernel loads and no feature
subsampling is asked for. It scans presorted columns and writes the
flat arrays directly. :meth:`GradTree._build` is the numpy oracle it
matches bit for bit, and the fallback.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.ml import _ckernel
from repro.ml.base import Regressor
from repro.ml.kernels import FlatTree
from repro.utils.rng import SeedLike, as_generator


@dataclass
class _Node:
    """Internal node (leaf iff ``feature < 0``)."""

    feature: int = -1
    threshold: float = 0.0
    left: "_Node | None" = None
    right: "_Node | None" = None
    value: float = 0.0


@dataclass(frozen=True)
class TreeParams:
    """Growth limits (XGBoost naming)."""

    max_depth: int = 6
    min_child_weight: float = 1.0
    reg_lambda: float = 1.0
    gamma: float = 0.0  # minimum gain to split
    min_samples_leaf: int = 1
    #: number of features considered per split (None = all)
    max_features: int | None = None


def presort_columns(X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(Xt, order)`` for the native grower: the (d, n) column-major
    copy of ``X`` and each column's stable argsort (int32)."""
    Xt = np.ascontiguousarray(np.asarray(X, dtype=float).T)
    return Xt, np.argsort(Xt, axis=1, kind="stable").astype(np.int32)


def _grows_natively(params: TreeParams, n_features: int) -> bool:
    """Whether the native grower can stand in for ``_build``.

    Feature subsampling draws from the tree's RNG at every node, a
    stream the C grower does not reproduce, and with ``min_samples_leaf
    < 1`` the oracle's scan wraps around to the last sorted value, which
    the native scan does not mimic.
    """
    return (
        _ckernel.available()
        and params.min_samples_leaf >= 1
        and (params.max_features is None or params.max_features >= n_features)
    )


def _node_from_flat(flat: FlatTree) -> _Node:
    """Rebuild ``_Node`` objects from flat arrays (inverse of
    ``FlatTree.from_node``)."""
    nodes = [
        _Node(feature=f, threshold=t, value=v)
        for f, t, v in zip(
            flat.feature.tolist(), flat.threshold.tolist(), flat.value.tolist(),
            strict=True,
        )
    ]
    children = zip(flat.left.tolist(), flat.right.tolist(), strict=True)
    for node, (lo, hi) in zip(nodes, children, strict=True):
        if node.feature >= 0:
            node.left, node.right = nodes[lo], nodes[hi]
    return nodes[0]


class GradTree:
    """A single tree fitted to (gradient, hessian) statistics."""

    def __init__(self, params: TreeParams, rng: SeedLike = None) -> None:
        self.params = params
        self._rng = as_generator(rng)
        self._node: _Node | None = None
        self._flat: FlatTree | None = None

    @property
    def _root(self) -> _Node | None:
        """The fitted tree as ``_Node`` objects (``None`` before fit).

        The numpy path grows it directly; after a native fit it is
        rebuilt from the flat arrays the first time it is asked for.
        """
        if self._node is None and self._flat is not None:
            self._node = _node_from_flat(self._flat)
        return self._node

    # ------------------------------------------------------------------
    def fit(self, X: np.ndarray, grad: np.ndarray, hess: np.ndarray) -> "GradTree":
        self._grow(X, grad, hess, presorted=None)
        return self

    def fit_predict(
        self,
        X: np.ndarray,
        grad: np.ndarray,
        hess: np.ndarray,
        presorted: tuple[np.ndarray, np.ndarray] | None = None,
    ) -> np.ndarray:
        """Fit, then return ``predict(X)`` for the training rows.

        ``presorted`` is :func:`presort_columns` of ``X``; a booster
        passes the same one to every round, because ``X`` never changes
        between rounds. The native grower reports each row's leaf as it
        partitions, so no descent runs.
        """
        rows = self._grow(X, grad, hess, presorted)
        return rows if rows is not None else self.predict(X)

    def _grow(
        self,
        X: np.ndarray,
        grad: np.ndarray,
        hess: np.ndarray,
        presorted: tuple[np.ndarray, np.ndarray] | None,
    ) -> np.ndarray | None:
        """Grow natively when possible (returning the training rows'
        leaf values), else with the numpy oracle :meth:`_build`."""
        X = np.asarray(X, dtype=float)
        grad = np.ascontiguousarray(grad, dtype=float)
        hess = np.ascontiguousarray(hess, dtype=float)
        if len(X) == 0:
            raise ValueError("cannot fit a tree on zero samples")
        if _grows_natively(self.params, X.shape[1]):
            Xt, order = presorted if presorted is not None else presort_columns(X)
            arrays, rows, depth = _ckernel.grow_tree(
                Xt, order, grad, hess, self.params
            )
            self._node = None  # rebuilt from the flat arrays on demand
            self._flat = FlatTree(*arrays, depth=depth)
            return rows
        self._X, self._grad, self._hess = X, grad, hess
        self._node = self._build(np.arange(len(X)), depth=0)
        del self._X, self._grad, self._hess
        self._flat = None  # recompiled lazily on first predict
        return None

    def _leaf(self, idx: np.ndarray) -> _Node:
        G = self._grad[idx].sum()
        H = self._hess[idx].sum()
        return _Node(value=-G / (H + self.params.reg_lambda))

    def _build(self, idx: np.ndarray, depth: int) -> _Node:
        p = self.params
        if depth >= p.max_depth or len(idx) < 2 * p.min_samples_leaf:
            return self._leaf(idx)
        G = self._grad[idx].sum()
        H = self._hess[idx].sum()
        parent_score = G * G / (H + p.reg_lambda)

        nfeat = self._X.shape[1]
        if p.max_features is not None and p.max_features < nfeat:
            features = self._rng.choice(nfeat, size=p.max_features, replace=False)
        else:
            features = np.arange(nfeat)

        best_gain = 0.0
        best: tuple[int, float, np.ndarray] | None = None
        for f in features:
            values = self._X[idx, f]
            order = np.argsort(values, kind="stable")
            v_sorted = values[order]
            g_cum = np.cumsum(self._grad[idx][order])
            h_cum = np.cumsum(self._hess[idx][order])
            # Valid split positions: between distinct consecutive values,
            # respecting min_samples_leaf on both sides.
            lo = p.min_samples_leaf - 1
            hi = len(idx) - p.min_samples_leaf
            pos = np.arange(lo, hi)
            if len(pos) == 0:
                continue
            distinct = v_sorted[pos] < v_sorted[pos + 1]
            pos = pos[distinct]
            if len(pos) == 0:
                continue
            GL, HL = g_cum[pos], h_cum[pos]
            GR, HR = G - GL, H - HL
            ok = (HL >= p.min_child_weight) & (HR >= p.min_child_weight)
            if not ok.any():
                continue
            gains = (
                GL**2 / (HL + p.reg_lambda)
                + GR**2 / (HR + p.reg_lambda)
                - parent_score
            )
            gains[~ok] = -np.inf
            k = int(np.argmax(gains))
            if gains[k] > best_gain + 2 * p.gamma:
                best_gain = float(gains[k])
                threshold = 0.5 * (v_sorted[pos[k]] + v_sorted[pos[k] + 1])
                best = (int(f), threshold, values <= threshold)
        if best is None:
            return self._leaf(idx)
        feature, threshold, mask = best
        node = _Node(feature=feature, threshold=threshold)
        node.left = self._build(idx[mask], depth + 1)
        node.right = self._build(idx[~mask], depth + 1)
        return node

    # ------------------------------------------------------------------
    @property
    def flat(self) -> FlatTree:
        """The compiled flat-array kernel (built lazily, cached)."""
        if self._flat is None:
            if self._node is None:
                raise RuntimeError("GradTree is not fitted yet")
            self._flat = FlatTree.from_node(self._node)
        return self._flat

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Batch prediction via the flat kernel (the fast path)."""
        X = np.asarray(X, dtype=float)
        return self.flat.predict(X)

    def predict_recursive(self, X: np.ndarray) -> np.ndarray:
        """Reference pointer-chasing implementation (parity oracle).

        Kept only so the test suite can assert the flat kernel is
        bit-identical; all production paths use :meth:`predict`.
        """
        if self._root is None:
            raise RuntimeError("GradTree is not fitted yet")
        X = np.asarray(X, dtype=float)
        out = np.empty(len(X))
        self._predict_into(self._root, X, np.arange(len(X)), out)
        return out

    def _predict_into(
        self, node: _Node, X: np.ndarray, idx: np.ndarray, out: np.ndarray
    ) -> None:
        if node.feature < 0:
            out[idx] = node.value
            return
        mask = X[idx, node.feature] <= node.threshold
        assert node.left is not None and node.right is not None
        if mask.any():
            self._predict_into(node.left, X, idx[mask], out)
        if (~mask).any():
            self._predict_into(node.right, X, idx[~mask], out)

    def depth(self) -> int:
        """Actual depth of the fitted tree (for tests/diagnostics)."""

        def walk(node: _Node | None) -> int:
            if node is None or node.feature < 0:
                return 0
            return 1 + max(walk(node.left), walk(node.right))

        if self._root is None:
            raise RuntimeError("GradTree is not fitted yet")
        return walk(self._root)

    def num_leaves(self) -> int:
        """Leaf count of the fitted tree."""

        def walk(node: _Node | None) -> int:
            if node is None:
                return 0
            if node.feature < 0:
                return 1
            return walk(node.left) + walk(node.right)

        if self._root is None:
            raise RuntimeError("GradTree is not fitted yet")
        return walk(self._root)


class RegressionTree(Regressor):
    """Plain CART regression tree (leaf means, SSE-reduction splits)."""

    def __init__(
        self,
        max_depth: int = 8,
        min_samples_leaf: int = 1,
        max_features: int | None = None,
        rng: SeedLike = None,
    ) -> None:
        self._params = TreeParams(
            max_depth=max_depth,
            min_child_weight=0.0,
            reg_lambda=0.0,
            min_samples_leaf=min_samples_leaf,
            max_features=max_features,
        )
        self._rng = as_generator(rng)
        self._tree: GradTree | None = None

    def fit(self, X: np.ndarray, y: np.ndarray) -> "RegressionTree":
        X, y = self._validate(X, y)
        self._tree = GradTree(self._params, rng=self._rng)
        self._tree.fit(X, grad=-y, hess=np.ones(len(y)))
        self._fitted = True
        return self

    def predict(self, X: np.ndarray) -> np.ndarray:
        self._check_fitted()
        X, _ = self._validate(X)
        assert self._tree is not None
        return self._tree.predict(X)

    def predict_recursive(self, X: np.ndarray) -> np.ndarray:
        """Reference traversal (parity oracle for the flat kernel)."""
        self._check_fitted()
        X, _ = self._validate(X)
        assert self._tree is not None
        return self._tree.predict_recursive(X)
