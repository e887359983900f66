"""Random forest regressor — the paper's *previous* learner ([9]).

Kept as a baseline for the A3 ablation: the paper reports that RF
"worked reasonably well" on few datasets but lost to XGBoost/KNN/GAM at
scale.
"""

from __future__ import annotations

import numpy as np

from repro.ml.base import Regressor
from repro.ml.kernels import FlatEnsemble
from repro.ml.tree import RegressionTree
from repro.utils.rng import SeedLike, as_generator, spawn_child


class RandomForestRegressor(Regressor):
    """Bagged CART trees with feature subsampling."""

    def __init__(
        self,
        n_trees: int = 100,
        max_depth: int = 12,
        min_samples_leaf: int = 1,
        max_features: str | int | None = "sqrt",
        rng: SeedLike = None,
    ) -> None:
        if n_trees < 1:
            raise ValueError("n_trees must be >= 1")
        self.n_trees = n_trees
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self._rng = as_generator(rng)
        self._trees: list[RegressionTree] = []
        self._flat: FlatEnsemble | None = None

    def _resolve_max_features(self, nfeat: int) -> int | None:
        if self.max_features is None:
            return None
        if self.max_features == "sqrt":
            return max(1, int(np.sqrt(nfeat)))
        if isinstance(self.max_features, int):
            return max(1, min(self.max_features, nfeat))
        raise ValueError(f"bad max_features: {self.max_features!r}")

    def fit(self, X: np.ndarray, y: np.ndarray) -> "RandomForestRegressor":
        X, y = self._validate(X, y)
        n = len(y)
        max_features = self._resolve_max_features(X.shape[1])
        self._trees = []
        for t in range(self.n_trees):
            child = spawn_child(self._rng, "tree", t)
            rows = child.integers(0, n, size=n)  # bootstrap sample
            tree = RegressionTree(
                max_depth=self.max_depth,
                min_samples_leaf=self.min_samples_leaf,
                max_features=max_features,
                rng=child,
            )
            tree.fit(X[rows], y[rows])
            self._trees.append(tree)
        self._flat = None  # stale ensemble kernel, recompile lazily
        self._fitted = True
        return self

    # ------------------------------------------------------------------
    @property
    def flat(self) -> FlatEnsemble:
        """All member trees compiled into one node pool (lazy, cached)."""
        self._check_fitted()
        if self._flat is None:
            self._flat = FlatEnsemble.from_trees(
                [t._tree.flat for t in self._trees]  # noqa: SLF001
            )
        return self._flat

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Batch prediction via the flat ensemble kernel (bit-parity
        with :meth:`predict_recursive`)."""
        self._check_fitted()
        X, _ = self._validate(X)
        leaf_values = self.flat.predict_all(X)  # (n, n_trees)
        # Same stack-then-mean as the oracle so float reduction order
        # (and hence the bits) match exactly.
        preds = np.stack([leaf_values[:, t] for t in range(self.n_trees)])
        return preds.mean(axis=0)

    def predict_recursive(self, X: np.ndarray) -> np.ndarray:
        """Reference per-tree traversal (parity oracle for the kernel)."""
        self._check_fitted()
        X, _ = self._validate(X)
        preds = np.stack([tree.predict_recursive(X) for tree in self._trees])
        return preds.mean(axis=0)
