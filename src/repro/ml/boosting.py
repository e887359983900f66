"""Gradient-boosted regression trees (the paper's "XGBoost" learner).

Second-order boosting exactly as in Chen & Guestrin (KDD'16): each
round fits a :class:`GradTree` to the loss gradients/hessians at the
current prediction and adds it with learning rate ``eta``.

Objectives (all with a log link, matching the paper's setup for
positive runtimes — §IV-B uses ``reg:tweedie`` because plain linear/
squared error "did not work"):

* ``tweedie`` (default, variance power 1.5) — compound Poisson-Gamma
  deviance, robust for positive, right-skewed targets,
* ``gamma`` — Gamma deviance ("also worked well" per the paper),
* ``squared`` — squared error on the raw scale (identity link), kept
  as the baseline the paper rejected.
"""

from __future__ import annotations

import numpy as np

from repro.ml.base import Regressor
from repro.ml.kernels import FlatEnsemble
from repro.ml.tree import GradTree, TreeParams, presort_columns
from repro.utils.rng import SeedLike, as_generator

_OBJECTIVES = ("tweedie", "gamma", "squared")

# Clamp the link-scale score to keep exp() finite whatever the data.
_SCORE_CLIP = 60.0


class GradientBoostingRegressor(Regressor):
    """XGBoost-style booster; defaults follow the paper (200 rounds)."""

    def __init__(
        self,
        n_rounds: int = 200,
        eta: float = 0.3,
        max_depth: int = 6,
        objective: str = "tweedie",
        tweedie_variance_power: float = 1.5,
        min_child_weight: float = 1.0,
        reg_lambda: float = 1.0,
        subsample: float = 1.0,
        rng: SeedLike = None,
    ) -> None:
        if objective not in _OBJECTIVES:
            raise ValueError(
                f"objective must be one of {_OBJECTIVES}, got {objective!r}"
            )
        if not 1.0 < tweedie_variance_power < 2.0:
            raise ValueError("tweedie_variance_power must lie in (1, 2)")
        if not 0.0 < subsample <= 1.0:
            raise ValueError("subsample must lie in (0, 1]")
        if n_rounds < 1:
            raise ValueError("n_rounds must be >= 1")
        self.n_rounds = n_rounds
        self.eta = eta
        self.objective = objective
        self.rho = tweedie_variance_power
        self.subsample = subsample
        self._params = TreeParams(
            max_depth=max_depth,
            min_child_weight=min_child_weight,
            reg_lambda=reg_lambda,
        )
        self._rng = as_generator(rng)
        self._trees: list[GradTree] = []
        self._flat: FlatEnsemble | None = None
        self._base_score: float = 0.0
        self.train_losses_: list[float] = []

    # -- loss derivatives on the link scale -----------------------------
    def _grad_hess(
        self, y: np.ndarray, score: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        if self.objective == "squared":
            return score - y, np.ones_like(y)
        score = np.clip(score, -_SCORE_CLIP, _SCORE_CLIP)
        if self.objective == "gamma":
            # -2 log-lik (up to const) of Gamma with log link.
            exp_neg = y * np.exp(-score)
            return 1.0 - exp_neg, exp_neg
        # Tweedie deviance with log link (XGBoost's reg:tweedie).
        rho = self.rho
        a = y * np.exp((1.0 - rho) * score)
        b = np.exp((2.0 - rho) * score)
        grad = -a + b
        hess = -(1.0 - rho) * a + (2.0 - rho) * b
        return grad, np.maximum(hess, 1e-12)

    def _loss(self, y: np.ndarray, score: np.ndarray) -> float:
        score = np.clip(score, -_SCORE_CLIP, _SCORE_CLIP)
        if self.objective == "squared":
            # 0.5 factor so the analytic gradient (score - y) is the
            # exact derivative of this monitored loss.
            return float(0.5 * np.mean((score - y) ** 2))
        if self.objective == "gamma":
            return float(np.mean(score + y * np.exp(-score)))
        rho = self.rho
        dev = -y * np.exp((1 - rho) * score) / (1 - rho) + np.exp(
            (2 - rho) * score
        ) / (2 - rho)
        return float(np.mean(dev))

    # ------------------------------------------------------------------
    def fit(self, X: np.ndarray, y: np.ndarray) -> "GradientBoostingRegressor":
        X, y = self._validate(X, y)
        if self.objective != "squared" and (y <= 0).any():
            raise ValueError(
                f"{self.objective} objective requires strictly positive targets"
            )
        if self.objective == "squared":
            self._y_scale = 1.0
            self._base_score = float(np.mean(y))
        else:
            # Normalise targets to mean 1: Tweedie/Gamma hessians scale
            # with the target magnitude, and microsecond-scale runtimes
            # would otherwise shrink every hessian below
            # min_child_weight, freezing the trees. Predictions are
            # scaled back in predict().
            self._y_scale = float(np.mean(y))
            if self._y_scale <= 0:
                raise ValueError("targets must have positive mean")
            y = y / self._y_scale
            self._base_score = float(np.log(np.mean(y)))
        score = np.full(len(y), self._base_score)
        self._trees = []
        self.train_losses_ = []
        n = len(y)
        presorted = presort_columns(X)  # X is fixed across all rounds
        for _ in range(self.n_rounds):
            grad, hess = self._grad_hess(y, score)
            if self.subsample < 1.0:
                keep = self._rng.random(n) < self.subsample
                if not keep.any():
                    keep[self._rng.integers(n)] = True
                # Zero out dropped samples' statistics.
                grad = np.where(keep, grad, 0.0)
                hess = np.where(keep, hess, 0.0)
            tree = GradTree(self._params, rng=self._rng)
            update = tree.fit_predict(X, grad, hess, presorted)
            score = score + self.eta * update
            self._trees.append(tree)
            self.train_losses_.append(self._loss(y, score))
        self._flat = None  # stale ensemble kernel, recompile lazily
        self._fitted = True
        return self

    # ------------------------------------------------------------------
    @property
    def flat(self) -> FlatEnsemble:
        """All rounds compiled into one flat node pool (lazy, cached)."""
        self._check_fitted()
        if self._flat is None:
            self._flat = FlatEnsemble.from_trees([t.flat for t in self._trees])
        return self._flat

    def _link(self, score: np.ndarray) -> np.ndarray:
        if self.objective == "squared":
            return score
        return self._y_scale * np.exp(np.clip(score, -_SCORE_CLIP, _SCORE_CLIP))

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Batch prediction via the flat ensemble kernel.

        One level-wise descent computes the (n_rows, n_rounds) leaf
        matrix; the learning-rate accumulation then replays the exact
        round order of :meth:`predict_recursive`, so results are
        bit-identical to the oracle.
        """
        self._check_fitted()
        X, _ = self._validate(X)
        score = self.flat.predict_weighted_sum(X, self.eta, self._base_score)
        return self._link(score)

    def predict_recursive(self, X: np.ndarray) -> np.ndarray:
        """Reference per-tree traversal (parity oracle for the kernel)."""
        self._check_fitted()
        X, _ = self._validate(X)
        score = np.full(len(X), self._base_score)
        for tree in self._trees:
            score += self.eta * tree.predict_recursive(X)
        return self._link(score)

    @property
    def n_trees_(self) -> int:
        """Number of fitted boosting rounds."""
        return len(self._trees)
