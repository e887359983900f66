"""Native tree grower parity: ``repro_grow_tree`` == numpy ``_build``.

The C grower (``repro.ml._ckernel``) replaces the numpy exact-greedy
``GradTree._build`` on every fit it can serve. It is only allowed to
because it is bit-identical: these tests compare the flat arrays it
writes against ``FlatTree.from_node`` of the numpy-grown ``_Node``
tree, with thresholds and values compared as raw bytes (so NaN
payloads and the sign of zero count), across the edge cases of the
split search.
"""

from __future__ import annotations

import os
import subprocess
import sys
from contextlib import contextmanager
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.ml import _ckernel
from repro.ml import tree as tree_mod
from repro.ml.boosting import GradientBoostingRegressor
from repro.ml.forest import RandomForestRegressor
from repro.ml.kernels import FlatTree
from repro.ml.tree import GradTree, RegressionTree, TreeParams, presort_columns

native = pytest.mark.skipif(
    not _ckernel.available(), reason="native kernel unavailable"
)

FIELDS = ("feature", "threshold", "left", "right", "value")


@contextmanager
def numpy_grower():
    """Grow with the numpy oracle ``_build`` inside the block."""
    with mock.patch.object(tree_mod, "_grows_natively", return_value=False):
        yield


@contextmanager
def no_ckernel():
    """Every kernel off: the ``REPRO_NO_CKERNEL=1`` code path."""
    with mock.patch.object(_ckernel, "available", return_value=False):
        yield


def assert_same_bits(got: FlatTree, want: FlatTree) -> None:
    for name in FIELDS:
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.shape == b.shape, name
        assert a.tobytes() == b.tobytes(), f"{name}: {a} != {b}"
    assert got.depth == want.depth


def grow_both(params, X, grad, hess):
    """(native tree, its training-row leaf values, oracle FlatTree)."""
    tree = GradTree(params)
    rows = tree.fit_predict(X, grad, hess)
    assert tree._node is None, "native fit must not grow _Node objects"
    with numpy_grower():
        oracle = GradTree(params).fit(X, grad, hess)
    assert oracle._node is not None
    return tree, rows, FlatTree.from_node(oracle._node)


def check_parity(params, X, grad, hess) -> None:
    tree, rows, want = grow_both(params, X, grad, hess)
    assert_same_bits(tree.flat, want)
    assert rows.tobytes() == want.predict(X).tobytes()
    # the lazily rebuilt _Node graph round-trips to the same arrays
    assert_same_bits(FlatTree.from_node(tree._root), want)


def _stats(rng, n):
    return rng.normal(size=n), rng.random(n) + 0.05


# ----------------------------------------------------------------------
@native
class TestEdgeCases:
    def test_ties_and_constant_columns(self):
        rng = np.random.default_rng(1)
        X = np.round(rng.random((120, 4)) * 3) / 3  # four levels per column
        X[:, 1] = 0.5  # constant: no valid split position
        check_parity(TreeParams(max_depth=6), X, *_stats(rng, 120))

    def test_all_columns_constant(self):
        rng = np.random.default_rng(2)
        X = np.ones((30, 3))
        tree, _, want = grow_both(TreeParams(), X, *_stats(rng, 30))
        assert_same_bits(tree.flat, want)
        assert tree.num_leaves() == 1

    def test_single_row(self):
        X = np.array([[0.25, 3.0]])
        check_parity(TreeParams(), X, np.array([-1.5]), np.array([2.0]))

    def test_max_depth_zero(self):
        rng = np.random.default_rng(3)
        X = rng.random((50, 2))
        tree, _, want = grow_both(TreeParams(max_depth=0), X, *_stats(rng, 50))
        assert_same_bits(tree.flat, want)
        assert tree.depth() == 0

    @pytest.mark.parametrize("min_samples_leaf", [2, 5, 40])
    def test_min_samples_leaf(self, min_samples_leaf):
        rng = np.random.default_rng(4)
        X = rng.random((90, 3))
        params = TreeParams(max_depth=8, min_samples_leaf=min_samples_leaf)
        check_parity(params, X, *_stats(rng, 90))

    def test_min_child_weight_blocks_every_split(self):
        rng = np.random.default_rng(5)
        X = rng.random((80, 3))
        params = TreeParams(min_child_weight=1e9)
        tree, _, want = grow_both(params, X, *_stats(rng, 80))
        assert_same_bits(tree.flat, want)
        assert tree.num_leaves() == 1

    @pytest.mark.parametrize("gamma", [0.01, 0.5, 1e6])
    def test_gamma(self, gamma):
        rng = np.random.default_rng(6)
        X = rng.random((100, 3))
        check_parity(TreeParams(max_depth=6, gamma=gamma), X, *_stats(rng, 100))

    def test_regression_tree_unit_hessian(self):
        # reg_lambda=0, hess=1, min_child_weight=0: the CART special case
        rng = np.random.default_rng(7)
        X = rng.random((150, 4))
        y = np.exp(rng.normal(size=150))
        native_tree = RegressionTree(max_depth=8).fit(X, y)
        with numpy_grower():
            oracle = RegressionTree(max_depth=8).fit(X, y)
        assert_same_bits(native_tree._tree.flat, oracle._tree.flat)

    def test_subsample_zeroed_stats(self):
        # dropped rows carry grad = hess = 0 (and reg_lambda=0 makes
        # 0/0 leaves possible): NaN bits must match too
        rng = np.random.default_rng(8)
        X = rng.random((70, 3))
        grad, hess = _stats(rng, 70)
        keep = rng.random(70) < 0.4
        grad, hess = np.where(keep, grad, 0.0), np.where(keep, hess, 0.0)
        for lam, mcw in ((1.0, 1.0), (0.0, 0.0)):
            params = TreeParams(reg_lambda=lam, min_child_weight=mcw)
            with np.errstate(divide="ignore", invalid="ignore"):
                check_parity(params, X, grad, hess)

    def test_adjacent_float_threshold(self):
        # 0.5 * (a + b) rounds onto b for adjacent doubles: rows equal
        # to b go left, so the split is by comparison, not by position
        a, b = 1.0, np.nextafter(1.0, 2.0)
        X = np.array([[a], [b], [b], [a], [b]])
        grad = np.array([-3.0, 2.0, 1.0, -2.5, 4.0])
        params = TreeParams(min_child_weight=0.0)
        tree, _, want = grow_both(params, X, grad, np.ones(5))
        assert_same_bits(tree.flat, want)


@st.composite
def grow_cases(draw):
    seed = draw(st.integers(0, 2**32 - 1))
    n = draw(st.integers(1, 80))
    d = draw(st.integers(1, 4))
    levels = draw(st.sampled_from([0, 2, 5]))  # 0 = continuous values
    zero_frac = draw(st.sampled_from([0.0, 0.0, 0.5]))
    unit_hess = draw(st.booleans())
    params = TreeParams(
        max_depth=draw(st.integers(0, 7)),
        min_child_weight=draw(st.sampled_from([0.0, 0.5, 1.0, 3.0])),
        reg_lambda=draw(st.sampled_from([0.0, 0.5, 1.0])),
        gamma=draw(st.sampled_from([0.0, 0.0, 0.05, 1.0])),
        min_samples_leaf=draw(st.integers(1, 4)),
    )
    rng = np.random.default_rng(seed)
    X = rng.random((n, d))
    if levels:
        X = np.round(X * levels) / levels
    grad = rng.normal(size=n) * 10.0 ** rng.integers(-3, 3)
    hess = np.ones(n) if unit_hess else rng.random(n) + 0.01
    drop = rng.random(n) < zero_frac
    grad[drop] = 0.0
    hess[drop] = 0.0
    return params, X, grad, hess


@native
@settings(max_examples=300)
@given(grow_cases())
def test_native_grower_matches_oracle(case):
    params, X, grad, hess = case
    with np.errstate(divide="ignore", invalid="ignore"):
        check_parity(params, X, grad, hess)


# ----------------------------------------------------------------------
@native
def test_node_sum_matches_numpy_sum():
    """The grower's pairwise sum reproduces numpy's ``sum`` bit for bit."""
    rng = np.random.default_rng(11)
    for n in range(1101):
        a = rng.normal(size=n) * np.exp(rng.normal(size=n) * 4)
        idx = rng.permutation(n).astype(np.int32)
        got = np.float64(_ckernel.node_sum(a, idx))
        want = a[idx].sum()
        assert got.tobytes() == want.tobytes(), (
            f"pairwise sum differs from numpy {np.__version__}'s np.sum "
            f"at length {n}: {got!r} != {want!r}"
        )


@native
@pytest.mark.parametrize("subsample", [1.0, 0.6])
def test_booster_kernel_on_and_off(subsample):
    rng = np.random.default_rng(12)
    X = rng.random((300, 4))
    y = np.exp(rng.normal(size=300)) * 1e-4
    Xq = rng.random((500, 4))

    def fit():
        model = GradientBoostingRegressor(n_rounds=40, subsample=subsample, rng=3)
        return model.fit(X, y)

    native_model = fit()
    with no_ckernel():
        oracle = fit()
        oracle_pred = oracle.predict(Xq)
    assert native_model.predict(Xq).tobytes() == oracle_pred.tobytes()
    assert native_model.train_losses_ == oracle.train_losses_
    for got, want in zip(native_model._trees, oracle._trees, strict=True):
        assert_same_bits(got.flat, want.flat)


@native
def test_selector_kernel_on_and_off():
    from repro.bench.repro_mpi import BenchmarkSpec
    from repro.bench.runner import DatasetRunner, GridSpec
    from repro.core.selector import AlgorithmSelector
    from repro.machine.zoo import tiny_testbed
    from repro.mpilib import get_library

    dataset = DatasetRunner(
        tiny_testbed, get_library("Open MPI"), BenchmarkSpec(max_nreps=5), seed=2
    ).run(
        "bcast",
        GridSpec(nodes=(2, 4, 8), ppns=(1, 2), msizes=(64, 4096, 262144)),
        name="parity",
    )

    def factory():
        return GradientBoostingRegressor(n_rounds=30, rng=5)

    native_sel = AlgorithmSelector(factory).fit(dataset)
    with no_ckernel():
        oracle = AlgorithmSelector(factory).fit(dataset)
        want = oracle.predict_times(6, 2, np.array([16, 1000, 100_000]))
    got = native_sel.predict_times(6, 2, np.array([16, 1000, 100_000]))
    assert got.tobytes() == want.tobytes()


@native
def test_grow_tree_rejects_mismatched_buffers():
    X = np.random.default_rng(14).random((20, 3))
    Xt, order = presort_columns(X)
    grad, hess = np.zeros(20), np.ones(20)
    with pytest.raises(ValueError, match="shape"):
        _ckernel.grow_tree(Xt, order, grad, hess[:10], TreeParams())
    with pytest.raises(ValueError, match="int32"):
        _ckernel.grow_tree(Xt, order.astype(np.int64), grad, hess, TreeParams())
    with pytest.raises(ValueError, match="C-contiguous"):
        _ckernel.grow_tree(X.T, order, grad, hess, TreeParams())


def test_presort_is_stable_per_column():
    X = np.array([[2.0, 1.0], [1.0, 1.0], [2.0, 0.0], [1.0, 1.0]])
    Xt, order = presort_columns(X)
    assert Xt.flags.c_contiguous and order.dtype == np.int32
    assert order.tolist() == [[1, 3, 0, 2], [2, 0, 1, 3]]


def test_feature_subsampling_stays_on_numpy_path():
    # the per-node rng.choice stream only exists in _build
    assert not tree_mod._grows_natively(TreeParams(max_features=2), 4)
    rng = np.random.default_rng(13)
    X, y = rng.random((60, 4)), rng.random(60) + 0.1
    with mock.patch.object(
        GradTree, "_build", autospec=True, side_effect=GradTree._build
    ) as spy:
        RandomForestRegressor(n_trees=2, max_features="sqrt", rng=1).fit(X, y)
    assert spy.call_count > 0


def test_no_ckernel_env_runs_numpy_path():
    """Under ``REPRO_NO_CKERNEL=1`` fits grow with the numpy oracle."""
    probe = (
        "import numpy as np\n"
        "from repro.ml import _ckernel\n"
        "from repro.ml.tree import GradTree, TreeParams\n"
        "rng = np.random.default_rng(0)\n"
        "X = rng.random((40, 3))\n"
        "t = GradTree(TreeParams()).fit(X, rng.normal(size=40), np.ones(40))\n"
        "print(_ckernel.available(), t._node is not None)\n"
    )
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ, REPRO_NO_CKERNEL="1")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True,
        text=True, check=True, timeout=120,
    ).stdout.split()
    assert out == ["False", "True"]
