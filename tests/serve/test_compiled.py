"""The L0 compiled decision tables: lowering, parity, hot-reload, stats.

The tier's contract is "never guesses": a compiled answer must be
bit-identical to what the interpreted path below it would have said,
and anything the flat table cannot prove falls through with ``-1``.
Every test here is some instance of that contract — against the cold
tuner oracle, against the interpreted rules bracket at its edges,
across the C kernel / numpy twin / scalar Python triple, and across a
hot-reload swapping the table out from under a warm service.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.collectives.base import CollectiveKind
from repro.core.selector import AlgorithmSelector
from repro.machine.zoo import tiny_testbed
from repro.ml import KNNRegressor, _ckernel
from repro.ml.kernels import table_lookup_numpy
from repro.obs import get_telemetry
from repro.serve import (
    ModelRegistry,
    PredictionService,
    RuleSet,
    SelectorModel,
    compile_rules_model,
    compile_selector,
    compile_servable,
)

from tests.core.test_degradation import (
    TINY_GRID,
    NaNRegressor,
    make_tuner,
    one_bad_factory,
)
from tests.core.test_selector import crossover_dataset
from tests.serve.conftest import make_rules_text
from tests.serve.test_property_oracle import GRIDS, instances, oracle

#: selector serving grid for the lowering tests: every msize sits in
#: its own log2 bucket, so no bucket is dropped
NODES = (2, 4, 8, 16)
PPNS = (1, 4)
MSIZES = tuple(int(2**k) for k in range(0, 23, 2))


def _rules_model(library, picks):
    text = make_rules_text(library, "bcast", 8, 2, picks)
    return RuleSet.parse(text).resolve(library)


def _selector_model(selector, nodes=NODES, ppns=PPNS, msizes=MSIZES):
    return SelectorModel(
        selector=selector,
        collective=CollectiveKind.BCAST,
        grid_axes=(nodes, ppns, msizes),
    )


@pytest.fixture(scope="module")
def crossover_selector():
    """1-NN over the synthetic latency/bandwidth crossover dataset."""
    return AlgorithmSelector(lambda: KNNRegressor(k=1)).fit(
        crossover_dataset()
    )


def _numpy_twin(table, nodes, ppn, msize):
    return table_lookup_numpy(
        np.asarray(nodes, dtype=np.int64),
        np.asarray(ppn, dtype=np.int64),
        np.asarray(msize, dtype=np.int64),
        table.node_index, table.ppn_index,
        table.msize_lo, table.msize_hi, table.cells,
    )


class TestRulesLowering:
    """Compiled rules tables agree with the interpreted bracket."""

    def test_bracket_edges_byte_identical(self, library):
        model = _rules_model(library, [(0, 0), (1024, 1), (65536, 2)])
        table = compile_rules_model(model, version=1)
        probes = []
        for m, *_ in model.rule_set.rules:
            probes.extend((max(m - 1, 0), m, m + 1))
        probes.extend((0, 1, 511, 513, 1 << 30, (1 << 62) + 5))
        want = model.select_configs(
            None, None, np.asarray(probes, dtype=np.int64)
        )
        for msize, expected in zip(probes, want, strict=True):
            cid = table.lookup(0, 0, msize)
            assert cid >= 0, f"rules bucket uncovered at msize={msize}"
            assert table.configs[cid] == expected, f"msize={msize}"

    def test_power_of_two_boundaries_cover_every_bucket(self, library):
        model = _rules_model(library, [(0, 0), (1024, 1), (65536, 2)])
        table = compile_rules_model(model, version=1)
        cov = table.coverage()
        assert cov["buckets"] == 64 and cov["partial_buckets"] == 0

    def test_unaligned_boundary_splits_a_bucket(self, library):
        # 1000 lies inside bucket 10 (512..1023): the bucket is admitted
        # only up to 999 and the interpreted path owns the remainder
        model = _rules_model(library, [(0, 0), (1000, 1)])
        table = compile_rules_model(model, version=1)
        assert table.partial_buckets == 1
        assert table.lookup(0, 0, 999) >= 0
        assert table.lookup(0, 0, 1000) == -1
        assert table.lookup(0, 0, 1023) == -1
        assert table.lookup(0, 0, 1024) >= 0

    def test_beyond_int64_falls_through(self, library):
        model = _rules_model(library, [(0, 0)])
        table = compile_rules_model(model, version=1)
        assert table.lookup(0, 0, 1 << 70) == -1
        assert table.lookup(0, 0, (1 << 63) - 1) >= 0

    def test_empty_rules_refuse_to_compile(self):
        from repro.collectives.base import CollectiveKind
        from repro.serve.rules import RulesModel

        empty = RulesModel(
            rule_set=RuleSet(
                collective=CollectiveKind.BCAST, nodes=4, ppn=2, rules=()
            ),
            configs=(),
        )
        with pytest.raises(ValueError, match="empty rules"):
            compile_rules_model(empty, version=1)

    @settings(max_examples=25, deadline=None)
    @given(
        cuts=st.lists(
            st.integers(min_value=1, max_value=1 << 22),
            min_size=0, max_size=5, unique=True,
        ),
        msizes=st.lists(
            st.integers(min_value=0, max_value=1 << 23),
            min_size=1, max_size=16,
        ),
        data=st.data(),
    )
    def test_random_tables_never_disagree(self, library, cuts, msizes, data):
        space_len = len(library.config_space("bcast").configs)
        bounds = sorted({0, *cuts})
        picks = [
            (m, data.draw(st.integers(0, space_len - 1), label=f"cfg@{m}"))
            for m in bounds
        ]
        model = _rules_model(library, picks)
        table = compile_rules_model(model, version=1)
        # probe the drawn msizes plus every boundary's neighbourhood
        probes = list(msizes)
        for b in bounds:
            probes.extend((max(b - 1, 0), b, b + 1))
        want = model.select_configs(
            None, None, np.asarray(probes, dtype=np.int64)
        )
        for msize, expected in zip(probes, want, strict=True):
            cid = table.lookup(0, 0, msize)
            if cid >= 0:
                assert table.configs[cid] == expected, f"msize={msize}"


class TestLookupPathParity:
    """C kernel, numpy twin and scalar Python return the same bits."""

    @pytest.fixture(scope="class")
    def table(self, library, tuned_bcast):
        return compile_servable(tuned_bcast.servable(), version=1)

    def _probe_columns(self):
        rng = np.random.default_rng(3)
        n = rng.integers(0, 12, size=256)
        p = rng.integers(0, 6, size=256)
        m = rng.choice(
            [0, 1, 63, 64, 65, 4096, 262143, 262144, 262145, 1 << 21,
             (1 << 62) + 5],
            size=256,
        )
        return (n.astype(np.int64), p.astype(np.int64), m.astype(np.int64))

    def test_scalar_matches_vector(self, table):
        nodes, ppn, msize = self._probe_columns()
        got = table.lookup_many(nodes, ppn, msize)
        for k in range(len(msize)):
            assert got[k] == table.lookup(
                int(nodes[k]), int(ppn[k]), int(msize[k])
            )

    def test_numpy_twin_matches_vector(self, table):
        nodes, ppn, msize = self._probe_columns()
        got = table.lookup_many(nodes, ppn, msize)
        twin = _numpy_twin(table, nodes, ppn, msize)
        np.testing.assert_array_equal(got, twin)

    @pytest.mark.skipif(
        not _ckernel.available(), reason="no C toolchain in this build"
    )
    def test_c_kernel_matches_numpy_twin(self, table):
        nodes, ppn, msize = self._probe_columns()
        fixed = _ckernel.table_fixed_args(
            table.node_index, table.ppn_index,
            table.msize_lo, table.msize_hi, table.cells,
        )
        got = _ckernel.table_lookup(nodes, ppn, msize, fixed)
        np.testing.assert_array_equal(
            got, _numpy_twin(table, nodes, ppn, msize)
        )


class TestSurfaceLowering:
    def test_only_exact_grid_points_admitted(self, library, tuned_bcast):
        servable = tuned_bcast.servable()
        table = compile_servable(servable, version=1)
        nodes, ppns, msizes = servable.grid_axes
        for n in nodes:
            for p in ppns:
                for m in msizes:
                    cid = table.lookup(n, p, m)
                    assert cid >= 0
                    (want,) = servable.select_configs(
                        np.asarray([n]), np.asarray([p]), np.asarray([m])
                    )
                    assert table.configs[cid] == want
        # off-grid in any coordinate -> fall through
        assert table.lookup(3, 1, 64) == -1       # nodes off-axis
        assert table.lookup(2, 3, 64) == -1       # ppn off-axis
        assert table.lookup(2, 1, 100) == -1      # msize off-axis
        assert table.lookup(10**8, 1, 64) == -1   # beyond the index map

    def test_uncompilable_servable_returns_none(self, library, tuned_bcast):
        class Opaque:
            collective = "bcast"
            grid_axes = ((2,), (1,), (64,))

            def select_configs(self, nodes, ppn, msize):
                return [None] * len(msize)

            def describe(self):
                return "opaque"

        assert compile_servable(Opaque(), version=1) is None

    def test_shape_and_cells(self, crossover_selector):
        table = compile_selector(_selector_model(crossover_selector), 1)
        assert table.cells.shape == (64, len(NODES), len(PPNS))
        coverage = table.coverage()
        assert coverage["cells"] == len(NODES) * len(PPNS) * len(MSIZES)
        assert coverage["dropped_buckets"] == 0

    def test_on_grid_matches_selector(self, crossover_selector):
        table = compile_selector(_selector_model(crossover_selector), 1)
        for n in NODES:
            for p in PPNS:
                for m in MSIZES:
                    cid = table.lookup(n, p, m)
                    assert table.configs[cid] == crossover_selector.select(
                        n, p, m
                    )

    def test_crossover_regimes(self, crossover_selector):
        table = compile_selector(_selector_model(crossover_selector), 1)
        assert table.configs[table.lookup(8, 1, 1)].name == "latency"
        assert table.configs[table.lookup(8, 1, 1 << 22)].name == "bandwidth"

    def test_empty_axis_rejected(self, crossover_selector):
        with pytest.raises(ValueError, match="non-empty"):
            compile_selector(_selector_model(crossover_selector, nodes=()), 1)

    def test_single_batched_predict(self, crossover_selector):
        calls = []
        original = crossover_selector.predict_times

        def spy(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        crossover_selector.predict_times = spy
        try:
            compile_selector(_selector_model(crossover_selector), 1)
        finally:
            del crossover_selector.predict_times
        assert len(calls) == 1

    def test_uncovered_cells_sentinel_and_counter(self):
        sel = AlgorithmSelector(lambda: NaNRegressor()).fit(crossover_dataset())
        telemetry = get_telemetry()
        before = telemetry.counters_snapshot().get("surface.uncovered_cells", 0)
        table = compile_selector(
            _selector_model(sel, (4, 8), (1,), (64, 1024)), 1
        )
        after = telemetry.counters_snapshot().get("surface.uncovered_cells", 0)
        assert (table.cells == -1).all()
        assert after - before == 2 * 1 * 2
        assert table.lookup(4, 1, 64) == -1

    def test_partially_covered_selector(self):
        sel = AlgorithmSelector(one_bad_factory({1})).fit(crossover_dataset())
        table = compile_selector(
            _selector_model(sel, (4,), (1,), (64, 1 << 20)), 1
        )
        # config 0 still has a model, so every grid cell is covered by it
        assert table.lookup(4, 1, 64) == table.lookup(4, 1, 1 << 20) == 0
        assert table.coverage()["cells"] == 2


class TestCompiledService:
    """The L0 tier inside PredictionService: identity, stats, reloads."""

    @settings(max_examples=10, deadline=None)
    @given(
        grid_idx=st.integers(min_value=0, max_value=len(GRIDS) - 1),
        seed=st.integers(min_value=0, max_value=1),
        queries=st.lists(instances, min_size=1, max_size=8),
    )
    def test_bit_identical_to_cold_tuner(self, grid_idx, seed, queries):
        tuner = oracle(grid_idx, seed)
        registry = ModelRegistry(tiny_testbed, tuner.library)
        registry.publish(tuner.servable(), tag="oracle")
        service = PredictionService(registry, compiled=True)
        expected = [tuner.recommend(n, p, m) for n, p, m in queries]
        for (n, p, m), want in zip(queries, expected, strict=True):
            assert service.recommend("bcast", n, p, m).config == want
        batch = service.recommend_many(
            [("bcast", n, p, m) for n, p, m in queries]
        )
        assert [rec.config for rec in batch] == expected

    def test_on_grid_queries_served_compiled(self, registry, tuned_bcast):
        registry.publish(tuned_bcast.servable(), tag="t")
        service = PredictionService(registry, compiled=True)
        nodes, ppns, msizes = tuned_bcast.servable().grid_axes
        grid = [
            ("bcast", n, p, m)
            for n in nodes for p in ppns for m in msizes
        ]
        for rec in service.recommend_many(grid):
            assert rec.compiled and not rec.cached
            assert rec.source == "model"
        # scalar path agrees and is also compiled
        rec = service.recommend("bcast", nodes[0], ppns[0], msizes[0])
        assert rec.compiled

    def test_all_quarantined_selector_serves_default(self, library):
        tuner = make_tuner(lambda: NaNRegressor())
        tuner.benchmark(TINY_GRID, name="quarantined")
        tuner.train()
        registry = ModelRegistry(tiny_testbed, library)
        registry.publish(tuner.servable(), tag="nan")
        service = PredictionService(registry, compiled=True)
        grid = [
            ("bcast", n, p, m)
            for n in TINY_GRID.nodes
            for p in TINY_GRID.ppns
            for m in TINY_GRID.msizes
        ]
        scalars = [service.recommend(*inst) for inst in grid]
        batch = PredictionService(registry, compiled=True).recommend_many(grid)
        for inst, rec, many in zip(grid, scalars, batch, strict=True):
            want = tuner.recommend(*inst[1:])
            for got in (rec, many):
                assert got.source == "default" and not got.compiled
                assert got.config == want

    def test_rules_service_identical_with_and_without_tier(
        self, library, tmp_path
    ):
        path = tmp_path / "r.conf"
        path.write_text(
            make_rules_text(library, "bcast", 8, 2, [(0, 0), (4096, 1)])
        )
        queries = [
            ("bcast", n, p, m)
            for n in (1, 2, 8) for p in (1, 2)
            for m in (0, 1, 4095, 4096, 4097, 1 << 20, (1 << 62) + 5)
        ]
        answers = {}
        for compiled in (False, True):
            registry = ModelRegistry(tiny_testbed, library)
            registry.load_rules(path)
            service = PredictionService(registry, compiled=compiled)
            recs = service.recommend_many(queries)
            answers[compiled] = [
                (r.config, r.source, r.version) for r in recs
            ]
            scalars = [service.recommend(*q) for q in queries]
            assert [
                (r.config, r.source, r.version) for r in scalars
            ] == answers[compiled]
        assert answers[False] == answers[True]

    def test_mixed_collectives_and_overflow_in_one_batch(
        self, registry, tuned_bcast, library, tmp_path
    ):
        registry.publish(tuned_bcast.servable(), tag="t")
        service = PredictionService(registry, compiled=True)
        plain = PredictionService(registry)
        batch = [
            ("bcast", 2, 1, 64),           # on-grid: compiled
            ("bcast", 2, 1, (1 << 62) + 5),  # bucket 63, off-grid
            ("bcast", 3, 1, 64),           # off-grid: interpreted
        ]
        got = service.recommend_many(batch)
        want = plain.recommend_many(batch)
        assert [r.config for r in got] == [r.config for r in want]
        assert [r.compiled for r in got] == [True, False, False]
        # beyond int64 the interpreted path has always raised
        # OverflowError; the compiled tier must not change that, and
        # must not take the rest of the group down with it either
        with pytest.raises(OverflowError):
            plain.recommend_many([("bcast", 2, 1, 1 << 70)])
        with pytest.raises(OverflowError):
            service.recommend_many([("bcast", 2, 1, 1 << 70)])
        ok = service.recommend_many(
            [("bcast", 2, 1, 64), ("bcast", 4, 1, 4096)]
        )
        assert all(r.compiled for r in ok)

    def test_hot_reload_swaps_the_table(self, library, tmp_path):
        a = tmp_path / "a.conf"
        b = tmp_path / "b.conf"
        a.write_text(make_rules_text(library, "bcast", 4, 2, [(0, 0)]))
        b.write_text(make_rules_text(library, "bcast", 4, 2, [(0, 1)]))
        registry = ModelRegistry(tiny_testbed, library)
        v1 = registry.load_rules(a)
        service = PredictionService(registry, compiled=True)
        first = service.recommend("bcast", 4, 2, 64)
        assert first.compiled and first.version == v1.version
        v2 = registry.load_rules(b)
        second = service.recommend("bcast", 4, 2, 64)
        assert second.compiled and second.version == v2.version
        assert second.config != first.config
        space = library.config_space("bcast").configs
        assert (first.config, second.config) == (space[0], space[1])

    def test_counters_and_stats_block(self, library, tmp_path):
        path = tmp_path / "r.conf"
        # the 1000 boundary splits bucket 10: msizes 1000..1023 are the
        # fallthrough to the interpreted path below
        path.write_text(
            make_rules_text(library, "bcast", 4, 2, [(0, 0), (1000, 1)])
        )
        registry = ModelRegistry(tiny_testbed, library)
        registry.load_rules(path)
        service = PredictionService(registry, compiled=True)
        before = get_telemetry().counters_snapshot()
        service.recommend("bcast", 4, 2, 64)
        service.recommend_many(
            [("bcast", 4, 2, 64), ("bcast", 4, 2, 1010)]
        )
        after = get_telemetry().counters_snapshot()

        def delta(name):
            return after.get(name, 0) - before.get(name, 0)

        assert delta("serve.compiled.hit") == 2
        assert delta("serve.compiled.fallthrough") == 1
        assert delta("serve.compiled.builds") == 1
        stats = service.stats()["compiled"]
        assert stats["enabled"]
        assert stats["hits"] >= 2 and stats["fallthroughs"] >= 1
        table = stats["tables"]["bcast"]
        assert table["version"] >= 1 and table["buckets"] == 64

    def test_disabled_tier_reports_disabled(self, service):
        stats = service.stats()["compiled"]
        assert not stats["enabled"] and stats["tables"] == {}

    def test_publish_probe_rejects_nothing_valid(self, library, registry):
        # every fabricated-but-valid rules file must pass the publish-time
        # compiled/interpreted agreement probe
        for picks in ([(0, 0)], [(0, 2), (777, 1)], [(0, 1), (64, 0),
                                                     (4096, 2)]):
            text = make_rules_text(library, "bcast", 8, 2, picks)
            registry.publish(
                RuleSet.parse(text).resolve(library), source="rules"
            )
