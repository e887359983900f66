"""PredictionService: cache levels, batching, fallback."""

from __future__ import annotations

import pytest

from repro.collectives.base import CollectiveKind
from repro.obs import get_telemetry
from repro.serve import PredictionService
from repro.serve.cache import KeyInterner, LRUCache

from tests.serve.conftest import make_rules_text


def counter(name: str) -> int:
    return get_telemetry().counters_snapshot().get(name, 0)


class TestRecommend:
    def test_matches_oracle_tuner(self, service, tuned_bcast):
        for n, p, m in [(2, 1, 64), (5, 2, 1024), (8, 2, 262144)]:
            rec = service.recommend("bcast", n, p, m)
            assert rec.config == tuned_bcast.recommend(n, p, m)
            assert rec.source == "model"

    def test_second_request_is_a_cache_hit(self, service):
        first = service.recommend("bcast", 4, 2, 4096)
        assert not first.cached
        second = service.recommend("bcast", 4, 2, 4096)
        assert second.cached
        assert second.config == first.config
        assert second.version == first.version

    def test_unpublished_collective_falls_back_to_default(
        self, service, registry
    ):
        before = counter("serve.fallback_default")
        rec = service.recommend("alltoall", 4, 2, 1024)
        assert rec.source == "default"
        assert rec.version == 0
        assert rec.config == registry.default_config("alltoall", 4, 2, 1024)
        assert counter("serve.fallback_default") == before + 1

    def test_msize_zero_and_huge_are_served(self, service):
        assert service.recommend("bcast", 2, 1, 0).config is not None
        assert service.recommend("bcast", 2, 1, 1 << 28).config is not None


class TestHotReloadInvalidation:
    def test_stale_cache_entries_recomputed_after_swap(
        self, service, registry, library, tmp_path
    ):
        old = service.recommend("bcast", 3, 3, 70000)
        assert service.recommend("bcast", 3, 3, 70000).cached
        # swap in a rules file that forces a fixed selection
        path = tmp_path / "new.conf"
        path.write_text(make_rules_text(library, "bcast", 3, 3, [(0, 2)]))
        new_version = registry.load_rules(path)
        stale_before = counter("serve.l1.stale")
        fresh = service.recommend("bcast", 3, 3, 70000)
        assert fresh.version == new_version.version > old.version
        assert not fresh.cached
        assert counter("serve.l1.stale") == stale_before + 1
        # and the re-served answer now caches under the new version
        assert service.recommend("bcast", 3, 3, 70000).cached


class TestRecommendMany:
    def test_order_and_oracle_equivalence(self, service, tuned_bcast):
        instances = [
            ("bcast", n, p, m)
            for n in (2, 3, 5, 8)
            for p in (1, 2)
            for m in (0, 64, 5000, 262144)
        ]
        recs = service.recommend_many(instances)
        assert len(recs) == len(instances)
        for (_coll, n, p, m), rec in zip(instances, recs, strict=True):
            assert (rec.nodes, rec.ppn, rec.msize) == (n, p, m)
            assert rec.config == tuned_bcast.recommend(n, p, m)

    def test_mixed_collectives_grouped(self, service):
        recs = service.recommend_many(
            [
                ("bcast", 4, 2, 64),
                ("alltoall", 4, 2, 64),
                ("bcast", 4, 2, 1024),
            ]
        )
        assert [str(r.collective) for r in recs] == [
            "bcast", "alltoall", "bcast",
        ]
        assert recs[1].source == "default"

    def test_batch_reuses_cache(self, service):
        service.recommend("bcast", 4, 2, 64)
        recs = service.recommend_many(
            [("bcast", 4, 2, 64), ("bcast", 4, 2, 128)]
        )
        assert recs[0].cached and not recs[1].cached

    def test_one_vectorized_call_per_collective(self, service):
        before = counter("serve.batches")
        service.recommend_many(
            [("bcast", n, 1, 64) for n in range(2, 9)]
        )
        assert counter("serve.batches") == before + 1


class TestStats:
    def test_stats_shape(self, service):
        service.recommend("bcast", 2, 1, 64)
        stats = service.stats()
        assert stats["l1"]["capacity"] == 4096
        assert "bcast" in stats["versions"]
        assert any(k.startswith("serve.") for k in stats["counters"])


class TestCachePrimitives:
    def test_lru_eviction_order(self):
        cache = LRUCache(2, namespace="serve.test")
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")  # refresh a; b becomes LRU
        cache.put("c", 3)
        assert cache.get("b") is None
        assert cache.get("a") == 1
        assert cache.get("c") == 3

    def test_lru_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError):
            LRUCache(0)

    def test_invalidate_all_and_predicate(self):
        cache = LRUCache(8, namespace="serve.test")
        for i in range(4):
            cache.put(("bcast", i), i)
            cache.put(("alltoall", i), i)
        dropped = cache.invalidate(lambda k: k[0] == "bcast")
        assert dropped == 4
        assert len(cache) == 4
        assert cache.invalidate() == 4
        assert len(cache) == 0

    def test_interner_returns_identical_objects(self):
        interner = KeyInterner()
        k1 = interner.key("bcast", 4, 2, 64)
        k2 = interner.key("bcast", 4, 2, 64)
        assert k1 is k2
        assert k1 == (str(CollectiveKind.BCAST), 4, 2, 64)

    def test_interner_capacity_reset_keeps_correctness(self):
        interner = KeyInterner(capacity=2)
        keys = [interner.key("bcast", n, 1, 0) for n in range(8)]
        again = interner.key("bcast", 7, 1, 0)
        assert again == keys[7]  # equality survives table resets
