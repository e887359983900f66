"""ModelRegistry: publish, validate-before-swap, hot-reload, fallback."""

from __future__ import annotations

import numpy as np
import pytest

from repro.collectives.base import CollectiveKind
from repro.obs import get_telemetry
from repro.serve import (
    ModelRegistry,
    ReloadError,
    RuleSet,
    SelectorModel,
)

from tests.serve.conftest import make_rules_text


class TestPublish:
    def test_versions_are_monotonic(self, registry, library, tmp_path):
        for round_ in (1, 2, 3):
            path = tmp_path / f"r{round_}.conf"
            path.write_text(
                make_rules_text(library, "bcast", 4, 2, [(0, round_)])
            )
            version = registry.load_rules(path)
            assert version.version == round_
        assert registry.get("bcast").version == 3

    def test_publish_selector_model(self, registry, tuned_bcast):
        version = registry.publish(tuned_bcast.servable(), tag="t")
        assert version.source == "selector"
        assert registry.get(CollectiveKind.BCAST) is version

    def test_reload_events_emitted(self, registry, library, tmp_path):
        path = tmp_path / "r.conf"
        path.write_text(make_rules_text(library, "bcast", 4, 2, [(0, 0)]))
        with get_telemetry().capture() as sink:
            registry.load_rules(path)
        reloads = [e for e in sink.events if e.name == "serve_reload"]
        assert len(reloads) == 1
        assert reloads[0].fields["status"] == "ok"
        assert reloads[0].fields["tag"] == "r.conf"

    def test_empty_grid_rejected(self, registry, tuned_bcast):
        model = SelectorModel(
            selector=tuned_bcast.selector_,
            collective=CollectiveKind.BCAST,
            grid_axes=((), (), ()),
        )
        with pytest.raises(ReloadError, match="empty serving grid"):
            registry.publish(model)


class TestRejectedReloads:
    """Invalid candidates must never disturb the live version."""

    @pytest.fixture
    def live(self, registry, library, tmp_path):
        path = tmp_path / "live.conf"
        path.write_text(make_rules_text(library, "bcast", 4, 2, [(0, 0)]))
        return registry.load_rules(path)

    def test_missing_file(self, registry, live, tmp_path):
        with pytest.raises(ReloadError, match="cannot load"):
            registry.load_rules(tmp_path / "nope.conf")
        assert registry.get("bcast") is live

    def test_malformed_file(self, registry, live, tmp_path):
        bad = tmp_path / "bad.conf"
        bad.write_text("this is not a rules file\n")
        with pytest.raises(ReloadError):
            registry.load_rules(bad)
        assert registry.get("bcast") is live

    def test_rule_outside_config_space(self, registry, live, tmp_path):
        bad = tmp_path / "bad.conf"
        bad.write_text("1\n7\n1\n8\n1\n0 99 7 7\n")
        with pytest.raises(ReloadError):
            registry.load_rules(bad)
        assert registry.get("bcast") is live

    def test_rejection_emits_event_and_counter(
        self, registry, live, tmp_path
    ):
        telemetry = get_telemetry()
        before = telemetry.counters_snapshot().get("serve.reload_rejected", 0)
        with telemetry.capture() as sink:
            with pytest.raises(ReloadError):
                registry.load_rules(tmp_path / "nope.conf")
        after = telemetry.counters_snapshot()["serve.reload_rejected"]
        assert after == before + 1
        rejected = [
            e for e in sink.events
            if e.name == "serve_reload" and e.fields["status"] == "rejected"
        ]
        assert rejected


class TestFallback:
    def test_default_config_always_answers(self, registry, library):
        for collective in library.supported_collectives():
            config = registry.default_config(collective, 4, 2, 65536)
            assert config in library.config_space(collective).configs

    def test_get_unpublished_collective_is_none(self, registry):
        assert registry.get("alltoall") is None


class TestSelectorModelProtocol:
    def test_select_matches_selector(self, tuned_bcast):
        model = tuned_bcast.servable()
        nodes = np.asarray([2, 4, 8])
        ppn = np.asarray([1, 2, 1])
        msize = np.asarray([64, 4096, 262144])
        picks = model.select_configs(nodes, ppn, msize)
        for n, p, m, config in zip(nodes, ppn, msize, picks, strict=True):
            assert config == tuned_bcast.selector_.select(
                int(n), int(p), int(m)
            )

    def test_grid_axes_come_from_training_grid(self, tuned_bcast):
        nodes, ppns, msizes = tuned_bcast.servable().grid_axes
        assert nodes == (2, 4, 8)
        assert ppns == (1, 2)
        assert msizes == (64, 4096, 262144)

    def test_rules_model_allocation_projection(
        self, registry, library, tmp_path
    ):
        # a rules file re-loaded through the registry keeps its table
        text = make_rules_text(
            library, "bcast", 4, 2, [(0, 0), (1024, 3), (65536, 5)]
        )
        path = tmp_path / "t.conf"
        path.write_text(text)
        version = registry.load_rules(path)
        assert version.model.rule_set == RuleSet.parse(text)
