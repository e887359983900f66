"""Fleet chaos plans and in-worker fault injection.

The plan tests pin the determinism contract (same seed, same campaign
shape -> byte-identical schedule) and the structural guarantees the
smoke harness leans on: every worker killed and crashed exactly once,
strata that never stack faults, the wedge placed exactly at the reload
index, no two events sharing a request index. The worker-op tests
drive ``chaos_garbage``/``chaos_crash`` against a real
:class:`~repro.serve.worker.WorkerState` with ``os._exit`` stubbed —
the real thing is exercised end to end by
``scripts/smoke_fleet_chaos.py``.
"""

from __future__ import annotations

import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serve.chaos import (
    CHAOS_KINDS,
    CRASH_WINDOW,
    KILL_WINDOW,
    ChaosEvent,
    FleetChaosPlan,
    build_plan,
)
from repro.serve.worker import build_state, handle_chaos_op, serve_worker

from tests.serve.conftest import make_rules_text


class TestChaosPlan:
    def test_same_inputs_same_plan(self):
        assert build_plan(8, 5000, 3) == build_plan(8, 5000, 3)

    def test_different_seed_different_plan(self):
        assert build_plan(1, 5000, 3) != build_plan(2, 5000, 3)

    def test_every_worker_killed_and_crashed_once(self):
        plan = build_plan(8, 5000, 3)
        kills = [e for e in plan.events if e.kind == "kill"]
        crashes = [e for e in plan.events if e.kind == "crash"]
        assert sorted(e.worker for e in kills) == [0, 1, 2]
        assert sorted(e.worker for e in crashes) == [0, 1, 2]

    def test_kills_early_crashes_late(self):
        plan = build_plan(8, 5000, 3)
        n = plan.n_requests
        for event in plan.events:
            if event.kind == "kill":
                assert KILL_WINDOW[0] * n <= event.index < KILL_WINDOW[1] * n
            elif event.kind == "crash":
                assert (
                    CRASH_WINDOW[0] * n <= event.index < CRASH_WINDOW[1] * n
                )

    def test_wedge_lands_exactly_at_reload(self):
        plan = build_plan(8, 5000, 3)
        wedge = plan.at(plan.reload_at)
        assert wedge is not None and wedge.kind == "wedge"

    def test_no_wedge_when_disabled(self):
        plan = build_plan(8, 5000, 3, wedge=False)
        assert all(e.kind != "wedge" for e in plan.events)

    def test_indices_unique_and_sorted(self):
        plan = build_plan(8, 5000, 3)
        indices = [e.index for e in plan.events]
        assert indices == sorted(indices)
        assert len(indices) == len(set(indices))

    def test_at_returns_none_between_events(self):
        plan = build_plan(8, 5000, 3)
        scheduled = {e.index for e in plan.events}
        clean = next(i for i in range(5000) if i not in scheduled)
        assert plan.at(clean) is None

    def test_kinds_summary(self):
        plan = build_plan(8, 5000, 3, garbage_events=2)
        assert plan.kinds() == {
            "kill": 3, "crash": 3, "wedge": 1, "garbage": 2,
        }

    def test_rejects_too_few_requests(self):
        with pytest.raises(ValueError, match="40 requests per worker"):
            build_plan(0, 100, 4)

    def test_rejects_zero_workers(self):
        with pytest.raises(ValueError):
            build_plan(0, 5000, 0)

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**32),
        n_workers=st.integers(1, 6),
        scale=st.integers(50, 400),
    )
    def test_invariants_hold_for_any_campaign(self, seed, n_workers, scale):
        n_requests = n_workers * scale
        plan = build_plan(seed, n_requests, n_workers)
        assert plan == build_plan(seed, n_requests, n_workers)
        indices = [e.index for e in plan.events]
        assert len(indices) == len(set(indices))
        assert all(0 <= i < n_requests for i in indices)
        assert all(e.worker < n_workers for e in plan.events)
        kills = sorted(
            e.worker for e in plan.events if e.kind == "kill"
        )
        assert kills == list(range(n_workers))
        wedge = plan.at(plan.reload_at)
        assert wedge is not None and wedge.kind == "wedge"


class TestPlanValidation:
    def test_event_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown chaos kind"):
            ChaosEvent(1, "meteor", 0)

    def test_plan_rejects_shared_indices(self):
        events = (ChaosEvent(5, "kill", 0), ChaosEvent(5, "kill", 1))
        with pytest.raises(ValueError, match="share request index"):
            FleetChaosPlan(
                seed=0, n_requests=100, n_workers=2, reload_at=50,
                events=events,
            )

    def test_plan_rejects_out_of_range_event(self):
        with pytest.raises(ValueError, match="outside the request range"):
            FleetChaosPlan(
                seed=0, n_requests=100, n_workers=2, reload_at=50,
                events=(ChaosEvent(100, "kill", 0),),
            )

    def test_plan_rejects_unknown_worker(self):
        with pytest.raises(ValueError, match="outside the fleet"):
            FleetChaosPlan(
                seed=0, n_requests=100, n_workers=2, reload_at=50,
                events=(ChaosEvent(3, "kill", 7),),
            )

    def test_kinds_match_fleet_dispatch(self):
        # Fleet._handle_chaos dispatches exactly these names
        assert set(CHAOS_KINDS) == {"kill", "wedge", "garbage", "crash"}


@pytest.fixture
def chaos_state(tmp_path, library):
    path = tmp_path / "r.conf"
    path.write_text(make_rules_text(library, "bcast", 16, 32, [(0, 1)]))
    return build_state(
        {"worker_id": 5, "machine": "Hydra", "library": "Open MPI",
         "rules": [str(path)], "chaos_ops": True}
    )


class TestWorkerChaosOps:
    def test_gated_off_by_default(self, tmp_path, library):
        path = tmp_path / "r.conf"
        path.write_text(make_rules_text(library, "bcast", 16, 32, [(0, 1)]))
        state = build_state(
            {"worker_id": 0, "machine": "Hydra", "library": "Open MPI",
             "rules": [str(path)]}
        )
        assert state.chaos_ops is False
        out = io.StringIO()
        response = handle_chaos_op(state, {"op": "chaos_garbage"}, out)
        assert response["ok"] is False and "unknown op" in response["error"]
        assert out.getvalue() == ""  # nothing injected

    def test_garbage_emits_unparseable_line_then_answers(self, chaos_state):
        out = io.StringIO()
        response = handle_chaos_op(chaos_state, {"op": "chaos_garbage"}, out)
        assert response["ok"] and response["injected"] == "garbage"
        garbage = out.getvalue()
        assert garbage.endswith("\n")  # skippable: newline-terminated
        with pytest.raises(ValueError):
            json.loads(garbage)

    def test_garbage_through_serve_worker_keeps_rid_sync(self, chaos_state):
        lines = [
            json.dumps({"op": "chaos_garbage", "rid": 1}),
            json.dumps({"op": "ping", "rid": 2}),
            json.dumps({"op": "quit", "rid": 3}),
        ]
        out = io.StringIO()
        serve_worker(chaos_state, lines, out)
        raw = out.getvalue().splitlines()
        parsed, garbage = [], 0
        for line in raw:
            try:
                parsed.append(json.loads(line))
            except ValueError:
                garbage += 1
        assert garbage == 1
        # ready line + three rid-matched answers, all ok
        assert [p.get("rid") for p in parsed] == [None, 1, 2, 3]
        assert all(p["ok"] for p in parsed)

    def test_crash_answers_then_tears_line_then_exits(
        self, chaos_state, monkeypatch
    ):
        import repro.serve.worker as worker_mod

        exits: list[int] = []

        class _Exit(BaseException):
            pass

        def fake_exit(code):
            exits.append(code)
            raise _Exit

        monkeypatch.setattr(worker_mod.os, "_exit", fake_exit)
        out = io.StringIO()
        with pytest.raises(_Exit):
            handle_chaos_op(chaos_state, {"op": "chaos_crash", "rid": 9}, out)
        assert exits == [23]
        full, _, torn = out.getvalue().rpartition("\n")
        # the response went out, rid-stamped, before the death
        response = json.loads(full)
        assert response["ok"] and response["rid"] == 9
        assert response["injected"] == "crash"
        # the tail is a torn, unterminated fragment
        assert torn and not torn.endswith("\n")
        with pytest.raises(ValueError):
            json.loads(torn)
