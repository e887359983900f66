"""Fleet: routing, reload barrier, worker protocol, end-to-end socket.

The end-to-end class boots a real 2-worker fleet (subprocesses + socket)
and extends the PR-4/5 reload-under-fire contract to the fleet: client
threads hammer the socket while coordinated reloads flip the live rules
back and forth — zero failed responses, and no response may mix model
versions (every ``recommend_many`` answer is served entirely by one
version, and each client observes versions monotonically).
"""

from __future__ import annotations

import asyncio
import io
import json
import time
from collections import Counter

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import get_telemetry
from repro.serve.chaos import (
    reload_under_fire,
    strip_provenance,
    verify_bit_identity,
    verify_chaos_invariants,
    verify_metrics_scrape,
    verify_reload_contract,
    wait_for_healthy,
)
from repro.serve.fleet import (
    Fleet,
    FleetClient,
    FleetProcess,
    FleetSpec,
    FleetThread,
    HashRing,
    WorkerError,
    WorkerHandle,
    _ReloadGate,
    first_live_owner,
    http_get,
)
from repro.serve.registry import ReloadError, StagedModel
from repro.serve.worker import (
    build_state,
    handle_worker_request,
    serve_worker,
)

from tests.serve.conftest import make_rules_text
from tests.serve.test_exporter import parse_metric_lines


class TestHashRing:
    def test_deterministic_across_instances(self):
        a, b = HashRing(4), HashRing(4)
        for n in (1, 2, 4, 8, 16, 32):
            for p in (1, 2, 16, 32):
                assert a.worker_for("bcast", n, p) == b.worker_for(
                    "bcast", n, p
                )

    def test_every_worker_owns_a_share(self):
        ring = HashRing(4)
        owners = Counter(
            ring.worker_for("bcast", nodes, ppn)
            for nodes in range(1, 65)
            for ppn in range(1, 33)
        )
        total = sum(owners.values())
        assert set(owners) == {0, 1, 2, 3}
        # consistent hashing with 64 vnodes/worker: no worker should own
        # a wildly lopsided share of a 2048-key space
        for worker, count in owners.items():
            assert count / total > 0.05, (worker, owners)

    def test_adding_a_worker_moves_a_minority_of_keys(self):
        before, after = HashRing(3), HashRing(4)
        keys = [
            ("bcast", nodes, ppn)
            for nodes in range(1, 65)
            for ppn in range(1, 17)
        ]
        moved = sum(
            1 for key in keys
            if before.worker_for(*key) != after.worker_for(*key)
        )
        # naive modulo routing would move ~3/4 of the keys; consistent
        # hashing moves ~1/4 (the new worker's share)
        assert moved / len(keys) < 0.5

    def test_msize_not_in_routing_key(self):
        # one allocation's whole message-size sweep must share a worker,
        # or compiled tables / LRUs shard pointlessly
        assert "msize" not in HashRing.route_key("bcast", 8, 16)
        ring = HashRing(5)
        workers = {
            ring.worker_for("bcast", 8, 16) for _ in range(3)
        }
        assert len(workers) == 1

    def test_collective_is_in_routing_key(self):
        assert HashRing.route_key("bcast", 8, 16) != HashRing.route_key(
            "allreduce", 8, 16
        )

    def test_rejects_empty_fleet(self):
        with pytest.raises(ValueError):
            HashRing(0)


class TestFailoverRouting:
    """owners_for: the deterministic failover chain behind self-healing."""

    def test_chain_is_a_full_permutation(self):
        ring = HashRing(4)
        chain = ring.owners_for("bcast", 8, 16)
        assert sorted(chain) == [0, 1, 2, 3]

    def test_chain_head_is_the_home_owner(self):
        ring = HashRing(4)
        assert ring.owners_for("bcast", 8, 16)[0] == ring.worker_for(
            "bcast", 8, 16
        )

    def test_dead_owner_routes_to_next_live_in_chain(self):
        ring = HashRing(4)
        chain = ring.owners_for("bcast", 8, 16)
        alive = [w for w in range(4) if w != chain[0]]
        assert ring.worker_for("bcast", 8, 16, alive=alive) == chain[1]

    def test_key_returns_home_after_respawn(self):
        ring = HashRing(4)
        home = ring.worker_for("bcast", 8, 16)
        without = ring.worker_for(
            "bcast", 8, 16, alive=[w for w in range(4) if w != home]
        )
        assert without != home
        assert ring.worker_for("bcast", 8, 16, alive=range(4)) == home

    def test_no_live_worker_raises(self):
        ring = HashRing(2)
        with pytest.raises(WorkerError, match="no live worker"):
            ring.worker_for("bcast", 8, 16, alive=[])

    @settings(max_examples=50, deadline=None)
    @given(
        collective=st.sampled_from(["bcast", "allreduce", "alltoall"]),
        nodes=st.integers(1, 64),
        ppn=st.integers(1, 64),
        n_workers=st.integers(2, 8),
        data=st.data(),
    )
    def test_failover_deterministic_for_any_liveness(
        self, collective, nodes, ppn, n_workers, data
    ):
        ring = HashRing(n_workers)
        chain = ring.owners_for(collective, nodes, ppn)
        assert sorted(chain) == list(range(n_workers))
        assert chain == ring.owners_for(collective, nodes, ppn)
        dead = data.draw(
            st.sets(
                st.integers(0, n_workers - 1), max_size=n_workers - 1
            )
        )
        alive = {w for w in range(n_workers) if w not in dead}
        # first_live_owner is the rule Fleet._scatter and
        # Fleet._call_with_failover route every request by
        owner = first_live_owner(chain, alive)
        # the first live entry of the chain owns the key...
        assert owner == next(w for w in chain if w in alive)
        assert owner not in dead
        assert owner == ring.worker_for(collective, nodes, ppn, alive=alive)
        # ...and the key returns to its home owner on full health
        assert first_live_owner(chain, set(range(n_workers))) == chain[0]
        assert first_live_owner(chain, set()) is None

    @pytest.mark.parametrize(
        "instance",
        [
            {"collective": "bcast", "nodes": json.loads("1e400"), "ppn": 1},
            {"collective": "bcast", "nodes": 8, "ppn": float("-inf")},
            {"collective": "bcast", "nodes": float("nan"), "ppn": 1},
            {"collective": "bcast", "nodes": "x", "ppn": 1},
            {"collective": "bcast", "nodes": None, "ppn": 1},
        ],
    )
    def test_unroutable_instance_may_go_to_any_worker(self, instance):
        fleet_obj = Fleet(FleetSpec(rules=(), workers=3))
        fleet_obj.workers = [None] * 3  # routing reads only their count
        assert fleet_obj._owners_of(instance) == (0, 1, 2)


def test_chaos_infinite_worker_index_answers_error():
    fleet_obj = Fleet(FleetSpec(rules=(), workers=2, chaos_ops=True))
    fleet_obj.workers = [None] * 2
    response = asyncio.run(fleet_obj._handle_chaos(
        {"op": "chaos", "kind": "kill", "worker": json.loads("1e400")}
    ))
    assert response == {
        "ok": False,
        "error": "ValueError: chaos needs a valid 'worker' index",
    }


class TestReloadGate:
    def _run(self, coro):
        return asyncio.run(coro)

    def test_close_waits_for_inflight_drain(self):
        async def scenario():
            gate = _ReloadGate()
            await gate.acquire()
            order = []

            async def closer():
                await gate.close()
                order.append("closed")

            task = asyncio.create_task(closer())
            await asyncio.sleep(0.01)
            assert not task.done()  # still draining
            order.append("released")
            gate.release()
            await task
            return order

        assert self._run(scenario()) == ["released", "closed"]

    def test_requests_queue_while_closed_and_resume_on_open(self):
        async def scenario():
            gate = _ReloadGate()
            await gate.close()
            admitted = []

            async def request(name):
                await gate.acquire()
                admitted.append(name)
                gate.release()

            tasks = [asyncio.create_task(request(i)) for i in range(3)]
            await asyncio.sleep(0.01)
            assert admitted == []  # queued, not dropped, not admitted
            gate.open()
            await asyncio.gather(*tasks)
            return admitted

        assert sorted(self._run(scenario())) == [0, 1, 2]

    def test_close_with_no_inflight_is_immediate(self):
        async def scenario():
            gate = _ReloadGate()
            await asyncio.wait_for(gate.close(), timeout=1.0)
            gate.open()
            await asyncio.wait_for(gate.acquire(), timeout=1.0)
            gate.release()

        self._run(scenario())


@pytest.fixture
def rules_pair(tmp_path, library):
    """Two distinct valid bcast rules files (reload flips between them)."""
    a = tmp_path / "rules_a.conf"
    b = tmp_path / "rules_b.conf"
    a.write_text(make_rules_text(library, "bcast", 16, 32, [(0, 1), (65536, 2)]))
    b.write_text(make_rules_text(library, "bcast", 16, 32, [(0, 3), (65536, 4)]))
    return str(a), str(b)


@pytest.fixture
def worker_state(rules_pair):
    return build_state(
        {"worker_id": 3, "machine": "Hydra", "library": "Open MPI",
         "rules": [rules_pair[0]]}
    )


class TestRegistryStaging:
    def test_stage_does_not_touch_live(self, registry, library, tmp_path):
        path = tmp_path / "r.conf"
        path.write_text(make_rules_text(library, "bcast", 8, 8, [(0, 1)]))
        staged = registry.stage_rules(path)
        assert isinstance(staged, StagedModel)
        assert registry.get("bcast") is None  # still nothing live

    def test_commit_swaps_staged_in(self, registry, library, tmp_path):
        path = tmp_path / "r.conf"
        path.write_text(make_rules_text(library, "bcast", 8, 8, [(0, 1)]))
        version = registry.commit(registry.stage_rules(path))
        assert registry.get("bcast").version == version.version

    def test_stage_rejects_bad_file_without_side_effects(self, registry):
        with pytest.raises(ReloadError):
            registry.stage_rules("/does/not/exist.conf")
        assert registry.get("bcast") is None

    def test_publish_is_stage_plus_commit(self, registry, tuned_bcast):
        version = registry.publish(tuned_bcast.servable(), tag="t")
        assert registry.get("bcast").version == version.version
        assert version.tag == "t"


class TestWorkerProtocol:
    def test_prepare_then_commit_bumps_version(self, worker_state, rules_pair):
        before = worker_state.registry.get("bcast").version
        prep = handle_worker_request(
            worker_state,
            {"op": "prepare_reload", "path": rules_pair[1], "token": "t1"},
        )
        assert prep["ok"] and prep["collective"] == "bcast"
        # staged only: live version untouched until commit
        assert worker_state.registry.get("bcast").version == before
        commit = handle_worker_request(
            worker_state, {"op": "commit_reload", "token": "t1"}
        )
        assert commit["ok"] and commit["version"] == before + 1

    def test_prepare_bad_path_stages_nothing(self, worker_state):
        response = handle_worker_request(
            worker_state,
            {"op": "prepare_reload", "path": "/nope.conf", "token": "t"},
        )
        assert not response["ok"]
        assert worker_state.staged == {}

    def test_abort_drops_staged(self, worker_state, rules_pair):
        handle_worker_request(
            worker_state,
            {"op": "prepare_reload", "path": rules_pair[1], "token": "t"},
        )
        response = handle_worker_request(
            worker_state, {"op": "abort_reload", "token": "t"}
        )
        assert response["ok"] and response["aborted"]
        assert worker_state.staged == {}

    def test_commit_unknown_token_fails_softly(self, worker_state):
        response = handle_worker_request(
            worker_state, {"op": "commit_reload", "token": "ghost"}
        )
        assert not response["ok"]

    def test_counters_filtered_to_serve_prefixes(self, worker_state):
        handle_worker_request(
            worker_state,
            {"collective": "bcast", "nodes": 8, "ppn": 8, "msize": 1024},
        )
        response = handle_worker_request(worker_state, {"op": "counters"})
        assert response["ok"]
        assert response["counters"]  # served one request, counted it
        assert all(
            name.startswith(("serve.", "bench."))
            for name in response["counters"]
        )

    def test_recommend_delegates_to_loop(self, worker_state):
        response = handle_worker_request(
            worker_state,
            {"op": "recommend", "collective": "bcast", "nodes": 8,
             "ppn": 8, "msize": 1024},
        )
        assert response["ok"] and "algorithm" in response

    def test_serve_worker_emits_ready_line_and_echoes_rid(self, worker_state):
        lines = [
            json.dumps({"op": "ping", "rid": 7}),
            "not json at all",
            json.dumps({"op": "quit", "rid": 8}),
        ]
        out = io.StringIO()
        served = serve_worker(worker_state, lines, out)
        responses = [json.loads(line) for line in out.getvalue().splitlines()]
        assert served == 3
        assert responses[0]["ready"] is True  # before any request
        assert responses[1] == {
            **responses[1], "ok": True, "rid": 7, "worker": 3,
        }
        assert responses[2]["ok"] is False  # bad line answered, loop lives
        assert responses[3] == {**responses[3], "ok": True, "rid": 8}


class _StubStdin:
    def write(self, data):
        pass

    async def drain(self):
        pass

    def close(self):
        pass


class _StubProcess:
    """Just enough of asyncio.subprocess.Process for WorkerHandle."""

    def __init__(self):
        self.returncode = None
        self.killed = False
        self.stdin = _StubStdin()
        self.stdout = None

    def kill(self):
        self.killed = True
        self.returncode = -9


class TestWorkerHandleFailure:
    """A broken worker must fail its callers, never hang them."""

    def test_call_timeout_kills_worker_and_fails_fast_after(self):
        async def scenario():
            process = _StubProcess()
            handle = WorkerHandle(0, process)
            # no reader, no worker: the response never arrives
            with pytest.raises(WorkerError, match="timed out"):
                await handle.call({"op": "ping"}, timeout=0.05)
            assert process.killed  # a wedged worker is put down
            # later calls raise immediately instead of waiting again
            with pytest.raises(WorkerError, match="timed out"):
                await handle.call({"op": "ping"})

        asyncio.run(scenario())

    def test_reader_overflow_fails_pending_and_marks_dead(self):
        class _OverflowStdout:
            async def readline(self):
                raise ValueError("Separator is not found, chunk exceeds limit")

        async def scenario():
            process = _StubProcess()
            process.stdout = _OverflowStdout()
            handle = WorkerHandle(0, process)
            pending = asyncio.get_running_loop().create_future()
            handle._pending[1] = pending
            await handle._read_loop()
            # the in-flight caller got an error, not an eternal await
            with pytest.raises(WorkerError, match="overflowed"):
                pending.result()
            assert process.killed
            assert not handle.alive
            with pytest.raises(WorkerError, match="overflowed"):
                await handle.call({"op": "ping"})

        asyncio.run(scenario())

    def test_reader_eof_fails_pending(self):
        class _EOFStdout:
            async def readline(self):
                return b""

        async def scenario():
            process = _StubProcess()
            process.stdout = _EOFStdout()
            handle = WorkerHandle(0, process)
            pending = asyncio.get_running_loop().create_future()
            handle._pending[1] = pending
            await handle._read_loop()
            with pytest.raises(WorkerError, match="died"):
                pending.result()

        asyncio.run(scenario())

    def test_death_kicks_the_on_death_callback(self):
        class _EOFStdout:
            async def readline(self):
                return b""

        async def scenario():
            kicked = []
            process = _StubProcess()
            process.stdout = _EOFStdout()
            handle = WorkerHandle(0, process, on_death=lambda: kicked.append(1))
            await handle._read_loop()
            assert kicked == [1]

        asyncio.run(scenario())

    def test_garbage_response_line_skipped_not_fatal(self):
        class _GarbageStdout:
            def __init__(self):
                self._lines = [
                    b'#### chaos garbage: not json\n',
                    b'{"rid": 1, "ok": true}\n',
                    b"",
                ]

            async def readline(self):
                return self._lines.pop(0)

        async def scenario():
            process = _StubProcess()
            process.stdout = _GarbageStdout()
            handle = WorkerHandle(0, process)
            pending = asyncio.get_running_loop().create_future()
            handle._pending[1] = pending
            before = get_telemetry().counters_snapshot().get(
                "fleet.worker_garbage_lines", 0
            )
            await handle._read_loop()
            # the garbage line was skipped; the real answer still landed
            assert pending.result() == {"ok": True}
            after = get_telemetry().counters_snapshot()[
                "fleet.worker_garbage_lines"
            ]
            assert after == before + 1

        asyncio.run(scenario())


class TestStderrQuarantine:
    """A crashed worker's last words survive it (satellite: quarantine)."""

    def test_tail_keeps_only_the_last_lines(self, capsys):
        class _Stream:
            def __init__(self, lines):
                self._lines = lines

            async def readline(self):
                return self._lines.pop(0) if self._lines else b""

        async def scenario():
            process = _StubProcess()
            process.stderr = _Stream(
                [f"line {i}\n".encode() for i in range(30)]
            )
            handle = WorkerHandle(4, process)
            await handle._drain_stderr()
            return handle

        handle = asyncio.run(scenario())
        assert len(handle.stderr_tail) == 20  # bounded buffer
        assert handle.stderr_tail[-1] == "line 29"
        assert handle.stderr_tail[0] == "line 10"
        # the live stream is still forwarded, prefixed per worker
        assert "[worker 4] line 29" in capsys.readouterr().err


# -- end to end ----------------------------------------------------------


@pytest.fixture
def fleet(rules_pair):
    spec = FleetSpec(rules=(rules_pair[0],), workers=2)
    with FleetThread(spec) as running:
        yield running


@pytest.mark.slow
class TestFleetEndToEnd:
    def test_recommend_and_batch_order(self, fleet):
        with FleetClient(fleet.port) as client:
            one = client.ask(
                {"op": "recommend", "collective": "bcast", "nodes": 8,
                 "ppn": 16, "msize": 4096, "id": "x"}
            )
            assert one["ok"] and one["id"] == "x" and one["version"] >= 1
            # instances routed to different workers must come back in
            # input order
            instances = [
                {"collective": "bcast", "nodes": nodes, "ppn": ppn,
                 "msize": 1024}
                for nodes in (2, 4, 8, 16, 32)
                for ppn in (1, 4, 16)
            ]
            many = client.ask(
                {"op": "recommend_many", "instances": instances}
            )
            assert many["ok"]
            echoed = [
                (r["nodes"], r["ppn"]) for r in many["results"]
            ]
            assert echoed == [(i["nodes"], i["ppn"]) for i in instances]

    def test_large_batch_roundtrip_past_64k_pipe_limit(self, fleet):
        # a ~1200-instance batch makes both the request line (~75 KiB)
        # and the per-worker response lines (hundreds of KiB) exceed
        # asyncio's default 64 KiB stream limit, which used to kill the
        # worker read loop and hang every later request on that worker
        instances = [
            {"collective": "bcast", "nodes": 2 << (i % 5),
             "ppn": 1 << (i % 5), "msize": 1024 * (1 + i % 7)}
            for i in range(1200)
        ]
        with FleetClient(fleet.port) as client:
            response = client.ask(
                {"op": "recommend_many", "instances": instances}
            )
            assert response["ok"], response.get("error")
            assert len(response["results"]) == len(instances)
            echoed = [(r["nodes"], r["ppn"]) for r in response["results"]]
            assert echoed == [(i["nodes"], i["ppn"]) for i in instances]
            # the fleet must still be serving afterwards
            after = client.ask(
                {"op": "recommend", "collective": "bcast", "nodes": 8,
                 "ppn": 16, "msize": 4096}
            )
            assert after["ok"]

    def test_oversized_request_line_answers_error(
        self, rules_pair, monkeypatch
    ):
        """A request line over STREAM_LIMIT gets ok:false, not a dropped
        connection (the stream cannot be re-synchronised, so the fleet
        answers once and closes)."""
        import repro.serve.fleet as fleet_mod

        monkeypatch.setattr(fleet_mod, "STREAM_LIMIT", 1024)
        spec = FleetSpec(rules=(rules_pair[0],), workers=1)
        with FleetThread(spec) as running:
            with FleetClient(running.port) as client:
                response = client.ask(
                    {"op": "recommend", "collective": "bcast", "nodes": 8,
                     "ppn": 16, "msize": 4096, "pad": "x" * 4096}
                )
                assert response["ok"] is False
                assert "exceeds" in response["error"]
                assert client.reader.readline() == ""  # then closed

    def test_infinite_route_value_answers_error(self, fleet):
        """``1e400`` parses to inf, which ``int()`` cannot route; the
        fleet must still answer ok:false and keep the connection."""
        with FleetClient(fleet.port) as client:
            for line in (
                '{"op": "recommend", "collective": "bcast",'
                ' "nodes": 1e400, "ppn": 16, "msize": 4096}',
                '{"op": "recommend_many", "instances": [{"collective":'
                ' "bcast", "nodes": 8, "ppn": 1e400, "msize": 4096}]}',
            ):
                client.sock.sendall((line + "\n").encode())
                response = json.loads(client.reader.readline())
                assert response["ok"] is False
            after = client.ask(
                {"op": "recommend", "collective": "bcast", "nodes": 8,
                 "ppn": 16, "msize": 4096}
            )
            assert after["ok"]

    def test_reload_under_fire_drops_and_mixes_nothing(
        self, fleet, rules_pair
    ):
        """The fleet version of the PR-4 reload-under-fire contract."""
        failures, _ = reload_under_fire(fleet.port, rules_pair, 2)
        assert failures == []

    def test_reload_rejection_leaves_fleet_serving_old_version(self, fleet):
        with FleetClient(fleet.port) as client:
            before = client.ask(
                {"op": "recommend", "collective": "bcast", "nodes": 8,
                 "ppn": 16, "msize": 4096}
            )
            rejected = client.ask({"op": "reload", "path": "/nope.conf"})
            assert not rejected["ok"]
            after = client.ask(
                {"op": "recommend", "collective": "bcast", "nodes": 8,
                 "ppn": 16, "msize": 4096}
            )
            assert after["ok"]
            assert after["version"] == before["version"]
            assert after["label"] == before["label"]

    def test_stats_reports_consistent_versions(self, fleet):
        with FleetClient(fleet.port) as client:
            stats = client.ask({"op": "stats"})["stats"]
        assert stats["fleet"]["workers"] == 2
        assert stats["fleet"]["versions_consistent"] is True
        assert [w["ok"] for w in stats["workers"]] == [True, True]

    def test_metrics_scrape_is_wellformed_prometheus(self, fleet):
        with FleetClient(fleet.port) as client:
            # drive enough repeats that the compiled tier takes hits
            for _ in range(3):
                client.ask(
                    {"op": "recommend", "collective": "bcast", "nodes": 8,
                     "ppn": 16, "msize": 4096}
                )
        status, body = http_get("127.0.0.1", fleet.port, "/metrics")
        assert status == 200
        assert verify_metrics_scrape(body) == []

    def test_cli_fleet_process_serves_and_exits_clean(self, rules_pair):
        """The real ``mpicollpred serve --workers`` the smoke scripts boot."""
        process = FleetProcess("--workers", "1", "--rules", rules_pair[0])
        try:
            with FleetClient(process.port) as client:
                response = client.ask(
                    {"op": "recommend", "collective": "bcast", "nodes": 8,
                     "ppn": 16, "msize": 4096}
                )
        finally:
            assert process.stop() == []
        assert response["ok"] and response["version"] == 1
        assert process.returncode == 0

    def test_healthz_and_unknown_route(self, fleet):
        status, body = http_get("127.0.0.1", fleet.port, "/healthz")
        assert status == 200 and json.loads(body)["alive"] == 2
        status, _ = http_get("127.0.0.1", fleet.port, "/unknown")
        assert status == 404

    def test_quit_op_answers_then_closes(self, fleet):
        with FleetClient(fleet.port) as client:
            response = client.ask({"op": "quit"})
            assert response["ok"] and response["bye"]
            assert client.reader.readline() == ""  # connection closed


# -- chaos verification helpers (the smoke script's assertion core) ------


class TestChaosVerifyHelpers:
    """Unit coverage of the checks the fleet smoke scripts run.

    ``scripts/smoke_fleet.py`` and ``scripts/smoke_fleet_chaos.py`` are
    thin CI drivers; the *contract* lives in repro.serve.chaos so it is
    testable without booting a fleet through the CLI. The helpers that
    need a live fleet (``reload_under_fire``, ``wait_for_healthy``) run
    against a ``FleetThread`` in ``TestFleetEndToEnd`` and
    ``TestFleetFeedbackClosedLoop``.
    """

    def clean_inputs(self):
        return dict(
            n_workers=3, restarts=4.0, garbage=2.0,
            health={"status": "ok", "alive": 3},
            stats={"committed_reloads": 1, "versions_consistent": True},
        )

    def test_clean_campaign_has_no_violations(self):
        assert verify_chaos_invariants(**self.clean_inputs()) == []

    def test_every_broken_invariant_is_reported(self):
        failures = verify_chaos_invariants(
            n_workers=3, restarts=2.0, garbage=0.0,
            health={"status": "degraded", "alive": 2},
            stats={"committed_reloads": 2, "versions_consistent": False},
        )
        assert len(failures) == 5
        text = "\n".join(failures)
        for fragment in ("respawned", "garbage", "healthz", "reload",
                         "version skew"):
            assert fragment in text

    def test_expected_reloads_is_exact_not_minimum(self):
        inputs = self.clean_inputs()
        inputs["stats"] = {"committed_reloads": 2,
                           "versions_consistent": True}
        assert verify_chaos_invariants(**inputs)  # 2 != 1 fails
        assert verify_chaos_invariants(
            **{**inputs, "expected_reloads": 2}
        ) == []

    def test_strip_provenance_removes_cache_tier_fields_only(self):
        answer = {"ok": True, "label": "chain", "version": 2,
                  "cached": True, "compiled": False}
        stripped = strip_provenance(answer)
        assert stripped == {"ok": True, "label": "chain", "version": 2}
        assert "cached" in answer  # input not mutated

    def test_bit_identity_ignores_which_cache_answered(self):
        chaos = [{"ok": True, "label": "chain", "cached": True}]
        clean = [{"ok": True, "label": "chain", "compiled": True}]
        assert verify_bit_identity(chaos, clean) == []

    def test_bit_identity_reports_divergence_with_tally(self):
        chaos = [{"ok": True, "label": "chain"}] * 5
        clean = [{"ok": True, "label": "chain"}] * 4 + [
            {"ok": True, "label": "linear"}
        ]
        failures = verify_bit_identity(chaos, clean)
        assert any("answer 4 diverged" in f for f in failures)
        assert any("1/5 answers diverged" in f for f in failures)

    def test_bit_identity_caps_reported_examples(self):
        chaos = [{"label": f"c{i}"} for i in range(10)]
        clean = [{"label": "x"}] * 10
        failures = verify_bit_identity(chaos, clean, max_reported=3)
        assert len(failures) == 4  # 3 examples + the tally line

    def test_bit_identity_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            verify_bit_identity([{}, {}], [{}])

    def test_metrics_scrape_reports_every_violation(self):
        failures = verify_metrics_scrape(
            "# TYPE serve_compiled_hits_total counter\n"
            "serve_compiled_hits_total 0\nnot a metric line\n"
        )
        assert failures[0] == "malformed metric line: 'not a metric line'"
        text = "\n".join(failures)
        for fragment in ("serve_compiled_hits_total", "histogram buckets",
                         "quantile p50", "quantile p99", "quantile p999",
                         "# EOF"):
            assert fragment in text
        assert len(failures) == 7

    def test_reload_contract_compares_version_keys_only(self):
        chaos = {"ok": True, "version": 2, "collective": "bcast",
                 "tag": "r", "workers": 2}
        clean = {"ok": True, "version": 2, "collective": "bcast",
                 "tag": "r", "workers": 3}  # wedged worker sat out
        assert verify_reload_contract(chaos, clean) == []
        assert verify_reload_contract(
            chaos, {**clean, "version": 3}
        ) == ["reload 'version' diverged: chaos=2 clean=3"]


# -- feedback through the fleet: kill mid-flush, reload survives ---------


@pytest.mark.slow
class TestFleetFeedbackClosedLoop:
    """The serve side of the closed loop under a worker kill.

    Every worker appends feedback rows with per-row flushes, so a
    SIGKILL can tear at most the final line of its log — the reader
    must hand back only complete rows, the committed reload must
    survive the respawn, and the drift gauges must appear in the
    Prometheus scrape.
    """

    @pytest.fixture
    def feedback_fleet(self, rules_pair, tmp_path):
        feedback_dir = tmp_path / "feedback"
        spec = FleetSpec(
            rules=(rules_pair[0],), workers=2,
            feedback_dir=str(feedback_dir), feedback_seed=3,
            feedback_shift=2.0,
        )
        with FleetThread(spec) as running:
            yield running, feedback_dir, rules_pair[0]

    def _requests(self, start, count):
        for i in range(start, start + count):
            yield {
                "op": "recommend", "collective": "bcast",
                "nodes": (2, 4, 8, 16)[i % 4], "ppn": (1, 2, 16)[i % 3],
                "msize": 1024 << (i % 6),
            }

    def test_kill_during_feedback_flush(self, feedback_fleet):
        import os
        import signal

        from repro.core.feedback import read_feedback

        running, feedback_dir, rules_path = feedback_fleet
        get_telemetry().reset()
        with FleetClient(running.port) as client:
            # commit one reload up front: the respawned worker must
            # boot with it, not lose it
            reload_response = client.ask(
                {"op": "reload", "path": rules_path}
            )
            assert reload_response["ok"]
            for request in self._requests(0, 40):
                assert client.ask(request)["ok"]
            # SIGKILL one worker while its feedback stream is hot; the
            # hammer keeps running through the outage (failover)
            os.kill(running.worker_pids()[0], signal.SIGKILL)
            for request in self._requests(40, 40):
                assert client.ask(request)["ok"]
            assert wait_for_healthy(running.port, 2) == []
            for request in self._requests(80, 20):
                assert client.ask(request)["ok"]
            stats = client.ask({"op": "stats"})["stats"]["fleet"]

        # the committed reload survived the kill: exactly one commit,
        # no version skew between the survivor and the respawn
        assert stats["committed_reloads"] == 1
        assert stats["versions_consistent"] is True

        # every accepted feedback row is complete and valid; a torn
        # final line in the killed worker's log is skipped, not fatal
        rows = read_feedback(feedback_dir)
        assert rows, "the fleet never flushed a feedback row"
        skipped = get_telemetry().counters_snapshot().get(
            "serve.feedback.skipped_lines", 0
        )
        assert skipped <= 1  # at most the torn tail of the killed log
        # observation determinism: the same (site, version) logs a
        # bit-identical row no matter which worker (or respawn) served
        by_site: dict = {}
        for row in rows:
            site = (row.nodes, row.ppn, row.msize, row.config_id,
                    row.version)
            assert by_site.setdefault(site, row) == row
        get_telemetry().reset()

    def test_drift_gauges_reach_the_metrics_scrape(self, feedback_fleet):
        running, _, _ = feedback_fleet
        with FleetClient(running.port) as client:
            for request in self._requests(0, 30):
                assert client.ask(request)["ok"]
        status, body = http_get("127.0.0.1", running.port, "/metrics")
        assert status == 200
        parse_metric_lines(body)  # per-line wellformedness
        assert 'serve_drift_residual_median{collective="bcast"' in body
        assert ',worker="' in body  # per-worker series, not merged
        assert "serve_feedback_rows_total" in body


class TestStopLifecycle:
    """stop() is idempotent at every point in the lifecycle (satellite)."""

    def test_stop_before_start_is_a_no_op(self, rules_pair):
        spec = FleetSpec(rules=(rules_pair[0],), workers=1)

        async def scenario():
            fleet_obj = Fleet(spec)
            await fleet_obj.stop()
            await fleet_obj.stop()  # and again

        asyncio.run(scenario())

    @pytest.mark.slow
    def test_stop_twice_after_start(self, rules_pair):
        spec = FleetSpec(rules=(rules_pair[0],), workers=1)

        async def scenario():
            fleet_obj = Fleet(spec)
            await fleet_obj.start()
            await fleet_obj.stop()
            await fleet_obj.stop()  # second stop must not raise

        asyncio.run(scenario())


@pytest.mark.slow
class TestBackpressure:
    """Over the high-water mark the fleet sheds instead of queueing."""

    def test_zero_depth_sheds_requests_and_scrapes(self, rules_pair):
        spec = FleetSpec(rules=(rules_pair[0],), workers=1, queue_depth=0)
        with FleetThread(spec) as running:
            shed_before = get_telemetry().counters_snapshot().get(
                "fleet.shed", 0
            )
            with FleetClient(running.port) as client:
                response = client.ask(
                    {"op": "recommend", "collective": "bcast", "nodes": 8,
                     "ppn": 16, "msize": 4096}
                )
            assert response == {"ok": False, "error": "overloaded"}
            # the scrape fan-outs shed too (they pile work on workers)
            assert http_get("127.0.0.1", running.port, "/stats")[0] == 503
            assert http_get("127.0.0.1", running.port, "/metrics")[0] == 503
            # ...but /healthz never fans out: it must answer even when
            # every worker is saturated
            status, body = http_get("127.0.0.1", running.port, "/healthz")
            assert status == 200 and json.loads(body)["status"] == "ok"
            shed_after = get_telemetry().counters_snapshot()["fleet.shed"]
            assert shed_after > shed_before


def _wait_until(predicate, timeout=30.0, message="condition"):
    deadline = time.time() + timeout
    while time.time() < deadline:
        if predicate():
            return
        time.sleep(0.05)
    pytest.fail(f"timed out waiting for {message}")


def _healthz(port):
    return json.loads(http_get("127.0.0.1", port, "/healthz")[1])


@pytest.mark.slow
class TestSelfHealing:
    """Supervision end to end: kill, failover, respawn at the committed
    version."""

    def test_kill_respawn_warm_restore(self, rules_pair):
        spec = FleetSpec(
            rules=(rules_pair[0],), workers=2, chaos_ops=True,
            backoff_base_s=0.05,
        )
        with FleetThread(spec) as running:
            with FleetClient(running.port) as client:
                # commit two reloads first: the respawned worker must
                # boot at v3, not rejoin the ring at boot v1
                for path in (rules_pair[1], rules_pair[0]):
                    reloaded = client.ask({"op": "reload", "path": path})
                    assert reloaded["ok"], reloaded
                restarts_before = get_telemetry().counters_snapshot().get(
                    "fleet.worker_restarts", 0
                )
                killed = client.ask(
                    {"op": "chaos", "kind": "kill", "worker": 0}
                )
                assert killed["ok"], killed
                # the hammer runs straight through the outage: failover
                # routes the dead worker's keys to the survivor
                for n in range(40):
                    response = client.ask({
                        "op": "recommend", "collective": "bcast",
                        "nodes": 2 << (n % 5), "ppn": 1 + (n % 4),
                        "msize": 512 << (n % 8),
                    })
                    assert response["ok"], (n, response)
                _wait_until(
                    lambda: get_telemetry().counters_snapshot().get(
                        "fleet.worker_restarts", 0
                    ) > restarts_before,
                    message="the supervisor to respawn worker 0",
                )
                _wait_until(
                    lambda: _healthz(running.port)["status"] == "ok",
                    message="the fleet to re-heal",
                )
                stats = client.ask({"op": "stats"})["stats"]
                assert stats["fleet"]["versions_consistent"] is True
                assert stats["fleet"]["committed_reloads"] == 2
                assert stats["fleet"]["health"]["alive"] == 2
                # the respawn booted base + both committed reloads:
                # both workers serve version 3
                versions = {
                    worker["versions"]["bcast"]["version"]
                    for worker in stats["workers"] if worker["ok"]
                }
                assert versions == {3}

    def test_breaker_holds_a_crashing_worker_down(self, rules_pair):
        spec = FleetSpec(
            rules=(rules_pair[0],), workers=2, chaos_ops=True,
            max_worker_restarts=0, backoff_base_s=0.05,
        )
        with FleetThread(spec) as running:
            with FleetClient(running.port) as client:
                killed = client.ask(
                    {"op": "chaos", "kind": "kill", "worker": 0}
                )
                assert killed["ok"], killed
                _wait_until(
                    lambda: _healthz(running.port)["breakers_open"] == [0],
                    message="the breaker to open for worker 0",
                )
                health = _healthz(running.port)
                assert health["status"] == "degraded"
                assert health["alive"] == 1
                # degraded still serves: the survivor owns the whole ring
                response = client.ask(
                    {"op": "recommend", "collective": "bcast", "nodes": 8,
                     "ppn": 16, "msize": 4096}
                )
                assert response["ok"], response
                # now take out the survivor: no live worker owns any key
                killed = client.ask(
                    {"op": "chaos", "kind": "kill", "worker": 1}
                )
                assert killed["ok"], killed
                _wait_until(
                    lambda: http_get(
                        "127.0.0.1", running.port, "/healthz"
                    )[0] == 503,
                    message="healthz to go down",
                )
                status, body = http_get(
                    "127.0.0.1", running.port, "/healthz"
                )
                assert status == 503
                assert json.loads(body)["status"] == "down"
                response = client.ask(
                    {"op": "recommend", "collective": "bcast", "nodes": 8,
                     "ppn": 16, "msize": 4096}
                )
                assert response["ok"] is False
                assert "no live worker" in response["error"]

    def test_reload_commits_on_the_survivors(self, rules_pair):
        spec = FleetSpec(
            rules=(rules_pair[0],), workers=2, chaos_ops=True,
            max_worker_restarts=0, backoff_base_s=0.05,
        )
        with FleetThread(spec) as running:
            with FleetClient(running.port) as client:
                killed = client.ask(
                    {"op": "chaos", "kind": "kill", "worker": 0}
                )
                assert killed["ok"], killed
                _wait_until(
                    lambda: _healthz(running.port)["status"] == "degraded",
                    message="the fleet to notice the dead worker",
                )
                # a reload with a dead worker commits on the live set
                reloaded = client.ask(
                    {"op": "reload", "path": rules_pair[1]}
                )
                assert reloaded["ok"], reloaded
                assert reloaded["workers"] == 1
                response = client.ask(
                    {"op": "recommend", "collective": "bcast", "nodes": 8,
                     "ppn": 16, "msize": 4096}
                )
                assert response["ok"] and response["version"] == 2
                stats = client.ask({"op": "stats"})["stats"]
                assert stats["fleet"]["versions_consistent"] is True
                assert stats["fleet"]["committed_reloads"] == 1


@pytest.mark.slow
class TestBootSpec:
    """Workers read their boot spec from stdin, not argv."""

    def test_spec_over_the_argv_cap_boots(self, tmp_path):
        import shutil
        from pathlib import Path

        # one ~3.5k-character path, listed 40 times: the spec JSON is
        # past Linux's 128 KiB single-argument cap (MAX_ARG_STRLEN)
        nested = tmp_path
        while len(str(nested)) < 3300:
            nested = nested / ("d" * 200)
        nested.mkdir(parents=True)
        rules = nested / "hydra_bcast_rules.conf"
        repo_root = Path(__file__).resolve().parents[2]
        shutil.copyfile(repo_root / "hydra_bcast_rules.conf", rules)
        spec = FleetSpec(rules=(str(rules),) * 40, workers=1)
        assert len(json.dumps(spec.worker_spec(0, []))) > 128 * 1024
        with FleetThread(spec) as running:
            with FleetClient(running.port) as client:
                response = client.ask(
                    {"op": "recommend", "collective": "bcast", "nodes": 8,
                     "ppn": 16, "msize": 4096}
                )
        assert response["ok"], response
        assert response["version"] == 40
