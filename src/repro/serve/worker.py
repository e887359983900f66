"""One fleet worker: a :class:`PredictionService` behind stdio JSONL.

The front-end (:mod:`repro.serve.fleet`) spawns N of these as child
processes (``python -m repro.serve.worker``) and talks line-delimited
JSON over their stdin/stdout. The first stdin line is the worker's boot
spec (:meth:`~repro.serve.fleet.FleetSpec.worker_spec`: machine,
library, rules paths in load order, service knobs); every later line
is a request, answered on stdout — the same request shapes as the
single-process loop (:mod:`repro.serve.loop`) plus the fleet
coordination ops:

* ``prepare_reload`` — parse/resolve/validate a rules file into a
  staged candidate (:meth:`~repro.serve.registry.ModelRegistry.stage_rules`),
  keyed by the front-end's reload token. Traffic keeps serving the old
  version; a validation failure answers ``ok: false`` and stages
  nothing.
* ``commit_reload`` — swap the staged candidate in
  (:meth:`~repro.serve.registry.ModelRegistry.commit`; cannot fail).
  The front-end only sends this once **every** worker has prepared and
  all in-flight requests have drained — the second half of the
  two-phase version barrier.
* ``abort_reload`` — drop a staged candidate (another worker failed to
  prepare).
* ``counters`` — this process's ``serve.*``/``bench.*`` counter
  snapshot, merged fleet-wide by the front-end for ``/metrics``.
* ``drift`` — the feedback logger's drift-detector snapshot
  (per-(collective, version) residual stats + guideline violations),
  merged into labelled ``/metrics`` gauges by the front-end. Workers
  without feedback configured answer an empty snapshot.
* ``ping`` — liveness probe.
* ``chaos_garbage`` / ``chaos_crash`` — deterministic fault injection
  (:mod:`repro.serve.chaos`), only honoured when the worker spec sets
  ``chaos_ops``: emit an unparseable stdout line, or answer and then
  die mid-line. A production worker answers ``ok: false``.

Every request carries a front-end routing id (``rid``) that is echoed
verbatim on the response, so the front-end can pipeline requests and
match answers without per-request framing state. The worker itself is
deliberately single-threaded: fleet concurrency comes from running N
workers, and each worker's caches stay consistent without locks.

Protocol hygiene: stdout carries protocol lines *only* — everything
human-readable goes to stderr.
"""

from __future__ import annotations

import json
import os
import sys
from dataclasses import dataclass, field
from typing import IO

from repro.machine.zoo import get_machine
from repro.mpilib import get_library
from repro.obs import get_telemetry
from repro.serve.loop import handle_request, serve_lines
from repro.serve.registry import ModelRegistry, ReloadError, StagedModel
from repro.serve.service import PredictionService

#: counter prefixes a worker reports to the fleet metrics merge
EXPORTED_COUNTER_PREFIXES = ("serve.", "bench.")


@dataclass
class WorkerState:
    """Everything one worker process serves from."""

    worker_id: int
    registry: ModelRegistry
    service: PredictionService
    #: reload token -> staged-but-not-committed candidate
    staged: dict[str, StagedModel] = field(default_factory=dict)
    #: honour chaos_garbage/chaos_crash fault-injection ops
    chaos_ops: bool = False


def build_state(spec: dict) -> WorkerState:
    """Construct the registry + service a worker spec describes.

    The spec is plain JSON (machine/library names, rules paths, service
    knobs) so the same models are rebuilt identically in every worker —
    model *objects* never cross the process boundary, which is what
    keeps workers restartable and the protocol text-only.
    """
    machine = get_machine(spec.get("machine", "Hydra"))
    library = get_library(spec.get("library", "Open MPI"))
    registry = ModelRegistry(machine, library)
    for path in spec.get("rules", ()):
        registry.load_rules(path)
    feedback = None
    if spec.get("feedback"):
        from repro.core.feedback import FeedbackConfig, FeedbackLogger

        feedback = FeedbackLogger(
            FeedbackConfig.from_spec(spec["feedback"]), machine, library
        )
    service = PredictionService(
        registry,
        cache_size=int(spec.get("cache_size", 4096)),
        compiled=True,
        feedback=feedback,
    )
    return WorkerState(
        worker_id=int(spec.get("worker_id", 0)),
        registry=registry,
        service=service,
        chaos_ops=bool(spec.get("chaos_ops", False)),
    )


def handle_worker_request(state: WorkerState, payload: dict) -> dict:
    """One request -> one response; fleet ops first, then the loop ops."""
    op = payload.get("op", "recommend")
    if op == "prepare_reload":
        token = str(payload.get("token", ""))
        path = payload.get("path")
        try:
            if not path:
                raise ValueError("prepare_reload needs a 'path'")
            staged = state.registry.stage_rules(path)
        except (ValueError, ReloadError) as exc:
            return {"ok": False, "error": f"{type(exc).__name__}: {exc}"}
        state.staged[token] = staged
        return {
            "ok": True,
            "token": token,
            "collective": str(staged.collective),
            "tag": staged.tag,
        }
    if op == "commit_reload":
        token = str(payload.get("token", ""))
        staged = state.staged.pop(token, None)
        if staged is None:
            return {
                "ok": False,
                "error": f"ValueError: no staged reload for token {token!r}",
            }
        version = state.registry.commit(staged)
        return {
            "ok": True,
            "token": token,
            "collective": str(version.collective),
            "version": version.version,
            "tag": version.tag,
        }
    if op == "abort_reload":
        token = str(payload.get("token", ""))
        return {"ok": True, "aborted": state.staged.pop(token, None) is not None}
    if op == "counters":
        counters = get_telemetry().counters_snapshot()
        return {
            "ok": True,
            "worker": state.worker_id,
            "counters": {
                name: value
                for name, value in counters.items()
                if name.startswith(EXPORTED_COUNTER_PREFIXES)
            },
        }
    if op == "drift":
        feedback = state.service.feedback
        drift = (
            feedback.detector.payload()
            if feedback is not None
            else {"stats": [], "violations": {}}
        )
        return {"ok": True, "worker": state.worker_id, "drift": drift}
    if op == "ping":
        return {"ok": True, "worker": state.worker_id, "pid": os.getpid()}
    return handle_request(state.service, payload)


def handle_chaos_op(state: WorkerState, payload: dict, out: IO[str]
                    ) -> dict:
    """Deterministic in-worker fault injection (chaos harness only).

    ``chaos_garbage`` writes a newline-terminated unparseable line to
    stdout — the front-end reader must skip it without losing rid sync
    — then answers normally. ``chaos_crash`` answers first (the
    injection is not allowed to be a client-visible failure), writes a
    *torn* line (no newline), and dies with ``os._exit`` so no atexit
    machinery can tidy the pipe, so that path never returns. Returns
    the response to write.
    """
    if not state.chaos_ops:
        op = payload.get("op")
        return {"ok": False, "error": f"ValueError: unknown op {op!r}"}
    if payload.get("op") == "chaos_garbage":
        out.write('#### chaos garbage: not json {"torn": \n')
        out.flush()
        return {"ok": True, "injected": "garbage", "worker": state.worker_id}
    response = {"ok": True, "injected": "crash", "worker": state.worker_id}
    rid = payload.get("rid")
    if rid is not None:
        response["rid"] = rid
    out.write(json.dumps(response) + "\n")
    out.flush()
    print(f"worker {state.worker_id}: chaos crash injected, exiting 23",
          file=sys.stderr, flush=True)
    out.write('{"torn": ')
    out.flush()
    os._exit(23)


def serve_worker(state: WorkerState, lines, out: IO[str]) -> int:
    """The worker's request loop: a ``ready`` line once the models are
    loaded, then :func:`~repro.serve.loop.serve_lines` with a handler
    that routes chaos ops and echoes ``rid`` on every response."""

    def handle(payload: dict) -> dict:
        if str(payload.get("op", "")).startswith("chaos_"):
            response = handle_chaos_op(state, payload, out)
        else:
            response = handle_worker_request(state, payload)
        if payload.get("rid") is not None:
            response["rid"] = payload["rid"]
        return response

    ready = {"ok": True, "ready": True, "worker": state.worker_id,
             "pid": os.getpid()}
    out.write(json.dumps(ready) + "\n")
    out.flush()
    return serve_lines(handle, lines, out)


def main() -> int:
    """Boot from the spec on the first stdin line, then serve the rest.

    Spawned by ``mpicollpred serve --workers N``; not meant to be run
    by hand.
    """
    try:
        spec = json.loads(sys.stdin.readline())
        state = build_state(spec)
    except Exception as exc:  # surfaced as a protocol line, then die
        sys.stdout.write(
            json.dumps(
                {"ok": False, "ready": False,
                 "error": f"{type(exc).__name__}: {exc}"}
            )
            + "\n"
        )
        sys.stdout.flush()
        return 1
    served = serve_worker(state, sys.stdin, sys.stdout)
    print(f"worker {state.worker_id}: served {served} request(s)",
          file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
