"""JSONL request loop for ``mpicollpred serve``.

A line-oriented protocol made for scripting (pipe a file in, drive it
from a job prolog, or keep a long-lived co-process):

Request lines (JSON objects, one per line)::

    {"collective": "bcast", "nodes": 8, "ppn": 4, "msize": 65536}
    {"op": "recommend_many", "instances": [{"collective": "bcast", ...}]}
    {"op": "reload", "path": "new_rules.conf"}
    {"op": "stats"}
    {"op": "quit"}

Responses mirror requests one-for-one (same order), always carry
``"ok"``, and echo a request's ``"id"`` field when present. Malformed
input — including an instance whose ``nodes``/``ppn`` is not an
integer ``>= 1`` or whose ``msize`` is not an integer ``>= 0`` —
answers ``{"ok": false, "error": ...}`` and the loop keeps serving — a
bad client line must not take the service down. Fleet workers answer
through the same :func:`handle_request`, so the check holds there too.
"""

from __future__ import annotations

import json
from typing import IO, Callable, Iterable

from repro.serve.registry import ReloadError
from repro.serve.service import PredictionService
from repro.utils.units import parse_bytes


def _count(name: str, value, minimum: int) -> int:
    """An integral instance field ``>= minimum``; anything else is an error.

    Bools and non-integral numbers are rejected rather than coerced, so
    ``"nodes": 0`` or ``"msize": 64.9`` can never reach a model.
    """
    if type(value) is not int:  # exact check: bool is an int subclass
        if isinstance(value, str):
            try:
                value = parse_bytes(value) if name == "msize" else int(value)
            except ValueError as exc:
                raise ValueError(f"{name}: {exc}") from None
        elif isinstance(value, float) and value.is_integer():
            value = int(value)
        else:
            raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value}")
    return value


def _parse_instance(payload: dict) -> tuple[str, int, int, int]:
    try:
        collective = payload["collective"]
        nodes, ppn, msize = payload["nodes"], payload["ppn"], payload["msize"]
    except (KeyError, TypeError) as exc:
        raise ValueError(
            "instance needs collective, nodes, ppn, msize"
        ) from exc
    return (
        collective,
        _count("nodes", nodes, 1),
        _count("ppn", ppn, 1),
        _count("msize", msize, 0),
    )


def handle_request(service: PredictionService, payload: dict) -> dict:
    """One request object -> one response object (never raises)."""
    request_id = payload.get("id")
    try:
        op = payload.get("op", "recommend")
        if op == "recommend":
            rec = service.recommend(*_parse_instance(payload))
            response = {"ok": True, **rec.to_dict()}
        elif op == "recommend_many":
            instances = payload.get("instances")
            if not isinstance(instances, list):
                raise ValueError("recommend_many needs an 'instances' list")
            recs = service.recommend_many(
                [_parse_instance(inst) for inst in instances]
            )
            response = {
                "ok": True,
                "results": [rec.to_dict() for rec in recs],
            }
        elif op == "reload":
            path = payload.get("path")
            if not path:
                raise ValueError("reload needs a 'path'")
            version = service.registry.load_rules(path)
            response = {
                "ok": True,
                "collective": str(version.collective),
                "version": version.version,
                "tag": version.tag,
            }
        elif op == "stats":
            response = {"ok": True, "stats": service.stats()}
        elif op == "quit":
            response = {"ok": True, "bye": True}
        else:
            raise ValueError(f"unknown op {op!r}")
    except (ValueError, KeyError, ReloadError) as exc:
        response = {"ok": False, "error": f"{type(exc).__name__}: {exc}"}
    if request_id is not None:
        response["id"] = request_id
    return response


def serve_lines(
    handle: Callable[[dict], dict], lines: Iterable[str], out: IO[str]
) -> int:
    """Drive a request handler from an iterable of JSONL lines.

    ``handle`` maps one request object to its response — the stdin loop
    passes ``partial(handle_request, service)``, a fleet worker its own
    handler.
    Returns the number of requests served. Stops early on
    ``{"op": "quit"}``; blank lines are skipped; a line that is not a
    JSON object answers ``ok: false``; responses are flushed per line so
    a co-process client never deadlocks on buffering.
    """
    served = 0
    for raw in lines:
        line = raw.strip()
        if not line:
            continue
        served += 1
        try:
            payload = json.loads(line)
            if not isinstance(payload, dict):
                raise ValueError("request must be a JSON object")
        except ValueError as exc:
            payload = {}
            response = {"ok": False, "error": f"bad request line: {exc}"}
        else:
            response = handle(payload)
        out.write(json.dumps(response) + "\n")
        out.flush()
        if payload.get("op") == "quit":
            break
    return served
