"""REP004 — lock-discipline: shared state mutates only under its lock.

The registry, telemetry hub, caches and fleet keep shared maps that are
mutated from multiple threads (or from coroutines racing with reader
threads). Each such attribute has exactly one lock that must be held.
The map below is the contract: ``class -> {attribute -> lock attr}``.
Mutating one of these attributes (assignment, augmented assignment,
``del``, or a mutator method like ``.append``/``.update``/``.clear``)
outside a ``with self.<lock>``/``async with self.<lock>`` block — or a
``self.<lock>.acquire()``-guarded helper explicitly suppressed — is an
error. ``__init__``/``__new__`` are exempt (no concurrent access before
construction completes).

When a new shared attribute grows a lock, add it here; the fixture
tests pin the checker's semantics.
"""

from __future__ import annotations

import ast

from repro.analysis.core import Checker, dotted_name

# class name -> {shared attribute -> required lock attribute}
LOCKED_ATTRS: dict[str, dict[str, str]] = {
    # repro/serve/registry.py
    "ModelRegistry": {"_live": "_write_lock", "_next_version": "_write_lock"},
    # repro/serve/service.py
    "PredictionService": {
        "_batchers": "_batchers_lock",
        "_tables": "_tables_lock",
    },
    # repro/serve/cache.py
    "KeyInterner": {"_table": "_lock"},
    "LRUCache": {"_data": "_lock"},
    # repro/obs/telemetry.py
    "Telemetry": {
        "_counters": "_state_lock",
        "_gauges": "_state_lock",
        "_histograms": "_state_lock",
        "_sinks": "_sinks_lock",
    },
    "Histogram": {"counts": "_lock", "total": "_lock", "sum": "_lock"},
    "_Counter": {"value": "_lock"},
    # repro/obs/sinks.py
    "MemorySink": {"_events": "_lock"},
    "FileSink": {"_fh": "_lock"},
    # repro/bench/checkpoint.py
    "CampaignJournal": {"_chunks": "_lock"},
    # repro/serve/fleet.py: respawned workers boot from this list, so
    # it must not move between a spec snapshot and the worker install
    "Fleet": {"_committed": "_reload_lock"},
}

_MUTATOR_METHODS = {
    "add",
    "append",
    "appendleft",
    "clear",
    "discard",
    "extend",
    "insert",
    "move_to_end",
    "pop",
    "popitem",
    "remove",
    "setdefault",
    "sort",
    "update",
}

_EXEMPT_METHODS = {"__init__", "__new__", "__post_init__"}


def _method_exempt(name: str) -> bool:
    # `*_locked` helpers are called with the lock already held — the
    # repo-wide naming convention (e.g. CampaignJournal._write_locked).
    return name in _EXEMPT_METHODS or name.endswith("_locked")


def _self_attr(node: ast.AST) -> str | None:
    """``self.X`` -> ``X``; None for anything else."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


class LockDisciplineChecker(Checker):
    rule = "REP004"
    severity = "error"
    default_fix_hint = "move the mutation under `with self.<lock>:`"

    def __init__(self, ctx) -> None:
        super().__init__(ctx)
        self._class_stack: list[str] = []
        self._method_stack: list[str] = []
        self._held_locks: list[str] = []

    # -- scope tracking -------------------------------------------------
    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self._class_stack.append(node.name)
        self.generic_visit(node)
        self._class_stack.pop()

    def _visit_function(self, node) -> None:
        self._method_stack.append(node.name)
        self.generic_visit(node)
        self._method_stack.pop()

    visit_FunctionDef = _visit_function
    visit_AsyncFunctionDef = _visit_function

    def _visit_with(self, node) -> None:
        held: list[str] = []
        for item in node.items:
            expr = item.context_expr
            # `with self._lock:` and `with self._lock.acquire_timeout(..)`
            attr = _self_attr(expr)
            if attr is None and isinstance(expr, ast.Call):
                inner = dotted_name(expr.func)
                if inner is not None and inner.startswith("self."):
                    attr = inner.split(".")[1]
            if attr is not None:
                held.append(attr)
        self._held_locks.extend(held)
        self.generic_visit(node)
        for _ in held:
            self._held_locks.pop()

    visit_With = _visit_with
    visit_AsyncWith = _visit_with

    # -- mutation detection ---------------------------------------------
    def _config(self) -> dict[str, str] | None:
        if not self._class_stack:
            return None
        return LOCKED_ATTRS.get(self._class_stack[-1])

    def _check_target(self, target: ast.AST, node: ast.AST, what: str) -> None:
        config = self._config()
        if config is None:
            return
        if self._method_stack and _method_exempt(self._method_stack[-1]):
            return
        if not self._method_stack:
            return  # class-body defaults, not runtime mutation
        # `self.X = ...` or `self.X[k] = ...` / `del self.X[k]`
        base = target
        if isinstance(base, ast.Subscript):
            base = base.value
        attr = _self_attr(base)
        if attr is None or attr not in config:
            return
        lock = config[attr]
        if lock not in self._held_locks:
            self.report(
                node,
                f"{what} of shared attribute self.{attr} outside"
                f" `with self.{lock}:`",
            )

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._check_target(target, node, "assignment")
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._check_target(node.target, node, "augmented assignment")
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None:
            self._check_target(node.target, node, "assignment")
        self.generic_visit(node)

    def visit_Delete(self, node: ast.Delete) -> None:
        for target in node.targets:
            self._check_target(target, node, "deletion")
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        config = self._config()
        if (
            config is not None
            and self._method_stack
            and not _method_exempt(self._method_stack[-1])
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in _MUTATOR_METHODS
        ):
            attr = _self_attr(node.func.value)
            if attr is not None and attr in config:
                lock = config[attr]
                if lock not in self._held_locks:
                    self.report(
                        node,
                        f"mutator self.{attr}.{node.func.attr}(...) outside"
                        f" `with self.{lock}:`",
                    )
        self.generic_visit(node)
