"""The in-process prediction service: batched, cached, hot-reloadable.

:class:`PredictionService` is the request path in front of a
:class:`~repro.serve.registry.ModelRegistry`. A ``recommend`` call
walks one fixed ladder:

0. **L0 — compiled decision tables** (opt-in, ``compiled=True``):
   per live ``(collective, version)`` a
   :class:`~repro.serve.compiled.CompiledTable` — the model lowered
   into a flat branchless ``msize-bucket x node x ppn -> config id``
   buffer. A covered ``recommend`` is one bounds-clamp plus one array
   index (no dict hop, no cache bookkeeping), ``recommend_many`` loops
   entirely in the C kernel / vectorised numpy, and instances the
   table cannot answer *exactly* fall through to the levels below.
   Hot-reload safety rides the same version barrier as the L1: a
   table whose version no longer matches the live registry version is
   rebuilt before it answers, so a completed swap can never serve a
   stale table.
1. **L1 — recommendation LRU** (:class:`~repro.serve.cache.LRUCache`):
   fully-resolved answers keyed by the interned instance tuple. A hit
   whose model version still matches the live registry version returns
   without touching any model; a version mismatch after a hot-reload is
   treated as a miss, so a completed swap can never serve stale
   answers.
2. **Exact — the model itself**: concurrent misses for the same
   collective are *coalesced* — the first caller becomes the batch
   leader, drains everything queued for that collective, and issues
   **one** vectorised ``select_configs`` call; followers block on
   their own slot and receive per-caller-correct results. The answer
   is bit-identical to a cold
   :meth:`repro.core.tuner.AutoTuner.recommend` (the property tests
   pin this).
3. **Library default**: instances no live model covers get the
   library's built-in decision logic.

Every level feeds :mod:`repro.obs` counters (``serve.requests``,
``serve.compiled.hit/fallthrough``, ``serve.l1.hits/misses``,
``serve.batches``, ``serve.coalesced``, ``serve.fallback_default``),
so a live service is observable through the same telemetry stream as
the campaign and training layers.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, replace
from typing import Iterable, Sequence

import numpy as np

from repro.collectives.base import AlgorithmConfig, CollectiveKind
from repro.obs import get_telemetry
from repro.serve.cache import InstanceKey, KeyInterner, LRUCache
from repro.serve.compiled import compile_servable
from repro.serve.registry import ModelRegistry, ModelVersion

#: memoised CollectiveKind coercion — the enum constructor costs more
#: than a whole compiled-table lookup, and only valid names are cached
#: (the ValueError for unknown collectives propagates unchanged)
_KIND_CACHE: dict = {}


def _kind(collective) -> CollectiveKind:
    kind = _KIND_CACHE.get(collective)
    if kind is None:
        kind = _KIND_CACHE[collective] = CollectiveKind(collective)
    return kind


@dataclass(frozen=True)
class Recommendation:
    """One fully-resolved answer: the config plus its provenance."""

    collective: CollectiveKind
    nodes: int
    ppn: int
    msize: int
    config: AlgorithmConfig
    #: "model" (a live model answered) or "default" (library fallback)
    source: str
    #: registry version that produced the answer (0 = no model published)
    version: int
    #: served straight from the L1 cache
    cached: bool = False
    #: answered by the L0 compiled decision table
    compiled: bool = False

    def to_dict(self) -> dict:
        """JSON-friendly rendering (what the serve loop emits)."""
        return {
            "collective": str(self.collective),
            "nodes": self.nodes,
            "ppn": self.ppn,
            "msize": self.msize,
            "algid": self.config.algid,
            "algorithm": self.config.name,
            "params": self.config.param_dict,
            "label": self.config.label,
            "source": self.source,
            "version": self.version,
            "cached": self.cached,
            "compiled": self.compiled,
        }


class _CompiledEntry:
    """One collective's L0 state for one registry version.

    ``table is None`` marks an *uncompilable* version (wrappers, test
    doubles, failed lowerings): the tier steps aside for it without
    retrying the build on every request. ``template`` is the prototype
    ``Recommendation.__dict__`` that :meth:`answer` copies.
    """

    __slots__ = ("version", "table", "template")

    def __init__(self, version: int, table, template: dict | None) -> None:
        self.version = version
        self.table = table
        self.template = template

    def answer(
        self, nodes: int, ppn: int, msize: int, cid: int
    ) -> Recommendation:
        """Materialise a covered answer for config id ``cid``.

        Copies the template and fills the four per-instance slots, which
        skips the frozen-dataclass ``__init__`` (one
        ``object.__setattr__`` per field) on the hottest path in the
        service.
        """
        rec = object.__new__(Recommendation)
        ns = rec.__dict__
        ns.update(self.template)
        ns["nodes"] = nodes
        ns["ppn"] = ppn
        ns["msize"] = msize
        ns["config"] = self.table.configs[cid]
        return rec


class _Slot:
    """One caller's seat in a coalesced batch."""

    __slots__ = ("key", "done", "result", "error")

    def __init__(self, key: InstanceKey) -> None:
        self.key = key
        self.done = threading.Event()
        self.result: Recommendation | None = None
        self.error: BaseException | None = None


class _Batcher:
    """Leader/follower request coalescing for one collective.

    Arrivals enqueue their slot; whoever finds no active leader becomes
    the leader, drains the queue (everything that arrived while any
    previous leader was computing), and serves the whole batch with one
    vectorised model call. There is no artificial delay: a lone request
    is a batch of one, and coalescing emerges exactly when the service
    is actually contended.
    """

    def __init__(self, service: "PredictionService",
                 collective: CollectiveKind) -> None:
        self._service = service
        self._collective = collective
        self._lock = threading.Lock()
        self._pending: list[_Slot] = []
        self._leader_active = False

    def submit(self, key: InstanceKey) -> Recommendation:
        slot = _Slot(key)
        with self._lock:
            self._pending.append(slot)
            lead = not self._leader_active
            if lead:
                self._leader_active = True
        while lead:
            with self._lock:
                batch = self._pending
                self._pending = []
                if not batch:
                    self._leader_active = False
                    break
            self._execute(batch)
            # drain again: followers may have queued while we computed
        slot.done.wait()
        if slot.error is not None:
            raise slot.error
        assert slot.result is not None
        return slot.result

    def _execute(self, batch: list[_Slot]) -> None:
        try:
            results = self._service._compute_batch(
                self._collective, [slot.key for slot in batch]
            )
            for slot, result in zip(batch, results, strict=True):
                slot.result = result
        except BaseException as exc:  # propagate to every caller
            for slot in batch:
                slot.error = exc
        finally:
            for slot in batch:
                slot.done.set()


class PredictionService:
    """Batched + cached ``recommend`` front-end over a model registry."""

    def __init__(
        self,
        registry: ModelRegistry,
        *,
        cache_size: int = 4096,
        compiled: bool = False,
        feedback=None,
    ) -> None:
        self.registry = registry
        self.compiled = compiled
        #: optional FeedbackLogger — measures + logs every served
        #: recommendation (the closed loop's measure step); never on
        #: the error path of a request
        self.feedback = feedback
        self._interner = KeyInterner()
        self._l1 = LRUCache(cache_size, namespace="serve.l1")
        self._batchers: dict[CollectiveKind, _Batcher] = {}
        self._batchers_lock = threading.Lock()
        #: collective -> _CompiledEntry for the last-seen version (L0)
        self._tables: dict[CollectiveKind, _CompiledEntry] = {}
        self._tables_lock = threading.Lock()

    # -- public API ------------------------------------------------------
    def recommend(
        self, collective: CollectiveKind | str, nodes: int, ppn: int,
        msize: int,
    ) -> Recommendation:
        """Predicted-fastest configuration for one instance."""
        collective = _kind(collective)
        telemetry = get_telemetry()
        telemetry.add("serve.requests")
        if self.compiled:
            rec = self._compiled_lookup(collective, nodes, ppn, msize)
            if rec is not None:
                telemetry.add("serve.compiled.hit")
                self._note(rec)
                return rec
            telemetry.add("serve.compiled.fallthrough")
        key = self._interner.key(str(collective), nodes, ppn, msize)
        cached = self._l1_lookup(key, collective)
        if cached is not None:
            self._note(cached)
            return cached
        rec = self._batcher(collective).submit(key)
        self._note(rec)
        return rec

    def recommend_many(
        self,
        instances: Iterable[tuple[CollectiveKind | str, int, int, int]],
    ) -> list[Recommendation]:
        """Explicit batch path: one vectorised call per collective.

        Answers come back in input order; instances already in the L1
        cache are served from it, the rest of each collective's group
        goes through a single ``select_configs`` sweep.
        """
        instances = list(instances)
        telemetry = get_telemetry()
        telemetry.add("serve.requests", len(instances))
        results: list[Recommendation | None] = [None] * len(instances)
        if self.compiled and instances:
            self._compiled_lookup_many(instances, results)
        misses: dict[CollectiveKind, list[tuple[int, InstanceKey]]] = {}
        for pos, (coll, nodes, ppn, msize) in enumerate(instances):
            if results[pos] is not None:
                continue
            coll = _kind(coll)
            key = self._interner.key(str(coll), nodes, ppn, msize)
            hit = self._l1_lookup(key, coll)
            if hit is not None:
                results[pos] = hit
            else:
                misses.setdefault(coll, []).append((pos, key))
        for coll, group in misses.items():
            computed = self._compute_batch(coll, [key for _, key in group])
            for (pos, _), rec in zip(group, computed, strict=True):
                results[pos] = rec
        if self.feedback is not None:
            self.feedback.record_many([r for r in results if r is not None])
        return results  # type: ignore[return-value]

    def _note(self, rec: Recommendation) -> None:
        if self.feedback is not None:
            self.feedback.record(rec)

    def stats(self) -> dict:
        """Cache + version snapshot (what ``{"op": "stats"}`` returns)."""
        counters = get_telemetry().counters_snapshot()
        return {
            "compiled": {
                "enabled": self.compiled,
                "hits": counters.get("serve.compiled.hit", 0),
                "fallthroughs": counters.get("serve.compiled.fallthrough", 0),
                "builds": counters.get("serve.compiled.builds", 0),
                "tables": {
                    str(coll): (
                        {"version": entry.version, **entry.table.coverage()}
                        if entry.table is not None
                        else {"version": entry.version, "compilable": False}
                    )
                    for coll, entry in list(self._tables.items())
                },
            },
            "l1": self._l1.stats(),
            "versions": {
                str(coll): {
                    "version": mv.version,
                    "tag": mv.tag,
                    "source": mv.source,
                }
                for coll, mv in self.registry.snapshot().items()
            },
            "counters": {
                name: value
                for name, value in counters.items()
                if name.startswith("serve.")
            },
        }

    # -- L0: compiled decision tables ------------------------------------
    def _compiled_entry(
        self, collective: CollectiveKind
    ) -> _CompiledEntry | None:
        """The live version's table entry, rebuilt after a hot-reload."""
        mv = self.registry.get(collective)
        if mv is None:
            return None
        entry = self._tables.get(collective)
        if entry is None or entry.version != mv.version:
            entry = self._build_table(collective, mv)
        return entry

    def _compiled_lookup(
        self, collective: CollectiveKind, nodes: int, ppn: int, msize: int
    ) -> Recommendation | None:
        entry = self._compiled_entry(collective)
        if entry is None or entry.table is None:
            return None
        cid = entry.table.lookup(nodes, ppn, msize)
        if cid < 0:
            return None
        return entry.answer(nodes, ppn, msize, cid)

    def _compiled_lookup_many(
        self,
        instances: Sequence[tuple],
        results: list,
    ) -> None:
        """Fill ``results`` for every instance the compiled tier covers."""
        groups: dict = {}
        for pos, inst in enumerate(instances):
            groups.setdefault(inst[0], []).append(pos)
        hits = 0
        for raw_coll, positions in groups.items():
            entry = self._compiled_entry(_kind(raw_coll))
            if entry is None or entry.table is None:
                continue
            try:
                nodes = np.asarray(
                    [instances[p][1] for p in positions], dtype=np.int64
                )
                ppn = np.asarray(
                    [instances[p][2] for p in positions], dtype=np.int64
                )
                msize = np.asarray(
                    [instances[p][3] for p in positions], dtype=np.int64
                )
            except OverflowError:
                # beyond-int64 msize: the interpreted path owns it
                continue
            cids = entry.table.lookup_many(nodes, ppn, msize)
            for pos, cid in zip(positions, cids.tolist(), strict=True):
                if cid < 0:
                    continue
                inst = instances[pos]
                results[pos] = entry.answer(inst[1], inst[2], inst[3], cid)
                hits += 1
        telemetry = get_telemetry()
        if hits:
            telemetry.add("serve.compiled.hit", hits)
        if hits < len(instances):
            telemetry.add("serve.compiled.fallthrough", len(instances) - hits)

    def _build_table(
        self, collective: CollectiveKind, mv: ModelVersion
    ) -> _CompiledEntry:
        """Lower ``mv.model`` into a table entry; version-barriered swap."""
        telemetry = get_telemetry()
        try:
            with telemetry.span(
                "serve/compile_table", collective=str(collective),
                version=mv.version,
            ):
                table = compile_servable(mv.model, mv.version)
        except Exception:
            telemetry.add("serve.compiled.errors")
            table = None
        if table is None:
            entry = _CompiledEntry(mv.version, None, None)
        else:
            telemetry.add("serve.compiled.builds")
            template = {
                "collective": collective, "nodes": 0, "ppn": 0, "msize": 0,
                "config": None, "source": "model", "version": mv.version,
                "cached": False, "compiled": True,
            }
            entry = _CompiledEntry(mv.version, table, template)
        with self._tables_lock:
            current = self._tables.get(collective)
            if current is not None and current.version == mv.version:
                return current  # a concurrent builder won the race
            self._tables[collective] = entry
        return entry

    # -- internals -------------------------------------------------------
    def _l1_lookup(
        self, key: InstanceKey, collective: CollectiveKind
    ) -> Recommendation | None:
        hit = self._l1.get(key)
        if hit is None:
            return None
        live = self.registry.get(collective)
        live_version = live.version if live is not None else 0
        if hit.version != live_version:
            # a hot-reload unseated the version this answer came from
            get_telemetry().add("serve.l1.stale")
            return None
        return replace(hit, cached=True)

    def _batcher(self, collective: CollectiveKind) -> _Batcher:
        with self._batchers_lock:
            batcher = self._batchers.get(collective)
            if batcher is None:
                batcher = self._batchers[collective] = _Batcher(
                    self, collective
                )
            return batcher

    def _compute_batch(
        self, collective: CollectiveKind, keys: Sequence[InstanceKey]
    ) -> list[Recommendation]:
        """One vectorised lookup for a batch of cache misses."""
        telemetry = get_telemetry()
        telemetry.add("serve.batches")
        if len(keys) > 1:
            telemetry.add("serve.coalesced", len(keys))
        mv = self.registry.get(collective)
        nodes = np.asarray([k[1] for k in keys], dtype=np.int64)
        ppn = np.asarray([k[2] for k in keys], dtype=np.int64)
        msize = np.asarray([k[3] for k in keys], dtype=np.int64)
        with telemetry.span(
            "serve/batch", absolute=True, collective=str(collective),
            size=len(keys), version=mv.version if mv else 0,
        ):
            if mv is None:
                configs: list[AlgorithmConfig | None] = [None] * len(keys)
            else:
                configs = mv.model.select_configs(nodes, ppn, msize)
        version = mv.version if mv is not None else 0
        results = []
        for key, config in zip(keys, configs, strict=True):
            if config is None:
                config = self.registry.default_config(
                    collective, key[1], key[2], key[3]
                )
                telemetry.add("serve.fallback_default")
                source = "default"
            else:
                source = "model"
            rec = Recommendation(
                collective=collective, nodes=key[1], ppn=key[2],
                msize=key[3], config=config, source=source, version=version,
            )
            self._l1.put(key, rec)
            results.append(rec)
        return results


__all__ = [
    "PredictionService",
    "Recommendation",
]
