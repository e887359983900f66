"""Serving caches: interned instance keys + a thread-safe LRU.

Level 1 of the serving stack (:mod:`repro.serve.service`): a bounded
LRU over fully-resolved recommendations, keyed by the interned
``(collective, nodes, ppn, msize)`` tuple. Hits and misses land on
:mod:`repro.obs` counters (``<namespace>.hits`` / ``.misses`` /
``.evictions``) so a live service's cache behaviour is visible in the
same telemetry stream as everything else.

Keys are *interned*: one canonical tuple object per distinct instance,
shared between the cache and in-flight batches. A
serving workload hammers a small working set of instances millions of
times — re-allocating the key tuple per request is pure garbage
pressure, and identity-equal keys make dict probes cheaper.
"""

from __future__ import annotations

import sys
import threading
from collections import OrderedDict
from typing import Any, Hashable

from repro.obs import get_telemetry

InstanceKey = tuple[str, int, int, int]


class KeyInterner:
    """Canonicalise instance keys to one shared tuple per instance.

    Bounded: when the intern table outgrows ``capacity`` it is simply
    dropped and restarted — correctness never depends on interning
    (equal tuples still compare equal), only allocation traffic does.
    """

    def __init__(self, capacity: int = 65536) -> None:
        self.capacity = capacity
        self._table: dict[InstanceKey, InstanceKey] = {}
        self._lock = threading.Lock()

    def key(
        self, collective: str, nodes: int, ppn: int, msize: int
    ) -> InstanceKey:
        probe = (sys.intern(str(collective)), int(nodes), int(ppn), int(msize))
        with self._lock:
            canonical = self._table.get(probe)
            if canonical is not None:
                return canonical
            if len(self._table) >= self.capacity:
                self._table.clear()
            self._table[probe] = probe
            return probe

    def __len__(self) -> int:
        with self._lock:
            return len(self._table)


class LRUCache:
    """Thread-safe bounded LRU with telemetry-wired hit/miss counters."""

    def __init__(self, capacity: int, namespace: str = "serve.cache") -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.namespace = namespace
        self._data: OrderedDict[Hashable, Any] = OrderedDict()
        self._lock = threading.Lock()

    def get(self, key: Hashable) -> Any | None:
        """The cached value, refreshed to most-recently-used; None = miss."""
        with self._lock:
            try:
                value = self._data[key]
            except KeyError:
                get_telemetry().add(f"{self.namespace}.misses")
                return None
            self._data.move_to_end(key)
        get_telemetry().add(f"{self.namespace}.hits")
        return value

    def put(self, key: Hashable, value: Any) -> None:
        evicted = False
        with self._lock:
            self._data[key] = value
            self._data.move_to_end(key)
            if len(self._data) > self.capacity:
                self._data.popitem(last=False)
                evicted = True
        if evicted:
            get_telemetry().add(f"{self.namespace}.evictions")

    def invalidate(self, predicate=None) -> int:
        """Drop entries (all, or those whose *key* matches ``predicate``)."""
        with self._lock:
            if predicate is None:
                dropped = len(self._data)
                self._data.clear()
            else:
                doomed = [k for k in self._data if predicate(k)]
                for k in doomed:
                    del self._data[k]
                dropped = len(doomed)
        if dropped:
            get_telemetry().add(f"{self.namespace}.invalidated", dropped)
        return dropped

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)

    def stats(self) -> dict[str, int]:
        """Point-in-time counter values for this cache's namespace."""
        counters = get_telemetry().counters_snapshot()
        return {
            "size": len(self),
            "capacity": self.capacity,
            "hits": counters.get(f"{self.namespace}.hits", 0),
            "misses": counters.get(f"{self.namespace}.misses", 0),
            "evictions": counters.get(f"{self.namespace}.evictions", 0),
        }
