"""The operator-output cache used during a single iteration's execution.

Helix actively manages the in-memory cache instead of relying on the
underlying engine's LRU eviction (Section 5.4, "Cache Pruning"): once a node
goes out of scope it is evicted immediately (after the streaming
materialization decision).  :class:`OperatorCache` therefore has unlimited
capacity and no replacement policy; the execution engine does the evicting.

Scope tracking is reference-count based: the execution engine registers the
number of still-outstanding consumers for every entry with
:meth:`OperatorCache.set_consumers` and calls :meth:`OperatorCache.release`
each time a consumer finishes.  When the count reaches zero the entry is out
of scope and may be retired (offered for materialization, then evicted).
Counting consumers instead of positions in a fixed execution order is what
allows the parallel engine to execute DAG branches concurrently: scope is a
property of which consumers completed, not of where the node sits in a
serial walk.

All cache operations are guarded by a reentrant lock so a cache instance can
be shared between the scheduler thread and worker threads of the parallel
execution engine.

The cache reports the statistics needed for Figure 10 (peak and average
memory) via :meth:`snapshot_bytes`.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, Optional

from ..exceptions import ExecutionError
from ..storage.serialization import estimate_size_bytes

__all__ = ["CacheEntry", "OperatorCache"]


class CacheEntry:
    """One cached operator output and its estimated in-memory size."""

    __slots__ = ("value", "size_bytes")

    def __init__(self, value: Any, size_bytes: Optional[int] = None):
        self.value = value
        self.size_bytes = estimate_size_bytes(value) if size_bytes is None else int(size_bytes)


class OperatorCache:
    """Thread-safe mapping from node name to :class:`CacheEntry`, evicted by the engine."""

    def __init__(self) -> None:
        self._entries: Dict[str, CacheEntry] = {}
        self._consumers: Dict[str, int] = {}
        #: Running sum of the entries' ``size_bytes`` (the engine reads it twice per node).
        self._bytes = 0
        self._lock = threading.RLock()

    # ------------------------------------------------------------------ basics
    def __contains__(self, name: str) -> bool:
        with self._lock:
            return name in self._entries

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def put(self, name: str, value: Any, size_bytes: Optional[int] = None) -> CacheEntry:
        entry = CacheEntry(value, size_bytes)
        with self._lock:
            previous = self._entries.get(name)
            if previous is not None:
                self._bytes -= previous.size_bytes
            self._entries[name] = entry
            self._bytes += entry.size_bytes
        return entry

    def get(self, name: str) -> CacheEntry:
        """The cached value together with the size estimated when it was put."""
        with self._lock:
            entry = self._entries.get(name)
            if entry is None:
                raise ExecutionError(f"value for node {name!r} is not cached")
            return entry

    def evict(self, name: str) -> Optional[CacheEntry]:
        with self._lock:
            self._consumers.pop(name, None)
            entry = self._entries.pop(name, None)
            if entry is not None:
                self._bytes -= entry.size_bytes
            return entry

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._consumers.clear()
            self._bytes = 0

    def snapshot_bytes(self) -> int:
        """Total estimated bytes currently held in the cache."""
        with self._lock:
            return self._bytes

    # ------------------------------------------------------------------ scope refcounts
    def set_consumers(self, name: str, count: int) -> None:
        """Register how many consumers have yet to read ``name``.

        A count of zero means the entry is out of scope immediately (a node
        with no executing children).
        """
        if count < 0:
            raise ExecutionError(f"consumer count for {name!r} must be non-negative")
        with self._lock:
            self._consumers[name] = int(count)

    def release(self, name: str) -> bool:
        """One consumer of ``name`` finished; return True when it hits zero.

        The transition to zero is reported exactly once, which is what makes
        it safe for the engine to retire the entry on a True return even when
        multiple children complete concurrently.
        """
        with self._lock:
            count = self._consumers.get(name)
            if count is None or count <= 0:
                return False
            count -= 1
            self._consumers[name] = count
            return count == 0
