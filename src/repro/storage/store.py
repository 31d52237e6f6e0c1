"""Materialization stores: where intermediate results are persisted.

Two implementations share the :class:`MaterializationStore` interface:

* :class:`DiskStore` writes each artifact's canonical encoding
  (:mod:`repro.storage.canonical`) to a ``<signature>.hc`` file in a
  directory and measures real read/write times — used by the benchmark
  harness so that load costs are genuine I/O costs.
* :class:`InMemoryStore` keeps serialized bytes in memory and *models* the
  read/write times with :func:`modelled_io_seconds` — used by unit tests and
  the simulated-cost experiments where determinism matters.

:func:`modelled_io_seconds` is the one modelled disk: the simulated cost
model's I/O charge, every cost model's load estimate for the streaming
materialization decision, and the optimizer's ``l_i`` fallback all use it.

Both enforce an optional storage budget: a ``put`` that would exceed the
budget raises :class:`~repro.exceptions.BudgetExceededError` (callers check
``remaining_budget`` first; the exception is the safety net).
"""

from __future__ import annotations

import threading
import time
from abc import ABC, abstractmethod
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Tuple

from ..exceptions import ArtifactNotFoundError, BudgetExceededError, StorageError
from .canonical import content_digest
from .catalog import ArtifactRecord, Catalog
from .serialization import deserialize, serialize

__all__ = ["MaterializationStore", "DiskStore", "InMemoryStore", "StoredArtifact", "modelled_io_seconds"]

#: The modelled disk: the paper's testbed HDD sustains ~170 MB/s for both
#: reads and writes, plus a fixed per-access latency.
DISK_BANDWIDTH = 170e6  # bytes per second
DISK_LATENCY = 1e-4  # seconds per read or write


def modelled_io_seconds(size_bytes: int) -> float:
    """Modelled seconds to read or write ``size_bytes``: ``latency + bytes / bandwidth``."""
    return DISK_LATENCY + size_bytes / DISK_BANDWIDTH


class StoredArtifact:
    """Result of a ``put``: the catalog record plus the observed write time."""

    __slots__ = ("record", "write_time")

    def __init__(self, record: ArtifactRecord, write_time: float):
        self.record = record
        self.write_time = write_time


class MaterializationStore(ABC):
    """Common interface and budget/catalog bookkeeping for artifact stores.

    All public operations are guarded by a reentrant lock so a store can be
    shared between the threads of the parallel execution engine: concurrent
    ``put`` calls serialize, which keeps the budget check + catalog insert
    atomic (two writers can never jointly overshoot the budget).
    """

    def __init__(self, budget_bytes: Optional[int] = None, catalog: Optional[Catalog] = None):
        if budget_bytes is not None and budget_bytes < 0:
            raise StorageError("storage budget must be non-negative")
        self.budget_bytes = budget_bytes
        self.catalog = catalog if catalog is not None else Catalog()
        self._store_lock = threading.RLock()

    # ------------------------------------------------------------------ interface
    @abstractmethod
    def _write(self, signature: str, value: Any) -> Tuple[int, float, str, str]:
        """Persist ``value``; return ``(size_bytes, write_seconds, location, digest)``.

        ``digest`` is the content digest of the serialized bytes
        (:func:`repro.storage.canonical.content_digest`); backends that
        cannot cheaply produce one may return ``""`` (unknown).
        """

    @abstractmethod
    def _read(self, record: ArtifactRecord) -> Tuple[Any, float]:
        """Read an artifact; return ``(value, read_seconds)``."""

    @abstractmethod
    def _delete(self, record: ArtifactRecord) -> None:
        """Remove persisted bytes for an artifact."""

    # ------------------------------------------------------------------ public API
    def has(self, signature: str) -> bool:
        with self._store_lock:
            return signature in self.catalog

    def total_bytes(self) -> int:
        with self._store_lock:
            return self.catalog.total_bytes()

    def remaining_budget(self) -> Optional[int]:
        if self.budget_bytes is None:
            return None
        return max(self.budget_bytes - self.total_bytes(), 0)

    def put(self, node_name: str, signature: str, value: Any, iteration: int = 0) -> StoredArtifact:
        """Materialize a value under its node signature.

        Re-putting an existing signature is a no-op (the artifact is already
        on disk and, by construction, identical).
        """
        with self._store_lock:
            existing = self.catalog.get(signature)
            if existing is not None:
                return StoredArtifact(existing, 0.0)
            size_bytes, write_time, location, digest = self._write(signature, value)
            if self.budget_bytes is not None and self.total_bytes() + size_bytes > self.budget_bytes:
                self._delete(ArtifactRecord(signature, node_name, size_bytes, iteration, location))
                raise BudgetExceededError(
                    f"materializing {node_name!r} ({size_bytes} bytes) would exceed the "
                    f"storage budget of {self.budget_bytes} bytes"
                )
            record = ArtifactRecord(
                signature=signature,
                node_name=node_name,
                size_bytes=size_bytes,
                iteration=iteration,
                location=location,
                digest=digest,
            )
            self.catalog.add(record)
            return StoredArtifact(record, write_time)

    def load(self, signature: str) -> Tuple[Any, float]:
        """Load a previously materialized value; returns ``(value, seconds)``."""
        with self._store_lock:
            record = self.catalog.get(signature)
        if record is None:
            raise ArtifactNotFoundError(f"no artifact for signature {signature[:12]}...")
        return self._read(record)

    def load_serialized(self, signature: str) -> Optional[bytes]:
        """Serialized bytes of a materialized artifact; ``None`` when absent.

        Serves the distributed executor's artifact FETCH lane: both
        built-in stores already hold serialized bytes, so their overrides of
        :meth:`_read_serialized` forward them without a deserialize +
        re-serialize round trip.  Backends without raw-bytes access fall
        back to ``serialize(load(...))``.
        """
        with self._store_lock:
            record = self.catalog.get(signature)
        if record is None:
            return None
        payload = self._read_serialized(record)
        if payload is not None:
            return payload
        value, _seconds = self._read(record)
        return serialize(value)

    def _read_serialized(self, record: ArtifactRecord) -> Optional[bytes]:
        """Raw stored bytes when the backend keeps them (``None`` = use ``_read``)."""
        del record
        return None

    def delete(self, signature: str) -> None:
        with self._store_lock:
            record = self.catalog.remove(signature)
            if record is not None:
                self._delete(record)

    def purge_node(self, node_name: str, keep_signature: Optional[str] = None) -> List[str]:
        """Remove stale artifacts for a node whose operator changed.

        Keeps the artifact matching ``keep_signature`` (if any) and deletes
        the rest, returning the removed signatures.  This is the purge the
        paper describes before executing an iteration with original
        operators, and it is why storage use is not monotonic (Figure 9c/d).
        """
        with self._store_lock:
            removed = []
            for signature in self.catalog.stale_signatures(node_name, keep_signature or ""):
                self.delete(signature)
                removed.append(signature)
            return removed

    def artifacts(self) -> List[ArtifactRecord]:
        with self._store_lock:
            return self.catalog.records()

    def clear(self) -> None:
        with self._store_lock:
            for record in list(self.catalog.records()):
                self.delete(record.signature)


class DiskStore(MaterializationStore):
    """One canonical-encoding file per artifact under a directory, with measured I/O times."""

    def __init__(self, root: Path, budget_bytes: Optional[int] = None):
        super().__init__(budget_bytes=budget_bytes)
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def _path_for(self, signature: str) -> Path:
        return self.root / f"{signature}.hc"

    def _write(self, signature: str, value: Any) -> Tuple[int, float, str, str]:
        path = self._path_for(signature)
        start = time.perf_counter()
        payload = serialize(value)
        path.write_bytes(payload)
        elapsed = time.perf_counter() - start
        return len(payload), elapsed, str(path), content_digest(payload)

    def _read(self, record: ArtifactRecord) -> Tuple[Any, float]:
        path = Path(record.location) if record.location else self._path_for(record.signature)
        if not path.exists():
            raise ArtifactNotFoundError(f"artifact file missing: {path}")
        start = time.perf_counter()
        value = deserialize(path.read_bytes())
        elapsed = time.perf_counter() - start
        return value, elapsed

    def _delete(self, record: ArtifactRecord) -> None:
        path = Path(record.location) if record.location else self._path_for(record.signature)
        if path.exists():
            path.unlink()

    def _read_serialized(self, record: ArtifactRecord) -> Optional[bytes]:
        path = Path(record.location) if record.location else self._path_for(record.signature)
        return path.read_bytes() if path.exists() else None


class InMemoryStore(MaterializationStore):
    """Byte-buffer store with modelled I/O times (deterministic, for tests/simulation)."""

    def __init__(self, budget_bytes: Optional[int] = None):
        super().__init__(budget_bytes=budget_bytes)
        self._blobs: Dict[str, bytes] = {}

    def _write(self, signature: str, value: Any) -> Tuple[int, float, str, str]:
        payload = serialize(value)
        self._blobs[signature] = payload
        return (
            len(payload),
            modelled_io_seconds(len(payload)),
            "memory",
            content_digest(payload),
        )

    def _read(self, record: ArtifactRecord) -> Tuple[Any, float]:
        payload = self._blobs.get(record.signature)
        if payload is None:
            raise ArtifactNotFoundError(f"artifact bytes missing for {record.node_name!r}")
        return deserialize(payload), modelled_io_seconds(len(payload))

    def _delete(self, record: ArtifactRecord) -> None:
        self._blobs.pop(record.signature, None)

    def _read_serialized(self, record: ArtifactRecord) -> Optional[bytes]:
        return self._blobs.get(record.signature)
