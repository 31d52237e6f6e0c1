"""Operator metrics and the cross-iteration statistics store.

The DAG optimizer runs *before* execution, so it must estimate per-node
compute time ``c_i``, load time ``l_i`` and storage footprint ``s_i`` from
statistics recorded in previous iterations (Section 5.1 of the paper).  This
is sound because a node with an equivalent materialization has, by
definition, been executed with the exact same operator and inputs before, so
the recorded statistics are accurate.  Nodes never seen before fall back to
the operator's own ``estimated_cost``.

Statistics are keyed by the node's recursive *signature* (not its name) so
that renames do not lose history and changed operators do not inherit stale
numbers.
"""

from __future__ import annotations

import json
import threading
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

from ..storage.store import modelled_io_seconds

__all__ = ["NodeMetrics", "StatsStore", "CostEstimator"]


@dataclass
class NodeMetrics:
    """Observed metrics for one node execution.

    Attributes
    ----------
    compute_time:
        Seconds to compute the node from in-memory inputs (``c_i``).
    load_time:
        Seconds to load the node back from disk (``l_i``); populated when the
        node has actually been materialized/loaded, otherwise estimated from
        ``storage_bytes`` and the modelled disk.
    storage_bytes:
        Size of the serialized artifact (``s_i``).
    observations:
        Number of times the node has been observed (used for running means).
    """

    compute_time: float = 0.0
    load_time: float = 0.0
    storage_bytes: int = 0
    observations: int = 0

    def merge_observation(
        self,
        compute_time: Optional[float] = None,
        load_time: Optional[float] = None,
        storage_bytes: Optional[int] = None,
    ) -> None:
        """Fold a new observation into the running averages.

        A field that has never been observed (still zero) adopts the new value
        outright instead of being averaged with the zero placeholder.
        """
        n = self.observations
        if compute_time is not None:
            if n and self.compute_time > 0:
                self.compute_time = (self.compute_time * n + compute_time) / (n + 1)
            else:
                self.compute_time = compute_time
        if load_time is not None:
            if n and self.load_time > 0:
                self.load_time = (self.load_time * n + load_time) / (n + 1)
            else:
                self.load_time = load_time
        if storage_bytes is not None:
            self.storage_bytes = int(storage_bytes)
        self.observations += 1


class StatsStore:
    """Per-signature operator statistics persisted across iterations.

    The store is an in-memory mapping with optional JSON persistence so that
    a workflow lifecycle can span process restarts (as the real system's
    statistics do).  Recording is guarded by a lock: the parallel execution
    engine records load observations from worker threads while the scheduler
    thread records compute observations at retirement points.
    """

    def __init__(self, path: Optional[Path] = None):
        self._metrics: Dict[str, NodeMetrics] = {}
        self._lock = threading.Lock()
        self._path = Path(path) if path is not None else None
        if self._path is not None and self._path.exists():
            self._load()

    def __contains__(self, signature: str) -> bool:
        with self._lock:
            return signature in self._metrics

    def __len__(self) -> int:
        with self._lock:
            return len(self._metrics)

    def get(self, signature: str) -> Optional[NodeMetrics]:
        with self._lock:
            return self._metrics.get(signature)

    def record(
        self,
        signature: str,
        compute_time: Optional[float] = None,
        load_time: Optional[float] = None,
        storage_bytes: Optional[int] = None,
    ) -> NodeMetrics:
        """Record an observation for a signature and return the merged metrics."""
        with self._lock:
            metrics = self._metrics.setdefault(signature, NodeMetrics())
            metrics.merge_observation(compute_time, load_time, storage_bytes)
            return metrics

    def items(self) -> List[Tuple[str, NodeMetrics]]:
        """All ``(signature, metrics)`` pairs, sorted by signature.

        Used by the engine-equivalence harness to compare the statistics two
        engines accumulated over the same run.
        """
        with self._lock:
            return sorted(self._metrics.items())

    # ------------------------------------------------------------------ persistence
    def save(self) -> None:
        if self._path is None:
            return
        with self._lock:
            payload = {signature: asdict(metrics) for signature, metrics in self._metrics.items()}
        self._path.parent.mkdir(parents=True, exist_ok=True)
        self._path.write_text(json.dumps(payload, indent=2, sort_keys=True))

    def _load(self) -> None:
        payload = json.loads(self._path.read_text())
        for signature, fields in payload.items():
            self._metrics[signature] = NodeMetrics(**fields)


class CostEstimator:
    """Produces the ``c_i`` / ``l_i`` estimates consumed by the OEP solver.

    ``compute_time`` prefers recorded statistics (exact for unchanged nodes)
    and falls back to the operator's declared cost model.  ``load_time`` is
    only finite when an equivalent materialization exists; it prefers the
    recorded load time and otherwise derives it from the artifact size with
    the same modelled disk the cost models use
    (:func:`~repro.storage.store.modelled_io_seconds`).
    """

    def __init__(self, stats: StatsStore, default_compute_time: float = 1e-3):
        self.stats = stats
        self.default_compute_time = default_compute_time

    def compute_time(self, signature: str, operator=None, input_sizes: Iterable[int] = ()) -> float:
        metrics = self.stats.get(signature)
        if metrics is not None and metrics.observations > 0 and metrics.compute_time > 0:
            return metrics.compute_time
        if operator is not None:
            return float(operator.estimated_cost(list(input_sizes)))
        return self.default_compute_time

    def load_time(self, signature: str, materialized: bool) -> float:
        """Load time estimate; infinite when no equivalent materialization exists."""
        if not materialized:
            return float("inf")
        metrics = self.stats.get(signature)
        if metrics is None:
            return self.default_compute_time
        if metrics.load_time > 0:
            return metrics.load_time
        return self.bytes_to_seconds(metrics.storage_bytes)

    def bytes_to_seconds(self, size_bytes: int) -> float:
        """Modelled time to read or write ``size_bytes`` (latency included)."""
        return modelled_io_seconds(size_bytes)
