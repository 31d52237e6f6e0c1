"""Per-iteration run statistics and memory tracking.

Everything the evaluation section of the paper reports is derived from
:class:`RunStats` objects: per-node charged times and states, per-component
breakdowns (Figure 6), materialization overhead, storage snapshots
(Figure 9c/d), state fractions (Figure 8) and peak/average memory
(Figure 10).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional

from ..core.operators import Component
from ..optimizer.oep import NodeState
from ..optimizer.omp import MaterializationDecision

__all__ = ["MemoryTracker", "RunStats"]


class MemoryTracker:
    """Collects cache-size snapshots during one iteration's execution.

    Snapshots may be taken concurrently by the parallel execution engine's
    scheduler and worker threads, so recording and the derived aggregates are
    guarded by a lock.
    """

    def __init__(self) -> None:
        self._snapshots: List[int] = []
        self._lock = threading.Lock()

    def snapshot(self, size_bytes: int) -> None:
        with self._lock:
            self._snapshots.append(int(size_bytes))

    @property
    def peak_bytes(self) -> int:
        with self._lock:
            return max(self._snapshots, default=0)

    @property
    def average_bytes(self) -> float:
        with self._lock:
            if not self._snapshots:
                return 0.0
            return sum(self._snapshots) / len(self._snapshots)


@dataclass
class RunStats:
    """Everything observed while executing one iteration of a workflow."""

    iteration: int
    workflow_name: str = ""
    node_states: Dict[str, NodeState] = field(default_factory=dict)
    node_times: Dict[str, float] = field(default_factory=dict)
    node_sizes: Dict[str, int] = field(default_factory=dict)
    component_times: Dict[str, float] = field(default_factory=dict)
    materialization_time: float = 0.0
    materialized_nodes: List[str] = field(default_factory=list)
    decisions: List[MaterializationDecision] = field(default_factory=list)
    storage_bytes: int = 0
    peak_memory_bytes: int = 0
    average_memory_bytes: float = 0.0
    outputs: Dict[str, Any] = field(default_factory=dict)
    original_nodes: List[str] = field(default_factory=list)
    iteration_type: str = ""

    # ------------------------------------------------------------------ metrics
    @property
    def execution_time(self) -> float:
        """Time spent loading and computing nodes (excluding materialization)."""
        return sum(self.node_times.values())

    @property
    def total_time(self) -> float:
        """Run time of the iteration as experienced by the user (Section 6.4)."""
        return self.execution_time + self.materialization_time

    def component_breakdown(self) -> Dict[str, float]:
        """Charged time per workflow component plus materialization (Figure 6)."""
        breakdown = {component.value: 0.0 for component in Component}
        breakdown.update(self.component_times)
        breakdown["Mat."] = self.materialization_time
        return breakdown

    def state_fractions(self) -> Dict[str, float]:
        """Fraction of DAG nodes in each execution state (Figure 8)."""
        total = max(len(self.node_states), 1)
        return {
            state.value: sum(1 for s in self.node_states.values() if s is state) / total
            for state in NodeState
        }

    def nodes_in_state(self, state: NodeState) -> List[str]:
        return sorted(name for name, s in self.node_states.items() if s is state)
