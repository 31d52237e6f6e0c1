"""Cost models: how per-node run times are charged.

Execution always produces real values (operators actually run so that ML
results are correct), but the *time charged* for a node is pluggable:

* :class:`MeasuredCostModel` charges wall-clock time measured around each
  operator invocation and each store read/write — what the benchmark harness
  uses.
* :class:`SimulatedCostModel` charges the operator's declared
  ``estimated_cost`` and models I/O with
  :func:`~repro.storage.store.modelled_io_seconds` — what unit tests and
  deterministic experiments use.

Both estimate a future load with the same modelled disk
(:meth:`CostModel.estimate_io_cost`).

Both support a simple cluster-scaling model for reproducing Figure 7(b):
data-parallel components (DPR and L/I) speed up with the number of workers
(with an efficiency factor, super-linear for DPR thanks to Helix's loop
fusion of semantic-unit passes), while PPR pays a per-worker communication
overhead, which is why the paper observes a slight slowdown from 4 to 8
workers on PPR-heavy iterations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence

from ..core.operators import Component, Operator
from ..storage.store import modelled_io_seconds

__all__ = ["ClusterModel", "CostModel", "MeasuredCostModel", "SimulatedCostModel"]


@dataclass(frozen=True)
class ClusterModel:
    """Parallel-execution scaling applied on top of single-worker costs.

    Attributes
    ----------
    num_workers:
        Number of workers; 1 disables all scaling.
    parallel_efficiency:
        Fraction of ideal speedup achieved per component (KeystoneML-style
        systems get ~0.85–0.9; Helix's semantic-unit loop fusion lets DPR
        exceed 1.0 for small worker counts).
    communication_overhead:
        Seconds of per-worker coordination overhead charged to PPR nodes,
        modelling the shuffle/collect costs that dominate tiny reducers.
    """

    num_workers: int = 1
    parallel_efficiency: Dict[str, float] = field(
        default_factory=lambda: {
            Component.DPR.value: 0.9,
            Component.LI.value: 0.85,
            Component.PPR.value: 0.0,
        }
    )
    communication_overhead: float = 0.0

    def scale(self, component: Component, seconds: float) -> float:
        """Scale a single-worker cost to the modelled cluster."""
        if self.num_workers <= 1:
            return seconds
        efficiency = self.parallel_efficiency.get(component.value, 0.0)
        if efficiency <= 0.0:
            # Non-parallel work (tiny reducers / result collection) does not
            # speed up and additionally pays per-worker coordination overhead.
            return seconds + self.communication_overhead * self.num_workers
        speedup = 1.0 + efficiency * (self.num_workers - 1)
        return seconds / speedup


class CostModel:
    """Base class: translates measurements/model parameters into charged times."""

    def __init__(self, cluster: Optional[ClusterModel] = None):
        self.cluster = cluster or ClusterModel()

    def compute_cost(
        self,
        operator: Operator,
        component: Component,
        input_sizes: Sequence[int],
        measured_seconds: float,
    ) -> float:
        """Charged compute time for one node."""
        raise NotImplementedError

    def io_cost(self, size_bytes: int, measured_seconds: float) -> float:
        """Charged time for one store read or write."""
        raise NotImplementedError

    def estimate_io_cost(self, size_bytes: int) -> float:
        """Estimated time for a future store read/write of ``size_bytes``.

        Used by the streaming materialization policy, which must estimate the
        load cost of a node *before* it has ever been written to disk.
        """
        return modelled_io_seconds(size_bytes)

    def _apply_cluster(self, component: Component, seconds: float) -> float:
        return self.cluster.scale(component, seconds)


class MeasuredCostModel(CostModel):
    """Charge measured wall-clock times (optionally scaled to a modelled cluster)."""

    def compute_cost(
        self,
        operator: Operator,
        component: Component,
        input_sizes: Sequence[int],
        measured_seconds: float,
    ) -> float:
        return self._apply_cluster(component, measured_seconds)

    def io_cost(self, size_bytes: int, measured_seconds: float) -> float:
        return measured_seconds


class SimulatedCostModel(CostModel):
    """Charge declared operator costs and modelled I/O times (deterministic)."""

    def compute_cost(
        self,
        operator: Operator,
        component: Component,
        input_sizes: Sequence[int],
        measured_seconds: float,
    ) -> float:
        return self._apply_cluster(component, float(operator.estimated_cost(list(input_sizes))))

    def io_cost(self, size_bytes: int, measured_seconds: float) -> float:
        return modelled_io_seconds(size_bytes)
