"""KeystoneML comparator: one-shot optimization, no cross-iteration reuse.

KeystoneML (Sparks et al., ICDE 2017) optimizes the single-shot execution of a
pipeline — common sub-expression elimination and in-memory caching within one
run — but materializes nothing across runs, so every iteration recomputes the
entire workflow (Section 6.1 of the paper).  This comparator reproduces that
policy on the shared substrate:

* the DAG is sliced to its outputs (KeystoneML also avoids computing unused
  branches),
* every remaining node is computed; nothing is loaded and nothing is
  materialized,
* an optional L/I overhead factor models the caching misses the paper
  observed ("its caching optimizer failing to cache the training data"),
  disabled by default.

KeystoneML specializes in classification over structured inputs, so the
structured-prediction IE workflow is unsupported (Table 2).
"""

from __future__ import annotations

from typing import Dict, Optional

from ..core.operators import Component, RunContext
from ..core.signatures import compute_node_signatures
from ..core.workflow import Workflow
from ..execution.clock import CostModel, MeasuredCostModel
from ..execution.tracker import RunStats
from ..optimizer.metrics import StatsStore
from ..optimizer.oep import solve_oep
from ..optimizer.omp import NeverMaterialize
from ..storage.store import InMemoryStore
from .base import System

__all__ = ["KeystoneMLSystem"]

_UNSUPPORTED_WORKLOADS = frozenset({"nlp"})


class _ComponentOverheadCostModel(CostModel):
    """Wrap a cost model, multiplying the charge of selected components."""

    def __init__(self, base: CostModel, factors: Dict[str, float]):
        super().__init__(base.cluster)
        self.base = base
        self.factors = dict(factors)

    def compute_cost(self, operator, component, input_sizes, measured_seconds):
        charged = self.base.compute_cost(operator, component, input_sizes, measured_seconds)
        return charged * self.factors.get(component.value, 1.0)

    def io_cost(self, size_bytes, measured_seconds):
        return self.base.io_cost(size_bytes, measured_seconds)

    def estimate_io_cost(self, size_bytes):
        return self.base.estimate_io_cost(size_bytes)


class KeystoneMLSystem(System):
    """No cross-iteration materialization; recompute everything each iteration."""

    name = "keystoneml"

    def __init__(
        self,
        cost_model: Optional[CostModel] = None,
        seed: int = 0,
        li_overhead_factor: float = 1.0,
        executor: str = "inline",
        max_workers: Optional[int] = None,
    ):
        base = cost_model if cost_model is not None else MeasuredCostModel()
        if li_overhead_factor != 1.0:
            base = _ComponentOverheadCostModel(base, {Component.LI.value: li_overhead_factor})
        self.cost_model = base
        self.seed = seed
        self.configure_executor(executor, max_workers)

    def supports(self, workload_name: str) -> bool:
        return workload_name not in _UNSUPPORTED_WORKLOADS

    def reset(self) -> None:
        return

    def run_iteration(
        self,
        workflow: Workflow,
        iteration: int,
        iteration_type: str = "",
    ) -> RunStats:
        dag = workflow.compile().sliced_to_outputs()
        signatures = compute_node_signatures(dag)
        compute_time = {name: 1.0 for name in dag.node_names}
        load_time = {name: float("inf") for name in dag.node_names}
        # Force every node to be computed: no prior results exist by policy.
        plan = solve_oep(dag, compute_time, load_time, forced_compute=dag.node_names)
        engine = self._create_engine(
            store=InMemoryStore(),
            policy=NeverMaterialize(),
            cost_model=self.cost_model,
            stats=StatsStore(),
            context=RunContext(seed=self.seed),
            materialize_outputs=False,
        )
        run_stats = engine.execute(dag, plan, signatures, iteration=iteration)
        run_stats.iteration_type = iteration_type
        return run_stats
