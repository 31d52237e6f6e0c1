"""DeepDive comparator: materialize everything, no automatic reuse decisions.

DeepDive (Zhang et al.) is specialized for information extraction: all
feature-extraction intermediates are written to its database backend, data
preprocessing runs through Python/shell scripts rather than a parallel
dataflow engine, and the learning/evaluation components are not configurable.
For the evaluation this translates to the following policy, reproduced here
on the shared substrate (Sections 6.1 and 6.5):

* every iteration recomputes the entire workflow (no automatic reuse of the
  materialized results across iterations),
* every intermediate is materialized, paying the write cost every iteration
  (artifacts are keyed per-iteration, so the cost recurs like DeepDive's
  TSV/database dumps do),
* DPR work is charged a slowdown factor (default 2x) modelling the script-based
  preprocessing versus Spark (the paper measures ~2x on census DPR iterations),
* only the Census and IE workflows are supported, and in the paper only their
  DPR iterations are shown.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..core.operators import Component, RunContext
from ..core.signatures import compute_node_signatures
from ..core.workflow import Workflow
from ..execution.clock import CostModel, MeasuredCostModel
from ..execution.engine import ExecutionEngine
from ..execution.tracker import RunStats
from ..optimizer.metrics import StatsStore
from ..optimizer.oep import solve_oep
from ..optimizer.omp import AlwaysMaterialize
from ..storage.store import InMemoryStore
from .base import System

__all__ = ["DeepDiveSystem"]

_SUPPORTED_WORKLOADS = frozenset({"census", "nlp"})


class _DPRSlowdownCostModel(CostModel):
    """Multiply DPR compute charges by a slowdown factor (script-based preprocessing)."""

    def __init__(self, base: CostModel, dpr_factor: float):
        super().__init__(base.cluster)
        self.base = base
        self.dpr_factor = dpr_factor

    def compute_cost(self, operator, component, input_sizes, measured_seconds):
        charged = self.base.compute_cost(operator, component, input_sizes, measured_seconds)
        if component is Component.DPR:
            charged *= self.dpr_factor
        return charged

    def io_cost(self, size_bytes, measured_seconds):
        return self.base.io_cost(size_bytes, measured_seconds)


class DeepDiveSystem(System):
    """Materialize-everything, reuse-nothing comparator."""

    name = "deepdive"

    def __init__(
        self,
        cost_model: Optional[CostModel] = None,
        seed: int = 0,
        dpr_slowdown: float = 2.0,
        executor: str = "inline",
        max_workers: Optional[int] = None,
    ):
        base = cost_model if cost_model is not None else MeasuredCostModel()
        self.cost_model = _DPRSlowdownCostModel(base, dpr_slowdown) if dpr_slowdown != 1.0 else base
        self.seed = seed
        self._iteration_storage: Dict[int, int] = {}
        self.configure_executor(executor, max_workers)

    def supports(self, workload_name: str) -> bool:
        return workload_name in _SUPPORTED_WORKLOADS

    def reset(self) -> None:
        self._iteration_storage.clear()

    def storage_bytes(self) -> int:
        return sum(self._iteration_storage.values())

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
        plan = solve_oep(dag, compute_time, load_time, forced_compute=dag.node_names)
        # A fresh store per iteration: DeepDive rewrites its extraction tables on
        # every run, so the write cost recurs and nothing is reused.
        store = InMemoryStore()
        engine = ExecutionEngine(
            store=store,
            policy=AlwaysMaterialize(),
            cost_model=self.cost_model,
            stats=StatsStore(),
            context=RunContext(seed=self.seed),
            executor=self.executor,
        )
        run_stats = engine.execute(dag, plan, signatures, iteration=iteration)
        run_stats.iteration_type = iteration_type
        self._iteration_storage[iteration] = store.total_bytes()
        run_stats.storage_bytes = self.storage_bytes()
        return run_stats
