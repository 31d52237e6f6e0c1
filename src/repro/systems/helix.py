"""The Helix system: cross-iteration optimization with pluggable materialization.

This is the full pipeline from the paper's Figure 1/2 lifecycle:

1. **DAG compilation** — the workflow is compiled and sliced to its outputs
   (program slicing / output-driven pruning).
2. **Change tracking** — node signatures are compared against everything seen
   in previous iterations; changed (original) nodes must be recomputed and
   their stale materializations are purged.
3. **DAG optimization (OPT-EXEC-PLAN)** — per-node compute/load estimates are
   assembled from the statistics store and the max-flow-based solver assigns
   every node a state in {compute, load, prune}.
4. **Execution + materialization (OPT-MAT-PLAN)** — the execution engine runs
   the plan; at every out-of-scope point the configured materialization
   policy (streaming heuristic for HELIX OPT, always for HELIX AM, never for
   HELIX NM) decides whether to persist the node.

The three paper variants are exposed through :meth:`HelixSystem.opt`,
:meth:`HelixSystem.always_materialize` and :meth:`HelixSystem.never_materialize`.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, Optional, Sequence

from ..core.operators import RunContext
from ..core.signatures import compute_node_signatures, diff_signatures
from ..core.workflow import Workflow
from ..execution.clock import CostModel, MeasuredCostModel
from ..execution.engine import ExecutionEngine
from ..execution.tracker import RunStats
from ..optimizer.metrics import CostEstimator, StatsStore
from ..optimizer.oep import solve_oep
from ..optimizer.omp import (
    AlwaysMaterialize,
    MaterializationPolicy,
    NeverMaterialize,
    StreamingMaterializationPolicy,
)
from ..storage.store import DiskStore, InMemoryStore, MaterializationStore
from .base import System

__all__ = ["HelixSystem"]

#: Default storage budget used in the paper's experiments (10 GB).
DEFAULT_STORAGE_BUDGET = 10 * 1024 ** 3


class HelixSystem(System):
    """Helix with a configurable materialization policy.

    Parameters
    ----------
    policy:
        Materialization policy instance; defaults to the streaming heuristic
        (HELIX OPT).
    store:
        Materialization store; defaults to an in-memory store with the
        paper's 10 GB budget.  Pass a :class:`~repro.storage.DiskStore` for
        real I/O.
    cost_model:
        How per-node times are charged; defaults to measured wall-clock time.
    seed:
        Seed propagated to operators through the :class:`RunContext`.
    executor:
        Executor strategy for iterations: ``"inline"`` (default),
        ``"thread"`` (DAG-level parallelism over a thread pool) or
        ``"distributed"`` (CPU-bound parallelism: worker processes over
        sockets).  The system builds
        it once and owns it (see :meth:`System.configure_executor`).
    max_workers:
        Worker count for pool-backed executors (None = library default).
    workers:
        Remote worker addresses (``"host:port"``) for the distributed
        executor's address-configured mode (requires
        ``executor="distributed"``).
    """

    def __init__(
        self,
        policy: Optional[MaterializationPolicy] = None,
        store: Optional[MaterializationStore] = None,
        cost_model: Optional[CostModel] = None,
        seed: int = 0,
        storage_budget: Optional[int] = DEFAULT_STORAGE_BUDGET,
        name: Optional[str] = None,
        executor: str = "inline",
        max_workers: Optional[int] = None,
        workers: Optional[Sequence[str]] = None,
    ):
        self.policy = policy if policy is not None else StreamingMaterializationPolicy()
        self.store = store if store is not None else InMemoryStore(budget_bytes=storage_budget)
        self.cost_model = cost_model if cost_model is not None else MeasuredCostModel()
        self.seed = seed
        self.stats = StatsStore()
        # Node signatures of the last executed iteration.
        self._previous_signatures: Dict[str, str] = {}
        self.estimator = CostEstimator(self.stats)
        self.name = name or f"helix-{self.policy.name}"
        self.configure_executor(executor, max_workers, workers=workers)

    # ------------------------------------------------------------------ variants
    @classmethod
    def opt(cls, **kwargs) -> "HelixSystem":
        """HELIX OPT: streaming materialization heuristic (Algorithm 2)."""
        return cls(policy=StreamingMaterializationPolicy(), name="helix-opt", **kwargs)

    @classmethod
    def always_materialize(cls, **kwargs) -> "HelixSystem":
        """HELIX AM: materialize every intermediate result."""
        return cls(policy=AlwaysMaterialize(), name="helix-am", **kwargs)

    @classmethod
    def never_materialize(cls, **kwargs) -> "HelixSystem":
        """HELIX NM: never materialize intermediate results."""
        return cls(policy=NeverMaterialize(), name="helix-nm", **kwargs)

    # ------------------------------------------------------------------ lifecycle
    def reset(self) -> None:
        self.store.clear()
        self.stats = StatsStore()
        self.estimator = CostEstimator(self.stats)
        self._previous_signatures = {}

    def storage_bytes(self) -> int:
        return self.store.total_bytes()

    def run_iteration(
        self,
        workflow: Workflow,
        iteration: int,
        iteration_type: str = "",
    ) -> RunStats:
        # 1. DAG compilation + output-driven pruning.
        dag = workflow.compile().sliced_to_outputs()

        # 2. Change tracking: classify nodes as original vs. potentially reusable.
        signatures = compute_node_signatures(dag)
        stored_signatures = {record.signature for record in self.store.artifacts()}
        diff = diff_signatures(signatures, self._previous_signatures, stored_signatures)
        original = set(diff.original)

        # Purge stale materializations of changed operators before execution.
        for name in dag.node_names:
            if name in original:
                self.store.purge_node(name, keep_signature=signatures[name])

        # 3. OPT-EXEC-PLAN: assemble cost estimates and solve for node states.
        compute_time: Dict[str, float] = {}
        load_time: Dict[str, float] = {}
        for name in dag.node_names:
            signature = signatures[name]
            node = dag.node(name)
            compute_time[name] = self.estimator.compute_time(signature, node.operator)
            load_time[name] = self.estimator.load_time(signature, self.store.has(signature))
        plan = solve_oep(dag, compute_time, load_time, forced_compute=original)

        # 4. Execution with streaming materialization decisions.
        engine = ExecutionEngine(
            store=self.store,
            policy=self.policy,
            cost_model=self.cost_model,
            stats=self.stats,
            context=RunContext(seed=self.seed),
            executor=self.executor,
        )
        run_stats = engine.execute(dag, plan, signatures, iteration=iteration)
        run_stats.iteration_type = iteration_type

        # Commit signatures so the next iteration can detect changes.
        self._previous_signatures = signatures
        return run_stats
