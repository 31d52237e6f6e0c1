"""OPT-MAT-PLAN: deciding which intermediates to materialize.

Problem 3 of the paper: while executing iteration ``t``, choose a subset of
nodes to persist to disk so that the materialization cost plus the optimal
run time of the *next* iteration is minimized, subject to a storage budget.
The problem is NP-hard (reduction from Knapsack, Theorem 3), and because the
run-time statistics for all operators are only fully known at the end of the
workflow, Helix additionally imposes a streaming constraint: once a node goes
*out of scope* (all of its children have been computed or loaded), it must be
either materialized immediately or dropped from the cache.

This module implements the paper's policies:

* :class:`StreamingMaterializationPolicy` — Algorithm 2: materialize an
  out-of-scope node iff twice its load cost is below its cumulative run time
  and the storage budget allows it (HELIX OPT).
* :class:`AlwaysMaterialize` — persist everything (HELIX AM).
* :class:`NeverMaterialize` — persist nothing beyond mandatory outputs
  (HELIX NM).
* :func:`optimal_materialization_plan` — an exact exponential solver for small
  DAGs under the paper's simplifying assumption that ``W_{t+1} = W_t``; used
  by tests and the ablation benchmark to quantify the heuristic's optimality
  gap.

A policy is handed ``C(n_i)`` (Definition 6) as a number: the engine sums it
from per-run ancestor bitsets in topological order, with no graph walk per
decision and bit-identically across executors and processes.
"""

from __future__ import annotations

import itertools
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import FrozenSet, Mapping, Optional, Tuple

from ..core.dag import WorkflowDAG
from ..exceptions import OptimizationError
from .oep import solve_oep

__all__ = [
    "MaterializationDecision",
    "MaterializationPolicy",
    "StreamingMaterializationPolicy",
    "AlwaysMaterialize",
    "NeverMaterialize",
    "optimal_materialization_plan",
]


@dataclass(frozen=True)
class MaterializationDecision:
    """The outcome of a single out-of-scope materialization decision."""

    node: str
    materialize: bool
    reason: str
    cumulative_time: float = 0.0
    load_estimate: float = 0.0


class MaterializationPolicy(ABC):
    """Interface for out-of-scope materialization decisions.

    The execution engine calls :meth:`decide` exactly once per node, at the
    moment the node goes out of scope (streaming constraint, Constraint 3).
    ``budget_remaining`` may be ``None`` for an unlimited budget.
    """

    name = "policy"

    @abstractmethod
    def decide(
        self,
        node: str,
        cumulative: float,
        load_estimate: float,
        size_bytes: int,
        budget_remaining: Optional[int],
    ) -> MaterializationDecision:
        """Decide whether to materialize ``node`` now.

        ``cumulative`` is ``C(n_i)``: the node's charged time this iteration
        plus its executed ancestors'; ``load_estimate`` is ``l_i``.
        """

    @staticmethod
    def _within_budget(size_bytes: int, budget_remaining: Optional[int]) -> bool:
        return budget_remaining is None or size_bytes <= budget_remaining


class StreamingMaterializationPolicy(MaterializationPolicy):
    """Algorithm 2: materialize iff ``C(n_i) > factor * l_i`` and budget allows.

    The intuition (Section 5.3): if loading the node next iteration lets all
    of its ancestors be pruned, then paying the materialization now plus the
    load later must be cheaper than recomputing the pruned ancestors; with
    equal read/write costs this is exactly ``2 * l_i < C(n_i)``.
    """

    name = "streaming"

    def __init__(self, factor: float = 2.0):
        if factor <= 0:
            raise OptimizationError("materialization factor must be positive")
        self.factor = factor

    def decide(
        self,
        node: str,
        cumulative: float,
        load_estimate: float,
        size_bytes: int,
        budget_remaining: Optional[int],
    ) -> MaterializationDecision:
        if not self._within_budget(size_bytes, budget_remaining):
            return MaterializationDecision(
                node, False, "storage budget exhausted", cumulative, load_estimate
            )
        worthwhile = cumulative > self.factor * load_estimate
        reason = (
            f"C={cumulative:.6f} > {self.factor:g}*l={self.factor * load_estimate:.6f}"
            if worthwhile
            else f"C={cumulative:.6f} <= {self.factor:g}*l={self.factor * load_estimate:.6f}"
        )
        return MaterializationDecision(node, worthwhile, reason, cumulative, load_estimate)


class AlwaysMaterialize(MaterializationPolicy):
    """HELIX AM: materialize every out-of-scope node the budget allows."""

    name = "always"

    def decide(
        self,
        node: str,
        cumulative: float,
        load_estimate: float,
        size_bytes: int,
        budget_remaining: Optional[int],
    ) -> MaterializationDecision:
        if not self._within_budget(size_bytes, budget_remaining):
            return MaterializationDecision(node, False, "storage budget exhausted",
                                            cumulative, load_estimate)
        return MaterializationDecision(node, True, "always materialize", cumulative, load_estimate)


class NeverMaterialize(MaterializationPolicy):
    """HELIX NM: never materialize (mandatory outputs are still persisted)."""

    name = "never"

    def decide(
        self,
        node: str,
        cumulative: float,
        load_estimate: float,
        size_bytes: int,
        budget_remaining: Optional[int],
    ) -> MaterializationDecision:
        return MaterializationDecision(node, False, "never materialize", cumulative, load_estimate)


def optimal_materialization_plan(
    dag: WorkflowDAG,
    compute_time: Mapping[str, float],
    load_time_if_materialized: Mapping[str, float],
    storage_bytes: Mapping[str, int],
    budget_bytes: Optional[int] = None,
    max_nodes: int = 14,
) -> Tuple[FrozenSet[str], float]:
    """Exact OPT-MAT-PLAN under the assumption ``W_{t+1} = W_t`` (Equation 3).

    Enumerates all subsets ``M`` of nodes (exponential — only for small DAGs),
    scoring each by the materialization time ``sum_{i in M} l_i`` plus the
    optimal next-iteration run time ``T*(W_{t+1})`` computed by the exact OEP
    solver with ``M`` materialized and no nodes forced to recompute.  The next
    iteration is modelled as having to *produce* the DAG's outputs (or its
    sinks when no outputs are declared), matching the setting of the paper's
    NP-hardness construction where every node must be either loaded or
    computed.

    Returns the best subset and its objective value.
    """
    produced = list(dag.outputs) or list(dag.sinks())
    names = list(dag.node_names)
    if len(names) > max_nodes:
        raise OptimizationError(
            f"exact OPT-MAT-PLAN limited to {max_nodes} nodes, got {len(names)}"
        )
    best_subset: FrozenSet[str] = frozenset()
    best_objective = float("inf")
    for r in range(len(names) + 1):
        for subset in itertools.combinations(names, r):
            chosen = frozenset(subset)
            total_storage = sum(storage_bytes.get(n, 0) for n in chosen)
            if budget_bytes is not None and total_storage > budget_bytes:
                continue
            materialization_time = sum(load_time_if_materialized[n] for n in chosen)
            next_load = {
                n: (load_time_if_materialized[n] if n in chosen else float("inf"))
                for n in names
            }
            plan = solve_oep(dag, compute_time, next_load, forced_compute=(), required=produced)
            objective = materialization_time + plan.estimated_time
            if objective < best_objective - 1e-15:
                best_objective = objective
                best_subset = chosen
    return best_subset, best_objective
