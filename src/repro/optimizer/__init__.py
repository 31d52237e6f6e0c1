"""Optimizers: execution-plan (OEP), materialization-plan (OMP) and pruning."""

from .maxflow import INFINITY, FlowNetwork
from .metrics import CostEstimator, NodeMetrics, StatsStore
from .oep import ExecutionPlan, NodeState, brute_force_oep, plan_run_time, solve_oep
from .omp import (
    AlwaysMaterialize,
    MaterializationDecision,
    MaterializationPolicy,
    NeverMaterialize,
    StreamingMaterializationPolicy,
    cumulative_run_time,
    optimal_materialization_plan,
)
from .pruning import out_of_scope_after
from .psp import Project, ProjectSelectionProblem, ProjectSelectionSolution

__all__ = [
    "INFINITY",
    "FlowNetwork",
    "CostEstimator",
    "NodeMetrics",
    "StatsStore",
    "ExecutionPlan",
    "NodeState",
    "brute_force_oep",
    "plan_run_time",
    "solve_oep",
    "AlwaysMaterialize",
    "MaterializationDecision",
    "MaterializationPolicy",
    "NeverMaterialize",
    "StreamingMaterializationPolicy",
    "cumulative_run_time",
    "optimal_materialization_plan",
    "out_of_scope_after",
    "Project",
    "ProjectSelectionProblem",
    "ProjectSelectionSolution",
]
