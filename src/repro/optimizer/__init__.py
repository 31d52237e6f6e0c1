"""Optimizers: execution-plan (OEP) and materialization-plan (OMP)."""

from .maxflow import INFINITY, FlowNetwork
from .metrics import CostEstimator, NodeMetrics, StatsStore
from .oep import ExecutionPlan, NodeState, brute_force_oep, plan_run_time, solve_oep
from .omp import (
    AlwaysMaterialize,
    MaterializationDecision,
    MaterializationPolicy,
    NeverMaterialize,
    StreamingMaterializationPolicy,
    optimal_materialization_plan,
)
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
    "optimal_materialization_plan",
    "Project",
    "ProjectSelectionProblem",
    "ProjectSelectionSolution",
]
