"""Execution engine, executor strategies, caches, cost models and run statistics.

The engine (:class:`ExecutionEngine`) owns the lifecycle — scheduling,
cache/scope refcounting, deterministic retirement commits, stats — and
delegates task dispatch to a pluggable :class:`Executor` strategy:
``"inline"`` (reference), ``"thread"`` (latency-bound parallelism) or
``"distributed"`` (CPU-bound parallelism across the GIL: multi-worker
dispatch over sockets).  The strategy contract is
documented in ``docs/executors.md``.
"""

from .cache import CacheEntry, OperatorCache
from .clock import ClusterModel, CostModel, MeasuredCostModel, SimulatedCostModel
from .engine import ExecutionEngine
from .equivalence import (
    ExecutorRig,
    assert_equivalent_runs,
    assert_executor_matrix_equivalent,
    assert_executors_equivalent,
    canonical_run,
    compare_runs,
    run_executor_matrix,
    run_signature,
    stats_store_snapshot,
    store_snapshot,
)
from .executors import (
    EXECUTOR_NAMES,
    DistributedExecutor,
    Executor,
    InlineExecutor,
    ThreadExecutor,
    WorkerServer,
    create_executor,
    default_max_workers,
    default_process_workers,
    parse_worker_address,
)
from .tracker import MemoryTracker, RunStats

__all__ = [
    "CacheEntry",
    "OperatorCache",
    "ClusterModel",
    "CostModel",
    "MeasuredCostModel",
    "SimulatedCostModel",
    "ExecutionEngine",
    "Executor",
    "InlineExecutor",
    "ThreadExecutor",
    "DistributedExecutor",
    "WorkerServer",
    "EXECUTOR_NAMES",
    "create_executor",
    "parse_worker_address",
    "default_max_workers",
    "default_process_workers",
    "MemoryTracker",
    "RunStats",
    "assert_equivalent_runs",
    "canonical_run",
    "compare_runs",
    "run_signature",
    "stats_store_snapshot",
    "store_snapshot",
    "ExecutorRig",
    "run_executor_matrix",
    "assert_executor_matrix_equivalent",
    "assert_executors_equivalent",
]
