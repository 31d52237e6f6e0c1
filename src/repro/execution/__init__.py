"""Execution engine, executor strategies, caches, cost models and run statistics.

The engine (:class:`ExecutionEngine`) owns the lifecycle — scheduling,
cache/scope refcounting, deterministic retirement commits, stats — and
delegates task dispatch to a pluggable :class:`Executor` strategy:
``"inline"`` (reference), ``"thread"`` (latency-bound parallelism),
``"process"`` (CPU-bound parallelism across the GIL) or ``"distributed"``
(multi-worker dispatch over TCP sockets).  The strategy contract is
documented in ``docs/executors.md``.
"""

from .cache import CacheEntry, EagerCache, LRUCache, OperatorCache
from .clock import ClusterModel, CostModel, MeasuredCostModel, SimulatedCostModel
from .engine import ExecutionEngine, create_engine
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
    ProcessExecutor,
    ThreadExecutor,
    WorkerServer,
    create_executor,
    default_max_workers,
    default_process_workers,
    parse_worker_address,
    resolve_executor_name,
)
from .tracker import MemoryTracker, RunStats

__all__ = [
    "CacheEntry",
    "EagerCache",
    "LRUCache",
    "OperatorCache",
    "ClusterModel",
    "CostModel",
    "MeasuredCostModel",
    "SimulatedCostModel",
    "ExecutionEngine",
    "create_engine",
    "Executor",
    "InlineExecutor",
    "ThreadExecutor",
    "ProcessExecutor",
    "DistributedExecutor",
    "WorkerServer",
    "EXECUTOR_NAMES",
    "create_executor",
    "resolve_executor_name",
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
