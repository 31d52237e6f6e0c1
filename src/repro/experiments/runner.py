"""Experiment runner: drive a system through a multi-iteration workflow lifecycle.

The runner reproduces the experimental procedure of Section 6.3: starting
from the initial workflow configuration, it samples a deterministic sequence
of iteration types from the workload's domain frequencies, applies one
modification per iteration, rebuilds the workflow, hands it to the system
under test, and records the per-iteration :class:`RunStats`.  The resulting
:class:`LifecycleResult` exposes the derived series the figures need
(cumulative run time, storage, memory, state fractions).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence

import numpy as np

from ..exceptions import ExecutionError
from ..execution.tracker import RunStats
from ..systems.base import System
from ..workloads.base import Workload, get_workload
from ..workloads.iterations import IterationSpec, build_iteration_plan

__all__ = ["LifecycleResult", "run_lifecycle", "run_comparison"]


@dataclass
class LifecycleResult:
    """All statistics collected while running one system over one lifecycle."""

    system_name: str
    workload_name: str
    iterations: List[RunStats] = field(default_factory=list)
    plan: List[IterationSpec] = field(default_factory=list)

    # ------------------------------------------------------------------ series
    @property
    def num_iterations(self) -> int:
        return len(self.iterations)

    def iteration_times(self) -> List[float]:
        """Per-iteration total run time (execution + materialization)."""
        return [stats.total_time for stats in self.iterations]

    def cumulative_times(self) -> List[float]:
        """Cumulative run time after each iteration (the Figure 5 series)."""
        return list(np.cumsum(self.iteration_times()))

    def total_time(self) -> float:
        return float(sum(self.iteration_times()))

    def storage_series(self) -> List[int]:
        """Storage snapshot at the end of each iteration (Figure 9c/d)."""
        return [stats.storage_bytes for stats in self.iterations]

    def memory_series(self) -> List[Dict[str, float]]:
        """Peak and average memory per iteration (Figure 10)."""
        return [
            {"peak": float(stats.peak_memory_bytes), "average": float(stats.average_memory_bytes)}
            for stats in self.iterations
        ]

    def state_fraction_series(self) -> List[Dict[str, float]]:
        """Fraction of nodes in Sp / Sl / Sc per iteration (Figure 8)."""
        return [stats.state_fractions() for stats in self.iterations]

    def component_breakdowns(self) -> List[Dict[str, float]]:
        """Per-iteration run time broken down by component (Figure 6)."""
        return [stats.component_breakdown() for stats in self.iterations]

    def iteration_types(self) -> List[str]:
        return [spec.kind for spec in self.plan]

    def summary(self) -> Dict[str, Any]:
        return {
            "system": self.system_name,
            "workload": self.workload_name,
            "iterations": self.num_iterations,
            "cumulative_time": self.total_time(),
            "final_storage_bytes": self.storage_series()[-1] if self.iterations else 0,
        }


def run_lifecycle(
    system: System,
    workload: Workload | str,
    n_iterations: int = 0,
    seed: int = 7,
    scale: float = 1.0,
    reset: bool = True,
    plan: Optional[Sequence[IterationSpec]] = None,
    executor: Optional[str] = None,
    max_workers: Optional[int] = None,
    workers: Optional[Sequence[str]] = None,
    on_iteration: Optional[Callable[[IterationSpec, RunStats], None]] = None,
) -> LifecycleResult:
    """Run ``system`` through a full iterative lifecycle of ``workload``.

    Parameters
    ----------
    n_iterations:
        Total number of iterations including the initial run; 0 means the
        paper's default for the workload's domain.
    seed:
        Seed for both the iteration plan and the modification choices, so
        that every system sees the same sequence of changes.
    scale:
        Dataset scale factor (1.0 = default size, 10.0 = the 10x experiment).
    plan:
        Explicit iteration plan; overrides sampling when provided.
    executor:
        When given, reconfigure the system to run iterations on this
        executor strategy (``"inline"``, ``"thread"`` or
        ``"distributed"``); ``None`` keeps the system's current
        configuration.  The system builds the executor once, runs every
        iteration of the lifecycle on it, and owns its close
        (``system.close_executor()`` or ``with system: ...``; see
        ``docs/executors.md``).
    max_workers:
        Worker count for pool-backed executors (only used with
        ``executor``).
    workers:
        Remote worker addresses (``"host:port"``) for the distributed
        executor's address-configured mode — pre-started ``python -m
        repro.execution.worker`` processes the coordinator connects to
        instead of spawning local workers.  Only valid with
        ``executor="distributed"``.
    on_iteration:
        Invoked as ``on_iteration(spec, stats)`` after each iteration
        completes — the ``repro serve`` daemon uses it to stream run
        progress to submitters while the lifecycle is still executing.
        Exceptions it raises abort the lifecycle.

    Returns
    -------
    A :class:`LifecycleResult` with one :class:`RunStats` per iteration and
    the derived series the figures need.

    Raises
    ------
    ExecutionError
        On an unknown executor name, invalid worker count or worker
        address, or ``workers`` combined with a non-distributed executor.
    """
    if isinstance(workload, str):
        workload = get_workload(workload)
    if workers is not None and executor is None:
        # Without this the addresses would be silently dropped and the
        # lifecycle would run on the system's existing configuration.
        raise ExecutionError(
            'workers=["host:port", ...] requires executor="distributed" '
            "in the same call"
        )
    if executor is not None:
        system.configure_executor(executor, max_workers, workers=workers)
    if reset:
        system.reset()
    resolved_plan = list(plan) if plan is not None else build_iteration_plan(
        workload.domain, n_iterations, seed=seed
    )
    rng = np.random.default_rng(seed + 1)
    config = workload.initial_config(scale=scale, seed=seed)
    result = LifecycleResult(
        system_name=system.name, workload_name=workload.name, plan=resolved_plan
    )
    for spec in resolved_plan:
        config = workload.apply_iteration(config, spec, rng)
        wf = workload.build(config)
        stats = system.run_iteration(wf, iteration=spec.index, iteration_type=spec.kind)
        stats.workflow_name = workload.name
        result.iterations.append(stats)
        if on_iteration is not None:
            on_iteration(spec, stats)
    return result


def run_comparison(
    systems: Sequence[System],
    workload: Workload | str,
    n_iterations: int = 0,
    seed: int = 7,
    scale: float = 1.0,
    skip_unsupported: bool = True,
    executor: Optional[str] = None,
    max_workers: Optional[int] = None,
    workers: Optional[Sequence[str]] = None,
) -> Dict[str, LifecycleResult]:
    """Run several systems over the identical lifecycle and return results by name.

    ``executor``/``max_workers``/``workers`` reconfigure every system's
    executor strategy for the comparison; ``None`` keeps each system's own
    configuration.
    Address-configured remote workers (``workers``) serve one coordinator
    session at a time, so when addresses are given each system's owned
    coordinator session is closed as soon as its lifecycle ends — the next
    system can then connect to the same workers.

    Pool ownership: an executor name gives **each** system an owned
    executor whose pools stay warm after this call returns — release them
    with ``system.close_executor()`` per system (or run each inside
    ``with system: ...``) once you are done comparing; see
    ``docs/executors.md``.  Distributed workers are daemon processes and die
    with the interpreter; warm thread pools are joined at interpreter exit,
    so skipping the close delays exit rather than leaking.
    """
    if isinstance(workload, str):
        workload = get_workload(workload)
    plan = build_iteration_plan(workload.domain, n_iterations, seed=seed)
    results: Dict[str, LifecycleResult] = {}
    for system in systems:
        if skip_unsupported and not system.supports(workload.name):
            continue
        try:
            results[system.name] = run_lifecycle(
                system,
                workload,
                n_iterations=n_iterations,
                seed=seed,
                scale=scale,
                plan=plan,
                executor=executor,
                max_workers=max_workers,
                workers=workers,
            )
        finally:
            if workers is not None:
                # A listening remote worker serves one coordinator at a
                # time: release this system's session — even when the
                # lifecycle failed — so the next system (or a retry) can
                # connect to the same addresses.
                system.close_executor()
    return results
