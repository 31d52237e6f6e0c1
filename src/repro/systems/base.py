"""System interface: how the compared systems execute workflow iterations.

The evaluation compares Helix (with three materialization policies) against
re-implementations of KeystoneML's and DeepDive's reuse behaviour on the same
execution substrate, so that measured differences reflect the reuse policies
rather than unrelated engineering differences.  Every system implements
:meth:`System.run_iteration`, which takes the workflow for the current
iteration and returns the :class:`~repro.execution.tracker.RunStats` observed
while executing it.

All systems share the same execution substrate, so executor selection is a
system-level toggle (:meth:`System.configure_executor`): the reuse policies
stay untouched and only the task-dispatch strategy underneath them changes —
``"inline"`` (reference), ``"thread"`` (latency-bound parallelism) or
``"distributed"`` (CPU-bound parallelism: worker processes reached over
sockets).

Executor ownership (also documented in ``docs/executors.md``): a name
passed to :meth:`System.configure_executor` is built once into
:attr:`System.executor`, which the system owns — every lifecycle iteration
runs on it (engines only drain it between runs), and the system runs its
``shutdown`` in :meth:`System.close_executor`, on reconfiguration, and when
a ``with system: ...`` block exits.  A ready :class:`Executor` *instance*
passed instead stays caller-owned: the system never shuts it down.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Optional, Sequence

from ..core.workflow import Workflow
from ..exceptions import ExecutionError
from ..execution.executors import Executor, create_executor
from ..execution.tracker import RunStats

__all__ = ["System"]


class System(ABC):
    """A workflow-execution system participating in the comparison."""

    #: Display name used in benchmark output.
    name: str = "system"

    #: The executor every iteration runs on (set by
    #: :meth:`configure_executor`, which every system's constructor calls).
    executor: Executor

    #: Worker count the executor was built with (None = library default).
    max_workers: Optional[int] = None

    #: Remote worker addresses ("host:port") for the distributed executor's
    #: address-configured mode (None = spawn workers locally).
    workers: Optional[Sequence[str]] = None

    #: Whether this system built :attr:`executor` from a name and so runs
    #: its ``shutdown`` (False for a caller-supplied instance).
    _owns_executor: bool = False

    # ------------------------------------------------------------------ executor selection
    def configure_executor(
        self,
        executor: str | Executor = "inline",
        max_workers: Optional[int] = None,
        workers: Optional[Sequence[str]] = None,
    ) -> "System":
        """Select the executor used by :meth:`run_iteration`.

        Parameters
        ----------
        executor:
            An executor name (``"inline"``, ``"thread"``,
            ``"distributed"``) or a ready :class:`Executor` instance.
        max_workers:
            Worker count for pool-backed strategies; ``None`` uses the
            library default.  Rejected when ``executor`` is an instance
            (the instance already carries its own worker count).
        workers:
            Remote worker addresses (``"host:port"``) for the distributed
            executor's address-configured mode (pre-started ``python -m
            repro.execution.worker`` processes).  Only valid with
            ``executor="distributed"``; rejected for other names and for
            instances.

        Returns
        -------
        ``self``, for chaining.

        Raises
        ------
        ExecutionError
            On an unknown executor name or worker address, when
            ``max_workers``/``workers`` is combined with an executor
            instance, or when ``workers`` is combined with a
            non-distributed name.

        A name is built into :attr:`executor` here, and this system owns it:
        every iteration reuses it, and :meth:`close_executor` shuts it down.
        Repeating the identical name, ``max_workers`` and ``workers`` is a
        no-op that keeps its pools warm.  A ready instance stays with the
        caller, who runs the final ``executor.shutdown()``.  Reconfiguring
        always closes a previously-owned executor first.
        """
        if isinstance(executor, Executor):
            if max_workers is not None:
                raise ExecutionError(
                    "max_workers cannot be combined with an executor instance; "
                    "configure the instance's own max_workers instead"
                )
            if workers is not None:
                raise ExecutionError(
                    "workers cannot be combined with an executor instance; "
                    "configure the instance's own workers instead"
                )
            owned = False
        else:
            if (
                self._owns_executor
                and executor == self.executor.name
                and max_workers == self.max_workers
                and self._same_workers(workers)
            ):
                return self  # no-op: keep the owned pools warm across calls
            executor = create_executor(executor, max_workers=max_workers, workers=workers)
            owned = True
        self.close_executor()
        self.executor = executor
        self._owns_executor = owned
        self.max_workers = max_workers
        self.workers = list(workers) if workers is not None else None
        return self

    def _same_workers(self, workers: Optional[Sequence[str]]) -> bool:
        left = list(self.workers) if self.workers is not None else None
        right = list(workers) if workers is not None else None
        return left == right

    def close_executor(self) -> "System":
        """Shut down the executor this system built from a name.

        A caller-supplied :class:`Executor` instance is never closed here.
        The system stays usable: its next iteration starts the executor's
        pools again.  Safe to call repeatedly; returns ``self``.
        """
        if self._owns_executor:
            self.executor.shutdown()
        return self

    def __enter__(self) -> "System":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close_executor()

    @abstractmethod
    def run_iteration(
        self,
        workflow: Workflow,
        iteration: int,
        iteration_type: str = "",
    ) -> RunStats:
        """Execute one iteration of the workflow and return its statistics."""

    @abstractmethod
    def reset(self) -> None:
        """Discard all cross-iteration state (stores, statistics, signatures)."""

    def supports(self, workload_name: str) -> bool:
        """Whether the system supports a workload (Table 2 support matrix)."""
        del workload_name
        return True

    def storage_bytes(self) -> int:
        """Bytes of intermediate results currently persisted by the system."""
        return 0
