"""Exception hierarchy for the Helix reproduction library.

All library-specific errors derive from :class:`HelixError` so that callers can
catch a single base class.  More specific subclasses are raised by the DSL
(:class:`WorkflowSpecError`), the compiler/DAG layer (:class:`DAGError`,
:class:`CycleError`), the optimizer (:class:`OptimizationError`), the execution
engine (:class:`ExecutionError`, :class:`OperatorError`), the distributed
executor transport (:class:`ProtocolError`) and the materialization store
(:class:`StorageError`, :class:`BudgetExceededError`).
"""

from __future__ import annotations


class HelixError(Exception):
    """Base class for all errors raised by the library."""


class WorkflowSpecError(HelixError):
    """Raised when a workflow declaration is malformed.

    Examples: referencing an undeclared name, redeclaring a name with a
    different operator, declaring an output that does not exist.
    """


class DAGError(HelixError):
    """Raised when the compiled Workflow DAG is structurally invalid."""


class CycleError(DAGError):
    """Raised when the declared dependencies contain a cycle."""


class OptimizationError(HelixError):
    """Raised when an optimizer is given inconsistent inputs.

    For instance, a node that is both forced to be recomputed (original) and
    has no parents available, or negative cost estimates.
    """


class ExecutionError(HelixError):
    """Raised when the execution engine cannot carry out the physical plan."""


class ProtocolError(ExecutionError):
    """Raised when an executor transport frame violates the wire format.

    Covers a bad magic prefix, a protocol-version mismatch between
    coordinator and worker, an oversized frame, and a connection that closed
    mid-frame.  A clean close *between* frames is not an error (the reader
    reports end-of-stream instead).
    """


class OperatorError(ExecutionError):
    """Raised when a single operator fails while running.

    The original exception is preserved as ``__cause__`` and the failing node
    name is stored on :attr:`node_name`.  ``__reduce__`` rebuilds an
    instance from its class and ``(node_name, message)`` — the form the
    canonical encoding uses — so a failure inside a
    worker surfaces in the coordinating process as the same typed error (the
    cause chain and traceback do not cross the process boundary).
    """

    def __init__(self, node_name: str, message: str):
        super().__init__(f"operator '{node_name}' failed: {message}")
        self.node_name = node_name
        self.message = message

    def __reduce__(self):
        return (type(self), (self.node_name, self.message))


class StorageError(HelixError):
    """Raised when the materialization store cannot read or write an artifact."""


class ArtifactNotFoundError(StorageError):
    """Raised when a load is requested for an artifact that was never stored."""


class BudgetExceededError(StorageError):
    """Raised when a write would exceed the configured storage budget."""
