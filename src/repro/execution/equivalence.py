"""Engine-equivalence harness: compare runs across executor strategies.

The execution engine's contract is that every executor strategy (inline,
thread, distributed) produces the same
:class:`~repro.execution.tracker.RunStats` — outputs, node states, charged
times under a deterministic cost model, materialization decisions,
materialized-node sets and recorded statistics — with only wall-clock and
memory-residency free to differ.  This module turns that contract into
checkable artifacts:

* :func:`canonical_run` — a JSON-serializable canonical form of a
  :class:`RunStats`, with outputs reduced to content digests and the
  timing-dependent fields optional.
* :func:`run_signature` — a SHA-256 over the canonical form; two runs with
  equal signatures are byte-identical under the chosen comparison.  Used by
  the determinism tests (repeated runs at different ``max_workers`` and on
  different executors must produce identical signatures).
* :func:`compare_runs` / :func:`assert_equivalent_runs` — field-by-field
  comparison with readable mismatch reports, used by the equivalence suite
  over randomly generated DAGs.
* :func:`stats_store_snapshot` / :func:`store_snapshot` — canonical views of
  the cross-iteration :class:`StatsStore` and the
  :class:`MaterializationStore` catalog, so tests can also assert that two
  engines leave identical *persistent* state behind.
* :class:`ExecutorRig`, :func:`run_executor_matrix`,
  :func:`assert_executors_equivalent` — a ready-made driver that runs the
  canonical two-iteration lifecycle (compute-everything, then a mixed
  LOAD/COMPUTE/PRUNE re-plan) on every executor strategy and asserts the
  full matrix is equivalent to the inline reference, persistent state
  included.

Memory statistics (``peak_memory_bytes`` / ``average_memory_bytes``) are
intentionally excluded: concurrent executors legitimately hold more values
in memory at once, so residency profiles differ between strategies and
worker counts.

Exact *serialized* artifact sizes (``storage_bytes``) participate
unconditionally, and the comparison is exact equality.  Artifacts are
serialized with the canonical encoding of :mod:`repro.storage.canonical`
— deterministic bytes for a given value, in every process — so a value
that crossed a process or distributed boundary serializes to exactly the
bytes its in-process twin does.  (Under plain pickle this was not true:
pickle memoizes shared sub-objects by identity, so sizes drifted a few
bytes across process boundaries and this harness had to offer
``include_storage=False`` tolerances.  Those knobs are gone; a size
mismatch now always means a real divergence.)
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from ..core.operators import RunContext
from ..core.signatures import compute_node_signatures
from ..optimizer.metrics import StatsStore
from ..optimizer.oep import ExecutionPlan, solve_oep
from ..optimizer.omp import MaterializationPolicy, StreamingMaterializationPolicy
from ..storage.serialization import serialize
from ..storage.store import InMemoryStore, MaterializationStore
from .clock import SimulatedCostModel
from .engine import ExecutionEngine
from .executors import EXECUTOR_NAMES, Executor, create_executor
from .tracker import RunStats

__all__ = [
    "canonical_run",
    "canonical_lifecycle",
    "run_signature",
    "compare_runs",
    "assert_equivalent_runs",
    "stats_store_snapshot",
    "store_snapshot",
    "ExecutorRig",
    "MatrixColumn",
    "run_executor_matrix",
    "assert_executor_matrix_equivalent",
    "assert_executors_equivalent",
]


def _digest(value: Any) -> str:
    """Content digest of an arbitrary operator output."""
    return hashlib.sha256(serialize(value)).hexdigest()


def _float_token(value: float) -> str:
    """Full-precision, reproducible representation of a float."""
    return repr(float(value))


def canonical_run(stats: RunStats, include_times: bool = True) -> Dict[str, Any]:
    """A canonical, JSON-serializable view of one iteration's run statistics.

    ``include_times`` controls whether charged times (node, component,
    materialization) and the decision thresholds participate.  Set it to
    ``False`` when comparing runs executed under a wall-clock cost model,
    where charged times are legitimately noisy.  The exact serialized store
    size (``storage_bytes``) always participates: canonical serialization
    makes it bit-identical across process boundaries (module docstring).
    """
    canonical: Dict[str, Any] = {
        "workflow": stats.workflow_name,
        "iteration": stats.iteration,
        "node_states": {name: state.value for name, state in sorted(stats.node_states.items())},
        "node_sizes": {name: int(size) for name, size in sorted(stats.node_sizes.items())},
        "executed_nodes": list(stats.node_times.keys()),
        "outputs": {name: _digest(value) for name, value in sorted(stats.outputs.items())},
        "original_nodes": list(stats.original_nodes),
        "materialized_nodes": list(stats.materialized_nodes),
        "decisions": [
            {"node": decision.node, "materialize": bool(decision.materialize)}
            for decision in stats.decisions
        ],
    }
    canonical["storage_bytes"] = int(stats.storage_bytes)
    if include_times:
        canonical["node_times"] = {
            name: _float_token(charged) for name, charged in sorted(stats.node_times.items())
        }
        canonical["component_times"] = {
            component: _float_token(seconds)
            for component, seconds in sorted(stats.component_times.items())
        }
        canonical["materialization_time"] = _float_token(stats.materialization_time)
        canonical["decision_details"] = [
            {
                "node": decision.node,
                "materialize": bool(decision.materialize),
                "reason": decision.reason,
                "cumulative_time": _float_token(decision.cumulative_time),
                "load_estimate": _float_token(decision.load_estimate),
            }
            for decision in stats.decisions
        ]
    return canonical


def run_signature(stats: RunStats, include_times: bool = True) -> str:
    """SHA-256 signature of :func:`canonical_run` (byte-identical comparison)."""
    payload = json.dumps(canonical_run(stats, include_times=include_times), sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()


def stats_store_snapshot(
    stats: StatsStore, include_times: bool = True
) -> Dict[str, Any]:
    """Canonical view of a :class:`StatsStore`'s per-signature metrics.

    Recorded byte sizes always participate: canonical serialization makes
    them deterministic across process boundaries (module docstring).
    """
    snapshot: Dict[str, Any] = {}
    for signature, metrics in stats.items():
        entry: Dict[str, Any] = {"observations": metrics.observations}
        entry["storage_bytes"] = metrics.storage_bytes
        if include_times:
            entry["compute_time"] = _float_token(metrics.compute_time)
            entry["load_time"] = _float_token(metrics.load_time)
        snapshot[signature] = entry
    return snapshot


def store_snapshot(store: MaterializationStore) -> Dict[str, Any]:
    """Canonical view of a materialization store's catalog (what is persisted).

    *Which* nodes are persisted, their exact serialized artifact sizes and
    their content digests all participate — canonical bytes are
    deterministic per value, so equal stores snapshot equal (module
    docstring).  Including the digest makes the check sensitive to the
    *path* bytes took into the store: a run whose workers resolved inputs
    via a coordinator fetch or a shared cache tier must leave
    byte-identical artifacts behind, not merely same-sized ones.
    """
    return {
        record.signature: {
            "node": record.node_name,
            "size_bytes": record.size_bytes,
            "digest": record.digest,
        }
        for record in store.artifacts()
    }


def compare_runs(
    reference: RunStats,
    candidate: RunStats,
    include_times: bool = True,
) -> List[str]:
    """Field-by-field comparison; returns human-readable mismatch descriptions."""
    mismatches: List[str] = []
    left = canonical_run(reference, include_times=include_times)
    right = canonical_run(candidate, include_times=include_times)
    for key in left:
        if left[key] != right[key]:
            mismatches.append(
                f"{key}: reference={_compact(left[key])} candidate={_compact(right[key])}"
            )
    return mismatches


def assert_equivalent_runs(
    reference: RunStats,
    candidate: RunStats,
    include_times: bool = True,
    reference_stats: Optional[StatsStore] = None,
    candidate_stats: Optional[StatsStore] = None,
    reference_store: Optional[MaterializationStore] = None,
    candidate_store: Optional[MaterializationStore] = None,
) -> None:
    """Assert two runs (and optionally their persistent state) are equivalent.

    Raises ``AssertionError`` listing every mismatching field — including
    exact storage byte counts, which canonical serialization keeps
    bit-identical across executor strategies.  Pass the engines'
    :class:`StatsStore` and :class:`MaterializationStore` instances to
    extend the check to cross-iteration state.
    """
    mismatches = compare_runs(reference, candidate, include_times=include_times)
    if reference_stats is not None and candidate_stats is not None:
        left = stats_store_snapshot(reference_stats, include_times=include_times)
        right = stats_store_snapshot(candidate_stats, include_times=include_times)
        if left != right:
            mismatches.append(f"stats_store: reference={_compact(left)} candidate={_compact(right)}")
    if reference_store is not None and candidate_store is not None:
        left = store_snapshot(reference_store)
        right = store_snapshot(candidate_store)
        if left != right:
            mismatches.append(f"materialization_store: reference={_compact(left)} candidate={_compact(right)}")
    if mismatches:
        raise AssertionError(
            "engine runs are not equivalent:\n  " + "\n  ".join(mismatches)
        )


def canonical_lifecycle(
    iterations: Sequence[RunStats],
    include_times: bool = False,
) -> List[Dict[str, Any]]:
    """Canonical views of a whole lifecycle's per-iteration statistics.

    One :func:`canonical_run` dict per iteration, in order.  This is the
    payload the ``repro serve`` daemon returns for a submitted run and what
    its inline-verification compares against: with the default (times
    excluded) two lifecycles are equal exactly when they executed the same
    nodes into the same states with identical outputs, materialization
    decisions *and* exact storage byte counts — canonical serialization
    makes the sizes deterministic, so a served run matches its inline
    reference bit-for-bit, "identical modulo timing/memory".  The output
    is JSON-serializable (operator outputs are content digests).
    """
    return [canonical_run(stats, include_times=include_times) for stats in iterations]


def _compact(value: Any, limit: int = 300) -> str:
    text = json.dumps(value, sort_keys=True, default=str)
    return text if len(text) <= limit else text[: limit - 3] + "..."


# ---------------------------------------------------------------------------
# Executor-matrix driver
# ---------------------------------------------------------------------------
_INF = float("inf")

#: One rig's two-iteration record: (plan0, stats0, plan1, stats1).
MatrixRun = Tuple[ExecutionPlan, RunStats, ExecutionPlan, RunStats]


class ExecutorRig:
    """One executor strategy with its own store/stats, driven through plan+execute.

    The rig owns a fresh :class:`InMemoryStore` and :class:`StatsStore` and a
    deterministic :class:`SimulatedCostModel`, so charged times are
    comparable bit-for-bit across strategies.

    Parameters
    ----------
    executor:
        An executor name (``"inline"``/``"thread"``/``"distributed"``) or a ready :class:`Executor` instance — e.g. a
        ``DistributedExecutor(workers=[...])`` connected to remote
        workers.  A name is built once, serves every :meth:`run`, and is
        shut down by :meth:`close` (or on leaving ``with rig:``); an
        instance stays with its caller, who runs the final ``shutdown()``.
    policy:
        Materialization policy (default: streaming OPT-MAT-PLAN).
    budget_bytes:
        Storage budget for the rig's in-memory store (``None`` = unlimited).
    max_workers:
        Worker count for a name-built executor (ignored for a ready
        instance, which already carries its own).
    seed:
        Seed for the rig's :class:`RunContext`.
    """

    def __init__(
        self,
        executor: Union[str, Executor] = "inline",
        policy: Optional[MaterializationPolicy] = None,
        budget_bytes: Optional[int] = None,
        max_workers: Optional[int] = None,
        seed: int = 0,
    ):
        self._owns_executor = not isinstance(executor, Executor)
        if self._owns_executor:
            executor = create_executor(executor, max_workers=max_workers)
        self.store = InMemoryStore(budget_bytes=budget_bytes)
        self.stats_store = StatsStore()
        self.engine = ExecutionEngine(
            store=self.store,
            policy=policy if policy is not None else StreamingMaterializationPolicy(),
            cost_model=SimulatedCostModel(),
            stats=self.stats_store,
            context=RunContext(seed=seed),
            executor=executor,
        )

    def close(self) -> None:
        """Shut down the executor this rig built from a name (not an instance)."""
        if self._owns_executor:
            self.engine.executor.shutdown()

    def __enter__(self) -> "ExecutorRig":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def run(
        self,
        dag,
        signatures: Optional[Dict[str, str]] = None,
        forced: Sequence[str] = (),
        iteration: int = 0,
    ) -> Tuple[ExecutionPlan, RunStats]:
        """Solve an OEP plan (loads allowed where the store has artifacts) and execute it."""
        if signatures is None:
            signatures = compute_node_signatures(dag)
        compute_time = {name: 1.0 for name in dag.node_names}
        load_time = {
            name: (0.01 if self.store.has(signatures[name]) else _INF)
            for name in dag.node_names
        }
        plan = solve_oep(dag, compute_time, load_time, forced_compute=forced)
        return plan, self.engine.execute(dag, plan, signatures, iteration=iteration)


#: One matrix column: a canonical executor name, or an explicit
#: ``(label, executor)`` pair — e.g. ``("distributed-remote",
#: DistributedExecutor(workers=[...]))`` — keyed by its label in the
#: returned dictionaries.
MatrixColumn = Union[str, Tuple[str, Union[str, Executor]]]


def _resolve_column(column: MatrixColumn) -> Tuple[str, Union[str, Executor]]:
    """Split a matrix column into its result key and its executor spec."""
    if isinstance(column, tuple):
        label, spec = column
        return label, spec
    return column, column


def run_executor_matrix(
    dag,
    executors: Sequence[MatrixColumn] = EXECUTOR_NAMES,
    policy_factory=StreamingMaterializationPolicy,
    budget_bytes: Optional[int] = None,
    max_workers: int = 4,
    forced_second: Optional[Sequence[str]] = None,
) -> Tuple[Dict[str, ExecutorRig], Dict[str, MatrixRun]]:
    """Drive every executor through the canonical two-iteration lifecycle.

    Iteration 0 computes everything (and materializes per policy); iteration
    1 re-plans against the now-populated store with a deterministic forced
    subset, producing a LOAD/COMPUTE/PRUNE mix.  ``executors`` entries are
    canonical names or ``(label, executor)`` pairs (see
    :data:`MatrixColumn`).  Each column's rig builds a named executor once,
    runs both iterations on it and shuts it down before the next column
    starts; a ready :class:`Executor` instance — e.g. an address-configured
    distributed executor — stays caller-owned (the rigs drain it, the
    caller shuts it down).  Returns the rigs and the per-executor
    :data:`MatrixRun` records, keyed by name/label.
    """
    signatures = compute_node_signatures(dag)
    if forced_second is None:
        forced_second = sorted(dag.node_names)[:: max(1, len(dag) // 3)]
    rigs: Dict[str, ExecutorRig] = {}
    runs: Dict[str, MatrixRun] = {}
    for column in executors:
        label, spec = _resolve_column(column)
        with ExecutorRig(
            spec,
            policy=policy_factory(),
            budget_bytes=budget_bytes,
            max_workers=max_workers,
        ) as rig:
            plan0, stats0 = rig.run(dag, signatures, forced=dag.node_names, iteration=0)
            plan1, stats1 = rig.run(dag, signatures, forced=forced_second, iteration=1)
        rigs[label] = rig
        runs[label] = (plan0, stats0, plan1, stats1)
    return rigs, runs


def assert_executor_matrix_equivalent(
    rigs: Dict[str, ExecutorRig],
    runs: Dict[str, MatrixRun],
    reference: Optional[str] = None,
    include_times: bool = True,
) -> None:
    """Assert every executor's runs + persistent state match the reference's.

    ``reference`` defaults to the first executor in ``runs`` (by convention
    the inline strategy).  ``include_times`` is forwarded to
    :func:`assert_equivalent_runs`; storage statistics always participate,
    compared with exact equality (module docstring).
    """
    names = list(runs)
    if reference is None:
        reference = names[0]
    ref_plan0, ref0, ref_plan1, ref1 = runs[reference]
    for name in names:
        if name == reference:
            continue
        plan0, stats0, plan1, stats1 = runs[name]
        if plan0.states != ref_plan0.states or plan1.states != ref_plan1.states:
            raise AssertionError(
                f"executor {name!r} solved different plans than {reference!r}"
            )
        assert_equivalent_runs(ref0, stats0, include_times=include_times)
        assert_equivalent_runs(
            ref1,
            stats1,
            include_times=include_times,
            reference_stats=rigs[reference].stats_store,
            candidate_stats=rigs[name].stats_store,
            reference_store=rigs[reference].store,
            candidate_store=rigs[name].store,
        )


def assert_executors_equivalent(
    dag,
    executors: Sequence[MatrixColumn] = EXECUTOR_NAMES,
    include_times: bool = True,
    **matrix_kwargs,
) -> Tuple[Dict[str, ExecutorRig], Dict[str, MatrixRun]]:
    """Run :func:`run_executor_matrix` and assert the whole matrix agrees.

    Parameters
    ----------
    dag:
        The workflow DAG to drive through the two-iteration lifecycle.
    executors:
        Matrix columns to compare — strategy names and/or ``(label,
        executor)`` pairs such as ``("distributed-remote",
        DistributedExecutor(workers=[...]))``; defaults to every built-in
        (:data:`EXECUTOR_NAMES` — inline, thread, distributed).
        The first entry is the reference.
    include_times:
        Forwarded to :func:`assert_equivalent_runs`.  Storage statistics
        always participate and are compared with exact equality — the
        canonical serializer makes byte counts deterministic across
        process boundaries (module docstring).
    **matrix_kwargs:
        Forwarded to :func:`run_executor_matrix` (``policy_factory``,
        ``budget_bytes``, ``max_workers``, ``forced_second``).

    Returns
    -------
    The ``(rigs, runs)`` pair from :func:`run_executor_matrix`, for further
    inspection.

    Raises
    ------
    AssertionError
        Listing every mismatching field of the first non-equivalent run.
    """
    rigs, runs = run_executor_matrix(dag, executors=executors, **matrix_kwargs)
    assert_executor_matrix_equivalent(rigs, runs, include_times=include_times)
    return rigs, runs
