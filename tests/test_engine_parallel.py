"""Engine-equivalence test harness: one lifecycle, three executor strategies.

The execution engine's contract (see ``repro/execution/engine.py``) is that
every executor strategy — inline, thread, distributed — produces
the same run statistics modulo timing and memory residency.  This suite pins
that contract down:

* **Equivalence over random DAGs** — all three executors execute identical
  plans over seeded random DAGs (varying width/depth, mixed
  LOAD/COMPUTE/PRUNE states across two iterations, all three materialization
  policies, tight storage budgets) and must produce identical outputs, node
  states, materialized-node sets, decisions, StatsStore contents and store
  catalogs.  The MNIST workflow joins them, so dense feature-vector columns
  cross every executor boundary too.
* **Determinism** — with the simulated cost model, repeated runs at
  different ``max_workers`` and on different executors produce byte-identical
  run signatures.
* **Crash paths** — a failing operator surfaces a single
  :class:`OperatorError` naming the node on every executor (including across
  the process boundary), cancels outstanding work, leaves the store's budget
  accounting consistent and the cache empty.
* **Process-safety guards** — the distributed executor rejects non-picklable
  operators (and ``supports_processes=False`` opt-outs) with a clear
  :class:`ExecutionError` naming the node, before any work is dispatched.
* **Missing-input regression** — ``_compute_node`` raises
  :class:`ExecutionError` when a declared parent is absent from the cache
  instead of silently running the operator with fewer inputs.
"""

from __future__ import annotations

import multiprocessing
import threading
import time
from typing import List

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dag import Node, WorkflowDAG
from repro.core.operators import Operator
from repro.core.signatures import compute_node_signatures
from repro.exceptions import ExecutionError, OperatorError
from repro.execution.cache import OperatorCache
from repro.execution.clock import SimulatedCostModel
from repro.execution.engine import ExecutionEngine
from repro.execution.equivalence import (
    ExecutorRig,
    assert_equivalent_runs,
    assert_executors_equivalent,
    run_executor_matrix,
    run_signature,
    stats_store_snapshot,
    store_snapshot,
)
from repro.execution.executors import EXECUTOR_NAMES, ThreadExecutor, create_executor
from repro.optimizer.metrics import StatsStore
from repro.optimizer.oep import ExecutionPlan, NodeState, solve_oep
from repro.optimizer.omp import (
    AlwaysMaterialize,
    NeverMaterialize,
    StreamingMaterializationPolicy,
)
from repro.storage.store import InMemoryStore
from repro.systems.helix import HelixSystem
from repro.workloads.base import get_workload
from repro.experiments.runner import run_lifecycle
from repro.workloads.synthetic import (
    LatencyOperator,
    make_cpu_dag,
    make_random_dag,
    make_wide_dag,
)

from conftest import FailingOperator, OptedOutOperator, UnpicklableOperator

INF = float("inf")

POLICIES = {
    "never": NeverMaterialize,
    "always": AlwaysMaterialize,
    "streaming": StreamingMaterializationPolicy,
}

#: Pool-backed executors (dispatch crosses a thread, or a socket and a
#: process boundary).
POOLED_EXECUTORS = ("thread", "distributed")


# ---------------------------------------------------------------------------
# Equivalence over random and structured DAGs (all three executors)
# ---------------------------------------------------------------------------
class TestExecutorEquivalence:
    @pytest.mark.parametrize("policy_name", sorted(POLICIES))
    @pytest.mark.parametrize("seed", range(6))
    def test_random_dags_two_iterations(self, seed, policy_name):
        dag = make_random_dag(seed, max_width=4, max_depth=5)
        assert_executors_equivalent(dag, policy_factory=POLICIES[policy_name])

    @pytest.mark.parametrize("branches,depth", [(8, 1), (8, 3), (2, 6), (1, 1)])
    def test_wide_and_deep_dags(self, branches, depth):
        dag = make_wide_dag(branches=branches, depth=depth)
        assert_executors_equivalent(dag)

    def test_cpu_bound_dag(self):
        """The CPU-bound benchmark shape is equivalent across executors too."""
        dag = make_cpu_dag(branches=4, depth=2, spin=1_000)
        assert_executors_equivalent(dag)

    def test_mnist_dag_with_dense_feature_columns(self):
        """MNIST's dense feature-vector columns cross the process and socket
        boundaries as out-of-band array segments and are rebuilt (possibly
        read-only) on the workers; storage still matches inline exactly."""
        workload = get_workload("mnist")
        dag = workload.build(workload.initial_config(scale=0.2)).compile()
        assert_executors_equivalent(dag)

    def test_matrix_compares_storage_exactly(self):
        """The tolerance knobs are gone: storage stats always participate,
        and a run with divergent storage bytes must fail the harness."""
        from repro.execution.equivalence import run_executor_matrix
        from repro.execution.equivalence import (
            assert_executor_matrix_equivalent,
        )

        dag = make_wide_dag(branches=2, depth=1)
        rigs, runs = assert_executors_equivalent(dag)
        with pytest.raises(TypeError):
            assert_executors_equivalent(dag, include_storage=False)
        # Corrupt one candidate's storage statistic: exact comparison
        # must report the storage_bytes field by name.
        victim = next(name for name in runs if name != "inline")
        runs[victim][3].storage_bytes += 1
        with pytest.raises(AssertionError, match="storage_bytes"):
            assert_executor_matrix_equivalent(rigs, runs)

    def test_harness_catches_a_nondeterministic_encoder(self, monkeypatch):
        """Bit-equality is load-bearing: if the encoder ever stops being
        canonical (here: an injected encoder whose output grows with every
        call), two otherwise identical runs stop agreeing on serialized
        sizes and the harness must fail loudly instead of papering over it
        with a tolerance."""
        import repro.storage.store as store_module

        real_serialize = store_module.serialize
        real_deserialize = store_module.deserialize
        calls = {"count": 0}

        def drifting(value):
            calls["count"] += 1
            return real_serialize(("__drift__", "x" * calls["count"], value))

        def unwrapping(payload):
            value = real_deserialize(payload)
            if isinstance(value, tuple) and len(value) == 3 and value[0] == "__drift__":
                return value[2]
            return value

        monkeypatch.setattr(store_module, "serialize", drifting)
        monkeypatch.setattr(store_module, "deserialize", unwrapping)
        dag = make_wide_dag(branches=2, depth=1)
        signatures = compute_node_signatures(dag)
        reference = ExecutorRig("inline")
        candidate = ExecutorRig("inline")
        _, reference_stats = reference.run(dag, signatures, forced=dag.node_names)
        _, candidate_stats = candidate.run(dag, signatures, forced=dag.node_names)
        assert calls["count"] > 0  # the drifting encoder actually ran
        with pytest.raises(AssertionError, match="node_sizes|storage_bytes"):
            assert_equivalent_runs(
                reference_stats, candidate_stats, include_times=False
            )

    def test_second_iteration_has_mixed_states(self):
        """Sanity-check the harness itself: iteration 1 actually mixes states."""
        dag = make_wide_dag(branches=4, depth=2)
        _, runs = run_executor_matrix(dag, policy_factory=AlwaysMaterialize)
        for executor in EXECUTOR_NAMES:
            _, _, plan1, stats1 = runs[executor]
            states = set(plan1.states.values())
            assert NodeState.LOAD in states
            assert NodeState.COMPUTE in states
            assert stats1.nodes_in_state(NodeState.LOAD)

    @pytest.mark.parametrize("budget", [0, 400, 2000])
    def test_tight_budget_decision_sequences_match(self, budget):
        """Budget-exhaustion decisions depend on commit order; they must align."""
        dag = make_random_dag(3, max_width=4, max_depth=4)
        rigs, _ = assert_executors_equivalent(
            dag, policy_factory=AlwaysMaterialize, budget_bytes=budget
        )
        for rig in rigs.values():
            assert rig.store.total_bytes() <= budget if budget else True

    def test_outputs_equal_values_not_just_digests(self):
        dag = make_random_dag(7)
        _, runs = run_executor_matrix(dag, policy_factory=NeverMaterialize)
        _, inline0, _, _ = runs["inline"]
        for executor in POOLED_EXECUTORS:
            _, stats0, _, _ = runs[executor]
            assert stats0.outputs == inline0.outputs

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=15, deadline=None)
    def test_property_equivalence_on_arbitrary_seeds(self, seed):
        dag = make_random_dag(seed, max_width=3, max_depth=4)
        signatures = compute_node_signatures(dag)
        rigs = {
            "inline": ExecutorRig("inline"),
            "thread": ExecutorRig("thread", max_workers=8),
            "distributed": ExecutorRig("distributed", max_workers=2),
        }
        try:
            stats = {
                name: rig.run(dag, signatures, forced=dag.node_names)[1]
                for name, rig in rigs.items()
            }
        finally:
            for rig in rigs.values():
                rig.close()
        for name in POOLED_EXECUTORS:
            assert_equivalent_runs(
                stats["inline"],
                stats[name],
                reference_stats=rigs["inline"].stats_store,
                candidate_stats=rigs[name].stats_store,
                reference_store=rigs["inline"].store,
                candidate_store=rigs[name].store,
            )


# ---------------------------------------------------------------------------
# Determinism across worker counts, repeated runs and executors
# ---------------------------------------------------------------------------
class TestExecutorDeterminism:
    @pytest.mark.parametrize("seed", [0, 11, 42])
    def test_byte_identical_across_worker_counts(self, seed):
        """With a fixed cost model, workers 1/2/8 give byte-identical signatures."""
        dag = make_random_dag(seed, max_width=4, max_depth=5)
        signatures_by_workers = {}
        for workers in (1, 2, 8):
            dag_signatures = compute_node_signatures(dag)
            with ExecutorRig("thread", max_workers=workers) as rig:
                _, stats0 = rig.run(dag, dag_signatures, forced=dag.node_names, iteration=0)
                _, stats1 = rig.run(dag, dag_signatures, forced=(), iteration=1)
            signatures_by_workers[workers] = (
                run_signature(stats0, include_times=True),
                run_signature(stats1, include_times=True),
                stats_store_snapshot(rig.stats_store),
                store_snapshot(rig.store),
            )
        reference = signatures_by_workers[1]
        assert signatures_by_workers[2] == reference
        assert signatures_by_workers[8] == reference

    def test_repeated_runs_identical(self):
        dag = make_wide_dag(branches=6, depth=2)
        seen = set()
        for _ in range(3):
            with ExecutorRig("thread", policy=AlwaysMaterialize(), max_workers=8) as rig:
                _, stats = rig.run(dag, compute_node_signatures(dag), forced=dag.node_names)
            seen.add(run_signature(stats, include_times=True))
        assert len(seen) == 1

    @pytest.mark.parametrize("executor", POOLED_EXECUTORS)
    def test_matches_inline_signature_bit_for_bit(self, executor):
        dag = make_random_dag(5)
        signatures = compute_node_signatures(dag)
        _, inline_stats = ExecutorRig("inline").run(dag, signatures, forced=dag.node_names)
        with ExecutorRig(executor, max_workers=4) as pooled:
            _, pooled_stats = pooled.run(dag, signatures, forced=dag.node_names)
        assert run_signature(inline_stats) == run_signature(pooled_stats)


# ---------------------------------------------------------------------------
# Crash paths (thread and distributed executors)
# ---------------------------------------------------------------------------
class RecordingOperator(LatencyOperator):
    """LatencyOperator that records executions into a shared thread-safe log.

    The log lives in the pytest process: with the distributed executor,
    worker processes append to their *own* copy, so only in-process
    executions are observable here (which is what the cancellation test
    relies on).
    """

    _log: List[str] = []
    _log_lock = threading.Lock()

    def __init__(self, name: str, **kwargs):
        super().__init__(tag=name, **kwargs)
        self._name = name

    def run(self, inputs, context):
        with RecordingOperator._log_lock:
            RecordingOperator._log.append(self._name)
        return super().run(inputs, context)

    @classmethod
    def reset_log(cls) -> None:
        with cls._log_lock:
            cls._log = []

    @classmethod
    def executed(cls) -> List[str]:
        with cls._log_lock:
            return list(cls._log)


def _crash_dag(branches: int = 4, depth: int = 10, sleep_seconds: float = 0.005) -> WorkflowDAG:
    """A failing root plus several slow chains: plenty of outstanding work."""
    nodes = [Node.create("boom", FailingOperator(), is_output=True)]
    for branch in range(branches):
        previous = None
        for level in range(depth):
            name = f"c{branch}_n{level}"
            parents = [previous] if previous else []
            nodes.append(
                Node.create(
                    name,
                    RecordingOperator(name, offset=1.0, sleep_seconds=sleep_seconds),
                    parents=parents,
                    is_output=(level == depth - 1),
                )
            )
            previous = name
    return WorkflowDAG(nodes, name="crash")


def _all_compute_plan(dag: WorkflowDAG):
    return solve_oep(
        dag,
        {name: 1.0 for name in dag.node_names},
        {name: INF for name in dag.node_names},
        forced_compute=dag.node_names,
    )


class TestCrashPaths:
    def _run_crash(self, executor="thread", policy=None, budget=None, max_workers=4):
        RecordingOperator.reset_log()
        dag = _crash_dag()
        store = InMemoryStore(budget_bytes=budget)
        engine = ExecutionEngine(
            store=store,
            policy=policy if policy is not None else NeverMaterialize(),
            cost_model=SimulatedCostModel(),
            stats=StatsStore(),
            executor=create_executor(executor, max_workers=max_workers),
        )
        try:
            with pytest.raises(OperatorError) as excinfo:
                engine.execute(dag, _all_compute_plan(dag), compute_node_signatures(dag))
        finally:
            engine.executor.shutdown()
        return dag, store, engine, excinfo.value

    @pytest.mark.parametrize("executor", POOLED_EXECUTORS)
    def test_single_operator_error_names_failing_node(self, executor):
        dag, _, _, error = self._run_crash(executor)
        assert error.node_name == "boom"
        assert "boom" in str(error)

    def test_outstanding_work_is_cancelled(self):
        dag, _, _, _ = self._run_crash("thread")
        executed = RecordingOperator.executed()
        # The failure surfaces long before the 40 slow chain nodes finish:
        # not-yet-started futures are cancelled, so most nodes never ran.
        assert len(executed) < len(dag) - 1

    @pytest.mark.parametrize("executor", POOLED_EXECUTORS)
    def test_budget_accounting_consistent_after_failure(self, executor):
        budget = 10_000
        _, store, _, _ = self._run_crash(executor, policy=AlwaysMaterialize(), budget=budget)
        records = store.artifacts()
        assert store.total_bytes() == sum(record.size_bytes for record in records)
        assert store.total_bytes() <= budget
        assert store.remaining_budget() == budget - store.total_bytes()

    @pytest.mark.parametrize("executor", POOLED_EXECUTORS)
    def test_cache_cleared_after_failure(self, executor):
        _, _, engine, _ = self._run_crash(executor)
        assert len(engine.cache) == 0

    @pytest.mark.parametrize("executor", EXECUTOR_NAMES)
    def test_all_executors_raise_same_error_type(self, executor):
        dag = _crash_dag(branches=1, depth=1, sleep_seconds=0.0)
        with ExecutorRig(executor, policy=NeverMaterialize(), max_workers=2) as rig:
            with pytest.raises(OperatorError) as excinfo:
                rig.engine.execute(dag, _all_compute_plan(dag), compute_node_signatures(dag))
        assert excinfo.value.node_name == "boom"

    def test_executor_instance_reusable_after_failure(self):
        """A user-supplied executor instance serves a clean run after a crash.

        The failed run's in-flight tasks drain into the completion queue
        during finish_run; start() must discard them or the next run would pop
        stale completions for nodes of a different DAG.
        """
        executor = ThreadExecutor(max_workers=4)
        engine = ExecutionEngine(
            store=InMemoryStore(),
            cost_model=SimulatedCostModel(),
            executor=executor,
        )
        try:
            crash = _crash_dag()
            with pytest.raises(OperatorError):
                engine.execute(crash, _all_compute_plan(crash), compute_node_signatures(crash))
            dag = make_wide_dag(branches=3, depth=2)
            stats = engine.execute(dag, _all_compute_plan(dag), compute_node_signatures(dag))
            assert set(stats.node_times) == set(dag.node_names)
        finally:
            executor.shutdown()

    def test_operator_error_survives_pickling(self):
        import pickle

        error = OperatorError("boom", "intentional failure")
        clone = pickle.loads(pickle.dumps(error))
        assert isinstance(clone, OperatorError)
        assert clone.node_name == "boom"
        assert str(clone) == str(error)


# ---------------------------------------------------------------------------
# Process-safety guards
# ---------------------------------------------------------------------------
class UnpicklableResultOperator(Operator):
    """Picklable operator whose *result* cannot cross the process boundary."""

    def config(self):
        return {}

    def run(self, inputs, context):
        return lambda: None


class TestProcessSafetyGuards:
    def _execute(self, dag):
        with ExecutorRig("distributed", max_workers=2) as rig:
            return rig.engine.execute(
                dag, _all_compute_plan(dag), compute_node_signatures(dag)
            )

    def test_non_picklable_operator_rejected_naming_node(self):
        dag = WorkflowDAG([Node.create("closure_node", UnpicklableOperator(), is_output=True)])
        with pytest.raises(ExecutionError, match="closure_node.*not encodable"):
            self._execute(dag)

    def test_supports_processes_false_rejected(self):
        dag = WorkflowDAG([Node.create("opted_out", OptedOutOperator(), is_output=True)])
        with pytest.raises(ExecutionError, match="opted_out.*supports_processes=False"):
            self._execute(dag)

    def test_validation_happens_before_any_work(self):
        """A non-picklable node anywhere fails fast: nothing executes at all."""
        RecordingOperator.reset_log()
        nodes = [
            Node.create("ok", RecordingOperator("ok", offset=1.0), is_output=True),
            Node.create("closure_node", UnpicklableOperator(), is_output=True),
        ]
        with pytest.raises(ExecutionError, match="closure_node"):
            self._execute(WorkflowDAG(nodes, name="mixed"))
        assert RecordingOperator.executed() == []

    def test_unpicklable_result_surfaces_operator_error(self):
        dag = WorkflowDAG(
            [Node.create("bad_result", UnpicklableResultOperator(), is_output=True)]
        )
        with pytest.raises(OperatorError, match="bad_result.*not encodable"):
            self._execute(dag)

    def test_loads_do_not_require_picklable_operators(self):
        """Only COMPUTE nodes ship to workers; LOAD nodes run in-process."""
        dag = WorkflowDAG(
            [
                Node.create("opted_out", OptedOutOperator()),
                Node.create(
                    "consumer",
                    LatencyOperator(offset=1.0),
                    parents=["opted_out"],
                    is_output=True,
                ),
            ]
        )
        signatures = compute_node_signatures(dag)
        with ExecutorRig("distributed", policy=AlwaysMaterialize(), max_workers=2) as rig:
            # Materialize via an inline engine into the same store, then
            # re-plan with only the consumer forced: the engine LOADs
            # the opted-out node (in-process) and only ships the consumer.
            inline = ExecutionEngine(
                store=rig.store,
                policy=AlwaysMaterialize(),
                cost_model=SimulatedCostModel(),
                stats=rig.stats_store,
            )
            inline.execute(dag, _all_compute_plan(dag), signatures)
            plan, stats = rig.run(dag, signatures, forced=["consumer"])
        assert plan.states["opted_out"] is NodeState.LOAD
        assert plan.states["consumer"] is NodeState.COMPUTE
        assert stats.outputs["consumer"] == 2.0


# ---------------------------------------------------------------------------
# Definition 6 reads only completed ancestors
# ---------------------------------------------------------------------------
def _load_under_pruned_parent_dag() -> WorkflowDAG:
    """``a`` (slow) -> ``p`` (pruned) -> ``l`` (loaded) -> ``c`` -> ``d``, plus ``a`` -> ``y``.

    ``l`` waits for no executing parent, so a concurrent executor finishes
    ``l``, ``c`` and ``d`` while ``a`` still sleeps.  ``a`` is an ancestor of
    ``c`` all the same, so ``C(c)`` includes ``a``'s charged second.
    """
    return WorkflowDAG(
        [
            Node.create("a", LatencyOperator(offset=1.0, sleep_seconds=0.3, cost=1.0)),
            Node.create("p", LatencyOperator(offset=2.0, cost=1.0), parents=["a"]),
            Node.create("l", LatencyOperator(offset=3.0, cost=1e-5), parents=["p"]),
            Node.create("c", LatencyOperator(offset=4.0, cost=1e-5), parents=["l"]),
            Node.create(
                "d", LatencyOperator(offset=5.0, cost=1e-5), parents=["c"], is_output=True
            ),
            Node.create(
                "y", LatencyOperator(offset=6.0, cost=1e-5), parents=["a"], is_output=True
            ),
        ],
        name="pruned-parent",
    )


class TestCumulativeTimeGate:
    @pytest.mark.parametrize("executor", ["inline", "thread", "distributed"])
    def test_retirement_waits_for_ancestors_behind_a_pruned_parent(self, executor):
        dag = _load_under_pruned_parent_dag()
        signatures = compute_node_signatures(dag)
        compute, load, prune = NodeState.COMPUTE, NodeState.LOAD, NodeState.PRUNE
        plan = ExecutionPlan(
            states={"a": compute, "p": prune, "l": load, "c": compute, "d": compute, "y": compute},
            estimated_time=0.0,
        )
        with ExecutorRig(executor, max_workers=2) as rig:
            rig.store.put("l", signatures["l"], 3.0)
            stats = rig.engine.execute(dag, plan, signatures)
        cumulative = {d.node: d.cumulative_time for d in stats.decisions}
        charged = stats.node_times
        assert cumulative["c"] == pytest.approx(charged["a"] + charged["l"] + charged["c"])
        assert "c" in stats.materialized_nodes
        assert sorted(stats.materialized_nodes) == ["a", "c", "d", "y"]
        assert rig.store.total_bytes() == 70


# ---------------------------------------------------------------------------
# Inline scheduling semantics
# ---------------------------------------------------------------------------
class TestInlineScheduling:
    def test_inline_executes_in_exact_topological_order(self):
        """The inline executor is the serial reference walk: one node at a
        time, in topological order, each cached and retired before the next
        runs — not a frontier computed eagerly at dispatch time."""
        RecordingOperator.reset_log()
        nodes = [Node.create("a", RecordingOperator("a", offset=1.0))]
        nodes += [
            Node.create(
                f"b{i}", RecordingOperator(f"b{i}", offset=1.0), parents=["a"], is_output=True
            )
            for i in range(5)
        ]
        dag = WorkflowDAG(nodes, name="fanout")
        rig = ExecutorRig("inline")
        rig.engine.execute(dag, _all_compute_plan(dag), compute_node_signatures(dag))
        assert RecordingOperator.executed() == list(dag.topological_order())

    def test_inline_peak_memory_bounded_by_retirement(self):
        """Independent leaves retire as they complete, so inline peak
        residency stays near two values, not the whole fan-out."""
        nodes = [Node.create("root", LatencyOperator(offset=1.0))]
        nodes += [
            Node.create(
                f"leaf{i}", LatencyOperator(offset=float(i)), parents=["root"], is_output=True
            )
            for i in range(8)
        ]
        dag = WorkflowDAG(nodes, name="fanout")
        rig = ExecutorRig("inline", policy=NeverMaterialize())
        _, stats = rig.run(dag, forced=dag.node_names)
        # root + at most one leaf resident at a time: each leaf is cached,
        # snapshotted and retired before the next leaf runs.
        assert stats.peak_memory_bytes <= max(stats.node_sizes.values()) * 3


# ---------------------------------------------------------------------------
# Executor selection plumbing (engines, systems, experiment runner)
# ---------------------------------------------------------------------------
class TestExecutorSelection:
    def test_create_executor_rejects_unknown_name(self):
        with pytest.raises(ExecutionError, match="unknown executor"):
            create_executor("gpu")

    def test_process_is_not_an_executor_name(self):
        """``"process"`` was deleted, not aliased to ``"distributed"``: it
        fails like any unknown name, and the error lists the three names."""
        assert EXECUTOR_NAMES == ("inline", "thread", "distributed")
        listed = r"\['inline', 'thread', 'distributed'\]"
        with pytest.raises(ExecutionError, match=f"unknown executor 'process'.*{listed}"):
            create_executor("process")
        with pytest.raises(ExecutionError, match=f"unknown executor 'process'.*{listed}"):
            HelixSystem.opt(executor="process")

    @pytest.mark.parametrize("executor", POOLED_EXECUTORS)
    def test_pool_executors_reject_bad_worker_count(self, executor):
        with pytest.raises(ExecutionError):
            create_executor(executor, max_workers=0)

    def test_system_rejects_worker_options_with_instance(self):
        # The instance's own worker count wins; a silently ignored
        # max_workers would undo a deliberate concurrency limit.
        system = HelixSystem.opt()
        with pytest.raises(ExecutionError, match="executor instance"):
            system.configure_executor(ThreadExecutor(max_workers=2), max_workers=4)
        with pytest.raises(ExecutionError, match="executor instance"):
            system.configure_executor(ThreadExecutor(max_workers=2), workers=["h:1"])

    def test_legacy_engine_names_are_rejected(self):
        """The old serial/parallel engine names are not executor aliases:
        they fail like any unknown name, and no entry point takes an
        ``engine=`` keyword."""
        for name in ("serial", "parallel"):
            with pytest.raises(ExecutionError, match="unknown executor"):
                create_executor(name)
            with pytest.raises(ExecutionError, match="unknown executor"):
                HelixSystem.opt().configure_executor(name)
        with pytest.raises(TypeError):
            HelixSystem.opt(engine="thread")

    @pytest.mark.parametrize("executor", EXECUTOR_NAMES)
    def test_system_constructor_accepts_executor(self, executor):
        system = HelixSystem.opt(executor=executor, max_workers=2)
        assert system.executor.name == executor
        assert system.max_workers == 2

    def test_run_lifecycle_engine_override_equivalent(self):
        inline = HelixSystem.opt(cost_model=SimulatedCostModel(), seed=0)
        reference = run_lifecycle(inline, "census", n_iterations=2)
        with HelixSystem.opt(cost_model=SimulatedCostModel(), seed=0) as threaded:
            candidate = run_lifecycle(
                threaded, "census", n_iterations=2, executor="thread", max_workers=4
            )
            assert threaded.executor.name == "thread"
        for expected, actual in zip(reference.iterations, candidate.iterations):
            assert_equivalent_runs(expected, actual)

    def test_run_lifecycle_executor_override(self):
        with HelixSystem.opt(cost_model=SimulatedCostModel(), seed=0) as system:
            run_lifecycle(system, "census", n_iterations=1, executor="thread", max_workers=2)
            assert system.executor.name == "thread"


# ---------------------------------------------------------------------------
# Executor ownership: engines run what they are given, builders shut it down
# ---------------------------------------------------------------------------
def _leftovers(threads_before, children_before, grace: float = 5.0):
    """``repro-*`` threads and child processes started since the snapshot
    that are still alive after ``grace`` seconds (socket reader threads exit
    shortly after their socket closes)."""
    deadline = time.monotonic() + grace
    while True:
        threads = sorted(
            thread.name
            for thread in threading.enumerate()
            if thread.name.startswith("repro-") and thread not in threads_before
        )
        children = [
            child for child in multiprocessing.active_children()
            if child not in children_before
        ]
        if (not threads and not children) or time.monotonic() >= deadline:
            return threads, children
        time.sleep(0.05)


class TestExecutorOwnership:
    def test_engine_rejects_executor_name(self):
        with pytest.raises(TypeError, match="create_executor"):
            ExecutionEngine(store=InMemoryStore(), executor="thread")

    def test_thread_system_keeps_one_executor_across_iterations(self):
        system = HelixSystem.opt(
            cost_model=SimulatedCostModel(), seed=0, executor="thread", max_workers=2
        )
        seen = []
        run_lifecycle(
            system, "census", n_iterations=2, scale=0.25,
            on_iteration=lambda spec, stats: seen.append(
                (system.executor, system.executor._pool)
            ),
        )
        (first, pool), (second, pool_again) = seen
        assert isinstance(first, ThreadExecutor)
        assert second is first and system.executor is first
        assert pool is not None and pool_again is pool  # alive between iterations
        system.close_executor()
        assert first._pool is None

    def test_matrix_leaves_no_threads_or_processes(self):
        threads_before = set(threading.enumerate())
        children_before = set(multiprocessing.active_children())
        assert_executors_equivalent(make_wide_dag(branches=4, depth=2))
        assert _leftovers(threads_before, children_before) == ([], [])

    @pytest.mark.parametrize("executor", EXECUTOR_NAMES)
    def test_system_lifecycle_leaves_no_threads_or_processes(self, executor):
        threads_before = set(threading.enumerate())
        children_before = set(multiprocessing.active_children())
        with HelixSystem.opt(
            cost_model=SimulatedCostModel(), seed=0, executor=executor, max_workers=2
        ) as system:
            run_lifecycle(system, "census", n_iterations=2, scale=0.25)
        assert _leftovers(threads_before, children_before) == ([], [])


# ---------------------------------------------------------------------------
# Missing-input regression (previously: silent skip)
# ---------------------------------------------------------------------------
class _NewestOnlyCache(OperatorCache):
    """A cache under memory pressure: every put drops all older entries,
    including values whose consumers have not run yet."""

    def put(self, name, value, size_bytes=None):
        self.clear()
        return super().put(name, value, size_bytes)


class TestMissingInputRegression:
    def test_compute_node_with_missing_parent_raises(self, diamond_dag):
        engine = ExecutionEngine(store=InMemoryStore(), cost_model=SimulatedCostModel())
        # The cache is empty, so computing "d" would previously have run the
        # operator with zero of its two declared inputs.
        with pytest.raises(ExecutionError, match="not cached"):
            engine._compute_node(diamond_dag, "d")

    def test_lru_pressure_eviction_surfaces_error_instead_of_wrong_result(self, diamond_dag):
        # A cache under pressure drops "a" while "b"/"c" still need it.  The
        # engine must fail loudly rather than compute "c" from fewer inputs
        # and return a silently wrong output.
        engine = ExecutionEngine(
            store=InMemoryStore(),
            cost_model=SimulatedCostModel(),
            cache=_NewestOnlyCache(),
        )
        with pytest.raises(ExecutionError, match="not cached"):
            engine.execute(
                diamond_dag, _all_compute_plan(diamond_dag), compute_node_signatures(diamond_dag)
            )

    @pytest.mark.parametrize("executor", POOLED_EXECUTORS)
    def test_pool_executors_also_guard_missing_inputs(self, executor, diamond_dag):
        engine = ExecutionEngine(
            store=InMemoryStore(),
            cost_model=SimulatedCostModel(),
            cache=_NewestOnlyCache(),
            executor=create_executor(executor, max_workers=2),
        )
        try:
            with pytest.raises(ExecutionError):
                engine.execute(
                    diamond_dag, _all_compute_plan(diamond_dag), compute_node_signatures(diamond_dag)
                )
        finally:
            engine.executor.shutdown()


# ---------------------------------------------------------------------------
# Thread-safe cache refcounts
# ---------------------------------------------------------------------------
class TestCacheRefcounts:
    def test_release_reports_zero_exactly_once(self):
        cache = OperatorCache()
        cache.put("x", 1.0)
        cache.set_consumers("x", 2)
        assert cache.release("x") is False
        assert cache.release("x") is True
        assert cache.release("x") is False  # further releases are inert

    def test_zero_consumer_entries_start_out_of_scope(self):
        cache = OperatorCache()
        cache.put("x", 1.0)
        cache.set_consumers("x", 0)
        assert cache.release("x") is False

    def test_negative_consumers_rejected(self):
        with pytest.raises(ExecutionError):
            OperatorCache().set_consumers("x", -1)

    def test_concurrent_releases_single_zero_transition(self):
        cache = OperatorCache()
        cache.put("x", 1.0)
        consumers = 64
        cache.set_consumers("x", consumers)
        zero_transitions = []
        barrier = threading.Barrier(8)

        def worker(releases: int) -> None:
            barrier.wait()
            for _ in range(releases):
                if cache.release("x"):
                    zero_transitions.append(True)

        threads = [threading.Thread(target=worker, args=(consumers // 8,)) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert zero_transitions == [True]
