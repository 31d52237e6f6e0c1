"""Unit tests for the execution engine: plan execution, caching, materialization."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.core.dag import Node, WorkflowDAG
from repro.core.operators import Component, RunContext
from repro.core.signatures import compute_node_signatures
from repro.exceptions import ExecutionError, OperatorError
from repro.execution import cache as cache_module
from repro.execution import engine as engine_module
from repro.execution.clock import SimulatedCostModel
from repro.execution.engine import ExecutionEngine
from repro.optimizer.metrics import StatsStore
from repro.optimizer.oep import ExecutionPlan, NodeState, solve_oep
from repro.optimizer.omp import AlwaysMaterialize, NeverMaterialize, StreamingMaterializationPolicy
from repro.storage.serialization import estimate_size_bytes
from repro.storage.store import InMemoryStore
from repro.systems import HelixSystem
from repro.workloads.base import get_workload

from conftest import ConstOperator, FailingOperator, SumOperator, make_chain_dag, make_diamond_dag

INF = float("inf")


def _plan_all_compute(dag) -> ExecutionPlan:
    compute = {n: 1.0 for n in dag.node_names}
    load = {n: INF for n in dag.node_names}
    return solve_oep(dag, compute, load, forced_compute=dag.node_names)


def _engine(policy=None, store=None, stats=None):
    return ExecutionEngine(
        store=store if store is not None else InMemoryStore(),
        policy=policy if policy is not None else NeverMaterialize(),
        cost_model=SimulatedCostModel(),
        stats=stats if stats is not None else StatsStore(),
        context=RunContext(seed=0),
    )


class TestExecution:
    def test_computes_all_nodes_and_output_value(self, diamond_dag):
        engine = _engine()
        signatures = compute_node_signatures(diamond_dag)
        stats = engine.execute(diamond_dag, _plan_all_compute(diamond_dag), signatures)
        # a=2, b=a+1=3, c=a+2=4, d=b+c=7
        assert stats.outputs["d"] == 7.0
        assert set(stats.node_times) == {"a", "b", "c", "d"}
        assert stats.total_time > 0

    def test_charged_times_use_cost_model(self, diamond_dag):
        engine = _engine()
        signatures = compute_node_signatures(diamond_dag)
        stats = engine.execute(diamond_dag, _plan_all_compute(diamond_dag), signatures)
        # SimulatedCostModel charges the declared operator costs (4, 2, 3, 1).
        assert stats.node_times["a"] == pytest.approx(4.0)
        assert stats.execution_time == pytest.approx(10.0)

    def test_component_breakdown(self, diamond_dag):
        engine = _engine()
        signatures = compute_node_signatures(diamond_dag)
        stats = engine.execute(diamond_dag, _plan_all_compute(diamond_dag), signatures)
        breakdown = stats.component_breakdown()
        assert breakdown["DPR"] == pytest.approx(10.0)
        assert breakdown["Mat."] >= 0.0

    def test_pruned_nodes_not_executed(self, diamond_dag):
        store = InMemoryStore()
        signatures = compute_node_signatures(diamond_dag)
        store.put("b", signatures["b"], 3.0)
        store.put("c", signatures["c"], 4.0)
        compute = {"a": 4.0, "b": 2.0, "c": 3.0, "d": 1.0}
        load = {"a": INF, "b": 0.01, "c": 0.01, "d": INF}
        plan = solve_oep(diamond_dag, compute, load, forced_compute=["d"])
        engine = _engine(store=store)
        stats = engine.execute(diamond_dag, plan, signatures)
        assert "a" not in stats.node_times
        assert stats.node_states["a"] is NodeState.PRUNE
        assert stats.outputs["d"] == 7.0  # loaded parents give the same result

    def test_loading_from_store_charges_io_cost(self, diamond_dag):
        store = InMemoryStore()
        signatures = compute_node_signatures(diamond_dag)
        store.put("b", signatures["b"], 3.0)
        store.put("c", signatures["c"], 4.0)
        compute = {"a": 4.0, "b": 2.0, "c": 3.0, "d": 1.0}
        load = {"a": INF, "b": 0.01, "c": 0.01, "d": INF}
        plan = solve_oep(diamond_dag, compute, load, forced_compute=["d"])
        stats = _engine(store=store).execute(diamond_dag, plan, signatures)
        assert stats.node_states["b"] is NodeState.LOAD
        assert stats.node_times["b"] > 0
        assert stats.node_times["b"] < 1.0  # io cost, not the 2.0 compute cost

    def test_plan_load_without_materialization_fails(self, diamond_dag):
        signatures = compute_node_signatures(diamond_dag)
        states = {"a": NodeState.PRUNE, "b": NodeState.LOAD, "c": NodeState.PRUNE, "d": NodeState.PRUNE}
        plan = ExecutionPlan(states=states, estimated_time=0.0)
        with pytest.raises(ExecutionError):
            _engine().execute(diamond_dag, plan, signatures)

    def test_infeasible_plan_rejected(self, diamond_dag):
        signatures = compute_node_signatures(diamond_dag)
        states = {"a": NodeState.PRUNE, "b": NodeState.COMPUTE, "c": NodeState.PRUNE, "d": NodeState.PRUNE}
        plan = ExecutionPlan(states=states, estimated_time=0.0)
        with pytest.raises(ExecutionError):
            _engine().execute(diamond_dag, plan, signatures)

    def test_missing_signature_rejected(self, diamond_dag):
        plan = _plan_all_compute(diamond_dag)
        with pytest.raises(ExecutionError):
            _engine().execute(diamond_dag, plan, {"a": "x"})

    def test_operator_failure_wrapped(self):
        dag = WorkflowDAG([Node.create("bad", FailingOperator(), is_output=True)])
        plan = _plan_all_compute(dag)
        with pytest.raises(OperatorError) as excinfo:
            _engine().execute(dag, plan, compute_node_signatures(dag))
        assert excinfo.value.node_name == "bad"

    def test_missing_cached_parent_raises_instead_of_silent_skip(self, diamond_dag):
        # Regression: parents absent from the cache used to be skipped, so an
        # operator could run with fewer inputs than the DAG declares and
        # return a silently wrong value.
        engine = _engine()
        with pytest.raises(ExecutionError, match="not cached"):
            engine._compute_node(diamond_dag, "d")


class TestMaterialization:
    def test_outputs_always_materialized(self, diamond_dag):
        store = InMemoryStore()
        engine = _engine(policy=NeverMaterialize(), store=store)
        signatures = compute_node_signatures(diamond_dag)
        stats = engine.execute(diamond_dag, _plan_all_compute(diamond_dag), signatures)
        assert store.has(signatures["d"])
        assert "d" in stats.materialized_nodes
        assert stats.materialization_time > 0

    def test_output_materialization_can_be_disabled(self, diamond_dag):
        store = InMemoryStore()
        engine = ExecutionEngine(
            store=store, policy=NeverMaterialize(), cost_model=SimulatedCostModel(),
            materialize_outputs=False,
        )
        signatures = compute_node_signatures(diamond_dag)
        engine.execute(diamond_dag, _plan_all_compute(diamond_dag), signatures)
        assert store.total_bytes() == 0

    def test_always_policy_materializes_everything(self, diamond_dag):
        store = InMemoryStore()
        engine = _engine(policy=AlwaysMaterialize(), store=store)
        signatures = compute_node_signatures(diamond_dag)
        stats = engine.execute(diamond_dag, _plan_all_compute(diamond_dag), signatures)
        assert sorted(stats.materialized_nodes) == ["a", "b", "c", "d"]
        assert all(store.has(signatures[n]) for n in diamond_dag.node_names)

    def test_streaming_policy_materializes_expensive_subtrees(self, diamond_dag):
        store = InMemoryStore()
        engine = _engine(policy=StreamingMaterializationPolicy(), store=store)
        signatures = compute_node_signatures(diamond_dag)
        stats = engine.execute(diamond_dag, _plan_all_compute(diamond_dag), signatures)
        # With simulated costs of seconds vs. sub-millisecond loads, every node
        # clears the 2*l < C bar.
        assert "d" in stats.materialized_nodes

    def test_existing_artifacts_not_rewritten(self, diamond_dag):
        store = InMemoryStore()
        signatures = compute_node_signatures(diamond_dag)
        store.put("d", signatures["d"], 7.0)
        engine = _engine(policy=AlwaysMaterialize(), store=store)
        stats = engine.execute(diamond_dag, _plan_all_compute(diamond_dag), signatures)
        assert "d" not in stats.materialized_nodes

    def test_budget_prevents_materialization_gracefully(self, diamond_dag):
        store = InMemoryStore(budget_bytes=1)  # nothing fits
        engine = _engine(policy=AlwaysMaterialize(), store=store)
        signatures = compute_node_signatures(diamond_dag)
        stats = engine.execute(diamond_dag, _plan_all_compute(diamond_dag), signatures)
        assert stats.materialized_nodes == []
        assert store.total_bytes() == 0

    def test_stats_recorded_for_future_iterations(self, diamond_dag):
        stats_store = StatsStore()
        engine = _engine(policy=AlwaysMaterialize(), stats=stats_store)
        signatures = compute_node_signatures(diamond_dag)
        engine.execute(diamond_dag, _plan_all_compute(diamond_dag), signatures)
        metrics = stats_store.get(signatures["a"])
        assert metrics is not None
        assert metrics.compute_time == pytest.approx(4.0)
        assert metrics.storage_bytes > 0


class TestMemoryTracking:
    def test_memory_snapshots_recorded(self, diamond_dag):
        engine = _engine()
        signatures = compute_node_signatures(diamond_dag)
        stats = engine.execute(diamond_dag, _plan_all_compute(diamond_dag), signatures)
        assert stats.peak_memory_bytes > 0
        assert 0 < stats.average_memory_bytes <= stats.peak_memory_bytes

    def test_cache_is_empty_after_execution(self, diamond_dag):
        engine = _engine()
        signatures = compute_node_signatures(diamond_dag)
        engine.execute(diamond_dag, _plan_all_compute(diamond_dag), signatures)
        assert len(engine.cache) == 0


class TestSizeEstimates:
    def test_a_census_rerun_estimates_each_executed_value_once(self, monkeypatch):
        workload = get_workload("census")
        config = workload.initial_config(scale=0.05, seed=0)
        system = HelixSystem.opt(cost_model=SimulatedCostModel())
        system.run_iteration(workload.build(config), iteration=0)
        workflow = workload.build(replace(config, bucket_bins=8))

        estimated = []

        def counting(value):
            size = estimate_size_bytes(value)
            estimated.append((value, size))
            return size

        monkeypatch.setattr(engine_module, "estimate_size_bytes", counting)
        monkeypatch.setattr(cache_module, "estimate_size_bytes", counting)
        stats = system.run_iteration(workflow, iteration=1)

        states = stats.node_states
        computed = [name for name in stats.node_times if states[name] is NodeState.COMPUTE]
        assert computed and len(computed) < len(stats.node_times)  # loads too
        # Once per executed node, in the inline run's completion order.
        assert [size for _value, size in estimated] == list(stats.node_sizes.values())
        # Each consumer used to re-estimate its inputs; a fresh estimate of
        # every value is the size it was charged with.
        assert all(estimate_size_bytes(value) == size for value, size in estimated)
        dag = workflow.compile().sliced_to_outputs()
        for name in computed:
            node = dag.node(name)
            input_sizes = [stats.node_sizes[parent] for parent in node.parents]
            assert stats.node_times[name] == SimulatedCostModel().compute_cost(
                node.operator, node.component, input_sizes, 0.0
            ), name
