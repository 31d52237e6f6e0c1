"""Unit tests for OPT-MAT-PLAN policies (streaming heuristic, AM, NM, exact).

``cumulative_run_time`` below is Definition 6 by a graph walk per node: the
reference the engine's per-run ancestor bitsets are checked against.
"""

from __future__ import annotations

from typing import Mapping

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dag import WorkflowDAG
from repro.core.signatures import compute_node_signatures
from repro.exceptions import OptimizationError
from repro.execution.equivalence import ExecutorRig, store_snapshot
from repro.optimizer.oep import ExecutionPlan, NodeState
from repro.optimizer.omp import (
    AlwaysMaterialize,
    NeverMaterialize,
    StreamingMaterializationPolicy,
    optimal_materialization_plan,
)
from repro.workloads.synthetic import make_random_dag

from conftest import make_chain_dag, make_diamond_dag
from test_pruning import out_of_scope_after


def cumulative_run_time(node: str, dag: WorkflowDAG, node_times: Mapping[str, float]) -> float:
    """Definition 6: run time of a node plus all of its ancestors this iteration.

    ``node_times`` maps node name to ``t(n_i)``: the compute time if the node
    was computed, the load time if it was loaded.  Nodes missing from the
    mapping contribute zero (they were pruned).
    """
    total = node_times.get(node, 0.0)
    for ancestor in dag.ancestors(node):
        total += node_times.get(ancestor, 0.0)
    return total


class TestCumulativeRunTime:
    def test_includes_all_ancestors(self, diamond_dag):
        times = {"a": 4.0, "b": 2.0, "c": 3.0, "d": 1.0}
        assert cumulative_run_time("d", diamond_dag, times) == pytest.approx(10.0)
        assert cumulative_run_time("b", diamond_dag, times) == pytest.approx(6.0)
        assert cumulative_run_time("a", diamond_dag, times) == pytest.approx(4.0)

    def test_missing_nodes_count_as_zero(self, diamond_dag):
        assert cumulative_run_time("d", diamond_dag, {"d": 1.0}) == pytest.approx(1.0)


@st.composite
def random_plans(draw):
    """A random DAG and a feasible random plan over it.

    A node may be pruned or loaded anywhere, and computed only when no parent
    is pruned.  Roots are mostly computed and the nodes below them mostly
    pruned or loaded, so LOAD nodes under pruned parents are common.  Such a
    node does not wait for its computed ancestors (each sleeps 5 ms), so on a
    thread pool it often goes out of scope before they finish.
    """
    dag = make_random_dag(draw(st.integers(0, 10_000)), max_width=4, max_depth=5,
                          node_seconds=0.005)
    compute, load, prune = NodeState.COMPUTE, NodeState.LOAD, NodeState.PRUNE
    states = {}
    for name in dag.topological_order():
        parents = dag.node(name).parents
        if not parents:
            choices = [compute, compute, load, prune]
        elif any(states[parent] is prune for parent in parents):
            choices = [load, prune]
        else:
            choices = [compute, load, prune, prune]
        states[name] = draw(st.sampled_from(choices))
    return dag, ExecutionPlan(states=states, estimated_time=0.0)


def _run(executor: str, dag: WorkflowDAG, plan: ExecutionPlan):
    signatures = compute_node_signatures(dag)
    with ExecutorRig(executor, max_workers=4) as rig:
        for name, state in plan.states.items():
            if state is NodeState.LOAD:
                rig.store.put(name, signatures[name], 1.0)
        stats = rig.engine.execute(dag, plan, signatures)
    return stats, store_snapshot(rig.store)


class TestEngineCumulativeTime:
    """The engine's Definition 6 (ancestor bitsets) against the graph-walk oracle."""

    @given(random_plans())
    @settings(max_examples=100, deadline=None)
    def test_matches_oracle_and_is_identical_inline_and_thread(self, dag_and_plan):
        dag, plan = dag_and_plan
        inline, inline_store = _run("inline", dag, plan)
        order = [n for n in dag.topological_order() if plan.states[n] is not NodeState.PRUNE]
        scope = out_of_scope_after(dag, order)
        assert [d.node for d in inline.decisions] == sorted(order, key=lambda n: (scope[n], n))
        policy = StreamingMaterializationPolicy()
        for decision in inline.decisions:
            expected = cumulative_run_time(decision.node, dag, inline.node_times)
            assert decision.cumulative_time == pytest.approx(expected, rel=1e-12, abs=0.0)
            oracle = policy.decide(
                decision.node, expected, decision.load_estimate, 0, None
            )
            assert decision.materialize == oracle.materialize
        thread, thread_store = _run("thread", dag, plan)
        assert thread.decisions == inline.decisions
        assert thread.materialized_nodes == inline.materialized_nodes
        assert thread_store == inline_store


class TestStreamingPolicy:
    def test_materializes_when_cumulative_exceeds_twice_load(self, diamond_dag):
        policy = StreamingMaterializationPolicy()
        times = {"a": 4.0, "b": 2.0, "c": 3.0, "d": 1.0}
        decision = policy.decide(
            "d", cumulative_run_time("d", diamond_dag, times),
            load_estimate=1.0, size_bytes=100, budget_remaining=None,
        )
        assert decision.materialize
        assert decision.cumulative_time == pytest.approx(10.0)

    def test_skips_when_load_too_expensive(self, diamond_dag):
        policy = StreamingMaterializationPolicy()
        times = {"a": 0.1, "b": 0.1, "c": 0.1, "d": 0.1}
        decision = policy.decide(
            "d", cumulative_run_time("d", diamond_dag, times),
            load_estimate=1.0, size_bytes=100, budget_remaining=None,
        )
        assert not decision.materialize

    def test_boundary_is_strict(self, diamond_dag):
        policy = StreamingMaterializationPolicy()
        decision = policy.decide(
            "a", 2.0, load_estimate=1.0, size_bytes=10, budget_remaining=None
        )
        assert not decision.materialize  # C == 2*l is not strictly greater

    def test_respects_budget(self, diamond_dag):
        policy = StreamingMaterializationPolicy()
        decision = policy.decide(
            "d", cumulative_run_time("d", diamond_dag, {"a": 10.0, "d": 1.0}),
            load_estimate=0.1, size_bytes=1000, budget_remaining=500,
        )
        assert not decision.materialize
        assert "budget" in decision.reason


class TestExtremePolicies:
    def test_always_materializes_within_budget(self, diamond_dag):
        policy = AlwaysMaterialize()
        assert policy.decide("a", 0.0, 10.0, 10, None).materialize
        assert not policy.decide("a", 0.0, 10.0, 10, 5).materialize

    def test_never_materializes(self, diamond_dag):
        policy = NeverMaterialize()
        assert not policy.decide("a", 100.0, 0.0, 10, None).materialize


class TestExactPlan:
    def test_materializes_expensive_reusable_node(self):
        chain = make_chain_dag(3)
        compute = {"n0": 5.0, "n1": 5.0, "n2": 1.0}
        load = {"n0": 0.5, "n1": 0.5, "n2": 0.5}
        sizes = {name: 100 for name in chain.node_names}
        chosen, objective = optimal_materialization_plan(chain, compute, load, sizes)
        # Materializing only n2 costs 0.5 now and makes the next iteration free
        # apart from (optionally) loading it; anything more is wasteful.
        assert "n2" in chosen or "n1" in chosen
        assert objective <= 1.5

    def test_empty_plan_when_loads_are_expensive(self):
        chain = make_chain_dag(3)
        compute = {name: 0.1 for name in chain.node_names}
        load = {name: 10.0 for name in chain.node_names}
        sizes = {name: 100 for name in chain.node_names}
        chosen, objective = optimal_materialization_plan(chain, compute, load, sizes)
        assert chosen == frozenset()
        assert objective == pytest.approx(0.3)

    def test_budget_limits_choices(self):
        chain = make_chain_dag(3)
        compute = {name: 5.0 for name in chain.node_names}
        load = {name: 0.5 for name in chain.node_names}
        sizes = {"n0": 100, "n1": 100, "n2": 100}
        chosen, _ = optimal_materialization_plan(chain, compute, load, sizes, budget_bytes=100)
        assert len(chosen) <= 1

    def test_size_limit(self):
        dag = make_chain_dag(15)
        costs = {name: 1.0 for name in dag.node_names}
        with pytest.raises(OptimizationError):
            optimal_materialization_plan(dag, costs, costs, {name: 1 for name in dag.node_names})

    def test_streaming_heuristic_close_to_optimal_on_diamond(self, diamond_dag):
        """The heuristic's chosen set achieves an objective within a small factor of optimal."""
        compute = {"a": 4.0, "b": 2.0, "c": 3.0, "d": 1.0}
        load = {name: 0.5 for name in diamond_dag.node_names}
        sizes = {name: 100 for name in diamond_dag.node_names}
        _best, best_objective = optimal_materialization_plan(diamond_dag, compute, load, sizes)

        policy = StreamingMaterializationPolicy()
        heuristic_choice = {
            name
            for name in diamond_dag.node_names
            if policy.decide(
                name, cumulative_run_time(name, diamond_dag, compute), load[name], sizes[name], None
            ).materialize
        }
        from repro.optimizer.oep import solve_oep

        next_load = {n: (load[n] if n in heuristic_choice else float("inf")) for n in diamond_dag.node_names}
        heuristic_objective = sum(load[n] for n in heuristic_choice) + solve_oep(
            diamond_dag, compute, next_load, required=["d"]
        ).estimated_time
        assert best_objective > 0
        assert heuristic_objective <= 3.0 * best_objective + 1e-9
