"""Unit and property tests for OPT-EXEC-PLAN (the max-flow reuse optimizer)."""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dag import Node, WorkflowDAG
from repro.exceptions import OptimizationError
from repro.optimizer.oep import (
    ExecutionPlan,
    NodeState,
    _is_feasible,
    brute_force_oep,
    plan_run_time,
    solve_oep,
)

from conftest import ConstOperator, SumOperator, make_chain_dag, make_diamond_dag

INF = float("inf")


def _costs(dag, compute=1.0, load=INF):
    return (
        {name: compute for name in dag.node_names},
        {name: load for name in dag.node_names},
    )


class TestBasicPlans:
    def test_first_iteration_computes_everything(self, diamond_dag):
        compute, load = _costs(diamond_dag)
        plan = solve_oep(diamond_dag, compute, load, forced_compute=diamond_dag.node_names)
        assert all(state is NodeState.COMPUTE for state in plan.states.values())
        assert plan.estimated_time == pytest.approx(4.0)

    def test_nothing_changed_everything_pruned(self, diamond_dag):
        compute = {name: 1.0 for name in diamond_dag.node_names}
        load = {name: 0.1 for name in diamond_dag.node_names}
        plan = solve_oep(diamond_dag, compute, load, forced_compute=())
        assert all(state is NodeState.PRUNE for state in plan.states.values())
        assert plan.estimated_time == 0.0

    def test_changed_sink_loads_cheap_parents(self, diamond_dag):
        # d changed; b and c are materialized and cheap to load; a can be pruned.
        compute = {"a": 10.0, "b": 5.0, "c": 5.0, "d": 1.0}
        load = {"a": 2.0, "b": 0.5, "c": 0.5, "d": INF}
        plan = solve_oep(diamond_dag, compute, load, forced_compute=["d"])
        assert plan.states["d"] is NodeState.COMPUTE
        assert plan.states["b"] is NodeState.LOAD
        assert plan.states["c"] is NodeState.LOAD
        assert plan.states["a"] is NodeState.PRUNE
        assert plan.estimated_time == pytest.approx(0.5 + 0.5 + 1.0)

    def test_expensive_load_prefers_recompute(self, diamond_dag):
        # Loading b is more expensive than recomputing it from a (which must be
        # loaded anyway for c).
        compute = {"a": 1.0, "b": 0.1, "c": 0.1, "d": 1.0}
        load = {"a": 0.2, "b": 50.0, "c": 50.0, "d": INF}
        plan = solve_oep(diamond_dag, compute, load, forced_compute=["d"])
        assert plan.states["a"] is NodeState.LOAD
        assert plan.states["b"] is NodeState.COMPUTE
        assert plan.states["c"] is NodeState.COMPUTE

    def test_unmaterialized_parent_of_changed_node_is_computed(self):
        chain = make_chain_dag(3)
        compute = {"n0": 1.0, "n1": 1.0, "n2": 1.0}
        load = {"n0": INF, "n1": INF, "n2": INF}
        plan = solve_oep(chain, compute, load, forced_compute=["n2"])
        assert plan.states == {
            "n0": NodeState.COMPUTE,
            "n1": NodeState.COMPUTE,
            "n2": NodeState.COMPUTE,
        }

    def test_loading_midpoint_prunes_ancestors(self):
        chain = make_chain_dag(4)
        compute = {name: 10.0 for name in chain.node_names}
        load = {"n0": INF, "n1": INF, "n2": 0.5, "n3": INF}
        plan = solve_oep(chain, compute, load, forced_compute=["n3"])
        assert plan.states["n3"] is NodeState.COMPUTE
        assert plan.states["n2"] is NodeState.LOAD
        assert plan.states["n1"] is NodeState.PRUNE
        assert plan.states["n0"] is NodeState.PRUNE

    def test_paper_figure4_structure(self):
        """The example of Figure 4: loading n7/n8 allows pruning n1-n6 except where needed."""
        nodes = [
            Node.create("n1", ConstOperator(1, tag="1")),
            Node.create("n2", ConstOperator(1, tag="2")),
            Node.create("n3", ConstOperator(1, tag="3")),
            Node.create("n4", SumOperator(), parents=["n1"]),
            Node.create("n5", SumOperator(), parents=["n2", "n3"]),
            Node.create("n6", SumOperator(offset=1), parents=["n4", "n5"]),
            Node.create("n7", SumOperator(offset=2), parents=["n6"], is_output=True),
            Node.create("n8", SumOperator(offset=3), parents=["n5"], is_output=True),
        ]
        dag = WorkflowDAG(nodes)
        compute = {f"n{i}": 4.0 for i in range(1, 9)}
        compute["n8"] = 0.5
        load = {f"n{i}": INF for i in range(1, 9)}
        load.update({"n4": 1.0, "n5": 1.0, "n7": 1.0, "n8": 10.0})
        plan = solve_oep(dag, compute, load, forced_compute=["n6", "n7", "n8"])
        # n6, n7 and n8 must be computed; n4 and n5 are loaded; n1-n3 pruned
        # (n8's need for n5 is already covered by the loaded n5).
        assert plan.states["n6"] is NodeState.COMPUTE
        assert plan.states["n7"] is NodeState.COMPUTE
        assert plan.states["n4"] is NodeState.LOAD
        assert plan.states["n5"] is NodeState.LOAD
        for pruned in ("n1", "n2", "n3"):
            assert plan.states[pruned] is NodeState.PRUNE
        assert plan.states["n8"] is NodeState.COMPUTE


class TestValidation:
    def test_missing_costs_rejected(self, diamond_dag):
        with pytest.raises(OptimizationError):
            solve_oep(diamond_dag, {}, {})

    def test_negative_costs_rejected(self, diamond_dag):
        compute, load = _costs(diamond_dag)
        compute["a"] = -1.0
        with pytest.raises(OptimizationError):
            solve_oep(diamond_dag, compute, load)

    def test_infinite_compute_time_rejected(self, diamond_dag):
        compute, load = _costs(diamond_dag)
        compute["a"] = INF
        with pytest.raises(OptimizationError, match="infinite compute time for node 'a'"):
            solve_oep(diamond_dag, compute, load)

    def test_unknown_forced_node_rejected(self, diamond_dag):
        compute, load = _costs(diamond_dag)
        with pytest.raises(OptimizationError):
            solve_oep(diamond_dag, compute, load, forced_compute=["ghost"])

    def test_brute_force_size_limit(self):
        dag = make_chain_dag(13)
        compute, load = _costs(dag)
        with pytest.raises(OptimizationError):
            brute_force_oep(dag, compute, load)


class TestPlanProperties:
    def test_state_fractions_sum_to_one(self, diamond_dag):
        compute, load = _costs(diamond_dag)
        plan = solve_oep(diamond_dag, compute, load, forced_compute=diamond_dag.node_names)
        assert sum(plan.state_fractions().values()) == pytest.approx(1.0)

    def test_nodes_in_state(self, diamond_dag):
        compute, load = _costs(diamond_dag)
        plan = solve_oep(diamond_dag, compute, load, forced_compute=["d"])
        assert plan.states["d"] is NodeState.COMPUTE

    def test_plan_run_time_matches_states(self):
        states = {"a": NodeState.COMPUTE, "b": NodeState.LOAD, "c": NodeState.PRUNE}
        total = plan_run_time(states, {"a": 2.0, "b": 9.0, "c": 5.0}, {"a": 1.0, "b": 3.0, "c": 1.0})
        assert total == pytest.approx(2.0 + 3.0)


@st.composite
def random_oep_instances(draw):
    """Random DAGs (<= 6 nodes) with random costs, materializations and changes."""
    n = draw(st.integers(2, 6))
    parents = []
    for i in range(n):
        choices = list(range(i))
        selected = [j for j in choices if draw(st.booleans())]
        parents.append(selected)
    compute = [draw(st.floats(0.1, 10.0)) for _ in range(n)]
    materialized = [draw(st.booleans()) for _ in range(n)]
    load = [draw(st.floats(0.1, 10.0)) if materialized[i] else INF for i in range(n)]
    forced = [i for i in range(n) if draw(st.integers(0, 3)) == 0]
    return parents, compute, load, forced


def _build_dag(parents):
    nodes = []
    for i, deps in enumerate(parents):
        operator = SumOperator(offset=float(i)) if deps else ConstOperator(i, tag=str(i))
        nodes.append(Node.create(f"n{i}", operator, parents=[f"n{j}" for j in deps]))
    return WorkflowDAG(nodes)


class TestOptimality:
    @given(random_oep_instances())
    @settings(max_examples=80, deadline=None)
    def test_matches_brute_force(self, instance):
        parents, compute_list, load_list, forced_list = instance
        dag = _build_dag(parents)
        compute = {f"n{i}": compute_list[i] for i in range(len(parents))}
        load = {f"n{i}": load_list[i] for i in range(len(parents))}
        forced = [f"n{i}" for i in forced_list]
        exact = brute_force_oep(dag, compute, load, forced_compute=forced)
        solved = solve_oep(dag, compute, load, forced_compute=forced)
        assert solved.estimated_time == pytest.approx(exact.estimated_time, rel=1e-6, abs=1e-9)

    @given(random_oep_instances())
    @settings(max_examples=80, deadline=None)
    def test_plans_are_always_feasible(self, instance):
        parents, compute_list, load_list, forced_list = instance
        dag = _build_dag(parents)
        compute = {f"n{i}": compute_list[i] for i in range(len(parents))}
        load = {f"n{i}": load_list[i] for i in range(len(parents))}
        forced = [f"n{i}" for i in forced_list]
        plan = solve_oep(dag, compute, load, forced_compute=forced)
        for name in forced:
            assert plan.states[name] is NodeState.COMPUTE
        for name, state in plan.states.items():
            if state is NodeState.LOAD:
                assert load[name] != INF
            if state is NodeState.COMPUTE:
                for parent in dag.parents(name):
                    assert plan.states[parent] is not NodeState.PRUNE


_RANK = {NodeState.PRUNE: 0, NodeState.LOAD: 1, NodeState.COMPUTE: 2}


@st.composite
def tied_oep_instances(draw, max_nodes=10):
    """Random DAGs with small integer costs, so that zero costs and exact ties
    (``c == l``, a profit equal to a prerequisite's cost) are common."""
    n = draw(st.integers(1, max_nodes))
    parents = [
        [j for j in range(i) if draw(st.integers(0, max(i, 2))) < 2] for i in range(n)
    ]
    cost = st.sampled_from([0.0, 0.0, 1.0, 1.0, 2.0, 3.0, 5.0])
    compute = {f"n{i}": draw(cost) for i in range(n)}
    load = {f"n{i}": INF if draw(st.integers(0, 2)) == 0 else draw(cost) for i in range(n)}
    forced = [f"n{i}" for i in range(n) if draw(st.integers(0, 5)) == 0]
    required = [f"n{i}" for i in range(n) if draw(st.integers(0, 5)) == 0]
    return _build_dag(parents), compute, load, forced, required


class TestPlanIdentity:
    """The solver returns the optimum, and of all optima the least one."""

    @given(tied_oep_instances())
    @settings(max_examples=60, deadline=None)
    def test_cost_is_the_brute_force_optimum_and_the_plan_is_feasible(self, instance):
        dag, compute, load, forced, required = instance
        plan = solve_oep(dag, compute, load, forced_compute=forced, required=required)
        exact = brute_force_oep(dag, compute, load, forced_compute=forced, required=required)
        assert plan.estimated_time == exact.estimated_time
        # Constraints 1 and 2 hold as returned: there is nothing to repair.
        assert _is_feasible(dag, plan.states, load, set(forced), set(required))
        assert list(plan.states) == list(dag.node_names)
        assert sum(plan.decided_by.values()) == len(dag)

    @given(tied_oep_instances(max_nodes=7))
    @settings(max_examples=60, deadline=None)
    def test_ties_go_to_the_lesser_state(self, instance):
        """Never Sc where Sl ties, never Sl where Sp ties: the plan is
        pointwise below every other optimal plan."""
        dag, compute, load, forced, required = instance
        plan = solve_oep(dag, compute, load, forced_compute=forced, required=required)
        names = dag.node_names
        for assignment in itertools.product(list(NodeState), repeat=len(names)):
            other = dict(zip(names, assignment))
            if not _is_feasible(dag, other, load, set(forced), set(required)):
                continue
            if plan_run_time(other, compute, load) != plan.estimated_time:
                continue
            assert all(_RANK[plan.states[name]] <= _RANK[other[name]] for name in names)


class TestDecidedBy:
    def test_all_forced_builds_no_network(self, diamond_dag):
        compute, load = _costs(diamond_dag, load=0.5)
        plan = solve_oep(diamond_dag, compute, load, forced_compute=diamond_dag.node_names)
        assert plan.decided_by["forced"] == len(diamond_dag)
        assert (plan.flow_nodes, plan.flow_edges) == (0, 0)

    def test_nothing_stored_rerun_builds_no_network(self):
        dag = make_chain_dag(5)
        compute, load = _costs(dag)
        plan = solve_oep(dag, compute, load, forced_compute=["n2"])
        assert plan.decided_by == {
            "forced": 1, "no_materialization": 2, "dominated_load": 0,
            "unreachable_prune": 2, "min_cut": 0,
        }
        assert (plan.flow_nodes, plan.flow_edges) == (0, 0)

    def test_dominated_load_needs_no_network(self):
        dag = make_chain_dag(3)
        compute, load = _costs(dag, compute=2.0, load=1.0)
        plan = solve_oep(dag, compute, load, forced_compute=["n2"])
        assert plan.states == {"n0": NodeState.PRUNE, "n1": NodeState.LOAD, "n2": NodeState.COMPUTE}
        assert plan.decided_by["dominated_load"] == 1
        assert plan.decided_by["unreachable_prune"] == 1
        assert plan.flow_nodes == 0

    def test_open_choices_go_to_the_min_cut(self):
        dag = make_chain_dag(3)
        compute, load = _costs(dag, compute=1.0, load=3.0)
        plan = solve_oep(dag, compute, load, forced_compute=["n2"])
        # Computing n1 (1) from a computed n0 (1) beats loading n1 (3).
        assert all(state is NodeState.COMPUTE for state in plan.states.values())
        assert plan.decided_by["min_cut"] == 2
        assert plan.flow_nodes > 0 and plan.flow_edges > 0

    def test_provenance_does_not_enter_plan_equality(self):
        states = {"a": NodeState.COMPUTE}
        assert ExecutionPlan(states, 1.0, decided_by={"forced": 1}, flow_nodes=4) == ExecutionPlan(states, 1.0)
