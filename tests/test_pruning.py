"""Unit tests for DAG pruning: slicing and out-of-scope positions."""

from __future__ import annotations

from repro.core.dag import Node, WorkflowDAG
from repro.optimizer.pruning import out_of_scope_after

from conftest import ConstOperator, SumOperator


class TestSlicing:
    def test_slice_drops_non_contributing_nodes(self):
        nodes = [
            Node.create("a", ConstOperator()),
            Node.create("out", SumOperator(), parents=["a"], is_output=True),
            Node.create("unused", SumOperator(), parents=["a"]),
        ]
        dag = WorkflowDAG(nodes)
        assert set(dag.sliced_to_outputs().node_names) == {"a", "out"}

    def test_slice_with_explicit_outputs(self, diamond_dag):
        assert set(diamond_dag.sliced_to_outputs(["c"]).node_names) == {"a", "c"}


class TestEvictionSchedule:
    def test_out_of_scope_after_last_child(self, diamond_dag):
        order = ["a", "b", "c", "d"]
        schedule = out_of_scope_after(diamond_dag, order)
        assert schedule["a"] == 2   # after c (last child of a) runs
        assert schedule["b"] == 3
        assert schedule["c"] == 3
        assert schedule["d"] == 3

    def test_nodes_without_children_evicted_immediately(self):
        dag = WorkflowDAG([Node.create("solo", ConstOperator())])
        assert out_of_scope_after(dag, ["solo"]) == {"solo": 0}

    def test_partial_execution_order(self, diamond_dag):
        # b pruned: a goes out of scope after c.
        order = ["a", "c", "d"]
        schedule = out_of_scope_after(diamond_dag, order)
        assert schedule["a"] == 1
        assert "b" not in schedule

    def test_every_executed_node_is_evicted_exactly_once(self, diamond_dag):
        order = ["a", "b", "c", "d"]
        assert sorted(out_of_scope_after(diamond_dag, order)) == sorted(order)
