"""Unit tests for DAG pruning: slicing and out-of-scope positions.

``engine_scope`` is the engine's Definition 5, derived from its per-run graph.
``out_of_scope_after`` below is Definition 5 by a walk over each node's
children: the reference it is checked against.
"""

from __future__ import annotations

from typing import Dict, Sequence

from repro.core.dag import Node, WorkflowDAG
from repro.execution.engine import ExecutionEngine

from conftest import ConstOperator, SumOperator


def out_of_scope_after(dag: WorkflowDAG, execution_order: Sequence[str]) -> Dict[str, int]:
    """For each node, the index in ``execution_order`` after which it is out of scope.

    A node is out of scope once all of its children (among the nodes actually
    being executed) have run (Definition 5).  Nodes with no executing children
    go out of scope immediately after their own execution.  Nodes that are not
    in ``execution_order`` (pruned or loaded-and-unused) are omitted.
    """
    positions = {name: index for index, name in enumerate(execution_order)}
    schedule: Dict[str, int] = {}
    for name in execution_order:
        last = positions[name]
        for child in dag.children(name):
            child_position = positions.get(child)
            if child_position is not None and child_position > last:
                last = child_position
        schedule[name] = last
    return schedule


def engine_scope(dag: WorkflowDAG, execution_order: Sequence[str]) -> Dict[str, int]:
    """Out-of-scope positions as ``ExecutionEngine.execute`` derives them."""
    positions = {name: index for index, name in enumerate(execution_order)}
    _parents, children, _ancestors = ExecutionEngine._run_graph(dag, positions)
    return ExecutionEngine._out_of_scope_positions(children, positions)


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
        schedule = engine_scope(diamond_dag, order)
        assert schedule["a"] == 2   # after c (last child of a) runs
        assert schedule["b"] == 3
        assert schedule["c"] == 3
        assert schedule["d"] == 3
        assert schedule == out_of_scope_after(diamond_dag, order)

    def test_nodes_without_children_evicted_immediately(self):
        dag = WorkflowDAG([Node.create("solo", ConstOperator())])
        assert engine_scope(dag, ["solo"]) == {"solo": 0}
        assert out_of_scope_after(dag, ["solo"]) == {"solo": 0}

    def test_partial_execution_order(self, diamond_dag):
        # b pruned: a goes out of scope after c.
        order = ["a", "c", "d"]
        schedule = engine_scope(diamond_dag, order)
        assert schedule["a"] == 1
        assert "b" not in schedule
        assert schedule == out_of_scope_after(diamond_dag, order)

    def test_every_executed_node_is_evicted_exactly_once(self, diamond_dag):
        order = ["a", "b", "c", "d"]
        assert sorted(engine_scope(diamond_dag, order)) == sorted(order)
