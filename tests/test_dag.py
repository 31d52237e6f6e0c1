"""Unit tests for the Workflow DAG representation."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dag import Node, WorkflowDAG
from repro.exceptions import CycleError, DAGError
from repro.workloads import get_workload

from conftest import ConstOperator, SumOperator, make_chain_dag, make_diamond_dag


class TestConstruction:
    def test_duplicate_names_rejected(self):
        nodes = [Node.create("a", ConstOperator()), Node.create("a", ConstOperator())]
        with pytest.raises(DAGError):
            WorkflowDAG(nodes)

    def test_unknown_parent_rejected(self):
        with pytest.raises(DAGError):
            WorkflowDAG([Node.create("a", ConstOperator(), parents=["ghost"])])

    def test_cycle_detected(self):
        nodes = [
            Node.create("a", SumOperator(), parents=["b"]),
            Node.create("b", SumOperator(), parents=["a"]),
        ]
        with pytest.raises(CycleError):
            WorkflowDAG(nodes)

    def test_len_and_contains(self, diamond_dag):
        assert len(diamond_dag) == 4
        assert "a" in diamond_dag and "zzz" not in diamond_dag

    def test_unknown_node_lookup(self, diamond_dag):
        with pytest.raises(DAGError):
            diamond_dag.node("missing")


class TestQueries:
    def test_topological_order_respects_edges(self, diamond_dag):
        order = diamond_dag.topological_order()
        assert order.index("a") < order.index("b") < order.index("d")
        assert order.index("a") < order.index("c") < order.index("d")

    def test_topological_order_deterministic(self):
        assert make_diamond_dag().topological_order() == make_diamond_dag().topological_order()

    def test_parents_children(self, diamond_dag):
        assert diamond_dag.parents("d") == ("b", "c")
        assert set(diamond_dag.children("a")) == {"b", "c"}

    def test_roots_and_sinks(self, diamond_dag):
        assert diamond_dag.sinks() == ("d",)

    def test_ancestors_and_descendants(self, diamond_dag):
        assert diamond_dag.ancestors("d") == frozenset({"a", "b", "c"})
        assert diamond_dag.descendants("a") == frozenset({"b", "c", "d"})
        assert diamond_dag.ancestors("a") == frozenset()

    def test_edges_sorted(self, diamond_dag):
        assert diamond_dag.edges == (("a", "b"), ("a", "c"), ("b", "d"), ("c", "d"))

    def test_outputs(self, diamond_dag):
        assert diamond_dag.outputs == ("d",)

    def test_summary_counts(self, diamond_dag):
        summary = diamond_dag.summary()
        assert summary["nodes"] == 4
        assert summary["edges"] == 4
        assert summary["outputs"] == 1


class TestTransformations:
    def test_slicing_removes_unreachable_nodes(self):
        nodes = [
            Node.create("a", ConstOperator()),
            Node.create("b", SumOperator(), parents=["a"], is_output=True),
            Node.create("orphan", ConstOperator()),
            Node.create("dead_branch", SumOperator(), parents=["a"]),
        ]
        dag = WorkflowDAG(nodes)
        sliced = dag.sliced_to_outputs()
        assert set(sliced.node_names) == {"a", "b"}

    def test_slicing_without_outputs_is_identity(self):
        dag = WorkflowDAG([Node.create("a", ConstOperator()), Node.create("b", SumOperator(), parents=["a"])])
        assert set(dag.sliced_to_outputs().node_names) == {"a", "b"}

    def test_slicing_to_explicit_targets(self, diamond_dag):
        sliced = diamond_dag.sliced_to_outputs(["b"])
        assert set(sliced.node_names) == {"a", "b"}

    def test_slicing_that_keeps_every_node_returns_the_dag_itself(self, diamond_dag):
        assert diamond_dag.sliced_to_outputs() is diamond_dag
        assert diamond_dag.sliced_to_outputs(["d", "b"]) is diamond_dag

    def test_slicing_to_an_unknown_target_is_refused(self, diamond_dag):
        with pytest.raises(DAGError):
            diamond_dag.sliced_to_outputs(["nope"])

    def test_relabel_outputs(self, diamond_dag):
        relabeled = diamond_dag.relabel_outputs(["b"])
        assert relabeled.outputs == ("b",)

    def test_relabel_unknown_output_rejected(self, diamond_dag):
        with pytest.raises(DAGError):
            diamond_dag.relabel_outputs(["nope"])

    def test_chain_dag_structure(self):
        chain = make_chain_dag(5)
        assert chain.topological_order() == ("n0", "n1", "n2", "n3", "n4")
        assert chain.ancestors("n4") == frozenset({"n0", "n1", "n2", "n3"})


def _sorted_list_order(dag):
    """The ordering rule as first written: keep the ready names in a sorted
    list, take the first, merge in the children that became ready."""
    in_degree = {name: len(dag.parents(name)) for name in dag.node_names}
    ready = sorted(name for name, degree in in_degree.items() if degree == 0)
    order = []
    while ready:
        current = ready.pop(0)
        order.append(current)
        newly_ready = []
        for child in dag.children(current):
            in_degree[child] -= 1
            if in_degree[child] == 0:
                newly_ready.append(child)
        ready = sorted(ready + newly_ready)
    return tuple(order)


class TestImmutableViews:
    @pytest.mark.parametrize("workload", ["census", "mnist", "genomics", "nlp"])
    def test_order_of_paper_workloads(self, workload):
        workload = get_workload(workload)
        dag = workload.build(workload.initial_config(scale=0.1, seed=7)).compile()
        assert dag.topological_order() == _sorted_list_order(dag)
        assert dag.sliced_to_outputs().node_names == _sorted_list_order(dag.sliced_to_outputs())

    @given(st.lists(st.lists(st.booleans(), max_size=12), min_size=1, max_size=12), st.randoms())
    @settings(max_examples=100, deadline=None)
    def test_order_of_random_dags(self, picks, rng):
        # Shuffled labels, so that name order and declaration order disagree.
        labels = [f"n{i}" for i in range(len(picks))]
        rng.shuffle(labels)
        nodes = [
            Node.create(labels[i], SumOperator(), parents=[labels[j] for j, take in enumerate(row[:i]) if take])
            for i, row in enumerate(picks)
        ]
        rng.shuffle(nodes)
        dag = WorkflowDAG(nodes)
        assert dag.topological_order() == _sorted_list_order(dag)

    def test_views_are_built_once(self, diamond_dag):
        assert diamond_dag.edges is diamond_dag.edges
        assert diamond_dag.node_names is diamond_dag.topological_order()
        assert isinstance(diamond_dag.node_names, tuple)
