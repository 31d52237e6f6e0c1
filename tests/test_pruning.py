"""Unit tests for DAG pruning: slicing, data-driven pruning, out-of-scope positions."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.dag import Node, WorkflowDAG
from repro.core.data import DataCollection, ElementKind, Example, FeatureVector
from repro.core.operators import PredictionsResult
from repro.optimizer.pruning import out_of_scope_after, zero_weight_extractors

from conftest import ConstOperator, SumOperator, make_diamond_dag


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


class _WeightedModel:
    def __init__(self, weights):
        self._weights = weights

    def feature_weights(self):
        return self._weights


class TestZeroWeightExtractors:
    def _result(self, weights, provenance):
        examples = [
            Example(features=FeatureVector({name: 1.0 for name in provenance}), provenance=dict(provenance))
        ]
        predictions = DataCollection("p", examples, kind=ElementKind.EXAMPLE)
        return PredictionsResult(predictions=predictions, model=_WeightedModel(weights))

    def test_extractor_with_all_zero_weights_is_prunable(self):
        result = self._result(
            weights={"f1": 0.0, "f2": 0.5},
            provenance={"f1": "extractorA", "f2": "extractorB"},
        )
        assert zero_weight_extractors(result) == frozenset({"extractorA"})

    def test_protected_extractors_are_kept(self):
        result = self._result(weights={"f1": 0.0}, provenance={"f1": "extractorA"})
        assert zero_weight_extractors(result, protected=["extractorA"]) == frozenset()

    def test_mixed_weights_keep_extractor(self):
        result = self._result(
            weights={"f1": 0.0, "f2": 0.3},
            provenance={"f1": "extractorA", "f2": "extractorA"},
        )
        assert zero_weight_extractors(result) == frozenset()

    def test_threshold(self):
        result = self._result(weights={"f1": 0.05}, provenance={"f1": "extractorA"})
        assert zero_weight_extractors(result, weight_threshold=0.1) == frozenset({"extractorA"})

    def test_no_weights_means_no_pruning(self):
        examples = [Example(features=FeatureVector({"f1": 1.0}), provenance={"f1": "e"})]
        result = PredictionsResult(
            predictions=DataCollection("p", examples, kind=ElementKind.EXAMPLE), model=object()
        )
        assert zero_weight_extractors(result) == frozenset()

    def test_weights_array_with_feature_index(self):
        class ArrayModel:
            weights_ = np.array([0.0, 0.7])

        examples = [Example(features=FeatureVector({"f1": 1.0, "f2": 1.0}),
                            provenance={"f1": "a", "f2": "b"})]
        result = PredictionsResult(
            predictions=DataCollection("p", examples, kind=ElementKind.EXAMPLE),
            model=ArrayModel(),
            feature_index={"f1": 0, "f2": 1},
        )
        assert zero_weight_extractors(result) == frozenset({"a"})


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
