"""Unit tests for the Workflow builder (the HML-equivalent DSL)."""

from __future__ import annotations

import pytest

from repro.core.data import FeatureVector
from repro.core.operators import (
    Component,
    CSVScanner,
    DataSource,
    ExampleSynthesizer,
    FieldExtractor,
    FunctionExtractor,
    Learner,
    Reducer,
)
from repro.core.workflow import Workflow
from repro.exceptions import WorkflowSpecError
from repro.ml.linear import LogisticRegression

from conftest import PairSynthesizer


def _source():
    return DataSource(generator=lambda context: ([{"a": 1, "target": 0}], []))


def build_basic_workflow() -> Workflow:
    wf = Workflow("basic")
    wf.data_source("data", _source())
    wf.scan("rows", "data", CSVScanner(["a", "target"]))
    wf.extractor("aExt", "rows", FieldExtractor("a"))
    wf.extractor("target", "rows", FieldExtractor("target", as_categorical=False))
    wf.examples("examples", "rows", extractors=["aExt"], label="target")
    wf.learner("predictions", "examples", Learner(LogisticRegression))
    wf.reducer("checked", "predictions", Reducer(lambda c: len(c)), uses=["target"])
    wf.output("checked")
    return wf


class TestDeclarations:
    def test_duplicate_name_rejected(self):
        wf = Workflow()
        wf.data_source("data", _source())
        with pytest.raises(WorkflowSpecError):
            wf.data_source("data", _source())

    def test_empty_name_rejected(self):
        with pytest.raises(WorkflowSpecError):
            Workflow().data_source("", _source())

    def test_unknown_parent_rejected(self):
        wf = Workflow()
        with pytest.raises(WorkflowSpecError):
            wf.scan("rows", "missing", CSVScanner(["a"]))

    def test_data_source_type_checked(self):
        with pytest.raises(WorkflowSpecError):
            Workflow().data_source("d", CSVScanner(["a"]))  # type: ignore[arg-type]

    def test_scan_type_checked(self):
        wf = Workflow()
        wf.data_source("d", _source())
        with pytest.raises(WorkflowSpecError):
            wf.scan("rows", "d", FieldExtractor("a"))  # type: ignore[arg-type]

    def test_learner_type_checked(self):
        wf = Workflow()
        wf.data_source("d", _source())
        with pytest.raises(WorkflowSpecError):
            wf.learner("m", "d", FieldExtractor("a"))  # type: ignore[arg-type]

    def test_contains_and_declared_names(self):
        wf = build_basic_workflow()
        assert "rows" in wf
        assert "ghost" not in wf


class TestLinking:
    def test_has_extractors_overrides_attachment(self):
        wf = Workflow()
        wf.data_source("data", _source())
        wf.scan("rows", "data", CSVScanner(["a"]))
        wf.extractor("e1", "rows", FieldExtractor("a"))
        wf.extractor("e2", "rows", FieldExtractor("a"))
        assert wf.attached_extractors("rows") == ["e1", "e2"]
        wf.has_extractors("rows", ["e2"])
        assert wf.attached_extractors("rows") == ["e2"]

    def test_has_extractors_validates_names(self):
        wf = Workflow()
        wf.data_source("data", _source())
        wf.scan("rows", "data", CSVScanner(["a"]))
        with pytest.raises(WorkflowSpecError):
            wf.has_extractors("rows", ["ghost"])
        with pytest.raises(WorkflowSpecError):
            wf.has_extractors("ghost", [])

    def test_examples_appends_label_extractor(self):
        wf = Workflow()
        wf.data_source("data", _source())
        wf.scan("rows", "data", CSVScanner(["a", "target"]))
        wf.extractor("aExt", "rows", FieldExtractor("a"))
        wf.extractor("target", "rows", FieldExtractor("target"))
        wf.examples("examples", "rows", extractors=["aExt"], label="target")
        dag = wf.compile()
        assert set(dag.parents("examples")) == {"rows", "aExt", "target"}

    def test_examples_unknown_label_rejected(self):
        wf = Workflow()
        wf.data_source("data", _source())
        wf.scan("rows", "data", CSVScanner(["a"]))
        with pytest.raises(WorkflowSpecError):
            wf.examples("examples", "rows", label="ghost")

    def test_uses_adds_parent_edges(self):
        wf = build_basic_workflow()
        wf.uses("checked", ["aExt"])
        dag = wf.compile()
        assert "aExt" in dag.parents("checked")

    def test_uses_unknown_dependency_rejected(self):
        wf = build_basic_workflow()
        with pytest.raises(WorkflowSpecError):
            wf.uses("checked", ["ghost"])
        with pytest.raises(WorkflowSpecError):
            wf.uses("ghost", ["rows"])

    def test_reducer_uses_merges_parents(self):
        wf = build_basic_workflow()
        dag = wf.compile()
        assert dag.parents("checked") == ("predictions", "target")

    def test_output_marks_nodes(self):
        wf = build_basic_workflow()
        dag = wf.compile()
        assert dag.outputs == ("checked",)

    def test_output_unknown_rejected(self):
        with pytest.raises(WorkflowSpecError):
            build_basic_workflow().output("ghost")

    def test_synthesize_generic_join(self):
        wf = Workflow()
        wf.data_source("left", _source())
        wf.data_source("right", _source())
        wf.synthesize("joined", ["left", "right"], PairSynthesizer())
        dag = wf.compile()
        assert dag.parents("joined") == ("left", "right")

    def test_synthesize_type_checked(self):
        wf = Workflow()
        wf.data_source("left", _source())
        with pytest.raises(WorkflowSpecError):
            wf.synthesize("joined", ["left"], FieldExtractor("a"))  # type: ignore[arg-type]


class TestCompilation:
    def test_empty_workflow_rejected(self):
        with pytest.raises(WorkflowSpecError):
            Workflow().compile()

    def test_components_assigned(self):
        dag = build_basic_workflow().compile()
        assert dag.node("rows").component is Component.DPR
        assert dag.node("predictions").component is Component.LI
        assert dag.node("checked").component is Component.PPR

    def test_compile_is_repeatable(self):
        wf = build_basic_workflow()
        assert wf.compile().node_names == wf.compile().node_names

    def test_unused_extractor_is_pruned_by_slicing(self):
        wf = Workflow()
        wf.data_source("data", _source())
        wf.scan("rows", "data", CSVScanner(["a", "target"]))
        wf.extractor("aExt", "rows", FieldExtractor("a"))
        wf.extractor("raceExt", "rows", FieldExtractor("race"))
        wf.extractor("target", "rows", FieldExtractor("target"))
        wf.examples("examples", "rows", extractors=["aExt"], label="target")
        wf.output("examples")
        dag = wf.compile()
        assert "raceExt" in dag
        assert "raceExt" not in dag.sliced_to_outputs()
