"""Tests for the fluent HML facade over the Workflow builder."""

from __future__ import annotations

import pytest

from repro.core.hml import HML
from repro.core.operators import (
    CSVScanner,
    DataSource,
    FieldExtractor,
    Learner,
    Reducer,
)
from repro.exceptions import WorkflowSpecError
from repro.ml.linear import LogisticRegression
from repro.systems.helix import HelixSystem

from conftest import PairSynthesizer


def _source():
    def gen(context, n=30):
        rows = [{"line": f"{i % 50},{'A' if i % 2 else 'B'},{i % 2}"} for i in range(n)]
        return rows, rows[: n // 3]

    return DataSource(generator=gen)


def build_program() -> HML:
    hml = HML("census-hml")
    hml["data"].refers_to(_source())
    hml["data"].is_read_into("rows", using=CSVScanner(["age", "education", "target"]))
    hml["ageExt"].refers_to(FieldExtractor("age"), on="rows")
    hml["eduExt"].refers_to(FieldExtractor("education"), on="rows")
    hml["target"].refers_to(FieldExtractor("target", as_categorical=False), on="rows")
    hml["rows"].has_extractors("ageExt", "eduExt")
    hml["income"].results_from("rows", with_labels="target")
    hml["incPred"].refers_to(
        Learner(LogisticRegression, params={"max_iter": 50}), on="income", produces="predictions"
    )
    hml["checked"].results_from_reducer(
        Reducer(lambda dc: len(dc), name="check"), on="predictions", uses=["target"]
    )
    hml["checked"].is_output()
    return hml


class TestHMLFacade:
    def test_compiles_to_expected_dag(self):
        dag = build_program().compile()
        assert set(dag.node_names) >= {"data", "rows", "ageExt", "eduExt", "target",
                                       "income", "predictions", "checked"}
        assert dag.outputs == ("checked",)
        assert set(dag.parents("income")) == {"rows", "ageExt", "eduExt", "target"}
        assert "target" in dag.parents("checked")

    def test_program_executes_end_to_end(self):
        dag_count = HelixSystem.opt(seed=0).run_iteration(
            build_program().workflow, iteration=0
        )
        assert dag_count.outputs["checked"] > 0

    def test_handles_are_cached_and_membership_works(self):
        hml = HML()
        handle = hml["x"]
        assert hml["x"] is handle
        hml["data"].refers_to(_source())
        assert "data" in hml
        assert "ghost" not in hml

    def test_scanner_requires_single_input(self):
        hml = HML()
        hml["data"].refers_to(_source())
        with pytest.raises(WorkflowSpecError):
            hml["rows"].refers_to(CSVScanner(["a"]))

    def test_extractor_requires_input(self):
        hml = HML()
        with pytest.raises(WorkflowSpecError):
            hml["ext"].refers_to(FieldExtractor("a"))

    def test_learner_requires_single_input(self):
        hml = HML()
        with pytest.raises(WorkflowSpecError):
            hml["m"].refers_to(Learner(LogisticRegression))

    def test_reducer_requires_input(self):
        hml = HML()
        with pytest.raises(WorkflowSpecError):
            hml["r"].refers_to(Reducer(lambda dc: 0))

    def test_synthesizer_via_refers_to(self):
        hml = HML()
        hml["left"].refers_to(_source())
        hml["right"].refers_to(_source())
        hml["joined"].refers_to(PairSynthesizer(), on=["left", "right"])
        dag = hml.compile()
        assert dag.parents("joined") == ("left", "right")

    def test_uses_verb(self):
        hml = build_program()
        hml["checked"].uses("rows")
        assert "rows" in hml.compile().parents("checked")

    def test_mixing_with_plain_workflow_builder(self):
        hml = build_program()
        hml.workflow.extractor("extra", "rows", FieldExtractor("education"))
        assert "extra" in hml.compile().node_names
