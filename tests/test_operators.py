"""Unit tests for the built-in operator library."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.data import DataCollection, ElementKind, Example, FeatureVector, Record, SemanticUnit, Split
from repro.core.operators import (
    Bucketizer,
    Component,
    CSVScanner,
    DataSource,
    ExampleSynthesizer,
    FieldExtractor,
    FunctionExtractor,
    InteractionFeature,
    Learner,
    PredictionsResult,
    Reducer,
    RunContext,
    Scanner,
)
from repro.exceptions import OperatorError, WorkflowSpecError
from repro.ml.kmeans import KMeans
from repro.ml.linear import LogisticRegression

CTX = RunContext(seed=0)


def _record_dc(rows, split=Split.TRAIN):
    return DataCollection("rows", [Record(fields=r, split=split) for r in rows], kind=ElementKind.RECORD)


class TestDataSource:
    def test_requires_path_or_generator(self):
        with pytest.raises(WorkflowSpecError):
            DataSource()

    def test_generator_tags_splits(self):
        def gen(context, n=2):
            return [{"a": i} for i in range(n)], [{"a": 10}]

        dc = DataSource(generator=gen, params={"n": 3}).run([], CTX)
        assert len(dc) == 4
        assert sum(1 for r in dc if r.split is Split.TRAIN) == 3
        assert sum(1 for r in dc if r.split is Split.TEST) == 1

    def test_config_signature_changes_with_params(self):
        def gen(context):
            return [], []

        s1 = DataSource(generator=gen, params={"n": 1})
        s2 = DataSource(generator=gen, params={"n": 2})
        assert s1.config_signature() != s2.config_signature()

    def test_explicit_cost_used(self):
        def gen(context):
            return [], []

        assert DataSource(generator=gen, cost=3.5).estimated_cost([]) == 3.5


class TestScanner:
    def test_flat_map_and_filter(self):
        dc = _record_dc([{"v": 1}, {"v": 2}, {"v": 3}])
        scanner = Scanner(lambda r: [r] if r["v"] % 2 else [])
        out = scanner.run([dc], CTX)
        assert [r["v"] for r in out] == [1, 3]

    def test_rejects_non_collection(self):
        with pytest.raises(OperatorError):
            Scanner(lambda r: [r]).run(["not a dc"], CTX)

    def test_csv_scanner_parses_lines(self):
        dc = _record_dc([{"line": "39, Bachelors ,1"}])
        out = CSVScanner(["age", "education", "target"]).run([dc], CTX)
        assert out[0]["age"] == "39"
        assert out[0]["education"] == "Bachelors"
        assert out[0].split is Split.TRAIN

    def test_csv_scanner_passthrough_fields(self):
        dc = _record_dc([{"age": 10, "education": "HS"}])
        out = CSVScanner(["age", "education"]).run([dc], CTX)
        assert out[0]["age"] == 10


class TestExtractors:
    def test_field_extractor_numeric(self):
        dc = _record_dc([{"age": "30"}, {"age": "40"}])
        out = FieldExtractor("age").run([dc], CTX)
        assert out.kind is ElementKind.SEMANTIC_UNIT
        assert out[0].output.get("age") == 30.0

    def test_field_extractor_categorical(self):
        dc = _record_dc([{"color": "red"}])
        out = FieldExtractor("color").run([dc], CTX)
        assert out[0].output.get("color=red") == 1.0

    def test_field_extractor_forced_categorical(self):
        dc = _record_dc([{"age": "30"}])
        out = FieldExtractor("age", as_categorical=True).run([dc], CTX)
        assert out[0].output.get("age=30") == 1.0

    def test_bucketizer_learns_boundaries(self):
        dc = _record_dc([{"age": i} for i in range(100)])
        su = FieldExtractor("age").run([dc], CTX)
        out = Bucketizer("age", bins=4).run([su], CTX)
        buckets = {list(unit.output.items())[0][0] for unit in out}
        assert len(buckets) == 4  # four distinct bucket indicators

    def test_bucketizer_requires_positive_bins(self):
        with pytest.raises(WorkflowSpecError):
            Bucketizer("age", bins=0)

    def test_bucketizer_empty_input(self):
        out = Bucketizer("age", bins=4).run([DataCollection("x", [])], CTX)
        assert len(out) == 0

    def test_interaction_feature_categorical(self):
        dc = _record_dc([{"a": "x", "b": "y"}])
        ext_a = FieldExtractor("a").run([dc], CTX)
        ext_b = FieldExtractor("b").run([dc], CTX)
        out = InteractionFeature(["a", "b"]).run([ext_a, ext_b], CTX)
        (name, value), = list(out[0].output.items())
        assert value == 1.0
        assert "a=x" in name and "b=y" in name

    def test_interaction_feature_numeric_product(self):
        dc = _record_dc([{"a": 2, "b": 3}])
        ext_a = FieldExtractor("a").run([dc], CTX)
        ext_b = FieldExtractor("b").run([dc], CTX)
        out = InteractionFeature(["a", "b"]).run([ext_a, ext_b], CTX)
        assert out[0].output.get("axb") == 6.0

    def test_interaction_requires_two_inputs(self):
        with pytest.raises(WorkflowSpecError):
            InteractionFeature(["a"])

    def test_function_extractor_wraps_scalars(self):
        dc = _record_dc([{"v": 5}])
        out = FunctionExtractor("double", lambda r: float(r["v"]) * 2).run([dc], CTX)
        assert out[0].output.get("double") == 10.0


class TestSynthesizers:
    def _pipeline(self):
        rows = _record_dc([{"a": "x", "label": i % 2} for i in range(6)])
        ext = FieldExtractor("a").run([rows], CTX)
        label = FieldExtractor("label", as_categorical=False).run([rows], CTX)
        return rows, ext, label

    def test_example_synthesizer_assembles_features_and_labels(self):
        rows, ext, label = self._pipeline()
        out = ExampleSynthesizer(label_source="label").run([rows, ext, label], CTX)
        assert out.kind is ElementKind.EXAMPLE
        assert len(out) == 6
        assert out[0].label == 0.0 and out[1].label == 1.0
        assert out[0].features.get("a=x") == 1.0

    def test_example_synthesizer_without_label(self):
        rows, ext, _ = self._pipeline()
        out = ExampleSynthesizer().run([rows, ext], CTX)
        assert out[0].label is None

    def test_example_synthesizer_requires_base(self):
        with pytest.raises(OperatorError):
            ExampleSynthesizer().run([], CTX)


class TestLearnerAndReducer:
    def _examples(self, n=40):
        examples = []
        rng = np.random.default_rng(0)
        for i in range(n):
            x = float(rng.normal())
            label = 1.0 if x > 0 else 0.0
            examples.append(
                __import__("repro.core.data", fromlist=["Example"]).Example(
                    features=FeatureVector.scalar("x", x),
                    label=label,
                    split=Split.TRAIN if i < n * 3 // 4 else Split.TEST,
                )
            )
        return DataCollection("ex", examples, kind=ElementKind.EXAMPLE)

    def test_learner_fits_and_annotates(self):
        examples = self._examples()
        result = Learner(LogisticRegression, params={"max_iter": 200}).run([examples], CTX)
        assert isinstance(result, PredictionsResult)
        assert len(result.predictions) == len(examples)
        assert all(e.prediction is not None for e in result.predictions)
        labels = [e.label for e in result.predictions]
        predictions = [e.prediction for e in result.predictions]
        agreement = np.mean([l == p for l, p in zip(labels, predictions)])
        assert agreement > 0.8

    def test_unsupervised_learner_seeds_model_from_context(self):
        # Learner reseeds the estimator through its set_seed hook, so the
        # run's seed, not the constructor default, picks the clustering.
        points = np.random.default_rng(1).uniform(size=(60, 2))
        examples = DataCollection(
            "ex",
            [Example(features=FeatureVector.from_dense(p)) for p in points],
            kind=ElementKind.EXAMPLE,
        )
        learner = Learner(KMeans, params={"n_clusters": 4}, supervised=False)
        clusterings = []
        for seed in (1, 2):
            result = learner.run([examples], RunContext(seed=seed))
            predictions = [e.prediction for e in result.predictions]
            assert predictions == list(KMeans(n_clusters=4, seed=seed).fit(points).predict(points))
            clusterings.append(predictions)
        assert clusterings[0] != clusterings[1]

    def test_learner_component_is_li(self):
        assert Learner(LogisticRegression).component is Component.LI

    def test_reducer_runs_on_test_only(self):
        examples = self._examples()
        learned = Learner(LogisticRegression).run([examples], CTX)

        def count(collection):
            return len(collection)

        n_test = Reducer(count, on_test_only=True).run([learned], CTX)
        n_all = Reducer(count, on_test_only=False).run([learned], CTX)
        assert n_test < n_all

    def test_reducer_accepts_scalar_second_input(self):
        def fn(collection, scalar=None):
            return (len(collection), scalar)

        dc = DataCollection("d", [1, 2, 3])
        assert Reducer(fn, on_test_only=False).run([dc, 42], CTX) == (3, 42)

    def test_reducer_requires_input(self):
        with pytest.raises(OperatorError):
            Reducer(lambda c: 0).run([], CTX)


class TestSignatures:
    def test_same_config_same_signature(self):
        assert FieldExtractor("age").config_signature() == FieldExtractor("age").config_signature()

    def test_different_config_different_signature(self):
        assert FieldExtractor("age").config_signature() != FieldExtractor("sex").config_signature()

    def test_udf_code_participates_in_signature(self):
        a = FunctionExtractor("f", lambda r: 1.0)
        b = FunctionExtractor("f", lambda r: 2.0)
        assert a.config_signature() != b.config_signature()

    def test_udf_version_attribute_changes_signature(self):
        def fn(r):
            return 1.0

        before = FunctionExtractor("f", fn).config_signature()
        fn._version = 2
        after = FunctionExtractor("f", fn).config_signature()
        assert before != after

    def test_nondeterministic_operator_never_equivalent(self):
        class NoisyOperator(FieldExtractor):
            deterministic = False

        assert NoisyOperator("age").config_signature() != NoisyOperator("age").config_signature()

    def test_nondeterministic_signature_stable_per_instance(self):
        class NoisyOperator(FieldExtractor):
            deterministic = False

        op = NoisyOperator("age")
        assert op.config_signature() == op.config_signature()
