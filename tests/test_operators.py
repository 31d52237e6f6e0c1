"""Unit tests for the built-in operator library."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from repro.core.data import _to_columns
from repro.exceptions import OperatorError, WorkflowSpecError
from repro.ml.kmeans import KMeans
from repro.ml.linear import LogisticRegression
from repro.ml.naive_bayes import MultinomialNaiveBayes
from repro.storage.canonical import decode, encode
from repro.workloads.census import CENSUS_COLUMNS, generate_census_rows

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


# ---------------------------------------------------------------------------
# Columnar producers: the state born as columns is the row loop's, exactly
# ---------------------------------------------------------------------------
def _born_as(rows_output: DataCollection, columns_output: DataCollection) -> None:
    """``columns_output`` was born as columns, to ``_to_columns`` of the row loop's rows."""
    assert columns_output._rows is None, "the producer took its row loop"
    assert (columns_output.name, columns_output.kind) == (rows_output.name, rows_output.kind)
    # Canonical bytes: equal values of equal types, NaN included.
    assert encode(columns_output._columns()) == encode(_to_columns(rows_output.elements))


def _census_rows(decoded: bool) -> DataCollection:
    """Census iteration-0 ``rows``: as the scanner built them, or decoded from the store."""
    data = DataSource(generator=generate_census_rows, params={"n_train": 90, "n_test": 30}).run([], CTX)
    rows = CSVScanner(CENSUS_COLUMNS, line_field="line").run([data], CTX)
    return decode(encode(rows)) if decoded else rows


def _census_features(rows: DataCollection):
    """The census extractor outputs, in the workflow's attachment order."""
    extract = {field: FieldExtractor(field).run([rows], CTX)
               for field in ("education", "occupation", "age", "capital_gain")}
    return [
        extract["education"],
        extract["occupation"],
        Bucketizer("age", bins=10).run([extract["age"]], CTX),
        InteractionFeature(["education", "occupation"]).run(
            [extract["education"], extract["occupation"]], CTX),
        extract["capital_gain"],
        FieldExtractor("target", as_categorical=False).run([rows], CTX),
    ]


_values = st.one_of(
    st.sampled_from(["a", "b", "1", "2.5", "-0.0", "nan", " 3 "]),
    st.integers(-3, 3), st.booleans(), st.none(), st.floats(), st.just(-0.0),
)
#: Records that share one field shape (the columnar path).
_shared_shape_records = st.lists(
    st.tuples(st.fixed_dictionaries({"x": _values, "y": _values}), st.sampled_from(list(Split))),
    min_size=1, max_size=12,
).map(lambda rows: DataCollection(
    "rows", [Record(fields=fields, split=split) for fields, split in rows], kind=ElementKind.RECORD))


class TestColumnarProducers:
    @pytest.mark.parametrize("decoded", [False, True])
    def test_field_extractor_on_census_rows(self, decoded):
        rows = _census_rows(decoded)
        for field in CENSUS_COLUMNS:
            for as_categorical in (None, True, False):
                extractor = FieldExtractor(field, as_categorical=as_categorical)
                _born_as(extractor._extract_rows(rows), extractor.run([rows], CTX))

    @given(_shared_shape_records, st.sampled_from(["x", "y", "absent"]), st.sampled_from([None, True, False]))
    @settings(max_examples=150, deadline=None)
    def test_field_extractor_on_records_of_one_shape(self, rows, field, as_categorical):
        extractor = FieldExtractor(field, as_categorical=as_categorical)
        _born_as(extractor._extract_rows(rows), extractor.run([rows], CTX))

    def test_mixed_shape_records_take_the_row_loop(self):
        rows = _record_dc([{"x": "a"}, {"x": "b", "y": 1}])
        for collection in (rows, decode(encode(rows))):
            out = FieldExtractor("x").run([collection], CTX)
            assert out._rows is not None
            assert [unit.output for unit in out] == [FeatureVector({"x=a": 1.0}), FeatureVector({"x=b": 1.0})]

    @pytest.mark.parametrize("decoded", [False, True])
    def test_synthesizer_on_census_features(self, decoded):
        rows = _census_rows(decoded)
        features = _census_features(rows)
        if decoded:
            features = [decode(encode(collection)) for collection in features]
        for label_source in ("target", None):
            synthesizer = ExampleSynthesizer(label_source=label_source)
            _born_as(synthesizer._assemble_rows(rows, features),
                     synthesizer.run([rows, *features], CTX))

    @given(_shared_shape_records, st.integers(0, 12), st.sampled_from([None, True, False]))
    @settings(max_examples=100, deadline=None)
    def test_synthesizer_with_a_shorter_feature_collection_and_labels(self, rows, cut, as_categorical):
        shorter = DataCollection("rows", rows.elements[:cut], ElementKind.RECORD)
        features = [
            FieldExtractor("x", as_categorical=as_categorical).run([rows], CTX),
            FieldExtractor("y", as_categorical=as_categorical).run([shorter], CTX),
        ]
        for label_source in ("y", "x", None):
            synthesizer = ExampleSynthesizer(label_source=label_source)
            _born_as(synthesizer._assemble_rows(rows, features), synthesizer.run([rows, *features], CTX))
        # Two label sources: the later, shorter one relabels only its rows.
        features.append(FieldExtractor("x").run([shorter], CTX))
        synthesizer = ExampleSynthesizer(label_source="x")
        _born_as(synthesizer._assemble_rows(rows, features), synthesizer.run([rows, *features], CTX))

    def test_colliding_feature_names_raise_the_row_loops_error(self):
        rows = _record_dc([{"x": "1"}, {"x": "1"}])
        x = FieldExtractor("x").run([rows], CTX)
        other_x = FieldExtractor("x").run([_record_dc([{"x": "1"}, {"x": "2"}])], CTX)
        synthesizer = ExampleSynthesizer()
        for features in ([x, other_x], [decode(encode(x)), decode(encode(other_x))]):
            with pytest.raises(ValueError, match="feature name collision on 'x'"):
                synthesizer.run([rows, *features], CTX)
            with pytest.raises(ValueError, match="feature name collision on 'x'"):
                synthesizer._assemble_rows(rows, features)
        # An equal value under one name merges, as the row loop merges it.
        out = synthesizer.run([rows, x, x], CTX)
        assert [example.features for example in out] == [FeatureVector({"x": 1.0})] * 2
        assert encode(out) == encode(synthesizer._assemble_rows(rows, [x, x]))

    def test_dense_inputs_take_the_row_loop(self):
        rows = _record_dc([{"t": 1}, {"t": 0}])
        dense = DataCollection("rff", [
            SemanticUnit(input=None, source="rff", output=FeatureVector.from_dense([1.0, 2.0], prefix="rff"))
            for _ in range(2)
        ], kind=ElementKind.SEMANTIC_UNIT)
        label = FieldExtractor("t", as_categorical=False).run([rows], CTX)
        out = ExampleSynthesizer(label_source="t").run([rows, dense, label], CTX)
        assert out._rows is not None
        assert [example.label for example in out] == [1.0, 0.0]
        assert out[0].features is dense[0].output

    @pytest.mark.parametrize("model", [LogisticRegression, MultinomialNaiveBayes])
    def test_learner_writes_the_examples_columns_and_two_more(self, model):
        rows = _census_rows(decoded=False)
        features = _census_features(rows)
        examples = ExampleSynthesizer(label_source="target").run([rows, *features], CTX)
        result = Learner(model).run([examples], CTX)
        X, _y, _index = examples.to_matrix()
        scores = result.model.predict_proba(X) if hasattr(result.model, "predict_proba") else None
        expected = Learner._annotate_rows(
            examples, result.model.predict(X), None if scores is None else scores[:, -1])
        _born_as(expected, result.predictions)
        # Examples without columns (one ad-hoc attribute) take the row loop to the same fit.
        rows_only = DataCollection("examples", map(dataclasses.replace, examples), ElementKind.EXAMPLE)
        rows_only[0].note = "no columns"
        by_rows = Learner(model).run([rows_only], CTX)
        assert by_rows.predictions._state is None
        assert encode(by_rows.predictions) == encode(result.predictions)
