"""Unit tests for the core data model (records, feature vectors, collections)."""

from __future__ import annotations

import types
from itertools import chain
from typing import Any, Dict, Mapping, Optional, Sequence, Tuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.data import (
    DataCollection,
    ElementKind,
    Example,
    FeatureVector,
    Record,
    SemanticUnit,
    Split,
)
from repro.core.data import _dict_column, _to_columns
from repro.storage.canonical import decode, encode


def _reference_dict_column(
    dicts: Sequence[Any], shapes: Dict[Tuple[str, ...], int]
) -> Optional[Tuple[Tuple[int, ...], Tuple[Any, ...]]]:
    """The dict column as first written: every row sorted, every value fetched by key."""
    if set(map(type, dicts)) != {dict}:
        return None
    if not set(map(type, chain.from_iterable(dicts))) <= {str}:  # every key
        return None
    rows = list(map(tuple, map(sorted, dicts)))
    for keys in dict.fromkeys(rows):  # distinct shapes, in order of first use
        shapes.setdefault(keys, len(shapes))
    values = tuple([mapping[key] for mapping, keys in zip(dicts, rows) for key in keys])
    return tuple(map(shapes.__getitem__, rows)), values


def _reference_matrix(collection: DataCollection, index: Mapping[str, int]) -> np.ndarray:
    """``X`` as first written: one ``to_dense`` row per example, stacked."""
    rows = [element.features.to_dense(index) for element in collection]
    return np.vstack(rows) if rows else np.zeros((0, len(index)))


def _reference_size(collection: DataCollection) -> int:
    """The size estimate as first written (typing.Mapping check per element)."""
    total = 64
    for element in collection.elements:
        total += 56
        features = getattr(element, "features", None)
        if isinstance(features, FeatureVector):
            total += 48 * len(features)
        if isinstance(element, FeatureVector):
            total += 48 * len(element)
        if isinstance(element, SemanticUnit) and isinstance(element.output, FeatureVector):
            total += 48 * len(element.output)
        fields = getattr(element, "fields", None)
        if isinstance(fields, Mapping):
            for value in fields.values():
                if isinstance(value, str):
                    total += 40 + len(value)
                elif isinstance(value, np.ndarray):
                    total += int(value.nbytes)
                else:
                    total += 32
        if isinstance(element, np.ndarray):
            total += int(element.nbytes)
    return total


_names = st.text(min_size=1, max_size=6)
_vectors = st.dictionaries(_names, st.floats(-10, 10), max_size=4).map(FeatureVector)
_arrays = st.integers(0, 40).map(np.zeros)
_field_values = st.one_of(st.text(max_size=12), _arrays, st.integers(), st.floats(), st.none())
_fields = st.dictionaries(_names, _field_values, max_size=4)
_splits = st.sampled_from(list(Split))
_finite = st.floats(allow_nan=False)
#: Dense vectors whose names overlap the sparse ones below, of three widths.
_dense = st.integers(0, 12).flatmap(
    lambda width: st.lists(_finite, min_size=width, max_size=width)
).map(lambda values: FeatureVector.from_dense(values, prefix="rff"))
_dense_of_width = st.sampled_from([2, 11]).flatmap(
    lambda width: st.lists(_finite, min_size=width, max_size=width)
).map(lambda values: FeatureVector.from_dense(values, prefix="rff"))
_sparse = st.dictionaries(
    st.sampled_from(["rff_0", "rff_1", "rff_10", "x", "y=a"]), _finite, max_size=4
).map(FeatureVector)

#: Every element kind the estimator distinguishes, plus look-alikes: a
#: record over a read-only mapping, and plain objects carrying ``fields`` or
#: ``features`` attributes.
_elements = st.one_of(
    st.builds(Record, fields=_fields, split=_splits),
    st.builds(Record, fields=_fields.map(types.MappingProxyType)),
    st.builds(SemanticUnit, input=st.none(), source=_names,
              output=st.one_of(st.none(), _vectors), split=_splits),
    st.builds(Example, features=_vectors, label=st.none(), split=_splits),
    _vectors,
    _arrays,
    st.builds(types.SimpleNamespace, fields=st.one_of(_fields, st.lists(st.integers()))),
    st.builds(types.SimpleNamespace, features=st.one_of(_vectors, st.integers())),
    st.one_of(st.integers(), st.text(max_size=5), st.none()),
)


class TestRecord:
    def test_getitem_and_get(self):
        record = Record(fields={"age": 30, "name": "x"})
        assert record["age"] == 30
        assert record.get("missing", 5) == 5
        assert "name" in record

    def test_default_split_is_all(self):
        assert Record(fields={}).split is Split.ALL

    def test_with_fields_merges_and_preserves_split(self):
        record = Record(fields={"a": 1}, split=Split.TEST)
        updated = record.with_fields(b=2, a=3)
        assert updated["a"] == 3 and updated["b"] == 2
        assert updated.split is Split.TEST
        assert record["a"] == 1  # original untouched

    def test_keys(self):
        record = Record(fields={"a": 1, "b": 2})
        assert sorted(record.keys()) == ["a", "b"]


class TestFeatureVector:
    def test_scalar_and_one_hot(self):
        fv = FeatureVector.scalar("age", 31)
        assert fv.get("age") == 31.0
        hot = FeatureVector.one_hot("color", "red")
        assert hot.get("color=red") == 1.0

    def test_from_dense_names_features(self):
        fv = FeatureVector.from_dense([1.0, 2.0, 3.0], prefix="p")
        assert fv.get("p_1") == 2.0
        assert len(fv) == 3

    def test_concat_disjoint(self):
        merged = FeatureVector.scalar("a", 1).concat(FeatureVector.scalar("b", 2))
        assert merged.get("a") == 1.0 and merged.get("b") == 2.0

    def test_concat_conflict_raises(self):
        with pytest.raises(ValueError):
            FeatureVector.scalar("a", 1).concat(FeatureVector.scalar("a", 2))

    def test_concat_same_value_ok(self):
        merged = FeatureVector.scalar("a", 1).concat(FeatureVector.scalar("a", 1))
        assert merged.get("a") == 1.0

    def test_to_dense_respects_index(self):
        fv = FeatureVector({"x": 1.0, "y": 2.0})
        dense = fv.to_dense({"y": 0, "x": 1, "z": 2})
        assert dense.tolist() == [2.0, 1.0, 0.0]

    def test_equality(self):
        assert FeatureVector({"a": 1.0}) == FeatureVector({"a": 1.0})
        assert FeatureVector({"a": 1.0}) != FeatureVector({"a": 2.0})

    def test_norm(self):
        assert FeatureVector({"a": 3.0, "b": 4.0}).norm() == pytest.approx(5.0)

    @given(st.dictionaries(st.text(min_size=1, max_size=8), st.floats(-100, 100), max_size=8))
    @settings(max_examples=50, deadline=None)
    def test_to_dense_round_trips_values(self, values):
        fv = FeatureVector(values)
        index = {name: i for i, name in enumerate(sorted(values))}
        dense = fv.to_dense(index)
        for name, position in index.items():
            assert dense[position] == pytest.approx(values[name])

    @given(
        st.dictionaries(st.text(min_size=1, max_size=5), st.floats(-10, 10), max_size=5),
        st.dictionaries(st.text(min_size=6, max_size=10), st.floats(-10, 10), max_size=5),
    )
    @settings(max_examples=50, deadline=None)
    def test_concat_is_union_of_names(self, left, right):
        merged = FeatureVector(left).concat(FeatureVector(right))
        assert set(merged.names) == set(left) | set(right)

    def test_concat_of_empty_and_one_other_is_that_other(self):
        dense = FeatureVector.from_dense([1.0, 2.0])
        sparse = FeatureVector({"a": 1.0})
        assert FeatureVector().concat(dense) is dense
        assert FeatureVector().concat(sparse) is sparse
        assert FeatureVector.from_dense([]).concat(sparse) is sparse
        assert dense.concat(sparse) == FeatureVector({"f_0": 1.0, "f_1": 2.0, "a": 1.0})


class TestDenseFeatureVector:
    """A ``from_dense`` vector is one float64 row plus a shared names tuple,
    and answers every question exactly as the dict form does."""

    @given(st.lists(st.floats(allow_nan=False), max_size=14))
    @settings(max_examples=80, deadline=None)
    def test_dense_answers_like_the_dict_form(self, values):
        dense = FeatureVector.from_dense(values, prefix="rff")
        sparse = FeatureVector({f"rff_{i}": value for i, value in enumerate(values)})
        assert len(dense) == len(sparse)
        assert dense.names == sparse.names
        assert list(dense.items()) == list(sparse.items())
        assert all(type(value) is float for _name, value in dense.items())
        for name in (*sparse.names, "rff_99", "x"):
            assert dense.get(name, -1.5) == sparse.get(name, -1.5)
            assert type(dense.get(name)) is float
            assert (name in dense) == (name in sparse)
        assert dense == sparse and sparse == dense
        assert dense.norm() == sparse.norm()
        if values:
            changed = -values[-1] if values[-1] else 1.0
            assert dense != FeatureVector.from_dense([*values[:-1], changed], prefix="rff")
            assert dense != FeatureVector.from_dense(values, prefix="other")

    def test_the_names_tuple_is_shared_and_the_row_is_a_copy(self):
        source = np.array([1.0, 2.0, 3.0])
        first = FeatureVector.from_dense(source, prefix="p")
        second = FeatureVector.from_dense([4, 5, 6], prefix="p")
        assert first._names is second._names
        source[0] = 99.0
        assert first.get("p_0") == 1.0
        assert first._row.dtype == np.float64

    @given(st.lists(st.one_of(_dense, _sparse), max_size=6), st.sampled_from(["unit", "example", "bare"]))
    @settings(max_examples=80, deadline=None)
    def test_size_estimate_ignores_the_form(self, vectors, kind):
        def collection(form):
            rows = [form(vector) for vector in vectors]
            if kind == "unit":
                rows = [SemanticUnit(input=None, source="s", output=row) for row in rows]
            elif kind == "example":
                rows = [Example(features=row) for row in rows]
            return DataCollection("d", rows)

        as_dicts = collection(lambda vector: FeatureVector(dict(vector.items())))
        assert collection(lambda vector: vector).estimated_size_bytes() == as_dicts.estimated_size_bytes()


class TestSemanticUnitAndExample:

    def test_example_with_prediction_copies(self):
        example = Example(features=FeatureVector.scalar("x", 1), label=1.0, split=Split.TEST)
        predicted = example.with_prediction(0.0, score=0.2)
        assert predicted.prediction == 0.0
        assert predicted.score == 0.2
        assert predicted.split is Split.TEST
        assert example.prediction is None


class TestDataCollection:
    def _examples(self):
        return [
            Example(features=FeatureVector.scalar("x", i), label=float(i % 2),
                    split=Split.TRAIN if i < 3 else Split.TEST)
            for i in range(5)
        ]

    def test_len_iter_getitem(self):
        dc = DataCollection("d", [1, 2, 3])
        assert len(dc) == 3
        assert list(dc) == [1, 2, 3]
        assert dc[1] == 2

    def test_train_test_selectors(self):
        dc = DataCollection("d", self._examples(), kind=ElementKind.EXAMPLE)
        assert len(dc.test()) == 2

    def test_untagged_elements_appear_in_both(self):
        dc = DataCollection("d", [Example(features=FeatureVector.scalar("x", 1))])
        assert len(dc.test()) == 1

    def test_filter(self):
        dc = DataCollection("d", [1, 2, 3, 4])
        assert list(dc.filter(lambda x: x % 2 == 0)) == [2, 4]

    def test_feature_index_is_sorted_and_stable(self):
        dc = DataCollection("d", self._examples(), kind=ElementKind.EXAMPLE)
        index = dc.feature_index()
        assert list(index.values()) == list(range(len(index)))
        assert list(index.keys()) == sorted(index.keys())

    def test_to_matrix_shapes_and_labels(self):
        dc = DataCollection("d", self._examples(), kind=ElementKind.EXAMPLE)
        X, y, index = dc.to_matrix()
        assert X.shape == (5, len(index))
        assert y.shape == (5,)
        assert y[0] == 0.0 and y[1] == 1.0

    def test_to_matrix_requires_examples(self):
        dc = DataCollection("d", [1, 2, 3])
        with pytest.raises(TypeError):
            dc.to_matrix()

    def test_to_matrix_empty(self):
        X, y, index = DataCollection("d", []).to_matrix({})
        assert X.shape == (0, 0)
        assert y.shape == (0,)

    def test_estimated_size_grows_with_elements(self):
        small = DataCollection("d", self._examples()[:1])
        large = DataCollection("d", self._examples())
        assert large.estimated_size_bytes() > small.estimated_size_bytes()

    def test_estimated_size_counts_numpy_fields(self):
        records = [Record(fields={"pixels": np.zeros(1000)})]
        dc = DataCollection("d", records)
        assert dc.estimated_size_bytes() > 8000

    @given(st.lists(_elements, max_size=8))
    @settings(max_examples=150, deadline=None)
    def test_estimated_size_matches_the_reference_loop(self, elements):
        collection = DataCollection("d", elements)
        assert collection.estimated_size_bytes() == _reference_size(collection)

    def test_feature_index_adds_dense_names(self):
        dc = DataCollection("d", [
            Example(features=FeatureVector.from_dense([1.0, 2.0], prefix="rff")),
            Example(features=FeatureVector.from_dense([3.0, 4.0], prefix="rff")),
            Example(features=FeatureVector({"rff_1": 5.0, "x": 1.0})),
        ])
        assert dc.feature_index() == {"rff_0": 0, "rff_1": 1, "x": 2}

    @given(
        st.lists(st.one_of(_dense_of_width, _sparse), max_size=8),
        st.one_of(
            st.none(),
            st.lists(st.sampled_from(["rff_0", "rff_1", "rff_3", "rff_10", "x", "absent"]),
                     unique=True).flatmap(
                lambda names: st.permutations(range(len(names))).map(
                    lambda positions: dict(zip(names, positions)))),
        ),
    )
    @settings(max_examples=150, deadline=None)
    def test_to_matrix_is_bit_identical_to_the_per_row_reference(self, vectors, index):
        """Dense, sparse and mixed collections, a given index that lacks
        some names (or carries ones no vector has), and the empty collection."""
        collection = DataCollection("d", [
            Example(features=vector, label=float(i % 2) if i % 3 else None)
            for i, vector in enumerate(vectors)
        ])
        X, y, used = collection.to_matrix(index)
        expected = _reference_matrix(collection, collection.feature_index() if index is None else index)
        assert X.dtype == expected.dtype and X.shape == expected.shape
        assert X.tobytes() == expected.tobytes()
        assert used == (collection.feature_index() if index is None else index)
        assert np.array_equal(y, [e.label if e.label is not None else np.nan for e in collection],
                              equal_nan=True)


_shape_keys = st.sampled_from([(), ("a",), ("b",), ("a", "b"), ("b", "c", "a"), ("z", "y", "x", "w")])
#: Rows of alternating, empty and single-key shapes, runs of one shape included.
_dict_rows = st.lists(
    st.tuples(_shape_keys, st.integers(1, 3)), max_size=8
).flatmap(
    lambda runs: st.tuples(*[
        st.lists(st.fixed_dictionaries({key: st.one_of(st.integers(), _names) for key in keys}),
                 min_size=count, max_size=count)
        for keys, count in runs
    ])
).map(lambda runs: list(chain.from_iterable(runs)))


class TestDictColumn:
    @given(_dict_rows, st.dictionaries(st.tuples(_names), st.integers(0, 5), max_size=2))
    @settings(max_examples=150, deadline=None)
    def test_matches_the_reference_column(self, dicts, table):
        # A prefilled shape table (another column's shapes) numbers new ones after it.
        shapes = {keys: position for position, keys in enumerate(table)}
        reference_shapes = dict(shapes)
        assert _dict_column(dicts, shapes) == _reference_dict_column(dicts, reference_shapes)
        assert list(shapes.items()) == list(reference_shapes.items())

    def test_refuses_what_the_reference_refuses(self):
        class Key(str):
            pass

        for dicts in ([{"a": 1}, {Key("a"): 2}], [{"a": 1}, {1: 2}], [{"a": 1}, types.MappingProxyType({"a": 1})]):
            assert _dict_column(dicts, {}) is None
            assert _reference_dict_column(dicts, {}) is None


_labels = st.one_of(st.none(), _finite)
#: Records, units and examples of every column form: field dicts and sparse
#: vectors of several shapes (the empty one included), dense vectors over
#: one names tuple, and dense and sparse vectors mixed in one column.
_columnar_collections = st.one_of(
    st.lists(st.builds(Record, fields=st.one_of(st.just({}), _fields), split=_splits),
             min_size=1, max_size=8).map(lambda rows: DataCollection("records", rows, ElementKind.RECORD)),
    st.lists(
        st.builds(SemanticUnit, input=st.one_of(st.none(), _names, st.integers()), source=_names,
                  output=st.one_of(st.just(FeatureVector()), _vectors, _sparse), split=_splits),
        min_size=1, max_size=8,
    ).map(lambda units: DataCollection("units", units, ElementKind.SEMANTIC_UNIT)),
    st.sampled_from([0, 2, 11]).flatmap(
        lambda width: st.lists(
            st.builds(SemanticUnit, input=st.none(), source=_names,
                      output=st.lists(_finite, min_size=width, max_size=width).map(
                          lambda values: FeatureVector.from_dense(values, prefix="rff")),
                      split=_splits),
            min_size=1, max_size=8,
        )
    ).map(lambda units: DataCollection("dense units", units, ElementKind.SEMANTIC_UNIT)),
    st.lists(
        st.builds(Example, features=st.one_of(st.just(FeatureVector()), _sparse, _dense_of_width),
                  label=_labels, split=_splits, prediction=_labels, score=_labels),
        min_size=1, max_size=8,
    ).map(lambda examples: DataCollection("examples", examples, ElementKind.EXAMPLE)),
    st.sampled_from([2, 11]).flatmap(
        lambda width: st.lists(
            st.builds(Example, features=st.lists(_finite, min_size=width, max_size=width).map(
                lambda values: FeatureVector.from_dense(values, prefix="rff")), label=_labels,
                split=_splits),
            min_size=1, max_size=8,
        )
    ).map(lambda examples: DataCollection("dense examples", examples, ElementKind.EXAMPLE)),
)


class TestColumnsFirst:
    """A decoded collection holds its columns and builds rows on first access."""

    @given(_columnar_collections)
    @settings(max_examples=200, deadline=None)
    def test_decoded_columns_answer_as_the_rows(self, collection):
        packed = encode(collection)
        decoded = decode(packed)
        assert decoded._rows is None and len(decoded) == len(collection)
        assert encode(decoded) == packed  # before any row exists
        size = decoded.estimated_size_bytes()
        if collection.kind is ElementKind.EXAMPLE:
            X, y, index = decoded.to_matrix()
            assert index == decoded.feature_index() == collection.feature_index()
        assert decoded._rows is None
        assert list(map(type, decoded)) == list(map(type, collection))
        if collection.kind is ElementKind.RECORD:
            # Field values may be NaN or arrays: compare canonical bytes,
            # which pin types and values and read dicts in key order.
            assert encode(decoded.elements) == encode(collection.elements)
        else:  # a dense vector equals the dict vector a mixed column restores
            assert decoded.elements == collection.elements
        assert size == _reference_size(decoded) == _reference_size(collection)
        if collection.kind is ElementKind.EXAMPLE:
            expected = _reference_matrix(decoded, index)
            assert X.dtype == expected.dtype and X.tobytes() == expected.tobytes()
            assert np.array_equal(y, [np.nan if e.label is None else e.label for e in collection],
                                  equal_nan=True)
        assert encode(decoded) == packed  # and after

    @given(_columnar_collections)
    @settings(max_examples=100, deadline=None)
    def test_the_test_split_selects_columns(self, collection):
        """``test()`` of a decoded collection selects columns without
        building rows, to exactly the state of the selected rows."""
        decoded = decode(encode(collection))
        selected = decoded.test()
        assert decoded._rows is None
        # The rows of a second decode: a mixed column restores dict vectors.
        rows = [e for e in decode(encode(collection)) if e.split is not Split.TRAIN]
        assert len(selected) == len(rows) and selected.name == f"{collection.name}[test]"
        if rows:
            assert encode(selected._columns()) == encode(_to_columns(tuple(selected.elements)))
        assert encode(selected) == encode(DataCollection(selected.name, rows, collection.kind))

    def test_a_collection_born_as_rows_columnizes_once(self, monkeypatch):
        import repro.core.data as data

        calls = []
        original = data._to_columns
        monkeypatch.setattr(data, "_to_columns", lambda rows: calls.append(1) or original(rows))
        collection = DataCollection("d", [Example(features=FeatureVector({"a": 1.0}), label=1.0)],
                                    ElementKind.EXAMPLE)
        collection.estimated_size_bytes()
        collection.to_matrix()
        assert encode(collection) == encode(collection)
        assert calls == [1]
