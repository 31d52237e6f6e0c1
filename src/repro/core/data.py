"""Data model for Helix workflows.

The paper (Section 3.2.1) distinguishes two element types inside a *data
collection* (DC):

* **Semantic units** (SUs) compartmentalize the logical and physical
  representation of features during data preprocessing (DPR).  An SU carries
  an input (records or feature values), a pointer to the DPR function that
  produced it, and a lazily produced output.
* **Examples** gather the outputs of a set of SUs into a single feature vector
  for learning/inference (L/I), optionally designating one SU output as the
  label.

This module implements :class:`Record`, :class:`FeatureVector` (dense and
sparse), :class:`SemanticUnit`, :class:`Example` and :class:`DataCollection`.
A :class:`DataCollection` is analogous to a relation: an ordered, immutable
sequence of homogeneous elements together with a ``split`` tag per element
("train" / "test" / "all") used for unified train/test handling.
"""

from __future__ import annotations

import collections.abc
import functools
import math
import operator
from dataclasses import dataclass
from enum import Enum
from itertools import accumulate, chain, compress, repeat
from typing import (
    Any,
    Callable,
    Collection,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

__all__ = [
    "Split",
    "Record",
    "FeatureVector",
    "SemanticUnit",
    "Example",
    "DataCollection",
    "ElementKind",
]


class Split(str, Enum):
    """Which portion of the dataset an element belongs to."""

    TRAIN = "train"
    TEST = "test"
    ALL = "all"


class ElementKind(str, Enum):
    """Kind of elements stored in a :class:`DataCollection`."""

    RECORD = "record"
    SEMANTIC_UNIT = "semantic_unit"
    EXAMPLE = "example"
    GENERIC = "generic"


@dataclass(frozen=True)
class Record:
    """A raw data object in a format not yet compatible with ML.

    A record is a mapping from field names to values (think: a parsed CSV row,
    a JSON document, or a free-text article stored under a single key).  The
    optional ``split`` tag marks whether the record belongs to the training or
    the test portion of the data source.
    """

    fields: Mapping[str, Any]
    split: Split = Split.ALL

    def __getitem__(self, key: str) -> Any:
        return self.fields[key]

    def get(self, key: str, default: Any = None) -> Any:
        return self.fields.get(key, default)

    def __contains__(self, key: str) -> bool:
        return key in self.fields

    def keys(self) -> Iterable[str]:
        return self.fields.keys()

    def with_fields(self, **extra: Any) -> "Record":
        """Return a copy of this record with additional or overridden fields."""
        merged = dict(self.fields)
        merged.update(extra)
        return Record(fields=merged, split=self.split)


class FeatureVector:
    """A named feature vector with either a sparse or a dense representation.

    Sparse categorical features are kept as a ``{name: value}`` mapping until
    final assembly (mirroring the paper's key-value representation).  A
    vector built by :meth:`from_dense` is dense: one float64 row plus the
    names tuple ``prefix_0 .. prefix_{n-1}``, one tuple object shared by
    every vector of that prefix and width.  Both forms answer ``len``,
    ``names``, ``items``, ``get``, ``in``, ``==`` and ``norm`` alike — a
    dense vector equals the dict vector with the same name -> value pairs —
    so only :class:`DataCollection`'s matrix assembly and serialized state
    look at the form.  Feature vectors support concatenation and conversion
    to a dense array given a global feature index.
    """

    __slots__ = ("_values", "_names", "_row")

    def __init__(self, values: Optional[Mapping[str, float]] = None):
        self._values: Optional[Dict[str, float]] = dict(values or {})
        self._names: Optional[Tuple[str, ...]] = None
        self._row: Optional[np.ndarray] = None

    # -- constructors ------------------------------------------------------
    @classmethod
    def from_dense(cls, array: Sequence[float], prefix: str = "f") -> "FeatureVector":
        """Build a dense feature vector from an array, naming features ``prefix_i``."""
        row = np.array(array, dtype=np.float64).ravel()
        return _dense_vector(_dense_names(prefix, row.size), row)

    @classmethod
    def one_hot(cls, name: str, category: Any) -> "FeatureVector":
        """Build a one-hot (indicator) feature ``name=category -> 1.0``."""
        return cls({f"{name}={category}": 1.0})

    @classmethod
    def scalar(cls, name: str, value: float) -> "FeatureVector":
        """Build a single-feature vector."""
        return cls({name: float(value)})

    # -- accessors ---------------------------------------------------------
    @property
    def names(self) -> Tuple[str, ...]:
        """The feature names, sorted."""
        if self._row is None:
            return tuple(sorted(self._values))
        return _dense_layout(self._names)[0]

    def items(self) -> Iterable[Tuple[str, float]]:
        if self._row is None:
            return self._values.items()
        return list(zip(self._names, self._row.tolist()))

    def get(self, name: str, default: float = 0.0) -> float:
        if self._row is None:
            return self._values.get(name, default)
        position = _dense_layout(self._names)[1].get(name)
        return default if position is None else self._row.item(position)

    def __len__(self) -> int:
        return len(self._values) if self._row is None else len(self._names)

    def __contains__(self, name: str) -> bool:
        if self._row is None:
            return name in self._values
        return name in _dense_layout(self._names)[1]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FeatureVector):
            return NotImplemented
        if self._row is None and other._row is None:
            return self._values == other._values
        if self._row is not None and other._row is not None and self._names == other._names:
            return bool(np.array_equal(self._row, other._row))
        return dict(self.items()) == dict(other.items())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        preview = ", ".join(f"{k}={v:g}" for k, v in sorted(self.items())[:4])
        suffix = ", ..." if len(self) > 4 else ""
        return f"FeatureVector({preview}{suffix})"

    # -- serialized state ---------------------------------------------------
    def __getstate__(self) -> Tuple[Any, ...]:
        """``(values,)`` of a dict vector, ``(names, row)`` of a dense one."""
        if self._row is None:
            return (self._values,)
        return (self._names, self._row)

    def __setstate__(self, state: Tuple[Any, ...]) -> None:
        if len(state) == 1:
            (values,) = state
            if type(values) is not dict:
                raise TypeError(f"feature vector values must be a dict, got {type(values).__name__}")
            self._values, self._names, self._row = values, None, None
        else:
            names, row = state
            _check_dense(names, row, ndim=1)
            self._values, self._names, self._row = None, names, row

    # -- operations --------------------------------------------------------
    def concat(self, *others: "FeatureVector") -> "FeatureVector":
        """Concatenate feature vectors (feature names must not collide).

        An empty vector concatenated with exactly one other returns that other.
        """
        if len(others) == 1 and not len(self):
            return others[0]
        merged = dict(self.items())
        for other in others:
            for name, value in other.items():
                if name in merged and merged[name] != value:
                    raise ValueError(
                        f"feature name collision on '{name}' during concatenation"
                    )
                merged[name] = value
        return FeatureVector(merged)

    def to_dense(self, index: Mapping[str, int]) -> np.ndarray:
        """Convert to a dense array according to a global ``name -> position`` index."""
        dense = np.zeros(len(index), dtype=float)
        for name, value in self.items():
            position = index.get(name)
            if position is not None:
                dense[position] = value
        return dense

    def norm(self) -> float:
        """Euclidean norm of the feature values."""
        values = self._values.values() if self._row is None else self._row.tolist()
        return math.sqrt(sum(v * v for v in values))


@functools.lru_cache(maxsize=256)
def _dense_names(prefix: str, width: int) -> Tuple[str, ...]:
    """The names tuple every dense vector of ``prefix`` and ``width`` shares."""
    return tuple(f"{prefix}_{i}" for i in range(width))


@functools.lru_cache(maxsize=256)
def _dense_layout(names: Tuple[str, ...]) -> Tuple[Tuple[str, ...], Dict[str, int]]:
    """A dense names tuple's sorted names and ``name -> row position`` map."""
    return tuple(sorted(names)), {name: position for position, name in enumerate(names)}


def _dense_vector(names: Tuple[str, ...], row: np.ndarray) -> FeatureVector:
    vector = FeatureVector.__new__(FeatureVector)
    vector._values = None
    vector._names = names
    vector._row = row
    return vector


def _check_dense(names: Any, rows: Any, ndim: int) -> None:
    """Refuse a dense state whose names or float64 rows do not fit together."""
    if type(names) is not tuple or not set(map(type, names)) <= {str}:
        raise TypeError("dense feature names must be a tuple of str")
    if len(set(names)) != len(names):
        raise ValueError("dense feature names repeat a name")
    if type(rows) is not np.ndarray or rows.dtype != np.float64 or rows.ndim != ndim:
        raise TypeError(f"dense feature values must be a {ndim}-D float64 array")
    if rows.shape[-1] != len(names):
        raise ValueError(f"dense feature values of width {rows.shape[-1]} for {len(names)} names")


@dataclass
class SemanticUnit:
    """The DPR data structure: input, the producing function name, lazy output.

    ``output`` is either a :class:`FeatureVector` (the common case for feature
    extraction), a record, or any intermediate value produced by a DPR
    function.  ``source`` names the operator that produced the SU, which is
    what allows examples to be assembled from named extractor outputs.
    """

    input: Any
    source: str
    output: Any = None
    split: Split = Split.ALL


@dataclass
class Example:
    """The L/I data structure: a set of SU outputs assembled into one vector.

    ``features`` is the concatenated feature vector, ``label`` the optional
    supervised label and ``split`` the train/test designation.
    """

    features: FeatureVector
    label: Optional[float] = None
    split: Split = Split.ALL
    prediction: Optional[float] = None
    score: Optional[float] = None

    def with_prediction(self, prediction: float, score: Optional[float] = None) -> "Example":
        """Return a copy of this example annotated with an inference result."""
        return Example(
            features=self.features,
            label=self.label,
            split=self.split,
            prediction=prediction,
            score=score,
        )


class DataCollection:
    """An ordered, homogeneous collection of elements (the paper's DC).

    Data collections are immutable: transformations return new collections.
    ``kind`` records the element type so that downstream operators can check
    their inputs, and :meth:`filter` with the split tags (:meth:`test`)
    implements the unified train/test handling from Section 3.2.1.

    A collection whose elements are all exactly :class:`Record`,
    :class:`SemanticUnit` or :class:`Example` — each with exactly its
    declared attributes, splits that are :class:`Split` members, and
    feature vectors and field dicts keyed by exact ``str`` — has a columnar
    state: one tuple per attribute, and each dict column as an id per row
    into the collection's table of sorted key tuples ("shapes") plus one
    flat tuple of the values in key order.  A feature-vector column whose
    vectors are all dense over one names tuple is ``(names, 2-D float64
    array)`` instead, which the canonical encoding ships as one out-of-band
    buffer; a mixed or sparse column takes the dict form.

    The columns are what a collection holds; its rows are a view of them.
    A collection is born as columns when it is decoded (canonical encoding,
    pickle, copy) or built by a columnar producer (``FieldExtractor``,
    ``ExampleSynthesizer``, ``Learner``); it builds its row objects on the
    first :attr:`elements`, iteration, indexing or :meth:`filter`, with
    dicts in sorted key order and dense vectors as row views of the one
    array.  A collection born as rows works out its columns at most once,
    when it is serialized, sized, turned into a matrix or read by a
    producer.  Serialized, a collection states its columns as
    ``(name, kind, row class, shape lengths, shape keys, *columns)``; any
    other collection (mixed or subclassed elements, an ad-hoc attribute, no
    elements) keeps the row form, ``(name, kind, elements)``.
    """

    # _rows: the row tuple, or None until built from _state.  _state: the
    # columnar state, None until worked out from _rows, or () for none.
    __slots__ = ("name", "kind", "_rows", "_state")

    def __init__(
        self,
        name: str,
        elements: Iterable[Any],
        kind: ElementKind = ElementKind.GENERIC,
    ):
        self.name = name
        self._rows: Optional[Tuple[Any, ...]] = tuple(elements)
        self._state: Optional[Tuple[Any, ...]] = None
        self.kind = kind

    @classmethod
    def _of_columns(cls, name: str, state: Tuple[Any, ...], kind: ElementKind) -> "DataCollection":
        """A collection born as the columnar ``state`` a producer wrote."""
        collection = cls.__new__(cls)
        collection.name, collection.kind = name, kind
        collection._rows, collection._state = None, state
        return collection

    @property
    def elements(self) -> Tuple[Any, ...]:
        """The rows, built from the columns on first access."""
        rows = self._rows
        if rows is None:
            # Two threads may both build: the rows are equal, either one is kept.
            rows = self._rows = _rows_of(self._state)
        return rows

    def _columns(self) -> Optional[Tuple[Any, ...]]:
        """``(row class, shape lengths, shape keys, *columns)``, or None for
        a collection that has no columnar state."""
        state = self._state
        if state is None:
            state = self._state = _to_columns(self._rows) or ()
        return state or None

    # -- basic container protocol ------------------------------------------
    def __len__(self) -> int:
        if self._rows is None:
            return len(_column(self._state, "split"))
        return len(self._rows)

    def __iter__(self) -> Iterator[Any]:
        return iter(self.elements)

    def __getitem__(self, index: int) -> Any:
        rows = self._rows  # the row loops index once per element: skip the property
        return (self.elements if rows is None else rows)[index]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"DataCollection({self.name!r}, n={len(self)}, kind={self.kind.value})"

    # -- serialized state ---------------------------------------------------
    def __getstate__(self) -> Tuple[Any, ...]:
        """``(name, kind, row class, shape lengths, shape keys, *columns)``, or the rows."""
        state = self._columns()
        if state is None:
            return (self.name, self.kind, self._rows)
        return (self.name, self.kind, *state)

    def __setstate__(self, state: Tuple[Any, ...]) -> None:
        if len(state) == 3:
            self.name, self.kind, self._rows = state
            self._state = None
        else:
            columns = tuple(state[2:])
            # Every check the rows would need runs here, inside the decode:
            # building them later cannot fail.
            _check_columns(columns)
            self.name, self.kind = state[:2]
            self._rows, self._state = None, columns

    # -- selectors ----------------------------------------------------------
    def _split_of(self, element: Any) -> Split:
        split = getattr(element, "split", Split.ALL)
        return split if isinstance(split, Split) else Split(split)

    def filter(self, predicate: Callable[[Any], bool], name: Optional[str] = None) -> "DataCollection":
        """Return a new collection containing only the elements matching ``predicate``."""
        return DataCollection(
            name or self.name,
            (e for e in self.elements if predicate(e)),
            kind=self.kind,
        )

    def test(self) -> "DataCollection":
        """Elements belonging to the test split (or untagged elements).

        A collection with columns selects them by its split column, and
        builds no rows it does not already have.
        """
        name = f"{self.name}[test]"
        state = self._columns()
        if state is None:
            return self.filter(lambda e: self._split_of(e) in (Split.TEST, Split.ALL), name=name)
        splits = _column(state, "split")
        positions = list(compress(range(len(splits)), map(Split.TRAIN.value.__ne__, splits)))
        if self._rows is not None:
            return DataCollection(name, map(self._rows.__getitem__, positions), kind=self.kind)
        if not positions:
            return DataCollection(name, (), kind=self.kind)
        return DataCollection._of_columns(name, _select(state, positions), self.kind)

    # -- ML helpers ----------------------------------------------------------
    def feature_index(self) -> Dict[str, int]:
        """Build a deterministic global ``feature name -> column`` index.

        The order of SUs/features in the final assembly is determined globally
        across the dataset (paper, Section 3.2.1); here we sort names so that
        the index is stable across runs and across train/test splits.
        """
        names: set = set()
        state = self._columns()
        if state is not None:
            if state[0] == "Example":  # only examples carry ``features``
                features = _column(state, "features")
                if _is_dense(features):
                    names.update(features[0])
                else:
                    shapes = _shapes(state)
                    names.update(chain.from_iterable(map(shapes.__getitem__, set(features[0]))))
            return {name: position for position, name in enumerate(sorted(names))}
        dense_seen: set = set()  # ids of the dense names tuples already added
        for element in self._rows:
            features = getattr(element, "features", None)
            if not isinstance(features, FeatureVector):
                if not isinstance(element, FeatureVector):
                    continue
                features = element
            if features._row is None:
                names.update(features._values)
            elif id(features._names) not in dense_seen:
                dense_seen.add(id(features._names))
                names.update(features._names)
        return {name: position for position, name in enumerate(sorted(names))}

    def to_matrix(
        self, index: Optional[Mapping[str, int]] = None
    ) -> Tuple[np.ndarray, np.ndarray, Dict[str, int]]:
        """Convert a collection of examples to ``(X, y, index)`` dense matrices.

        Examples without labels get ``nan`` in ``y``.  From the columns, a
        dense feature column is copied into ``X`` with one assignment and a
        sparse one with one flat scatter; a collection without columns fills
        ``X`` one :meth:`FeatureVector.to_dense` row at a time.
        """
        if index is None:
            index = self.feature_index()
        state = self._columns()
        if state is None:
            X = np.zeros((len(self._rows), len(index)))
            for position, element in enumerate(self._rows):
                if not isinstance(element, Example):
                    raise TypeError(
                        f"to_matrix requires Example elements, got {type(element).__name__}"
                    )
                X[position] = element.features.to_dense(index)
            labels = [element.label for element in self._rows]
        elif state[0] != "Example":
            raise TypeError(f"to_matrix requires Example elements, got {state[0]}")
        else:
            X = np.zeros((len(self), len(index)))
            features = _column(state, "features")
            if _is_dense(features):
                names, rows = features
                columns = np.array([index.get(name, -1) for name in names], dtype=np.intp)
                kept = columns >= 0
                X[:, columns[kept]] = rows[:, kept]
            else:
                ids, values = features
                shapes = _shapes(state)
                keys = list(chain.from_iterable(map(shapes.__getitem__, ids)))
                columns = np.fromiter(map(index.get, keys, repeat(-1)), dtype=np.intp, count=len(keys))
                rows = np.repeat(np.arange(len(ids)), _widths(state[1], ids))
                kept = columns >= 0
                X[rows[kept], columns[kept]] = np.array(values, dtype=float)[kept]
            labels = _column(state, "label")
        y = np.array([float("nan") if label is None else float(label) for label in labels], dtype=float)
        return X, y, dict(index)

    def estimated_size_bytes(self) -> int:
        """A cheap size estimate used by the cache/memory tracker.

        The estimate intentionally avoids a full pickle round trip: it counts
        feature entries, record fields and dense array bytes — from the
        columns with a few passes per column when the collection has them.
        """
        state = self._columns()
        if state is not None:
            return _columns_size(state)
        total = 64 + 56 * len(self._rows)
        for element in self._rows:
            features = getattr(element, "features", None)
            if isinstance(features, FeatureVector):
                total += 48 * len(features)
            if isinstance(element, FeatureVector):
                total += 48 * len(element)
            if isinstance(element, SemanticUnit) and isinstance(element.output, FeatureVector):
                total += 48 * len(element.output)
            fields = getattr(element, "fields", None)
            # typing.Mapping's isinstance check costs several times the
            # collections.abc one; plain dicts skip the ABC machinery.
            if fields is not None and (
                type(fields) is dict or isinstance(fields, collections.abc.Mapping)
            ):
                total += _fields_size(fields.values())
            if isinstance(element, np.ndarray):
                total += int(element.nbytes)
        return total


# ---------------------------------------------------------------------------
# Columnar state of a DataCollection
# ---------------------------------------------------------------------------
#: Column forms: the attribute values as one tuple; the values of Split
#: members; feature vectors; str-keyed dicts.  The last two are ``(shape
#: ids, values)`` pairs against the collection's shape table, except that
#: a vector column dense over one names tuple is ``(names, 2-D array)``.
_PLAIN, _SPLIT, _VECTOR, _DICT = range(4)

#: The row classes with a columnar state: every attribute, in constructor
#: argument order, with the form of its column.
_COLUMNS: Dict[type, Tuple[Tuple[str, int], ...]] = {
    Record: (("fields", _DICT), ("split", _SPLIT)),
    SemanticUnit: (("input", _PLAIN), ("source", _PLAIN), ("output", _VECTOR), ("split", _SPLIT)),
    Example: (
        ("features", _VECTOR),
        ("label", _PLAIN),
        ("split", _SPLIT),
        ("prediction", _PLAIN),
        ("score", _PLAIN),
    ),
}
_ROW_CLASSES = {cls.__name__: cls for cls in _COLUMNS}
_SPLITS = {split.value: split for split in Split}
#: ``(row class name, attribute) -> position`` of the column in the state
#: ``(row class, shape lengths, shape keys, *columns)``.
_AT = {
    (cls.__name__, name): 3 + position
    for cls, layout in _COLUMNS.items()
    for position, (name, _form) in enumerate(layout)
}


def _state(row_class: type, shapes: Iterable[Tuple[str, ...]], **columns: Any) -> Tuple[Any, ...]:
    """The columnar state of ``row_class`` rows: their shape table (the key
    tuple of each shape id, in id order) and one column per attribute.

    The shape table travels flat: each shape's length, then all its keys.
    """
    shapes = tuple(shapes)
    return (
        row_class.__name__,
        tuple(map(len, shapes)),
        tuple(chain.from_iterable(shapes)),
        *[columns[name] for name, _form in _COLUMNS[row_class]],
    )


def _column(state: Tuple[Any, ...], attribute: str) -> Any:
    """The column of ``attribute`` in a columnar state."""
    return state[_AT[state[0], attribute]]


def _with_columns(state: Tuple[Any, ...], **columns: Any) -> Tuple[Any, ...]:
    """``state`` with the named columns replaced."""
    replaced = list(state)
    for attribute, column in columns.items():
        replaced[_AT[state[0], attribute]] = column
    return tuple(replaced)


def _shapes(state: Tuple[Any, ...]) -> List[Tuple[str, ...]]:
    """A columnar state's shape table: the sorted key tuple of each shape id."""
    bounds = list(accumulate(state[1], initial=0))
    return list(map(state[2].__getitem__, map(slice, bounds, bounds[1:])))


def _widths(shape_lengths: Sequence[int], ids: Sequence[int]) -> np.ndarray:
    """How many keys each row of a ``(shape ids, values)`` column has."""
    return np.array(shape_lengths, dtype=np.intp)[np.array(ids, dtype=np.intp)]


def _is_dense(column: Any) -> bool:
    """Whether a feature-vector column is ``(names, 2-D array)``, not ``(shape ids, values)``."""
    return len(column) == 2 and type(column[1]) is np.ndarray


def _to_columns(elements: Tuple[Any, ...]) -> Optional[Tuple[Any, ...]]:
    """``(row class, shape lengths, shape keys, *columns)``; None keeps the rows."""
    if not elements:
        return None
    row_class = type(elements[0])
    layout = _COLUMNS.get(row_class)
    if layout is None or len(set(map(type, elements))) != 1:
        return None
    names = [name for name, _form in layout]
    # An ad-hoc (or deleted) attribute has no column: only the row form keeps it.
    if not all(map(operator.eq, map(dict.keys, map(vars, elements)), repeat(set(names)))):
        return None
    shapes: Dict[Tuple[str, ...], int] = {}
    columns: List[Any] = []
    for (_name, form), column in zip(layout, zip(*map(operator.attrgetter(*names), elements))):
        if form == _SPLIT:
            if set(map(type, column)) != {Split}:
                return None
            # _value_, not the slower Enum.value property
            column = tuple(map(operator.attrgetter("_value_"), column))
        elif form == _VECTOR:
            if set(map(type, column)) != {FeatureVector}:
                return None
            try:
                column = _vector_column(column, shapes)
            except AttributeError:  # an unset slot
                return None
        elif form == _DICT:
            column = _dict_column(column, shapes)
        if column is None:
            return None
        columns.append(column)
    return _state(row_class, shapes, **dict(zip(names, columns)))


def _dict_column(
    dicts: Sequence[Any], shapes: Dict[Tuple[str, ...], int]
) -> Optional[Tuple[Tuple[int, ...], Tuple[Any, ...]]]:
    """``(shape ids, values)`` of exact str-keyed dicts; None for anything else.

    Each dict's shape is its sorted key tuple, interned in ``shapes``; its
    values join one flat tuple in that key order.  When every dict has the
    first one's key set (the fields of a collection's records), that one
    sorted shape serves them all and one ``itemgetter`` gathers their
    values.
    """
    if set(map(type, dicts)) != {dict}:
        return None
    if not set(map(type, chain.from_iterable(dicts))) <= {str}:  # every key
        return None
    first = dicts[0].keys()
    if all(map(first.__eq__, map(dict.keys, dicts))):
        keys = tuple(sorted(first))
        shape_id = shapes.setdefault(keys, len(shapes))
        if len(keys) > 1:
            values = tuple(chain.from_iterable(map(operator.itemgetter(*keys), dicts)))
        else:  # itemgetter of one key returns the bare value, and needs a key
            values = tuple(map(operator.itemgetter(*keys), dicts)) if keys else ()
        return (shape_id,) * len(dicts), values
    rows = list(map(tuple, map(sorted, dicts)))
    for keys in dict.fromkeys(rows):  # distinct shapes, in order of first use
        shapes.setdefault(keys, len(shapes))
    values = tuple([mapping[key] for mapping, keys in zip(dicts, rows) for key in keys])
    return tuple(map(shapes.__getitem__, rows)), values


def _vector_column(
    vectors: Sequence[FeatureVector], shapes: Dict[Tuple[str, ...], int]
) -> Optional[Tuple[Any, Any]]:
    """``(names, rows)`` when every vector is dense over one names tuple, else
    the ``(shape ids, values)`` of their name -> value dicts."""
    names = list(map(operator.attrgetter("_names"), vectors))
    if names.count(names[0]) != len(names):  # mixed forms or names tuples
        dicts = [vector._values if vector._row is None else dict(vector.items()) for vector in vectors]
    elif names[0] is None:  # all sparse
        dicts = list(map(operator.attrgetter("_values"), vectors))
    else:
        # np.array copies a list of equal rows at C speed, np.stack row by row.
        return names[0], np.array(list(map(operator.attrgetter("_row"), vectors)))
    return _dict_column(dicts, shapes)


def _check_columns(state: Tuple[Any, ...]) -> None:
    """Refuse a columnar state whose rows could not be built, or would not
    fit together: a wrong column count, a shape table that does not add up
    or holds a key that is not a str, an unknown split value, a dict column
    whose ids or value count do not match the table, a malformed dense
    column, or columns of unequal lengths."""
    row_class, shape_lengths, shape_keys, *columns = state
    layout = _COLUMNS[_ROW_CLASSES[row_class]]
    if len(columns) != len(layout):
        raise ValueError(f"{row_class} columns: expected {len(layout)}, got {len(columns)}")
    if min(shape_lengths, default=0) < 0 or sum(shape_lengths) != len(shape_keys):
        raise ValueError(f"shape table of lengths {shape_lengths!r} carries {len(shape_keys)} keys")
    if not set(map(type, shape_keys)) <= {str}:
        raise TypeError("shape keys must be str")
    lengths = set()
    for (_name, form), column in zip(layout, columns):
        if form == _VECTOR and _is_dense(column):
            names, rows = column
            _check_dense(names, rows, ndim=2)
            lengths.add(len(rows))
        elif form in (_VECTOR, _DICT):
            ids, values = column
            if ids and (min(ids) < 0 or max(ids) >= len(shape_lengths)):
                raise ValueError(f"dict column refers to shapes outside a table of {len(shape_lengths)}")
            expected = sum(map(shape_lengths.__getitem__, ids))
            if expected != len(values):
                raise ValueError(f"dict column of {expected} keys carries {len(values)} values")
            lengths.add(len(ids))
        else:
            lengths.add(len(column))
            if form == _SPLIT and not _SPLITS.keys() >= set(column):
                raise ValueError(f"unknown split values {sorted(map(repr, set(column) - _SPLITS.keys()))}")
    if len(lengths) != 1:
        raise ValueError(f"{row_class} columns of unequal lengths {sorted(lengths)}")


def _rows_of(state: Tuple[Any, ...]) -> Tuple[Any, ...]:
    """The rows of a columnar state (one :func:`_check_columns` passed)."""
    cls = _ROW_CLASSES[state[0]]
    shapes = _shapes(state)
    built: List[Iterable[Any]] = []
    for (_name, form), column in zip(_COLUMNS[cls], state[3:]):
        if form == _VECTOR and _is_dense(column):
            names, rows = column
            column = map(_dense_vector, repeat(names), rows)  # row views
        elif form in (_VECTOR, _DICT):
            column = _dicts(shapes, *column)
            if form == _VECTOR:
                column = map(_vector, column)
        elif form == _SPLIT:
            column = map(_SPLITS.__getitem__, column)
        built.append(column)
    return tuple(map(cls, *built))


def _select(state: Tuple[Any, ...], positions: Sequence[int]) -> Tuple[Any, ...]:
    """The columnar state of the rows at ``positions`` (some, in order).

    Its shape table holds the shapes those rows use, in order of first use,
    as :func:`_to_columns` of the selected rows would number them.
    """
    cls = _ROW_CLASSES[state[0]]
    shapes = _shapes(state)
    kept: Dict[Tuple[str, ...], int] = {}
    columns: Dict[str, Any] = {}
    for (name, form), column in zip(_COLUMNS[cls], state[3:]):
        if form == _VECTOR and _is_dense(column):
            column = (column[0], column[1][positions])
        elif form in (_VECTOR, _DICT):
            ids, values = column
            widths = _widths(state[1], ids)
            starts = (np.cumsum(widths) - widths)[positions]
            widths = widths[positions]
            # The value positions of each selected row, one row after another.
            taken = np.repeat(starts - (np.cumsum(widths) - widths), widths) + np.arange(widths.sum())
            picked = list(map(ids.__getitem__, positions))
            for shape_id in dict.fromkeys(picked):
                kept.setdefault(shapes[shape_id], len(kept))
            renumbered = {shape_id: kept[shapes[shape_id]] for shape_id in set(picked)}
            column = (tuple(map(renumbered.__getitem__, picked)), tuple(map(values.__getitem__, taken.tolist())))
        else:
            column = tuple(map(column.__getitem__, positions))
        columns[name] = column
    return _state(cls, kept, **columns)


def _dicts(
    shapes: Sequence[Tuple[str, ...]], ids: Sequence[int], values: Sequence[Any]
) -> List[Dict[str, Any]]:
    """The dicts of a ``(shape ids, values)`` column, in sorted key order."""
    rest = iter(values)
    # zip stops at the exhausted key tuple before drawing from ``rest``.
    return [dict(zip(shape, rest)) for shape in map(shapes.__getitem__, ids)]


def _vector(values: Dict[str, float]) -> FeatureVector:
    vector = FeatureVector.__new__(FeatureVector)
    vector._values = values
    vector._names = vector._row = None
    return vector


def _columns_size(state: Tuple[Any, ...]) -> int:
    """:meth:`DataCollection.estimated_size_bytes` of a columnar state."""
    total = 64 + 56 * len(_column(state, "split"))
    for (_name, form), column in zip(_COLUMNS[_ROW_CLASSES[state[0]]], state[3:]):
        if form == _VECTOR:  # 48 bytes per feature
            total += 48 * (column[1].size if _is_dense(column) else len(column[1]))
        elif form == _DICT:
            total += _fields_size(column[1])
    return total


def _fields_size(values: Collection[Any]) -> int:
    """The size estimate of record field values: a str 40 bytes plus its
    length, an array its bytes, anything else 32."""
    if set(map(type, values)) <= {str}:
        return 40 * len(values) + sum(map(len, values))
    total = 0
    for value in values:
        if isinstance(value, str):
            total += 40 + len(value)
        elif isinstance(value, np.ndarray):
            total += int(value.nbytes)
        else:
            total += 32
    return total
