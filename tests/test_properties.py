"""Cross-cutting property-based tests on core invariants (hypothesis)."""

from __future__ import annotations

import dataclasses
import os
import pickle
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dag import Node, WorkflowDAG
from repro.core.data import (
    DataCollection,
    ElementKind,
    Example,
    FeatureVector,
    Record,
    SemanticUnit,
    Split,
)
from repro.core.operators import CSVScanner, FunctionExtractor, Learner, PredictionsResult
from repro.core.signatures import compute_node_signatures, diff_signatures
from repro.exceptions import OperatorError, ProtocolError
from repro.execution.clock import SimulatedCostModel
from repro.execution.engine import ExecutionEngine, cumulative_time
from repro.ml.linear import LogisticRegression
from repro.optimizer.oep import NodeState, plan_run_time, solve_oep
from repro.storage import canonical
from repro.storage.canonical import (
    CANONICAL_MAGIC,
    decode,
    encode,
    encode_segments,
)
from repro.storage.serialization import deserialize, serialize
from repro.storage.store import InMemoryStore
from repro.systems import HelixSystem
from repro.workloads.base import get_workload
from repro.workloads.census import CENSUS_COLUMNS
from repro.workloads.nlp_ie import BetweenWordsExtractor, _pos_pattern_extractor

from conftest import UNPICKLED, ConstOperator, SumOperator, UnpickleTripwire
from test_omp import cumulative_run_time
from test_pruning import engine_scope, out_of_scope_after


@st.composite
def random_dags(draw):
    """Random DAGs with 2-8 nodes, returning (parents list, per-node tags)."""
    n = draw(st.integers(2, 8))
    parents = []
    for i in range(n):
        parents.append([j for j in range(i) if draw(st.booleans())])
    tags = [draw(st.integers(0, 3)) for _ in range(n)]
    return parents, tags


def _build(parents, tags):
    nodes = []
    for i, deps in enumerate(parents):
        operator = SumOperator(offset=float(tags[i])) if deps else ConstOperator(tags[i], tag=str(tags[i]))
        nodes.append(
            Node.create(f"n{i}", operator, parents=[f"n{j}" for j in deps], is_output=(i == len(parents) - 1))
        )
    return WorkflowDAG(nodes)


class TestDAGProperties:
    @given(random_dags())
    @settings(max_examples=60, deadline=None)
    def test_topological_order_respects_all_edges(self, spec):
        dag = _build(*spec)
        order = {name: i for i, name in enumerate(dag.topological_order())}
        for parent, child in dag.edges:
            assert order[parent] < order[child]

    @given(random_dags())
    @settings(max_examples=60, deadline=None)
    def test_ancestors_descendants_are_inverse(self, spec):
        dag = _build(*spec)
        for name in dag.node_names:
            for ancestor in dag.ancestors(name):
                assert name in dag.descendants(ancestor)

    @given(random_dags())
    @settings(max_examples=60, deadline=None)
    def test_slicing_keeps_output_cone_closed(self, spec):
        dag = _build(*spec)
        sliced = dag.sliced_to_outputs()
        for name in sliced.node_names:
            for parent in sliced.parents(name):
                assert parent in sliced

    @given(random_dags(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_eviction_schedule_is_a_partition(self, spec, data):
        dag = _build(*spec)
        # Any subset of the nodes may execute (the rest pruned or loaded-and-unused).
        order = [n for n in dag.topological_order() if data.draw(st.booleans(), label=n)]
        scope = engine_scope(dag, order)
        assert scope == out_of_scope_after(dag, order)
        # Every executed node gets exactly one eviction position...
        assert sorted(scope) == sorted(order)
        # ...and no node is evicted before its own execution.
        positions = {name: i for i, name in enumerate(order)}
        for name, after in scope.items():
            assert after >= positions[name]


class TestSignatureProperties:
    @given(random_dags())
    @settings(max_examples=60, deadline=None)
    def test_signatures_are_deterministic_and_unique_per_structure(self, spec):
        dag1 = _build(*spec)
        dag2 = _build(*spec)
        assert compute_node_signatures(dag1) == compute_node_signatures(dag2)

    @given(random_dags())
    @settings(max_examples=60, deadline=None)
    def test_self_diff_has_no_original_nodes(self, spec):
        dag = _build(*spec)
        signatures = compute_node_signatures(dag)
        diff = diff_signatures(signatures, signatures)
        assert diff.original == frozenset()
        assert diff.reusable == frozenset(signatures)


class TestPlanProperties:
    @given(
        random_dags(),
        st.lists(st.floats(0.1, 5.0), min_size=8, max_size=8),
        st.lists(st.floats(0.05, 5.0), min_size=8, max_size=8),
    )
    @settings(max_examples=60, deadline=None)
    def test_optimal_plan_never_beats_or_loses_to_infeasible_bounds(self, spec, computes, loads):
        parents, tags = spec
        dag = _build(parents, tags)
        compute = {f"n{i}": computes[i] for i in range(len(parents))}
        load = {f"n{i}": loads[i] for i in range(len(parents))}
        forced = [dag.node_names[-1]]
        plan = solve_oep(dag, compute, load, forced_compute=forced)
        # Lower bound: the forced node's own compute time.  Upper bound: computing everything.
        assert plan.estimated_time >= compute[forced[0]] - 1e-9
        assert plan.estimated_time <= sum(compute.values()) + 1e-9
        assert plan.estimated_time == pytest.approx(plan_run_time(plan.states, compute, load))

    @given(random_dags(), st.floats(0.1, 5.0))
    @settings(max_examples=40, deadline=None)
    def test_cumulative_runtime_monotone_in_ancestry(self, spec, unit_cost):
        dag = _build(*spec)
        order = list(dag.topological_order())
        positions = {name: i for i, name in enumerate(order)}
        _parents, _children, ancestors = ExecutionEngine._run_graph(dag, positions)
        times = [unit_cost] * len(order)
        cumulative = {n: cumulative_time(times, positions[n], ancestors[n]) for n in order}
        for name in order:
            reference = cumulative_run_time(name, dag, dict.fromkeys(order, unit_cost))
            assert cumulative[name] == pytest.approx(reference, rel=1e-12)
            for child in dag.children(name):
                assert cumulative[child] >= cumulative[name] - 1e-9


#: Scalars the canonical encoder gives a dedicated type tag; hashable, so
#: they double as set elements (dict keys stay text, as in real payloads).
_canonical_scalars = st.one_of(
    st.integers(-(2**70), 2**70),
    st.floats(allow_nan=False),
    st.text(max_size=20),
    st.binary(max_size=20),
    st.booleans(),
    st.none(),
)

#: Recursive canonical values: every container family the wire carries.
_canonical_values = st.recursive(
    _canonical_scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=5).map(tuple),
        st.dictionaries(st.text(max_size=5), children, max_size=5),
        st.sets(_canonical_scalars, max_size=5),
        st.frozensets(_canonical_scalars, max_size=5),
    ),
    max_leaves=20,
)


class TestSerializationProperties:
    @given(
        st.recursive(
            st.one_of(st.integers(-1000, 1000), st.floats(allow_nan=False, allow_infinity=False),
                      st.text(max_size=20), st.booleans(), st.none()),
            lambda children: st.one_of(
                st.lists(children, max_size=5),
                st.dictionaries(st.text(max_size=5), children, max_size=5),
            ),
            max_leaves=20,
        )
    )
    @settings(max_examples=80, deadline=None)
    def test_serialize_round_trip(self, value):
        assert deserialize(serialize(value)) == value


def _row(age: str, education: str, split: Split) -> Record:
    return Record({"age": age, "education": education, "target": "1"}, split=split)


def _unit(value: float, split: Split) -> SemanticUnit:
    return SemanticUnit(
        input=str(value), source="age", output=FeatureVector({"age": value}), split=split
    )


def _example(education: str, label: float, split: Split) -> Example:
    features = FeatureVector({f"education={education}": 1.0, "capital_gain": 0.25})
    return Example(features=features, label=label, split=split)


_EXAMPLES = DataCollection(
    "income",
    [_example("Masters", 1.0, Split.TRAIN), _example("HS-grad", 0.0, Split.TEST)],
    kind=ElementKind.EXAMPLE,
)

#: One value of every data-model kind the workloads materialize.
_DATA_MODEL_CORPUS = [
    _row("40", "Masters", Split.TRAIN),
    FeatureVector({"rff_1": -0.5, "rff_0": 0.125, "rff_10": 3.0}),
    _unit(40.0, Split.TEST),
    _example("Masters", 1.0, Split.TRAIN),
    DataCollection(
        "rows", [_row("40", "Masters", Split.TRAIN), _row("23", "HS-grad", Split.TEST)],
        kind=ElementKind.RECORD,
    ),
    DataCollection(
        "ageExt", [_unit(40.0, Split.TRAIN), _unit(23.0, Split.TEST)],
        kind=ElementKind.SEMANTIC_UNIT,
    ),
    _EXAMPLES,
    PredictionsResult(predictions=_EXAMPLES, model=LogisticRegression(max_iter=5)),
]

#: Edge values of the packed-sequence and intern paths.
_EDGE_CORPUS = [
    [-0.0, float("inf"), float("-inf"), 1.5],
    (0.0, -0.0),
    [2**63, 1, 2],
    [-(2**63) - 1, 0],
    [1, True, 0, False],
    (7, False),
    "lone surrogate: \ud800",
    ["\udfff", "\ud800", "ok"],
    {1: "int", "a": "str", (2, 3): "tuple", None: "none", 2.5: "float"},
    {f"key{i}": "one string under many keys" for i in range(50)},
]

#: Columnar collections with several key shapes, unpacked plain columns
#: (None among floats, lists of strings) and every split.
_COLUMNAR_UNITS = DataCollection(
    "eduXocc",
    [
        SemanticUnit(input=["education=Masters", "occupation=Sales"], source="eduXocc",
                     output=FeatureVector({"eduXocc=Masters&Sales": 1.0}), split=Split.TRAIN),
        SemanticUnit(input=None, source="eduXocc",
                     output=FeatureVector({"eduXocc=HS-grad&Craft": 1.0, "gain": 0.5}),
                     split=Split.TEST),
        SemanticUnit(input="raw", source="eduXocc", output=FeatureVector(), split=Split.ALL),
    ],
    kind=ElementKind.SEMANTIC_UNIT,
)
_COLUMNAR_EXAMPLES = DataCollection(
    "predictions",
    [
        Example(features=FeatureVector({"b": 2.0, "a": -1.0}), label=1.0, split=Split.TRAIN,
                prediction=1.0, score=0.875),
        Example(features=FeatureVector({"a": 0.25}), label=None, split=Split.TEST,
                prediction=0.0, score=None),
    ],
    kind=ElementKind.EXAMPLE,
)

#: A dense feature-vector column: four random-Fourier rows of 40 floats
#: (1,280 bytes, above the out-of-band threshold).
_DENSE_UNITS = DataCollection(
    "rffFeatures",
    [
        SemanticUnit(input=None, source="rff",
                     output=FeatureVector.from_dense(np.linspace(-1.0, 1.0, 40) * i, prefix="rff"),
                     split=split)
        for i, split in enumerate([Split.TRAIN, Split.TRAIN, Split.TEST, Split.ALL])
    ],
    kind=ElementKind.SEMANTIC_UNIT,
)

#: Values encoded in a fresh interpreter to pin cross-process bit equality.
#: Deliberately hash-order sensitive (string-keyed dicts, sets) and layout
#: sensitive (C- and F-ordered arrays): the classic sources of drift.
_CROSS_PROCESS_CORPUS = [
    {"gamma": 1, "alpha": [2.5, None], "beta": {"nested": (True, b"x")}},
    {f"key{i}": i for i in range(40)},
    {"swapped", "order", "of", "a", "set"},
    frozenset(range(-5, 20)),
    [(-(2**70), 2**70), "unicode: é中ﬁ", b"\x00\xff" * 30],
    np.arange(24, dtype=np.float64).reshape(4, 6),
    np.asfortranarray(np.arange(24, dtype=np.int32).reshape(4, 6)),
    np.array(3.5, dtype=np.float32),
    np.float64(2.25),
    *_DATA_MODEL_CORPUS,
    _COLUMNAR_UNITS,
    _COLUMNAR_EXAMPLES,
    FeatureVector.from_dense([0.5, -2.0, 1e-300, float("inf")], prefix="rff"),
    _DENSE_UNITS,
    *_EDGE_CORPUS,
    # paper operators holding a function, a class, a callable instance and
    # nothing but their own configuration, and an exception
    FunctionExtractor("posPattern", _pos_pattern_extractor),
    Learner(LogisticRegression, params={"max_iter": 5}, name="incPred"),
    BetweenWordsExtractor(64),
    CSVScanner(CENSUS_COLUMNS, line_field="line"),
    OperatorError("incPred", "model did not converge"),
    # NumPy ufuncs travel as their references
    {"loss": np.log, "link": np.exp},
]

#: Child-process encoder: reads a pickled value list on stdin, writes the
#: canonical encoding of each back on stdout.
_CHILD_ENCODER = (
    "import pickle, sys\n"
    "from repro.storage.canonical import encode\n"
    "corpus = pickle.loads(sys.stdin.buffer.read())\n"
    "sys.stdout.buffer.write(pickle.dumps([encode(v) for v in corpus]))\n"
)


class TestCanonicalDeterminism:
    """The bit-equality contract of :mod:`repro.storage.canonical`."""

    @given(_canonical_values)
    @settings(max_examples=80, deadline=None)
    def test_encode_is_deterministic_and_segments_join_to_encode(self, value):
        packed = encode(value)
        assert packed == encode(value)
        assert packed[:2] == CANONICAL_MAGIC
        assert b"".join(bytes(s) for s in encode_segments(value)) == packed

    @given(_canonical_values)
    @settings(max_examples=80, deadline=None)
    def test_decode_inverts_encode_and_reencode_is_a_fixpoint(self, value):
        packed = encode(value)
        decoded = decode(packed)
        assert decoded == value
        assert encode(decoded) == packed

    @given(st.dictionaries(st.text(max_size=8), _canonical_scalars, min_size=2, max_size=8))
    @settings(max_examples=80, deadline=None)
    def test_dict_insertion_order_never_reaches_the_wire(self, mapping):
        reversed_insertion = dict(reversed(list(mapping.items())))
        assert reversed_insertion == mapping
        assert encode(reversed_insertion) == encode(mapping)
        shuffled = dict(sorted(mapping.items(), key=lambda kv: encode(kv[1])))
        assert encode(shuffled) == encode(mapping)

    def test_encoding_is_bit_identical_across_a_process_boundary(self):
        """A fresh interpreter — with a *different* string hash seed, so any
        hash-order dependence in dict/set encoding would show — produces the
        exact bytes this process produces."""
        env = dict(os.environ)
        src = Path(__file__).resolve().parents[1] / "src"
        env["PYTHONPATH"] = str(src) + os.pathsep + env.get("PYTHONPATH", "")
        env["PYTHONHASHSEED"] = "8675309"
        child = subprocess.run(
            [sys.executable, "-c", _CHILD_ENCODER],
            input=pickle.dumps(_CROSS_PROCESS_CORPUS),
            stdout=subprocess.PIPE,
            env=env,
            check=True,
        )
        remote = pickle.loads(child.stdout)
        local = [encode(value) for value in _CROSS_PROCESS_CORPUS]
        assert len(remote) == len(local)
        for index, (theirs, ours) in enumerate(zip(remote, local)):
            assert theirs == ours, (
                f"corpus[{index}] encodes differently across processes"
            )

    def test_numpy_round_trip_preserves_dtype_layout_and_bits(self):
        for array in (
            np.arange(24, dtype=np.float64).reshape(4, 6),
            np.asfortranarray(np.arange(24, dtype=np.int16).reshape(6, 4)),
            np.array([], dtype=np.complex128),
            np.array(7, dtype=np.uint8),
        ):
            packed = encode(array)
            decoded = decode(packed)
            assert decoded.dtype == array.dtype
            assert decoded.shape == array.shape
            assert np.array_equal(decoded, array)
            assert decoded.flags["F_CONTIGUOUS"] == array.flags["F_CONTIGUOUS"]
            assert encode(decoded) == packed

    def test_large_arrays_travel_as_zero_copy_buffers(self):
        """The acceptance bar for the zero-copy path: a big array's bytes
        appear in ``encode_segments`` as an out-of-band memoryview sharing
        the array's memory, and ``decode(copy_buffers=False)`` hands back a
        read-only view into the payload instead of a copy."""
        array = np.arange(4096, dtype=np.float64)
        segments = encode_segments(array)
        shared = [
            segment
            for segment in segments
            if isinstance(segment, memoryview)
            and np.shares_memory(np.frombuffer(segment, dtype=np.uint8), array)
        ]
        assert shared, "no out-of-band segment shares the array's memory"

        payload = encode(array)
        view = decode(payload, copy_buffers=False)
        assert np.array_equal(view, array)
        assert not view.flags.writeable
        assert np.shares_memory(view, np.frombuffer(payload, dtype=np.uint8))

        copied = decode(payload)
        assert copied.flags.writeable
        assert not np.shares_memory(copied, np.frombuffer(payload, dtype=np.uint8))


# ---------------------------------------------------------------------------
# The data model on the canonical wire
# ---------------------------------------------------------------------------
def _structure(value):
    """``value`` with its identity-compared data-model objects unfolded."""
    if isinstance(value, DataCollection):
        return ("DataCollection", value.name, value.kind, tuple(map(_structure, value.elements)))
    if isinstance(value, PredictionsResult):
        return ("PredictionsResult", _structure(value.predictions), vars(value.model))
    return value


def _body_tag(value) -> bytes:
    """The type tag the canonical body of ``value`` starts with."""
    return bytes(encode_segments(value)[1][:1])


_names = st.text(alphabet="abxyz=_019é", min_size=1, max_size=6)
_splits = st.sampled_from(list(Split))
_optional_floats = st.one_of(st.none(), st.floats(allow_nan=False))
_feature_vectors = st.dictionaries(_names, st.floats(allow_nan=False), max_size=6).map(FeatureVector)


def _dense_vectors(width: int):
    return st.lists(st.floats(allow_nan=False), min_size=width, max_size=width).map(
        lambda values: FeatureVector.from_dense(values, prefix="rff")
    )


#: Dense vectors of one width per drawn value (rff_10 sorts before rff_2).
_any_dense_vectors = st.integers(0, 12).flatmap(_dense_vectors)
_records = st.builds(
    Record, fields=st.dictionaries(_names, _canonical_scalars, max_size=5), split=_splits
)
_units = st.builds(
    SemanticUnit,
    input=st.one_of(st.none(), _names, _records),
    source=_names,
    output=st.one_of(st.none(), _feature_vectors),
    split=_splits,
)
_examples = st.builds(
    Example,
    features=_feature_vectors,
    label=_optional_floats,
    split=_splits,
    prediction=_optional_floats,
    score=_optional_floats,
)
_example_collections = st.builds(
    DataCollection, name=_names, elements=st.lists(_examples, max_size=4),
    kind=st.just(ElementKind.EXAMPLE),
)

#: Every data-model kind a workflow materializes, nested the way they nest.
_data_model_values = st.one_of(
    _records,
    _feature_vectors,
    _any_dense_vectors,
    _units,
    _examples,
    st.builds(DataCollection, name=_names, elements=st.lists(_records, max_size=4),
              kind=st.just(ElementKind.RECORD)),
    st.builds(DataCollection, name=_names, elements=st.lists(_units, max_size=4),
              kind=st.just(ElementKind.SEMANTIC_UNIT)),
    _example_collections,
    # mixed dense / sparse feature columns take the dict form
    st.builds(
        DataCollection, name=_names,
        elements=st.lists(st.builds(Example, features=st.one_of(_any_dense_vectors, _feature_vectors),
                                    label=_optional_floats, split=_splits), max_size=4),
        kind=st.just(ElementKind.EXAMPLE),
    ),
    st.builds(
        PredictionsResult,
        predictions=_example_collections,
        model=st.builds(LogisticRegression, max_iter=st.integers(1, 10)),
    ),
)


def _materialized(workload: str, nodes, scale: float = 0.05):
    """The decoded artifacts of ``nodes`` after iteration 0 stores everything."""
    store = InMemoryStore()
    system = HelixSystem.always_materialize(store=store, cost_model=SimulatedCostModel())
    spec = get_workload(workload)
    system.run_iteration(spec.build(spec.initial_config(scale=scale, seed=3)), iteration=0)
    return {
        record.node_name: store.load(record.signature)[0]
        for record in store.artifacts()
        if record.node_name in nodes
    }


class TestCanonicalDataModel:
    """Version 2's intern tables, compiled codecs and packed sequences keep
    the data model canonical, deterministic and exact."""

    @given(_data_model_values)
    @settings(max_examples=80, deadline=None)
    def test_round_trip_fixpoint_and_stability(self, value):
        packed = encode(value)
        assert encode(value) == packed
        # identity sharing (the same string or vector object reused) never
        # reaches the bytes: a deep copy shares nothing and encodes the same
        assert encode(pickle.loads(pickle.dumps(value))) == packed
        decoded = decode(packed)
        assert _structure(decoded) == _structure(value)
        assert encode(decoded) == packed

    def test_edge_values_round_trip_exactly(self):
        def types(value):
            if isinstance(value, dict):
                return {key: type(item) for key, item in value.items()}
            return [type(item) for item in value]

        for value in _EDGE_CORPUS:
            decoded = decode(encode(value))
            assert decoded == value
            assert types(decoded) == types(value)  # no bool -> int, no int -> float
            assert encode(decoded) == encode(value)
        signs = decode(encode((0.0, -0.0)))
        assert [np.signbit(item) for item in signs] == [False, True]

    def test_packing_needs_one_exact_type_that_fits(self):
        assert _body_tag([-0.0, float("inf"), float("-inf")]) == canonical._T_FLOAT_LIST
        assert _body_tag((1, -(2**63), 2**63 - 1)) == canonical._T_INT_TUPLE
        assert _body_tag(["a", "b", "a"]) == canonical._T_STR_LIST
        for unpacked in ([2**63, 1], [1, True], [1.0, 2], [None, 1.0]):
            assert _body_tag(unpacked) == canonical._T_LIST

    def test_repeated_strings_are_written_once(self):
        text = "one string under many keys"
        mapping = {f"key{i}": text for i in range(50)}
        payload = encode(mapping)
        assert payload.count(text.encode()) == 1
        # each repeat costs one id byte, exactly what a None costs; the
        # packed values add the new strings' count, their one-byte lengths
        # (a width code and one length), their byte size and their text
        assert len(payload) == len(encode(dict.fromkeys(mapping))) + 4 + len(text)

    def test_one_repeated_string_packs_one_byte_ids(self):
        # ids are as wide as the table after the sequence's new strings
        # (one here), not as the table plus the sequence's length
        value = ("repeated",) * 1000
        body = encode_segments(value)[1]
        assert body[:1] == canonical._T_STR_TUPLE
        # tag, count, one new string (count, width code, length, byte size,
        # text), then one byte per id
        assert len(body) == 1 + 2 + 1 + 1 + 1 + 1 + len("repeated") + 1000
        assert decode(encode(value)) == value

    def test_dataclass_with_an_ad_hoc_attribute_is_refused(self):
        clean = _example("Masters", 1.0, Split.TRAIN)
        assert _body_tag(clean) == canonical._T_OBJECT  # compiles the codec
        tagged = _example("Masters", 1.0, Split.TRAIN)
        tagged.note = "kept"
        with pytest.raises(TypeError, match="Example: the instance has attributes beyond"):
            encode(tagged)
        unset = _example("Masters", 1.0, Split.TRAIN)
        del unset.features
        with pytest.raises(TypeError, match="Example: the instance leaves a declared field unset"):
            encode(unset)
        assert _body_tag(clean) == canonical._T_OBJECT

    def test_cyclic_values_are_refused(self):
        loop = []
        loop.append(loop)
        with pytest.raises(ValueError, match="cyclic value: a list contains itself"):
            encode(loop)

        members = []
        collection = DataCollection("loop", [members])
        members.append(collection)
        with pytest.raises(ValueError, match="cyclic value"):
            encode(collection)


# ---------------------------------------------------------------------------
# The columnar state of a DataCollection
# ---------------------------------------------------------------------------
class _SubUnit(SemanticUnit):
    """A semantic unit subclass: its collections keep the row form."""


def _columnar(collection: DataCollection) -> bool:
    """Whether ``collection`` states itself as columns; rows are ``(name, kind, elements)``."""
    return len(collection.__getstate__()) != 3


def _unfolded(value):
    """``value`` as nested lists that also pin types and dict key order."""
    if isinstance(value, FeatureVector):
        if value._row is not None:  # dense: its names and its float64 row, in row order
            return ["FeatureVector", value._names, value._row.dtype.str, value._row.tolist()]
        return ["FeatureVector", _unfolded(value._values)]
    if dataclasses.is_dataclass(value):
        state = vars(value)  # the attribute order is not part of a row
        return [type(value), [[name, _unfolded(state[name])] for name in sorted(state)]]
    if isinstance(value, dict):
        return [dict, [[key, _unfolded(item)] for key, item in value.items()]]
    if isinstance(value, (list, tuple)):
        return [type(value), [_unfolded(item) for item in value]]
    return [type(value), value]


_vector_units = st.builds(
    SemanticUnit,
    input=st.one_of(st.none(), _names, _canonical_scalars, st.lists(_names, max_size=3)),
    source=_names,
    output=_feature_vectors,
    split=_splits,
)


def _dense_collections(width: int):
    """Units or examples whose feature vectors are all dense over one names tuple."""
    vectors = _dense_vectors(width)
    units = st.builds(SemanticUnit, input=st.one_of(st.none(), _names), source=_names,
                      output=vectors, split=_splits)
    examples = st.builds(Example, features=vectors, label=_optional_floats, split=_splits,
                         prediction=_optional_floats, score=_optional_floats)
    return st.one_of(
        st.builds(DataCollection, name=_names, elements=st.lists(units, min_size=1, max_size=6),
                  kind=st.just(ElementKind.SEMANTIC_UNIT)),
        st.builds(DataCollection, name=_names, elements=st.lists(examples, min_size=1, max_size=6),
                  kind=st.just(ElementKind.EXAMPLE)),
    )


_columnar_collections = st.one_of(
    st.builds(DataCollection, name=_names, elements=st.lists(_records, min_size=1, max_size=6),
              kind=st.just(ElementKind.RECORD)),
    st.builds(DataCollection, name=_names, elements=st.lists(_vector_units, min_size=1, max_size=6),
              kind=st.just(ElementKind.SEMANTIC_UNIT)),
    st.builds(DataCollection, name=_names, elements=st.lists(_examples, min_size=1, max_size=6),
              kind=st.just(ElementKind.EXAMPLE)),
    st.integers(0, 40).flatmap(_dense_collections),
)


class TestColumnarDataCollection:
    """A collection of exact records, units or examples travels as columns
    and decodes to exactly the rows its row form decodes to."""

    @given(_columnar_collections)
    @settings(max_examples=120, deadline=None)
    def test_round_trip_equals_the_row_form_decode(self, collection):
        assert _columnar(collection)
        packed = encode(collection)
        decoded = decode(packed)
        assert (decoded.name, decoded.kind) == (collection.name, collection.kind)
        assert _unfolded(decoded.elements) == _unfolded(decode(encode(collection.elements)))
        assert _structure(decoded) == _structure(collection)
        assert encode(decoded) == packed

    def test_corpus_collections_are_columnar(self):
        for collection in (_COLUMNAR_UNITS, _COLUMNAR_EXAMPLES, _EXAMPLES):
            assert _columnar(collection), collection.name
        # two examples, one shape each; the second shape is the first's "a"
        state = _COLUMNAR_EXAMPLES.__getstate__()
        assert state[2:5] == ("Example", (2, 1), ("a", "b", "a"))

    def test_other_collections_keep_the_row_form(self):
        tagged = _unit(23.0, Split.TEST)
        tagged.note = "kept"
        collections = {
            "heterogeneous": DataCollection(
                "mixed", [_unit(40.0, Split.TRAIN), _row("40", "Masters", Split.TRAIN)]
            ),
            "subclass": DataCollection(
                "sub",
                [_unit(40.0, Split.TRAIN), _SubUnit(input="1", source="s", output=FeatureVector())],
            ),
            "empty": DataCollection("empty", [], kind=ElementKind.EXAMPLE),
        }
        for label, collection in collections.items():
            assert not _columnar(collection), label
            decoded = decode(encode(collection))
            assert _structure(decoded) == _structure(collection), label
            assert list(map(type, decoded)) == list(map(type, collection)), label
        ad_hoc = DataCollection("tagged", [_unit(40.0, Split.TRAIN), tagged])
        assert not _columnar(ad_hoc)
        with pytest.raises(TypeError, match="attributes beyond its declared fields"):
            encode(ad_hoc)

    def test_a_malformed_columnar_state_is_a_typed_error(self, monkeypatch):
        states = [
            ("bad", ElementKind.EXAMPLE, "Example", (), (), (1.0,)),  # one of five columns
            ("bad", ElementKind.RECORD, "Unknown", (), (), ((), ()), ()),  # no such row class
            ("bad", ElementKind.RECORD, "Record", (1,), ("a",), ((0, 0), (1,)), ("all", "all")),
            # what a lazy row build would otherwise meet only on first access:
            ("bad", ElementKind.RECORD, "Record", (1,), ("a",), ((0, 0), (1, 2)), ("all", "valid")),
            ("bad", ElementKind.RECORD, "Record", (1,), ("a",), ((0, 1), (1, 2)), ("all", "all")),
            ("bad", ElementKind.RECORD, "Record", (1,), ("a",), ((0, -1), (1, 2)), ("all", "all")),
            ("bad", ElementKind.RECORD, "Record", (2,), ("a",), ((0, 0), (1, 2)), ("all", "all")),
            ("bad", ElementKind.RECORD, "Record", (1,), (["a"],), ((0, 0), (1, 2)), ("all", "all")),
            ("bad", ElementKind.SEMANTIC_UNIT, "SemanticUnit", (1, 2), ("a", "a", "b"),
             (None, None), ("s", "s"), ((0, 1), (1.0, 2.0)), ("all", "all")),
        ]
        for state in states:
            monkeypatch.setattr(DataCollection, "__getstate__", lambda self, state=state: state)
            payload = encode(DataCollection("bad", []))
            monkeypatch.undo()
            for load in (decode, deserialize):  # refused whole, before any row is built
                with pytest.raises(ProtocolError, match="invalid DataCollection state"):
                    load(payload)

    def test_first_access_from_eight_threads_sees_equal_rows(self):
        packed = encode(_materialized("census", ["income"])["income"])
        for _ in range(5):
            decoded = decode(packed)
            barrier = threading.Barrier(8)
            seen = [None] * 8

            def iterate(slot):
                barrier.wait()
                seen[slot] = list(decoded)

            threads = [threading.Thread(target=iterate, args=(slot,)) for slot in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert all(rows == seen[0] for rows in seen) and len(seen[0]) == len(decoded)
            assert encode(decoded) == packed


class TestDenseColumns:
    """A feature-vector column dense over one names tuple is stated as that
    tuple plus one 2-D float64 array, which canonical ships out of band."""

    def test_a_dense_column_is_one_out_of_band_array(self):
        state = _DENSE_UNITS.__getstate__()
        names, rows = state[7]  # input, source, output, split: output is the third column
        assert names == tuple(f"rff_{i}" for i in range(40))
        assert rows.dtype == np.float64 and rows.shape == (4, 40)
        segments = encode_segments(_DENSE_UNITS)
        assert [len(segment) for segment in segments[2:]] == [rows.nbytes]

    def test_a_dense_column_decodes_to_row_views_of_one_array(self):
        packed = encode(_DENSE_UNITS)
        for copy_buffers in (True, False):
            decoded = decode(packed, copy_buffers=copy_buffers)
            assert _structure(decoded) == _structure(_DENSE_UNITS)
            assert _unfolded(decoded.elements) == _unfolded(_DENSE_UNITS.elements)
            rows = [unit.output._row for unit in decoded]
            assert len({id(unit.output._names) for unit in decoded}) == 1
            assert all(row.base is rows[0].base for row in rows)
            assert all(row.flags.writeable == copy_buffers for row in rows)
            assert encode(decoded) == packed
            X, _y, index = DataCollection(
                "e", [Example(features=unit.output) for unit in decoded]
            ).to_matrix()
            # the index sorts names (rff_10 before rff_2); X holds each row there
            assert np.array_equal(X[:, [index[name] for name in decoded[0].output._names]],
                                  np.stack(rows))

    def test_a_mixed_column_takes_the_dict_form_and_decodes_equal(self):
        mixed = DataCollection(
            "mixed",
            [
                Example(features=FeatureVector.from_dense([1.0, 2.0, 3.0], prefix="rff"), label=1.0),
                Example(features=FeatureVector({"rff_0": 1.0, "x": 2.0}), label=0.0),
                Example(features=FeatureVector.from_dense([4.0, 5.0], prefix="rff"), label=None),
            ],
            kind=ElementKind.EXAMPLE,
        )
        ids, values = mixed.__getstate__()[5]
        assert len(ids) == 3 and len(values) == 7
        decoded = decode(encode(mixed))
        assert _structure(decoded) == _structure(mixed)
        assert encode(decoded) == encode(mixed)

    def test_a_malformed_dense_state_is_a_typed_error(self, monkeypatch):
        def unit_state(names, rows, count=2):
            return ("bad", ElementKind.SEMANTIC_UNIT, "SemanticUnit", (), (),
                    (None,) * count, ("s",) * count, (names, rows), ("all",) * count)

        states = [
            unit_state(("a", "b"), np.zeros((2, 3))),  # width != len(names)
            unit_state(("a", "b"), np.zeros((3, 2))),  # three rows, two of everything else
            unit_state(("a", "a"), np.zeros((2, 2))),  # a repeated name
            unit_state(("a", 1), np.zeros((2, 2))),  # a name that is not str
            unit_state(["a", "b"], np.zeros((2, 2))),  # names not a tuple
            unit_state(("a", "b"), np.zeros((2, 2), dtype=np.float32)),
            unit_state(("a", "b"), np.zeros(2)),  # one row, not a column of rows
        ]
        for state in states:
            monkeypatch.setattr(DataCollection, "__getstate__", lambda self, state=state: state)
            payload = encode(DataCollection("bad", []))
            monkeypatch.undo()
            for load in (decode, deserialize):  # refused whole, before any row is built
                with pytest.raises(ProtocolError, match="invalid DataCollection state"):
                    load(payload)
        for state in [(("a", "b"), np.zeros(3)), (("a",), np.zeros((1, 1))), ([("a", 1.0)],)]:
            monkeypatch.setattr(FeatureVector, "__getstate__", lambda self, state=state: state)
            payload = encode(FeatureVector())
            monkeypatch.undo()
            with pytest.raises(ProtocolError, match="invalid FeatureVector state"):
                decode(payload)

    def test_a_format_5_payload_is_refused_by_version(self):
        """A payload of the previous format whose body is its pickle tag ``P``
        around an unpickle tripwire is refused whole, never unpickled."""
        assert canonical.CANONICAL_VERSION == 6
        raw = pickle.dumps(UnpickleTripwire(), protocol=5)
        # the tag, no out-of-band pickle buffers, then the pickle as an inline blob
        body = bytearray(b"P\x00\x00")
        canonical._write_uvarint(body, len(raw))
        body += raw
        payload = bytearray(b"HC\x05\x00")  # magic, format 5, no buffers
        canonical._write_uvarint(payload, len(body))
        payload += body
        for load in (decode, deserialize):
            with pytest.raises(ProtocolError, match="payload is version 5"):
                load(bytes(payload))
        assert UNPICKLED == []
        pickle.loads(raw)  # the tripwire is live: unpickling does trip it
        assert UNPICKLED == [True]
        UNPICKLED.clear()
