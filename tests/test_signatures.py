"""Unit tests for cross-iteration change tracking (node signatures / equivalence)."""

from __future__ import annotations

import hashlib
import json
import math
from collections.abc import Mapping

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dag import Node, WorkflowDAG
from repro.core.operators import _JSON, Operator, _callable_token, _normalize
from repro.core.signatures import compute_node_signatures, diff_signatures
from repro.core.workflow import Workflow
from repro.execution.clock import SimulatedCostModel
from repro.systems.helix import HelixSystem
from repro.workloads.base import get_workload

from conftest import ConstOperator, SumOperator, make_diamond_dag


def _dag(offset_b: float = 1.0, value_a: int = 2) -> WorkflowDAG:
    a = Node.create("a", ConstOperator(value_a, tag="a"))
    b = Node.create("b", SumOperator(offset=offset_b), parents=["a"])
    c = Node.create("c", SumOperator(offset=5.0), parents=["b"], is_output=True)
    return WorkflowDAG([a, b, c])


class TestNodeSignatures:
    def test_identical_dags_have_identical_signatures(self):
        assert compute_node_signatures(_dag()) == compute_node_signatures(_dag())

    def test_changing_an_operator_changes_its_signature_and_descendants(self):
        base = compute_node_signatures(_dag(offset_b=1.0))
        changed = compute_node_signatures(_dag(offset_b=2.0))
        assert base["a"] == changed["a"]
        assert base["b"] != changed["b"]
        assert base["c"] != changed["c"]

    def test_changing_a_root_changes_everything_downstream(self):
        base = compute_node_signatures(_dag(value_a=2))
        changed = compute_node_signatures(_dag(value_a=3))
        assert base["a"] != changed["a"]
        assert base["b"] != changed["b"]
        assert base["c"] != changed["c"]

    def test_rename_preserves_signature_value(self):
        # The same operator chain under different node names yields the same
        # signatures, so materializations survive renames.
        a1 = Node.create("x", ConstOperator(2, tag="a"))
        b1 = Node.create("y", SumOperator(offset=1.0), parents=["x"])
        renamed = WorkflowDAG([a1, b1])
        original = WorkflowDAG(
            [Node.create("a", ConstOperator(2, tag="a")), Node.create("b", SumOperator(offset=1.0), parents=["a"])]
        )
        assert set(compute_node_signatures(renamed).values()) == set(
            compute_node_signatures(original).values()
        )

    def test_parent_order_does_not_matter(self):
        d1 = WorkflowDAG(
            [
                Node.create("a", ConstOperator(1, tag="a")),
                Node.create("b", ConstOperator(2, tag="b")),
                Node.create("c", SumOperator(), parents=["a", "b"]),
            ]
        )
        d2 = WorkflowDAG(
            [
                Node.create("a", ConstOperator(1, tag="a")),
                Node.create("b", ConstOperator(2, tag="b")),
                Node.create("c", SumOperator(), parents=["b", "a"]),
            ]
        )
        assert compute_node_signatures(d1)["c"] == compute_node_signatures(d2)["c"]

    def test_same_named_classes_of_two_modules_never_share_a_signature(self):
        """Equal class names and equal configs: only the modules differ, and
        reusing one's artifact for the other would serve a wrong value."""

        def scale(module, step):
            run = lambda self, inputs, context: inputs[0] * step  # noqa: E731
            return type("Scale", (Operator,), {"__module__": module, "run": run})()

        double, shift = scale("pkg_a.ops", 2), scale("pkg_b.ops", 3)
        assert (type(double).__qualname__, double.config()) == (type(shift).__qualname__, shift.config())
        assert double.config_signature() != shift.config_signature()
        assert double.config_signature() == scale("pkg_a.ops", 2).config_signature()


class _Scaler:
    """A plain class whose bound method is a feature function."""

    def __init__(self, factor: float):
        self.factor = factor

    def apply(self, record):
        return self.factor


class TestCallableTokens:
    """A callable in an operator's config is named by its module too."""

    def test_same_named_builtins_of_two_modules_differ(self):
        import math

        import numpy as np

        from repro.core.operators import FunctionExtractor

        assert np.log.__qualname__ == math.log.__qualname__
        assert (
            FunctionExtractor("f", np.log).config_signature()
            != FunctionExtractor("f", math.log).config_signature()
        )
        assert FunctionExtractor("f", np.log).config_signature() == FunctionExtractor("f", np.log).config_signature()

    def test_same_named_functions_of_two_modules_differ(self):
        """Equal names and equal bytecode: only the modules differ."""
        from repro.core.operators import FunctionExtractor

        def udf(module):
            def feature(record):
                return 1.0

            feature.__module__ = module
            feature.__qualname__ = "feature"
            return feature

        a, b = udf("pkg_a.features"), udf("pkg_b.features")
        assert a.__code__.co_code == b.__code__.co_code
        assert FunctionExtractor("f", a).config_signature() != FunctionExtractor("f", b).config_signature()
        assert FunctionExtractor("f", a).config_signature() == FunctionExtractor("f", udf("pkg_a.features")).config_signature()

    def test_method_descriptors_name_their_class_module(self):
        from repro.core.operators import _callable_token

        assert _callable_token(str.upper).startswith("builtins.str.upper")

    def test_bound_methods_are_keyed_by_their_receiver(self):
        """``A(1).f`` and ``A(2).f`` share name and bytecode; only the
        receiver tells them apart, so it is part of the token."""
        from repro.core.operators import FunctionExtractor

        assert (
            FunctionExtractor("f", _Scaler(1.0).apply).config_signature()
            != FunctionExtractor("f", _Scaler(2.0).apply).config_signature()
        )
        assert (
            FunctionExtractor("f", _Scaler(1.0).apply).config_signature()
            == FunctionExtractor("f", _Scaler(1.0).apply).config_signature()
        )

    def test_bound_builtin_methods_are_keyed_by_their_receiver(self):
        from repro.core.operators import _callable_token

        assert _callable_token([1].append) != _callable_token([2].append)
        assert _callable_token([1].append) == _callable_token([1].append)

    def test_module_and_class_receivers_keep_the_plain_name(self):
        import math

        from repro.core.operators import _callable_token

        assert math.log.__self__ is math
        assert _callable_token(math.log) == "math.log"
        assert _callable_token(dict.fromkeys) == _callable_token(dict.fromkeys)

    def test_receiver_without_a_codec_is_refused_by_name(self):
        """A numpy ``Generator`` has no canonical encoding: its state
        cannot key the token, so signing it raises rather than letting
        ``default_rng(1).normal`` alias ``default_rng(2).normal``."""
        import numpy as np

        from repro.core.operators import FunctionExtractor

        with pytest.raises(TypeError, match="Generator.normal"):
            FunctionExtractor("f", np.random.default_rng(1).normal).config_signature()


class TestCallableInstanceTokens:
    """Callable-instance UDFs (the process-safe closure replacement) must be
    signature-sensitive to their ``__call__`` bytecode, not just ``_version``."""

    def test_editing_call_body_changes_signature(self):
        from repro.core.operators import FunctionExtractor

        class UdfA:
            def __call__(self, record):
                return 1.0

        class UdfB:
            def __call__(self, record):
                return 2.0

        UdfB.__qualname__ = UdfA.__qualname__  # same class path, different body
        UdfB.__module__ = UdfA.__module__
        sig_a = FunctionExtractor("f", UdfA()).config_signature()
        sig_b = FunctionExtractor("f", UdfB()).config_signature()
        assert sig_a != sig_b

    def test_version_still_participates(self):
        from repro.core.operators import FunctionExtractor

        class Udf:
            def __init__(self, version):
                self._version = version

            def __call__(self, record):
                return 1.0

        assert (
            FunctionExtractor("f", Udf(1)).config_signature()
            != FunctionExtractor("f", Udf(2)).config_signature()
        )

    def test_instance_state_participates_without_version(self):
        """Two instances of one UDF class with different constructor state
        must not alias even when the class never sets _version."""
        from repro.core.operators import FunctionExtractor

        class Thresholder:
            def __init__(self, t):
                self.t = t

            def __call__(self, record):
                return float(record > self.t)

        assert (
            FunctionExtractor("f", Thresholder(1)).config_signature()
            == FunctionExtractor("f", Thresholder(1)).config_signature()
        )
        assert (
            FunctionExtractor("f", Thresholder(1)).config_signature()
            != FunctionExtractor("f", Thresholder(2)).config_signature()
        )

    def test_slotted_instance_state_participates(self):
        from repro.core.operators import FunctionExtractor

        class SlottedThresholder:
            __slots__ = ("t",)

            def __init__(self, t):
                self.t = t

            def __call__(self, record):
                return float(record > self.t)

        assert (
            FunctionExtractor("f", SlottedThresholder(1)).config_signature()
            != FunctionExtractor("f", SlottedThresholder(2)).config_signature()
        )

    def test_partial_bound_arguments_participate(self):
        import functools

        from repro.core.operators import FunctionExtractor

        def scale(record, k=1):
            return float(k)

        assert (
            FunctionExtractor("f", functools.partial(scale, k=2)).config_signature()
            != FunctionExtractor("f", functools.partial(scale, k=3)).config_signature()
        )



def _normalize_by_abc_checks(value):
    """``_normalize`` as it read before its exact-type fast paths (arrays aside)."""
    if callable(value):
        return _callable_token(value)
    if isinstance(value, Mapping):
        return {str(k): _normalize_by_abc_checks(v) for k, v in sorted(value.items())}
    if isinstance(value, (list, tuple)):
        return [_normalize_by_abc_checks(v) for v in value]
    if isinstance(value, (set, frozenset)):
        return sorted(_normalize_by_abc_checks(v) for v in value)
    if isinstance(value, (int, float, str, bool)) or value is None:
        return value
    return repr(value)


_numpy_scalars = st.one_of(
    st.integers(-(2**31), 2**31 - 1).map(np.int64),
    st.floats(allow_nan=False, width=32).map(np.float32),
    st.floats(allow_nan=False).map(np.float64),
    st.booleans().map(np.bool_),
)
_config_scalars = st.one_of(
    st.integers(),
    st.floats(allow_nan=False),
    st.text(max_size=8),
    st.booleans(),
    st.none(),
    _numpy_scalars,
    st.sampled_from([math.sqrt, np.log, len]),
)
_config_values = st.recursive(
    _config_scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(st.text(max_size=6), children, max_size=4),
        st.dictionaries(st.integers(), children, max_size=4),
        st.frozensets(st.integers(), max_size=4),
        st.sets(st.text(max_size=6), max_size=4),
    ),
    max_leaves=20,
)


def _reference_config_signature(operator):
    """``Operator.config_signature`` as it encoded before ``_normalize`` gained its
    exact-type fast paths: ``json.dumps`` of the ABC-check normalization."""
    cls = type(operator)
    payload = {
        "class": f"{cls.__module__}.{cls.__qualname__}",
        "config": _normalize_by_abc_checks(operator.config()),
    }
    if not operator.deterministic:
        payload["nonce"] = operator._instance_nonce
    return hashlib.sha256(json.dumps(payload, sort_keys=True, default=str).encode()).hexdigest()


class TestNormalize:
    @given(_config_values)
    @settings(max_examples=300, deadline=None)
    def test_equals_the_abc_check_version(self, value):
        normalized = _normalize(value)
        assert normalized == _normalize_by_abc_checks(value)
        assert _JSON.encode(normalized) == json.dumps(
            _normalize_by_abc_checks(value), sort_keys=True, default=str
        )

    def test_array_shape_participates(self):
        assert _normalize(np.zeros((2, 3))) != _normalize(np.zeros((3, 2)))

    def test_array_dtype_participates(self):
        assert _normalize(np.zeros(2, np.int64)) != _normalize(np.zeros(2, np.float64))

    def test_array_config_signature_tells_shapes_apart(self):
        assert (
            ConstOperator(np.zeros((2, 3))).config_signature()
            != ConstOperator(np.zeros((3, 2))).config_signature()
        )

    def test_equal_arrays_share_a_signature(self):
        assert _normalize(np.arange(6).reshape(2, 3)) == _normalize(np.arange(6).reshape(2, 3))

    def test_callable_mapping_is_a_callable(self):
        class CallableMapping(dict):
            def __call__(self, record):
                return record

        value = CallableMapping(a=1)
        assert _normalize(value) == _normalize_by_abc_checks(value) == _callable_token(value)

    @pytest.mark.parametrize("name", ["census", "genomics", "mnist", "nlp"])
    def test_paper_dag_signatures_are_unchanged(self, name):
        # Computed on the running interpreter: function configs hash their
        # bytecode, which differs between Python versions.
        workload = get_workload(name)
        dag = workload.build(workload.initial_config()).compile()
        for node_name in dag.node_names:
            operator = dag.node(node_name).operator
            signature = operator.config_signature()
            assert signature == _reference_config_signature(operator), node_name


class TestDiff:
    def test_everything_original_on_first_iteration(self):
        signatures = compute_node_signatures(_dag())
        diff = diff_signatures(signatures, previous={})
        assert diff.original == frozenset(signatures)
        assert not diff.reusable

    def test_only_changed_subtree_is_original(self):
        previous = compute_node_signatures(_dag(offset_b=1.0))
        current = compute_node_signatures(_dag(offset_b=2.0))
        diff = diff_signatures(current, previous)
        assert diff.original == frozenset({"b", "c"})
        assert diff.reusable == frozenset({"a"})

    def test_added_and_removed_names(self):
        previous = {"a": "1", "gone": "2"}
        current = {"a": "1", "new": "3"}
        diff = diff_signatures(current, previous)
        assert diff.added == frozenset({"new"})
        assert diff.removed == frozenset({"gone"})

    def test_known_signatures_extend_reuse(self):
        current = {"a": "sig-a"}
        diff = diff_signatures(current, previous={}, known_signatures={"sig-a"})
        assert diff.reusable == frozenset({"a"})


def _tracked_diff(previous, dag):
    return diff_signatures(compute_node_signatures(dag), previous)


def _workflow(offset_b: float = 1.0) -> Workflow:
    """The workflow whose compiled DAG is ``_dag(offset_b)``."""
    wf = Workflow("abc")
    wf.node("a", ConstOperator(2, tag="a"))
    wf.node("b", SumOperator(offset=offset_b), ["a"])
    wf.node("c", SumOperator(offset=5.0), ["b"], is_output=True)
    return wf


class TestChangeTracker:
    """Change tracking across iterations: the previous iteration's signatures
    as a plain dict, as :class:`HelixSystem` keeps them."""

    def test_lifecycle(self):
        dag1 = _dag(offset_b=1.0)
        assert _tracked_diff({}, dag1).original == frozenset({"a", "b", "c"})
        previous = compute_node_signatures(dag1)

        dag2 = _dag(offset_b=2.0)
        diff = _tracked_diff(previous, dag2)
        assert diff.original == frozenset({"b", "c"})
        previous = compute_node_signatures(dag2)

        # Only the last iteration is remembered: reverting to the first
        # offset is original again unless the store still holds it.
        dag3 = _dag(offset_b=1.0)
        assert _tracked_diff(previous, dag3).original == frozenset({"b", "c"})
        stored = compute_node_signatures(dag1).values()
        reverted = diff_signatures(compute_node_signatures(dag3), previous, stored)
        assert reverted.original == frozenset()

    def test_commit_with_precomputed_signatures(self):
        system = HelixSystem.never_materialize(cost_model=SimulatedCostModel())
        system.run_iteration(_workflow(), iteration=0)
        assert system._previous_signatures == compute_node_signatures(_dag())
        assert system.run_iteration(_workflow(), iteration=1).original_nodes == []

    def test_reset(self):
        system = HelixSystem.opt(cost_model=SimulatedCostModel())
        system.run_iteration(_workflow(), iteration=0)
        system.reset()
        assert system._previous_signatures == {}
        stats = system.run_iteration(_workflow(), iteration=0)
        assert stats.original_nodes == ["a", "b", "c"]

    def test_diamond_change_only_affects_descendants(self):
        previous = compute_node_signatures(make_diamond_dag())
        modified = make_diamond_dag()
        # Rebuild with a changed 'b' offset only.
        nodes = [modified.node("a"), Node.create("b", SumOperator(offset=9.0, cost=2.0), parents=["a"]),
                 modified.node("c"), modified.node("d")]
        changed = WorkflowDAG(nodes)
        diff = _tracked_diff(previous, changed)
        assert diff.original == frozenset({"b", "d"})
        assert diff.reusable == frozenset({"a", "c"})
