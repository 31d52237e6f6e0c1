"""Unit tests for cross-iteration change tracking (node signatures / equivalence)."""

from __future__ import annotations

import pytest

from repro.core.dag import Node, WorkflowDAG
from repro.core.operators import Operator
from repro.core.signatures import compute_node_signatures, diff_signatures
from repro.core.workflow import Workflow
from repro.execution.clock import SimulatedCostModel
from repro.systems.helix import HelixSystem

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
