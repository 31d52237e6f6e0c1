"""Shared fixtures: tiny deterministic operators, DAGs and workflows for tests."""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence

import pytest

from repro.core.dag import Node, WorkflowDAG
from repro.core.data import DataCollection
from repro.core.operators import Component, Operator, RunContext, Synthesizer
from repro.execution.clock import SimulatedCostModel
from repro.optimizer.metrics import StatsStore
from repro.storage.store import InMemoryStore


#: What unpickling an :class:`UnpickleTripwire` records; a test that expects
#: no unpickling asserts it stays empty.
UNPICKLED: List[bool] = []


def _record_unpickle() -> None:
    UNPICKLED.append(True)


class UnpickleTripwire:
    """Unpickling this runs code: it records that it ran."""

    def __reduce__(self):
        return (_record_unpickle, ())


class ConstOperator(Operator):
    """Test operator returning a constant value, with a declared cost."""

    def __init__(self, value: Any = 1, cost: float = 1.0, tag: str = "", component: Component = Component.DPR):
        self.value = value
        self.cost = cost
        self.tag = tag
        self.component = component

    def config(self) -> Dict[str, Any]:
        return {"value": self.value, "cost": self.cost, "tag": self.tag}

    def estimated_cost(self, input_sizes: Sequence[int]) -> float:
        return self.cost

    def run(self, inputs: Sequence[Any], context: RunContext) -> Any:
        return self.value


class SumOperator(Operator):
    """Test operator summing numeric inputs plus an offset."""

    def __init__(self, offset: float = 0.0, cost: float = 1.0, component: Component = Component.DPR):
        self.offset = offset
        self.cost = cost
        self.component = component

    def config(self) -> Dict[str, Any]:
        return {"offset": self.offset, "cost": self.cost}

    def estimated_cost(self, input_sizes: Sequence[int]) -> float:
        return self.cost

    def run(self, inputs: Sequence[Any], context: RunContext) -> Any:
        total = self.offset
        for value in inputs:
            total += float(value)
        return total


class PairSynthesizer(Synthesizer):
    """Two-input synthesizer: the elements of its first input, then its second's."""

    def config(self) -> Dict[str, Any]:
        return {}

    def run(self, inputs: Sequence[Any], context: RunContext) -> Any:
        left, right = inputs
        return DataCollection("pair", [*left, *right])


class FailingOperator(Operator):
    """Test operator that always raises."""

    def config(self) -> Dict[str, Any]:
        return {}

    def run(self, inputs: Sequence[Any], context: RunContext) -> Any:
        raise RuntimeError("intentional failure")


class UnpicklableOperator(Operator):
    """Carries a lambda, so pickling fails (the classic closure-UDF mistake)."""

    def __init__(self):
        self.fn = lambda x: x + 1

    def config(self) -> Dict[str, Any]:
        return {"fn": self.fn}

    def run(self, inputs: Sequence[Any], context: RunContext) -> Any:
        return self.fn(1.0)


class OptedOutOperator(Operator):
    """Picklable but declares itself unsafe for process execution."""

    supports_processes = False

    def config(self) -> Dict[str, Any]:
        return {}

    def run(self, inputs: Sequence[Any], context: RunContext) -> Any:
        return 1.0


def make_chain_dag(n: int = 4, costs: Optional[List[float]] = None, name: str = "chain") -> WorkflowDAG:
    """n0 -> n1 -> ... -> n_{n-1}, last node is the output."""
    costs = costs or [1.0] * n
    nodes = []
    for i in range(n):
        operator = SumOperator(offset=1.0, cost=costs[i]) if i else ConstOperator(1, cost=costs[i])
        parents = [f"n{i-1}"] if i else []
        nodes.append(Node.create(f"n{i}", operator, parents, is_output=(i == n - 1)))
    return WorkflowDAG(nodes, name=name)


def make_diamond_dag(name: str = "diamond") -> WorkflowDAG:
    """a -> (b, c) -> d, with d as output."""
    a = Node.create("a", ConstOperator(2, cost=4.0, tag="a"))
    b = Node.create("b", SumOperator(offset=1.0, cost=2.0), parents=["a"])
    c = Node.create("c", SumOperator(offset=2.0, cost=3.0), parents=["a"])
    d = Node.create("d", SumOperator(offset=0.0, cost=1.0), parents=["b", "c"], is_output=True)
    return WorkflowDAG([a, b, c, d], name=name)


@pytest.fixture
def chain_dag() -> WorkflowDAG:
    return make_chain_dag()


@pytest.fixture
def diamond_dag() -> WorkflowDAG:
    return make_diamond_dag()


@pytest.fixture
def memory_store() -> InMemoryStore:
    return InMemoryStore()


@pytest.fixture
def simulated_cost_model() -> SimulatedCostModel:
    return SimulatedCostModel()


@pytest.fixture
def stats_store() -> StatsStore:
    return StatsStore()


@pytest.fixture
def run_context() -> RunContext:
    return RunContext(seed=0)
