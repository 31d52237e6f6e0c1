"""The Workflow DAG: Helix's intermediate representation.

Definition 1 of the paper: for a Workflow containing operators ``F = {f_i}``
the Workflow DAG is a directed acyclic graph ``G_W = (N, E)`` where node
``n_i`` represents the output of ``f_i`` and ``(n_i, n_j) in E`` if the output
of ``f_i`` is an input to ``f_j``.

This module provides :class:`Node` and :class:`WorkflowDAG` with the graph
queries the compiler and optimizers need: topological ordering, ancestor /
descendant closure, output-driven slicing (program slicing, Section 5.4) and
structural validation.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field, replace
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from ..exceptions import CycleError, DAGError
from .operators import Component, Operator

__all__ = ["Node", "WorkflowDAG"]


@dataclass(frozen=True)
class Node:
    """A node in the Workflow DAG: the output of one operator.

    Attributes
    ----------
    name:
        Unique node name (the declared variable name in the DSL).
    operator:
        The operator whose output this node represents.
    parents:
        Names of the nodes whose outputs are inputs to the operator, in
        declaration order (the order in which values are passed to
        ``operator.run``).
    is_output:
        Whether the node was declared with ``is_output()`` and must be
        produced (and materialized) every iteration.
    component:
        Workflow component for run-time breakdowns; defaults to the
        operator's own component.
    """

    name: str
    operator: Operator
    parents: Tuple[str, ...] = ()
    is_output: bool = False
    component: Component = Component.DPR

    @staticmethod
    def create(
        name: str,
        operator: Operator,
        parents: Sequence[str] = (),
        is_output: bool = False,
        component: Optional[Component] = None,
    ) -> "Node":
        return Node(
            name=name,
            operator=operator,
            parents=tuple(parents),
            is_output=is_output,
            component=component or operator.component,
        )


class WorkflowDAG:
    """A directed acyclic graph of operator outputs.

    The DAG is immutable once constructed; derived DAGs (e.g. sliced to the
    output cone) are new objects sharing node instances.
    """

    def __init__(self, nodes: Iterable[Node], name: str = "workflow"):
        self.name = name
        self._nodes: Dict[str, Node] = {}
        for node in nodes:
            if node.name in self._nodes:
                raise DAGError(f"duplicate node name: {node.name!r}")
            self._nodes[node.name] = node
        self._children: Dict[str, List[str]] = {name: [] for name in self._nodes}
        for node in self._nodes.values():
            for parent in node.parents:
                if parent not in self._nodes:
                    raise DAGError(
                        f"node {node.name!r} references undeclared parent {parent!r}"
                    )
                self._children[parent].append(node.name)
        self._order: Tuple[str, ...] = self._topological_sort()
        self._edges: Optional[Tuple[Tuple[str, str], ...]] = None

    # -- container protocol --------------------------------------------------
    def __len__(self) -> int:
        return len(self._nodes)

    def __iter__(self) -> Iterator[Node]:
        return (self._nodes[name] for name in self._order)

    def __contains__(self, name: str) -> bool:
        return name in self._nodes

    def node(self, name: str) -> Node:
        try:
            return self._nodes[name]
        except KeyError:
            raise DAGError(f"unknown node: {name!r}") from None

    @property
    def node_names(self) -> Tuple[str, ...]:
        return self._order

    @property
    def outputs(self) -> Tuple[str, ...]:
        return tuple(n for n in self._order if self._nodes[n].is_output)

    @property
    def edges(self) -> Tuple[Tuple[str, str], ...]:
        """All ``(parent, child)`` edges, sorted (built on first use)."""
        if self._edges is None:
            self._edges = tuple(sorted(
                (parent, node.name) for node in self._nodes.values() for parent in node.parents
            ))
        return self._edges

    # -- graph queries ---------------------------------------------------------
    def parents(self, name: str) -> Tuple[str, ...]:
        return self.node(name).parents

    def children(self, name: str) -> Tuple[str, ...]:
        self.node(name)
        return tuple(self._children[name])

    def sinks(self) -> Tuple[str, ...]:
        return tuple(n for n in self._order if not self._children[n])

    def ancestors(self, name: str) -> FrozenSet[str]:
        """All transitive ancestors of ``name`` (excluding ``name`` itself)."""
        seen: Set[str] = set()
        stack = list(self.node(name).parents)
        while stack:
            current = stack.pop()
            if current in seen:
                continue
            seen.add(current)
            stack.extend(self._nodes[current].parents)
        return frozenset(seen)

    def descendants(self, name: str) -> FrozenSet[str]:
        """All transitive descendants of ``name`` (excluding ``name`` itself)."""
        seen: Set[str] = set()
        stack = list(self._children[name]) if name in self._children else []
        self.node(name)
        while stack:
            current = stack.pop()
            if current in seen:
                continue
            seen.add(current)
            stack.extend(self._children[current])
        return frozenset(seen)

    def topological_order(self) -> Tuple[str, ...]:
        """Node names in a deterministic topological order."""
        return self._order

    def _topological_sort(self) -> Tuple[str, ...]:
        """Kahn's algorithm, always taking the smallest ready name."""
        in_degree = {name: len(node.parents) for name, node in self._nodes.items()}
        ready = [name for name, degree in in_degree.items() if degree == 0]
        heapq.heapify(ready)
        order: List[str] = []
        while ready:
            current = heapq.heappop(ready)
            order.append(current)
            for child in self._children[current]:
                in_degree[child] -= 1
                if in_degree[child] == 0:
                    heapq.heappush(ready, child)
        if len(order) != len(self._nodes):
            remaining = sorted(set(self._nodes) - set(order))
            raise CycleError(f"workflow DAG contains a cycle involving {remaining}")
        return tuple(order)

    # -- transformations -------------------------------------------------------
    def sliced_to_outputs(self, outputs: Optional[Sequence[str]] = None) -> "WorkflowDAG":
        """Program slicing: keep only nodes that contribute to the outputs.

        Helix traverses the DAG backwards from the output nodes and prunes
        away any node not visited (Section 5.4).  The DAG itself is returned
        when every node is kept or no outputs are declared.
        """
        targets = tuple(outputs) if outputs is not None else self.outputs
        keep: Set[str] = {self.node(target).name for target in targets}
        stack = list(keep)
        while stack:
            for parent in self._nodes[stack.pop()].parents:
                if parent not in keep:
                    keep.add(parent)
                    stack.append(parent)
        if not targets or len(keep) == len(self._nodes):
            return self
        return WorkflowDAG(
            (self._nodes[name] for name in self._order if name in keep),
            name=self.name,
        )

    def relabel_outputs(self, outputs: Iterable[str]) -> "WorkflowDAG":
        """Return a DAG with ``is_output`` set exactly on ``outputs``."""
        wanted = set(outputs)
        missing = wanted - set(self._nodes)
        if missing:
            raise DAGError(f"cannot mark unknown nodes as outputs: {sorted(missing)}")
        return WorkflowDAG(
            (replace(node, is_output=node.name in wanted) for node in self),
            name=self.name,
        )

    # -- diagnostics -----------------------------------------------------------
    def summary(self) -> Dict[str, int]:
        """Node counts by component, plus edge count (used in reports/tests)."""
        counts = {component.value: 0 for component in Component}
        for node in self._nodes.values():
            counts[node.component.value] += 1
        counts["nodes"] = len(self._nodes)
        counts["edges"] = len(self.edges)
        counts["outputs"] = len(self.outputs)
        return counts
