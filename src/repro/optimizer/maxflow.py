"""Maximum-flow / minimum-cut solver (Dinic's algorithm), built from scratch.

The OPT-EXEC-PLAN problem is solved via a reduction to the Project Selection
Problem, which itself reduces to a minimum s-t cut (Section 5.2 of the paper).
The solver is re-run on every iteration of every workflow, on DAGs of up to
10^4 nodes, so it is Dinic's algorithm — breadth-first level graphs and
blocking flows, ``O(V^2 * E)`` in general and a handful of linear passes on
the shallow networks the reduction produces (most paths are three edges
long) — over integer-indexed arrays rather than dictionaries keyed by node
identifier.

The module exposes :class:`FlowNetwork` with :meth:`max_flow` and
:meth:`min_cut`, and is intentionally independent of the rest of the library
so it can be reused and property-tested in isolation.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Hashable, Iterable, List, Tuple

__all__ = ["FlowNetwork", "INFINITY"]

#: Capacity value treated as unbounded.  Using a float sentinel (rather than
#: ``math.inf``) keeps arithmetic exact when capacities are summed.
INFINITY = float("inf")

#: Residual capacity at or below which an edge counts as saturated.
_EPSILON = 1e-12


class FlowNetwork:
    """A directed flow network over arbitrary hashable node identifiers.

    Identifiers are interned to consecutive integers as they are first seen.
    Edge ``e`` and its reverse ``e ^ 1`` sit side by side in the flat ``_to``
    / ``_capacity`` arrays, and ``_adjacent[u]`` lists the edges leaving
    ``u``.  Parallel edges are kept apart internally and behave as their
    summed capacity.
    """

    def __init__(self) -> None:
        self._index: Dict[Hashable, int] = {}
        self._identifiers: List[Hashable] = []
        self._adjacent: List[List[int]] = []
        self._to: List[int] = []
        self._capacity: List[float] = []

    # ------------------------------------------------------------------ build
    def _intern(self, node: Hashable) -> int:
        index = self._index[node] = len(self._identifiers)
        self._identifiers.append(node)
        self._adjacent.append([])
        return index

    def add_node(self, node: Hashable) -> None:
        if node not in self._index:
            self._intern(node)

    def add_edge(self, source: Hashable, target: Hashable, capacity: float) -> None:
        """Add a directed edge; repeated edges accumulate capacity."""
        if capacity < 0:
            raise ValueError(f"edge capacity must be non-negative, got {capacity}")
        if source == target:
            return
        index = self._index
        u = index.get(source)
        if u is None:
            u = self._intern(source)
        v = index.get(target)
        if v is None:
            v = self._intern(target)
        to = self._to
        edge = len(to)
        to.append(v)
        to.append(u)
        self._capacity.append(capacity)
        self._capacity.append(0.0)
        self._adjacent[u].append(edge)
        self._adjacent[v].append(edge + 1)

    @property
    def nodes(self) -> FrozenSet[Hashable]:
        return frozenset(self._index)

    @property
    def num_edges(self) -> int:
        """Number of ``add_edge`` calls that created an edge."""
        return len(self._to) // 2

    def capacity(self, source: Hashable, target: Hashable) -> float:
        u = self._index.get(source)
        v = self._index.get(target)
        if u is None or v is None:
            return 0.0
        return sum(self._capacity[e] for e in self._adjacent[u] if self._to[e] == v)

    def edges(self) -> Iterable[Tuple[Hashable, Hashable, float]]:
        for source, targets in self._nested(self._capacity).items():
            for target, capacity in targets.items():
                if capacity > 0:
                    yield source, target, capacity

    def _nested(self, capacity: List[float]) -> Dict[Hashable, Dict[Hashable, float]]:
        """``capacity`` as ``{u: {v: total}}`` over every node and edge pair."""
        identifiers = self._identifiers
        nested: Dict[Hashable, Dict[Hashable, float]] = {}
        for u, edges in enumerate(self._adjacent):
            targets = nested[identifiers[u]] = {}
            for e in edges:
                v = identifiers[self._to[e]]
                targets[v] = targets.get(v, 0.0) + capacity[e]
        return nested

    # ------------------------------------------------------------------ solve
    def _solve(self, source: Hashable, sink: Hashable) -> Tuple[float, List[float], List[int]]:
        """Dinic's algorithm.

        Returns ``(flow_value, residual, level)``: the residual capacity of
        every edge, and the level of every node in the last (failed) search
        from the source, which is ``-1`` exactly for the nodes the source can
        no longer reach.
        """
        if source not in self._index or sink not in self._index:
            raise ValueError("source and sink must be nodes of the network")
        if source == sink:
            raise ValueError("source and sink must differ")
        s = self._index[source]
        t = self._index[sink]
        adjacent = self._adjacent
        to = self._to
        residual = list(self._capacity)
        flow_value = 0.0
        while True:
            # Level graph: breadth-first distances over unsaturated edges.
            level = [-1] * len(adjacent)
            level[s] = 0
            queue = [s]
            for u in queue:
                below = level[u] + 1
                for e in adjacent[u]:
                    v = to[e]
                    if level[v] < 0 and residual[e] > _EPSILON:
                        level[v] = below
                        queue.append(v)
            if level[t] < 0:
                return flow_value, residual, level

            # Blocking flow: depth-first walks down the level graph.  Each
            # node keeps a cursor into its edge list, so an edge found useless
            # in this phase is never looked at again.
            cursor = [0] * len(adjacent)
            path: List[int] = []
            u = s
            while True:
                if u == t:
                    bottleneck = min([residual[e] for e in path])
                    if bottleneck == INFINITY:
                        raise ValueError(
                            "network has an unbounded source-to-sink path; "
                            "max flow is infinite"
                        )
                    flow_value += bottleneck
                    restart = len(path)
                    for i, e in enumerate(path):
                        residual[e] -= bottleneck
                        residual[e ^ 1] += bottleneck
                        if residual[e] <= _EPSILON and i < restart:
                            restart = i
                    # Resume from the tail of the first saturated edge.
                    u = to[path[restart] ^ 1]
                    del path[restart:]
                    continue
                edges = adjacent[u]
                i = cursor[u]
                below = level[u] + 1
                while i < len(edges):
                    e = edges[i]
                    if residual[e] > _EPSILON and level[to[e]] == below:
                        break
                    i += 1
                cursor[u] = i
                if i < len(edges):
                    path.append(e)
                    u = to[e]
                elif path:
                    u = to[path.pop() ^ 1]
                    cursor[u] += 1
                else:
                    break

    def max_flow(self, source: Hashable, sink: Hashable) -> Tuple[float, Dict[Hashable, Dict[Hashable, float]]]:
        """Compute the maximum flow value and the residual capacities.

        Returns ``(flow_value, residual)`` where ``residual[u][v]`` is the
        remaining capacity on edge ``(u, v)`` after routing the maximum flow.
        """
        flow_value, residual, _level = self._solve(source, sink)
        return flow_value, self._nested(residual)

    def min_cut(self, source: Hashable, sink: Hashable) -> Tuple[float, FrozenSet[Hashable], FrozenSet[Hashable]]:
        """Compute a minimum s-t cut.

        Returns ``(cut_value, source_side, sink_side)``: the cut value equals
        the maximum flow, and the two frozensets partition the nodes by which
        side of the cut they fall on.  The source side is what the source
        still reaches in the residual graph — the smallest source side of any
        minimum cut, whichever maximum flow was found.
        """
        flow_value, _residual, level = self._solve(source, sink)
        identifiers = self._identifiers
        source_side = frozenset(identifiers[u] for u, depth in enumerate(level) if depth >= 0)
        return flow_value, source_side, frozenset(identifiers) - source_side
