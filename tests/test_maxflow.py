"""Unit and property tests for the Dinic max-flow / min-cut solver."""

from __future__ import annotations

from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.optimizer.maxflow import INFINITY, FlowNetwork


def _classic_network() -> FlowNetwork:
    """The standard CLRS example network with max flow 23."""
    network = FlowNetwork()
    edges = [
        ("s", "v1", 16), ("s", "v2", 13), ("v1", "v3", 12), ("v2", "v1", 4),
        ("v2", "v4", 14), ("v3", "v2", 9), ("v3", "t", 20), ("v4", "v3", 7),
        ("v4", "t", 4),
    ]
    for u, v, c in edges:
        network.add_edge(u, v, c)
    return network


class TestMaxFlow:
    def test_classic_example(self):
        flow, _ = _classic_network().max_flow("s", "t")
        assert flow == pytest.approx(23.0)

    def test_min_cut_value_equals_max_flow(self):
        network = _classic_network()
        flow, _ = network.max_flow("s", "t")
        cut, source_side, sink_side = network.min_cut("s", "t")
        assert cut == pytest.approx(flow)
        assert "s" in source_side and "t" in sink_side
        assert source_side.isdisjoint(sink_side)
        assert source_side | sink_side == network.nodes

    def test_single_edge(self):
        network = FlowNetwork()
        network.add_edge("s", "t", 5)
        flow, _ = network.max_flow("s", "t")
        assert flow == 5

    def test_disconnected_graph_has_zero_flow(self):
        network = FlowNetwork()
        network.add_node("s")
        network.add_node("t")
        network.add_edge("s", "a", 10)
        flow, _ = network.max_flow("s", "t")
        assert flow == 0

    def test_parallel_edges_accumulate(self):
        network = FlowNetwork()
        network.add_edge("s", "t", 2)
        network.add_edge("s", "t", 3)
        flow, _ = network.max_flow("s", "t")
        assert flow == 5

    def test_infinite_path_rejected(self):
        network = FlowNetwork()
        network.add_edge("s", "t", INFINITY)
        with pytest.raises(ValueError):
            network.max_flow("s", "t")

    def test_infinite_edge_off_path_is_fine(self):
        network = FlowNetwork()
        network.add_edge("s", "a", 3)
        network.add_edge("a", "t", 2)
        network.add_edge("b", "a", INFINITY)  # not on any s-t path
        flow, _ = network.max_flow("s", "t")
        assert flow == 2

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            FlowNetwork().add_edge("a", "b", -1)

    def test_self_loop_ignored(self):
        network = FlowNetwork()
        network.add_edge("s", "s", 10)
        network.add_edge("s", "t", 1)
        flow, _ = network.max_flow("s", "t")
        assert flow == 1

    def test_same_source_and_sink_rejected(self):
        network = FlowNetwork()
        network.add_edge("s", "t", 1)
        with pytest.raises(ValueError):
            network.max_flow("s", "s")

    def test_unknown_nodes_rejected(self):
        network = FlowNetwork()
        network.add_edge("s", "t", 1)
        with pytest.raises(ValueError):
            network.max_flow("s", "zzz")


    def test_accessors_merge_parallel_edges(self):
        network = FlowNetwork()
        network.add_edge("s", "a", 2)
        network.add_edge("s", "a", 3)
        network.add_edge("a", "t", 4)
        assert network.capacity("s", "a") == 5
        assert network.capacity("a", "s") == 0
        assert network.capacity("s", "ghost") == 0
        assert sorted(network.edges()) == [("a", "t", 4), ("s", "a", 5)]
        assert network.num_edges == 3

    def test_residual_reports_what_is_left(self):
        network = FlowNetwork()
        network.add_edge("s", "a", 5)
        network.add_edge("a", "t", 3)
        flow, residual = network.max_flow("s", "t")
        assert flow == 3
        assert residual["s"]["a"] == 2 and residual["a"]["s"] == 3
        assert residual["a"]["t"] == 0 and residual["t"]["a"] == 3

    def test_min_cut_takes_the_smallest_source_side(self):
        # Both {s} and {s, a} are minimum cuts (value 2); ties go to the sink.
        network = FlowNetwork()
        network.add_edge("s", "a", 2)
        network.add_edge("a", "t", 2)
        network.add_edge("free", "a", INFINITY)
        cut, source_side, sink_side = network.min_cut("s", "t")
        assert cut == 2
        assert source_side == {"s"} and sink_side == {"a", "t", "free"}


def _reference_max_flow(edges, source, sink):
    """Shortest-augmenting-path max flow over a capacity dict (test oracle only)."""
    residual = {}
    for u, v, c in edges:
        residual.setdefault(u, {}).setdefault(v, 0)
        residual.setdefault(v, {}).setdefault(u, 0)
        residual[u][v] += c
    total = 0
    while True:
        parent = {source: None}
        queue = deque([source])
        while queue and sink not in parent:
            u = queue.popleft()
            for v, c in residual.get(u, {}).items():
                if c > 0 and v not in parent:
                    parent[v] = u
                    queue.append(v)
        if sink not in parent:
            return total, set(parent)
        path = [sink]
        while parent[path[-1]] is not None:
            path.append(parent[path[-1]])
        path.reverse()
        push = min(residual[u][v] for u, v in zip(path, path[1:]))
        for u, v in zip(path, path[1:]):
            residual[u][v] -= push
            residual[v][u] += push
        total += push


@st.composite
def random_dense_networks(draw):
    """Random networks with cycles, back edges and parallel edges."""
    n = draw(st.integers(2, 8))
    names = ["s", "t"] + [f"m{i}" for i in range(n - 2)]
    edges = draw(st.lists(
        st.tuples(st.sampled_from(names), st.sampled_from(names), st.integers(0, 12)),
        max_size=30,
    ))
    return [(u, v, c) for u, v, c in edges if u != v]


class TestAgainstReference:
    @given(random_dense_networks())
    @settings(max_examples=150, deadline=None)
    def test_flow_value_and_cut_match_augmenting_paths(self, edges):
        network = FlowNetwork()
        network.add_node("s")
        network.add_node("t")
        for u, v, c in edges:
            network.add_edge(u, v, c)
        expected_value, expected_side = _reference_max_flow(edges, "s", "t")
        value, residual = network.max_flow("s", "t")
        assert value == expected_value
        cut, source_side, sink_side = network.min_cut("s", "t")
        assert cut == expected_value
        # The source-reachable set is the same whichever maximum flow is found.
        assert source_side == expected_side
        assert sum(c for u, v, c in edges if u in source_side and v in sink_side) == cut
        assert all(c >= 0 for targets in residual.values() for c in targets.values())


@st.composite
def random_networks(draw):
    """Small random layered networks for comparison with networkx."""
    n_mid = draw(st.integers(1, 5))
    edges = []
    for i in range(n_mid):
        if draw(st.booleans()):
            edges.append(("s", f"m{i}", draw(st.integers(1, 20))))
        if draw(st.booleans()):
            edges.append((f"m{i}", "t", draw(st.integers(1, 20))))
        for j in range(i + 1, n_mid):
            if draw(st.booleans()):
                edges.append((f"m{i}", f"m{j}", draw(st.integers(1, 20))))
    edges.append(("s", "m0", draw(st.integers(1, 20))))
    edges.append((f"m{n_mid - 1}", "t", draw(st.integers(1, 20))))
    return edges


class TestAgainstNetworkx:
    @given(random_networks())
    @settings(max_examples=60, deadline=None)
    def test_max_flow_matches_networkx(self, edges):
        networkx = pytest.importorskip("networkx")
        ours = FlowNetwork()
        theirs = networkx.DiGraph()
        for u, v, c in edges:
            ours.add_edge(u, v, c)
        # networkx sums parallel edges only if we accumulate explicitly.
        for u, v, c in edges:
            if theirs.has_edge(u, v):
                theirs[u][v]["capacity"] += c
            else:
                theirs.add_edge(u, v, capacity=c)
        ours_value, _ = ours.max_flow("s", "t")
        theirs_value = networkx.maximum_flow_value(theirs, "s", "t")
        assert ours_value == pytest.approx(theirs_value)
