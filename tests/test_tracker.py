"""Unit tests for run statistics and the memory tracker."""

from __future__ import annotations

import pytest

from repro.execution.tracker import MemoryTracker, RunStats
from repro.optimizer.oep import NodeState


class TestMemoryTracker:
    def test_empty_tracker(self):
        tracker = MemoryTracker()
        assert tracker.peak_bytes == 0
        assert tracker.average_bytes == 0.0

    def test_peak_and_average(self):
        tracker = MemoryTracker()
        for value in (100, 300, 200):
            tracker.snapshot(value)
        assert tracker.peak_bytes == 300
        assert tracker.average_bytes == pytest.approx(200.0)


class TestRunStats:
    def _stats(self):
        stats = RunStats(iteration=3, workflow_name="census")
        stats.node_states = {"a": NodeState.COMPUTE, "b": NodeState.LOAD, "c": NodeState.PRUNE}
        stats.node_times = {"a": 2.0, "b": 0.5}
        stats.component_times = {"DPR": 1.5, "L/I": 1.0}
        stats.materialization_time = 0.25
        stats.materialized_nodes = ["a"]
        stats.storage_bytes = 1000
        stats.peak_memory_bytes = 2048
        stats.average_memory_bytes = 1024.0
        return stats

    def test_execution_and_total_time(self):
        stats = self._stats()
        assert stats.execution_time == pytest.approx(2.5)
        assert stats.total_time == pytest.approx(2.75)

    def test_component_breakdown_includes_materialization(self):
        breakdown = self._stats().component_breakdown()
        assert breakdown["DPR"] == 1.5
        assert breakdown["Mat."] == 0.25
        assert breakdown["PPR"] == 0.0

    def test_state_fractions(self):
        fractions = self._stats().state_fractions()
        assert fractions["Sc"] == pytest.approx(1 / 3)
        assert fractions["Sl"] == pytest.approx(1 / 3)
        assert fractions["Sp"] == pytest.approx(1 / 3)
        assert sum(fractions.values()) == pytest.approx(1.0)

    def test_state_fractions_empty(self):
        assert RunStats(iteration=0).state_fractions()["Sc"] == 0.0

    def test_nodes_in_state(self):
        stats = self._stats()
        assert stats.nodes_in_state(NodeState.COMPUTE) == ["a"]
        assert stats.nodes_in_state(NodeState.PRUNE) == ["c"]
