"""Unit tests for operator metrics, the stats store and the cost estimator."""

from __future__ import annotations

import pytest

from repro.execution.clock import MeasuredCostModel, SimulatedCostModel
from repro.optimizer.metrics import CostEstimator, NodeMetrics, StatsStore
from repro.storage.store import modelled_io_seconds

from conftest import ConstOperator


class TestNodeMetrics:
    def test_first_observation_sets_values(self):
        metrics = NodeMetrics()
        metrics.merge_observation(compute_time=2.0, load_time=0.5, storage_bytes=100)
        assert metrics.compute_time == 2.0
        assert metrics.load_time == 0.5
        assert metrics.storage_bytes == 100
        assert metrics.observations == 1

    def test_running_average(self):
        metrics = NodeMetrics()
        metrics.merge_observation(compute_time=2.0)
        metrics.merge_observation(compute_time=4.0)
        assert metrics.compute_time == pytest.approx(3.0)
        assert metrics.observations == 2

    def test_partial_observations(self):
        metrics = NodeMetrics()
        metrics.merge_observation(compute_time=2.0)
        metrics.merge_observation(load_time=1.0)
        assert metrics.compute_time == 2.0
        assert metrics.load_time == 1.0


class TestStatsStore:
    def test_record_and_get(self):
        store = StatsStore()
        store.record("sig", compute_time=1.5, storage_bytes=10)
        assert "sig" in store
        assert store.get("sig").compute_time == 1.5

    def test_persistence_round_trip(self, tmp_path):
        path = tmp_path / "stats.json"
        store = StatsStore(path=path)
        store.record("sig", compute_time=2.0, load_time=0.1, storage_bytes=42)
        store.save()
        reloaded = StatsStore(path=path)
        assert reloaded.get("sig").compute_time == 2.0
        assert reloaded.get("sig").storage_bytes == 42

    def test_len(self):
        store = StatsStore()
        store.record("a", compute_time=1.0)
        store.record("b", compute_time=1.0)
        assert len(store) == 2


class TestCostEstimator:
    def test_compute_time_prefers_recorded_stats(self):
        stats = StatsStore()
        stats.record("sig", compute_time=7.0)
        estimator = CostEstimator(stats)
        assert estimator.compute_time("sig", ConstOperator(cost=1.0)) == 7.0

    def test_compute_time_falls_back_to_operator(self):
        estimator = CostEstimator(StatsStore())
        assert estimator.compute_time("unknown", ConstOperator(cost=3.0)) == 3.0

    def test_compute_time_default_without_operator(self):
        estimator = CostEstimator(StatsStore(), default_compute_time=0.5)
        assert estimator.compute_time("unknown") == 0.5

    def test_load_time_infinite_without_materialization(self):
        estimator = CostEstimator(StatsStore())
        assert estimator.load_time("sig", materialized=False) == float("inf")

    def test_load_time_prefers_recorded(self):
        stats = StatsStore()
        stats.record("sig", load_time=0.25)
        assert CostEstimator(stats).load_time("sig", materialized=True) == 0.25

    def test_load_time_derived_from_size(self):
        stats = StatsStore()
        stats.record("sig", storage_bytes=170_000_000)
        estimator = CostEstimator(stats)
        assert estimator.load_time("sig", materialized=True) == modelled_io_seconds(170_000_000)
        assert modelled_io_seconds(170_000_000) == pytest.approx(1.0001)

    def test_bytes_to_seconds_has_floor(self):
        estimator = CostEstimator(StatsStore())
        assert estimator.bytes_to_seconds(0) > 0

    @pytest.mark.parametrize("size_bytes", [0, 1, 4096, 3_000_000])
    def test_fallback_load_time_equals_cost_model_estimate(self, size_bytes):
        # The optimizer's l_i for a stored artifact without a recorded load
        # time must be what the cost models charge for that artifact.
        stats = StatsStore()
        stats.record("sig", storage_bytes=size_bytes)
        fallback = CostEstimator(stats).load_time("sig", materialized=True)
        assert fallback == SimulatedCostModel().estimate_io_cost(size_bytes)
        assert fallback == MeasuredCostModel().estimate_io_cost(size_bytes)
