"""Unit tests for cost models and the cluster-scaling model."""

from __future__ import annotations

import pytest

from repro.core.operators import Component
from repro.execution.clock import ClusterModel, MeasuredCostModel, SimulatedCostModel
from repro.storage.store import DISK_BANDWIDTH, DISK_LATENCY, modelled_io_seconds

from conftest import ConstOperator


class TestClusterModel:
    def test_single_worker_is_identity(self):
        cluster = ClusterModel(num_workers=1)
        assert cluster.scale(Component.DPR, 10.0) == 10.0

    def test_parallel_component_speeds_up(self):
        cluster = ClusterModel(num_workers=4, parallel_efficiency={"DPR": 1.0, "L/I": 1.0, "PPR": 0.0})
        assert cluster.scale(Component.DPR, 8.0) == pytest.approx(2.0)

    def test_efficiency_below_one_reduces_speedup(self):
        ideal = ClusterModel(num_workers=4, parallel_efficiency={"DPR": 1.0, "L/I": 1.0, "PPR": 0.0})
        lossy = ClusterModel(num_workers=4, parallel_efficiency={"DPR": 0.5, "L/I": 1.0, "PPR": 0.0})
        assert lossy.scale(Component.DPR, 8.0) > ideal.scale(Component.DPR, 8.0)

    def test_non_parallel_component_pays_overhead(self):
        cluster = ClusterModel(num_workers=8, communication_overhead=0.01)
        assert cluster.scale(Component.PPR, 1.0) == pytest.approx(1.0 + 0.08)

    def test_superlinear_efficiency_possible(self):
        cluster = ClusterModel(num_workers=2, parallel_efficiency={"DPR": 1.5, "L/I": 1.0, "PPR": 0.0})
        assert cluster.scale(Component.DPR, 10.0) < 5.0


class TestMeasuredCostModel:
    def test_charges_measured_seconds(self):
        model = MeasuredCostModel()
        charged = model.compute_cost(ConstOperator(cost=99.0), Component.DPR, [10], measured_seconds=0.2)
        assert charged == 0.2

    def test_io_cost_is_measured(self):
        assert MeasuredCostModel().io_cost(10_000, measured_seconds=0.05) == 0.05

    def test_estimate_io_cost_uses_bandwidth(self):
        model = MeasuredCostModel()
        assert model.estimate_io_cost(2_000_000) == modelled_io_seconds(2_000_000)
        assert modelled_io_seconds(2_000_000) == pytest.approx(DISK_LATENCY + 2_000_000 / DISK_BANDWIDTH)

    def test_cluster_scaling_applied(self):
        cluster = ClusterModel(num_workers=4, parallel_efficiency={"DPR": 1.0, "L/I": 1.0, "PPR": 0.0})
        model = MeasuredCostModel(cluster=cluster)
        assert model.compute_cost(ConstOperator(), Component.DPR, [], 4.0) == pytest.approx(1.0)


class TestSimulatedCostModel:
    def test_charges_declared_cost(self):
        model = SimulatedCostModel()
        charged = model.compute_cost(ConstOperator(cost=2.5), Component.DPR, [1], measured_seconds=0.0001)
        assert charged == 2.5

    def test_io_cost_deterministic(self):
        model = SimulatedCostModel()
        assert model.io_cost(1_000_000, measured_seconds=123.0) == modelled_io_seconds(1_000_000)
        assert model.estimate_io_cost(1_000_000) == modelled_io_seconds(1_000_000)
