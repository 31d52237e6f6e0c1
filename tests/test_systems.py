"""Tests for the systems layer: Helix variants, KeystoneML and DeepDive comparators."""

from __future__ import annotations

import sys

import numpy as np
import pytest

from repro.core.workflow import Workflow
from repro.execution.clock import SimulatedCostModel
from repro.experiments.runner import run_lifecycle
from repro.optimizer.oep import NodeState
from repro.systems.deepdive import DeepDiveSystem
from repro.systems.helix import HelixSystem
from repro.systems.keystoneml import KeystoneMLSystem
from repro.workloads import IterationSpec, IterationType, get_workload
from repro.workloads.census import CensusConfig
from repro.workloads.synthetic import LatencyOperator


WORKLOAD = get_workload("census")
SMALL = CensusConfig(n_train=200, n_test=80)


def _modified(config, kind, seed=0):
    return WORKLOAD.apply_iteration(config, IterationSpec(index=1, kind=kind), np.random.default_rng(seed))


class TestHelixSystem:
    def test_first_iteration_computes_everything(self):
        system = HelixSystem.opt(seed=0)
        stats = system.run_iteration(WORKLOAD.build(SMALL), iteration=0)
        assert stats.nodes_in_state(NodeState.LOAD) == []
        assert stats.nodes_in_state(NodeState.PRUNE) == []
        assert stats.storage_bytes > 0  # something was materialized

    def test_identical_rerun_prunes_everything(self):
        system = HelixSystem.opt(seed=0)
        system.run_iteration(WORKLOAD.build(SMALL), iteration=0)
        stats = system.run_iteration(WORKLOAD.build(SMALL), iteration=1)
        fractions = stats.state_fractions()
        assert fractions["Sp"] == 1.0
        assert stats.total_time < 0.05

    def test_ppr_iteration_reuses_predictions(self):
        system = HelixSystem.opt(seed=0)
        first = system.run_iteration(WORKLOAD.build(SMALL), iteration=0)
        changed = _modified(SMALL, IterationType.PPR)
        second = system.run_iteration(WORKLOAD.build(changed), iteration=1)
        assert "checked" in second.nodes_in_state(NodeState.COMPUTE)
        assert "rows" not in second.nodes_in_state(NodeState.COMPUTE)
        assert second.total_time < first.total_time / 3

    def test_reused_results_match_recomputation(self):
        """Correctness (Theorem 1): reuse must not change the output values."""
        reuse_system = HelixSystem.opt(seed=0)
        reuse_system.run_iteration(WORKLOAD.build(SMALL), iteration=0)
        changed = _modified(SMALL, IterationType.PPR)
        with_reuse = reuse_system.run_iteration(WORKLOAD.build(changed), iteration=1)

        fresh_system = HelixSystem.opt(seed=0)
        from_scratch = fresh_system.run_iteration(WORKLOAD.build(changed), iteration=0)
        assert with_reuse.outputs["checked"] == from_scratch.outputs["checked"]

    def test_dpr_change_recomputes_downstream(self):
        system = HelixSystem.opt(seed=0)
        system.run_iteration(WORKLOAD.build(SMALL), iteration=0)
        changed = _modified(SMALL, IterationType.DPR, seed=3)
        stats = system.run_iteration(WORKLOAD.build(changed), iteration=1)
        assert "predictions" in stats.nodes_in_state(NodeState.COMPUTE)

    def test_li_change_does_not_recompute_parsing(self):
        system = HelixSystem.opt(seed=0)
        system.run_iteration(WORKLOAD.build(SMALL), iteration=0)
        changed = _modified(SMALL, IterationType.LI)
        stats = system.run_iteration(WORKLOAD.build(changed), iteration=1)
        assert "rows" not in stats.nodes_in_state(NodeState.COMPUTE)
        assert "predictions" in stats.nodes_in_state(NodeState.COMPUTE)

    def test_reverting_a_change_can_reuse_old_artifacts(self):
        system = HelixSystem.opt(seed=0)
        system.run_iteration(WORKLOAD.build(SMALL), iteration=0)
        changed = _modified(SMALL, IterationType.LI)
        system.run_iteration(WORKLOAD.build(changed), iteration=1)
        reverted = system.run_iteration(WORKLOAD.build(SMALL), iteration=2)
        assert reverted.state_fractions()["Sc"] <= 0.2

    def test_reset_clears_state(self):
        system = HelixSystem.opt(seed=0)
        system.run_iteration(WORKLOAD.build(SMALL), iteration=0)
        system.reset()
        assert system.storage_bytes() == 0
        stats = system.run_iteration(WORKLOAD.build(SMALL), iteration=0)
        assert stats.state_fractions()["Sc"] == 1.0

    def test_variant_names(self):
        assert HelixSystem.opt().name == "helix-opt"
        assert HelixSystem.always_materialize().name == "helix-am"
        assert HelixSystem.never_materialize().name == "helix-nm"

    def test_am_materializes_more_and_uses_more_storage_than_opt(self):
        opt = HelixSystem.opt(seed=0)
        am = HelixSystem.always_materialize(seed=0)
        opt_stats = opt.run_iteration(WORKLOAD.build(SMALL), iteration=0)
        am_stats = am.run_iteration(WORKLOAD.build(SMALL), iteration=0)
        assert len(am_stats.materialized_nodes) >= len(opt_stats.materialized_nodes)
        assert am.storage_bytes() >= opt.storage_bytes()

    def test_nm_materializes_only_outputs(self):
        nm = HelixSystem.never_materialize(seed=0)
        stats = nm.run_iteration(WORKLOAD.build(SMALL), iteration=0)
        assert stats.materialized_nodes == ["checked"]

    def test_nm_cannot_reuse_intermediates(self):
        nm = HelixSystem.never_materialize(seed=0)
        nm.run_iteration(WORKLOAD.build(SMALL), iteration=0)
        changed = _modified(SMALL, IterationType.PPR)
        stats = nm.run_iteration(WORKLOAD.build(changed), iteration=1)
        # Only the final output was on disk, and it changed, so almost
        # everything is recomputed.
        assert stats.state_fractions()["Sc"] > 0.5

    def test_iteration_type_recorded(self):
        system = HelixSystem.opt(seed=0)
        stats = system.run_iteration(WORKLOAD.build(SMALL), iteration=0, iteration_type="DPR")
        assert stats.iteration_type == "DPR"


class TestKeystoneML:
    def test_recomputes_everything_every_iteration(self):
        system = KeystoneMLSystem(seed=0)
        first = system.run_iteration(WORKLOAD.build(SMALL), iteration=0)
        second = system.run_iteration(WORKLOAD.build(SMALL), iteration=1)
        assert first.state_fractions()["Sc"] == 1.0
        assert second.state_fractions()["Sc"] == 1.0
        assert system.storage_bytes() == 0

    def test_does_not_support_nlp(self):
        assert not KeystoneMLSystem().supports("nlp")
        assert KeystoneMLSystem().supports("census")


class TestDeepDive:
    def test_supports_only_census_and_nlp(self):
        system = DeepDiveSystem()
        assert system.supports("census") and system.supports("nlp")
        assert not system.supports("genomics") and not system.supports("mnist")

    def test_materializes_everything_each_iteration(self):
        system = DeepDiveSystem(seed=0)
        stats = system.run_iteration(WORKLOAD.build(SMALL), iteration=0)
        assert stats.state_fractions()["Sc"] == 1.0
        assert len(stats.materialized_nodes) == len(stats.node_states)
        assert stats.materialization_time > 0

    def test_storage_accumulates_across_iterations(self):
        system = DeepDiveSystem(seed=0)
        system.run_iteration(WORKLOAD.build(SMALL), iteration=0)
        first = system.storage_bytes()
        system.run_iteration(WORKLOAD.build(SMALL), iteration=1)
        assert system.storage_bytes() > first
        system.reset()
        assert system.storage_bytes() == 0

    def test_dpr_slowdown_increases_dpr_time(self):
        fast = DeepDiveSystem(seed=0, dpr_slowdown=1.0)
        slow = DeepDiveSystem(seed=0, dpr_slowdown=4.0)
        fast_stats = fast.run_iteration(WORKLOAD.build(SMALL), iteration=0)
        slow_stats = slow.run_iteration(WORKLOAD.build(SMALL), iteration=0)
        assert slow_stats.component_breakdown()["DPR"] > fast_stats.component_breakdown()["DPR"]


def _state_counts(stats):
    return tuple(len(stats.nodes_in_state(state)) for state in NodeState)


#: Per-iteration (Sc, Sl, Sp) node counts of ``HelixSystem.opt`` lifecycles
#: under the simulated clock (seed 7, scale 0.1), captured with the
#: Edmonds-Karp / big-M solver this one replaced: the plans must not move.
GOLDEN_STATE_COUNTS = {
    "census": [(12, 0, 0), (1, 2, 9), (1, 2, 9), (1, 2, 9), (4, 7, 1), (2, 2, 8), (1, 2, 9),
               (4, 7, 2), (1, 2, 10), (1, 2, 10)],
    "mnist": [(6, 0, 0), (2, 1, 3), (1, 1, 4), (2, 1, 3), (5, 1, 0), (5, 1, 0), (1, 1, 4),
              (5, 1, 0), (1, 1, 4), (2, 1, 3)],
    "genomics": [(7, 0, 0), (1, 1, 5), (1, 1, 5), (1, 1, 5), (3, 2, 2), (3, 2, 2), (1, 1, 5),
                 (7, 0, 0), (1, 1, 5), (1, 1, 5)],
    "nlp": [(12, 0, 0), (4, 4, 4), (3, 4, 4), (4, 4, 4), (10, 1, 1), (3, 4, 4)],
}


def _grid_workflow(layers, width, edits):
    """``layers x width`` ring-connected grid joined by one output sink: node
    ``(l, j)`` reads ``(l-1, j)`` and ``(l-1, j+1 mod width)``.  50 us of
    declared compute against a modelled load of 100 us, so that loading a node
    is dearer than computing it but cheaper than computing its ancestors."""
    wf = Workflow("grid")
    for layer in range(layers):
        for column in range(width):
            name = f"n{layer}_{column}"
            parents = [f"n{layer - 1}_{column}", f"n{layer - 1}_{(column + 1) % width}"] if layer else []
            offset = edits.get((layer, column), 1.0 + 0.001 * column)
            wf.node(name, LatencyOperator(offset=offset, scale=0.5, cost=5e-5, tag=name), parents)
    tails = [f"n{layers - 1}_{column}" for column in range(width)]
    wf.node("sink", LatencyOperator(scale=1.0 / width, cost=5e-5, tag="sink"), tails, is_output=True)
    return wf


class TestGoldenPlans:
    @pytest.mark.parametrize("workload", sorted(GOLDEN_STATE_COUNTS))
    def test_paper_lifecycle_plans_are_unchanged(self, workload):
        system = HelixSystem.opt(cost_model=SimulatedCostModel())
        result = run_lifecycle(system, workload, seed=7, scale=0.1)
        assert [_state_counts(stats) for stats in result.iterations] == GOLDEN_STATE_COUNTS[workload]

    def test_grid_rerun_plans_are_unchanged(self):
        """15 x 50 grid, one mid-layer edit per rerun: the edit's cone is
        recomputed from a loaded frontier and everything else is pruned."""
        system = HelixSystem.opt(cost_model=SimulatedCostModel())
        edits = {}
        counts = []
        for iteration, column in enumerate((None, 17, 42)):
            if column is not None:
                edits[(7, column)] = 1.0 + iteration
            counts.append(_state_counts(system.run_iteration(_grid_workflow(15, 50, edits), iteration)))
        assert counts == [(751, 0, 0), (37, 58, 656), (37, 58, 656)]
        assert [sum(column) for column in zip(*counts)] == [825, 116, 1312]


class TestSettledWithoutANetwork:
    """Iterations the presolve decides outright never build a flow network."""

    @staticmethod
    def _recorded_plans(monkeypatch, system_class):
        """Every plan the system's module gets back from ``solve_oep``."""
        module = sys.modules[system_class.__module__]
        plans = []
        solve = module.solve_oep

        def recording(*args, **kwargs):
            plans.append(solve(*args, **kwargs))
            return plans[-1]

        monkeypatch.setattr(module, "solve_oep", recording)
        return plans

    @pytest.mark.parametrize("system_class", [KeystoneMLSystem, DeepDiveSystem])
    def test_comparator_systems_force_every_node(self, monkeypatch, system_class):
        plans = self._recorded_plans(monkeypatch, system_class)
        system = system_class(seed=0)
        system.run_iteration(WORKLOAD.build(SMALL), iteration=0)
        system.run_iteration(WORKLOAD.build(_modified(SMALL, IterationType.PPR)), iteration=1)
        assert len(plans) == 2
        for plan in plans:
            assert plan.decided_by["forced"] == len(plan.states)
            assert (plan.flow_nodes, plan.flow_edges) == (0, 0)

    def test_helix_first_iteration_and_nothing_stored_rerun(self, monkeypatch):
        plans = self._recorded_plans(monkeypatch, HelixSystem)
        system = HelixSystem.never_materialize(seed=0)
        system.run_iteration(WORKLOAD.build(SMALL), iteration=0)
        system.run_iteration(WORKLOAD.build(_modified(SMALL, IterationType.PPR)), iteration=1)
        first, rerun = plans
        assert first.decided_by["forced"] == len(first.states)
        assert 0 < rerun.decided_by["forced"] < len(rerun.states)
        assert rerun.decided_by["min_cut"] == rerun.decided_by["dominated_load"] == 0
        assert first.flow_nodes == rerun.flow_nodes == 0
