"""Tests for the experiment harness: runner, speedup helper, tables, reports."""

from __future__ import annotations

import numpy as np
import pytest

from repro.experiments.figures import speedup
from repro.experiments.report import (
    format_breakdown_table,
    format_fraction_table,
    format_memory_table,
    format_series_table,
)
from repro.experiments.runner import run_comparison, run_lifecycle
from repro.experiments.tables import format_table2, table2_rows
from repro.systems.deepdive import DeepDiveSystem
from repro.systems.helix import HelixSystem
from repro.systems.keystoneml import KeystoneMLSystem
from repro.workloads import get_workload


class TestRunner:
    def test_lifecycle_runs_requested_iterations(self):
        result = run_lifecycle(HelixSystem.opt(seed=0), "census", n_iterations=3, seed=7)
        assert result.num_iterations == 3
        assert len(result.cumulative_times()) == 3
        assert result.cumulative_times()[-1] == pytest.approx(result.total_time())
        assert len(result.iteration_types()) == 3

    def test_cumulative_times_are_non_decreasing(self):
        result = run_lifecycle(HelixSystem.opt(seed=0), "census", n_iterations=4, seed=7)
        cumulative = result.cumulative_times()
        assert all(b >= a for a, b in zip(cumulative, cumulative[1:]))

    def test_series_accessors_have_one_entry_per_iteration(self):
        result = run_lifecycle(HelixSystem.opt(seed=0), "genomics", n_iterations=3, seed=7)
        assert len(result.storage_series()) == 3
        assert len(result.memory_series()) == 3
        assert len(result.state_fraction_series()) == 3
        assert len(result.component_breakdowns()) == 3

    def test_summary(self):
        result = run_lifecycle(HelixSystem.opt(seed=0), "census", n_iterations=2, seed=7)
        summary = result.summary()
        assert summary["system"] == "helix-opt"
        assert summary["workload"] == "census"
        assert summary["iterations"] == 2

    def test_comparison_skips_unsupported_systems(self):
        results = run_comparison(
            [HelixSystem.opt(seed=0), KeystoneMLSystem(seed=0), DeepDiveSystem(seed=0)],
            "genomics",
            n_iterations=2,
            seed=7,
        )
        assert "deepdive" not in results
        assert set(results) == {"helix-opt", "keystoneml"}

    def test_comparison_uses_identical_plan(self):
        results = run_comparison(
            [HelixSystem.opt(seed=0), KeystoneMLSystem(seed=0)], "census", n_iterations=3, seed=7
        )
        types = {name: result.iteration_types() for name, result in results.items()}
        assert types["helix-opt"] == types["keystoneml"]

    def test_speedup_helper(self):
        results = run_comparison(
            [HelixSystem.opt(seed=0), KeystoneMLSystem(seed=0)], "census", n_iterations=3, seed=7
        )
        assert speedup(results, "keystoneml") > 1.0
        assert np.isnan(speedup(results, "missing-system"))


class TestTablesAndReports:
    def test_table2_rows(self):
        rows = table2_rows()
        assert rows["Num. Data Source"]["Census"] == "Single"
        assert rows["Supported by DeepDive"]["MNIST"] is False
        assert rows["Learning Task Type"]["Genomics"] == "Unsupervised"

    def test_format_table2_renders_all_workloads(self):
        text = format_table2()
        for name in ("Census", "Genomics", "IE", "MNIST"):
            assert name in text

    def test_format_series_table(self):
        text = format_series_table({"helix": [1.0, 2.0], "keystone": [3.0, 4.0]}, title="t")
        assert "helix" in text and "keystone" in text
        assert "3.0000" in text

    def test_format_breakdown_table(self):
        text = format_breakdown_table([{"DPR": 1.0, "L/I": 0.5, "PPR": 0.1, "Mat.": 0.0}])
        assert "DPR" in text and "0" in text

    def test_format_fraction_table(self):
        text = format_fraction_table([{"Sp": 0.5, "Sl": 0.25, "Sc": 0.25}])
        assert "Sp" in text and "0.50" in text

    def test_format_memory_table(self):
        text = format_memory_table([{"peak": 2048.0, "average": 1024.0}])
        assert "2.0" in text and "1.0" in text
