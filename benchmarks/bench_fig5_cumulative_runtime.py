"""Figure 5: cumulative run time over iterations, Helix vs KeystoneML vs DeepDive.

One benchmark per workflow (Census, Genomics, NLP, MNIST), printing the
cumulative run-time series per system and asserting the qualitative shape the
paper reports: Helix OPT dominates the comparators wherever cross-iteration
reuse exists, and does not pay a large penalty where it does not (MNIST).

The checks run on the simulated clock (``SimulatedCostModel``), as Figures 8
and 9's do: its charges are a function of the workflow alone, while on the
measured clock a shape such as "every NLP rerun is faster than iteration 0"
failed now and then under a loaded machine.  The measured-clock tables are
printed beside them.
"""

from __future__ import annotations

from repro.execution.clock import MeasuredCostModel, SimulatedCostModel
from repro.experiments.figures import speedup
from repro.experiments.report import format_series_table
from repro.experiments.runner import run_comparison
from repro.systems.deepdive import DeepDiveSystem
from repro.systems.helix import HelixSystem
from repro.systems.keystoneml import KeystoneMLSystem

from _bench_helpers import ITERATIONS, SEED, emit, run_once


def _run(workload: str, clock=SimulatedCostModel):
    return run_comparison(
        [system(seed=0, cost_model=clock()) for system in (HelixSystem.opt, KeystoneMLSystem, DeepDiveSystem)],
        workload,
        n_iterations=ITERATIONS[workload],
        seed=SEED,
    )


def _print(workload: str, results, clock: str) -> None:
    series = {name: result.cumulative_times() for name, result in results.items()}
    types = next(iter(results.values())).iteration_types()
    emit(
        f"Figure 5 — {workload}: cumulative run time (s, {clock})",
        format_series_table(series)
        + "\niteration types: "
        + " ".join(types),
    )


def _measured_then_simulated(benchmark, workload: str):
    """Print the measured-clock series, then run and print the simulated one."""
    _print(workload, run_once(benchmark, lambda: _run(workload, MeasuredCostModel)), "measured")
    results = _run(workload)
    _print(workload, results, "simulated")
    return results


def test_fig5a_census(benchmark):
    results = _measured_then_simulated(benchmark, "census")
    helix_vs_keystone = speedup(results, "keystoneml")
    helix_vs_deepdive = speedup(results, "deepdive")
    emit("Census speedups (simulated)",
         f"vs KeystoneML: {helix_vs_keystone:.1f}x   vs DeepDive: {helix_vs_deepdive:.1f}x")
    # Paper: 19x vs KeystoneML over 10 iterations; shape check: a large factor.
    assert helix_vs_keystone > 3.0
    assert helix_vs_deepdive > 3.0


def test_fig5b_genomics(benchmark):
    results = _measured_then_simulated(benchmark, "genomics")
    assert "deepdive" not in results  # unsupported (Table 2)
    # Paper: ~3x over KeystoneML.
    assert speedup(results, "keystoneml") > 1.5


def test_fig5c_nlp(benchmark):
    results = _measured_then_simulated(benchmark, "nlp")
    assert "keystoneml" not in results  # unsupported (Table 2)
    # Paper: DeepDive grows much faster because it never reuses the parsed corpus.
    assert speedup(results, "deepdive") > 1.5
    helix_times = results["helix-opt"].iteration_times()
    assert max(helix_times[1:]) < helix_times[0]


def test_fig5d_mnist(benchmark):
    results = _measured_then_simulated(benchmark, "mnist")
    helix = results["helix-opt"].total_time()
    keystone = results["keystoneml"].total_time()
    emit("MNIST ratio (simulated)", f"helix/keystoneml cumulative = {helix / keystone:.2f}")
    # Paper: little reuse is available; Helix must stay close to KeystoneML
    # (only slight overhead on DPR/L-I iterations) and may win thanks to PPR reuse.
    assert helix < keystone * 1.3
