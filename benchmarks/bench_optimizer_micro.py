"""Micro-benchmarks and ablations for the optimizer itself.

These are conventional pytest-benchmark measurements (multiple rounds) of the
two optimization algorithms on synthetic DAGs, plus an ablation comparing the
streaming OPT-MAT-PLAN heuristic against the exact (exponential) solver on
small DAGs — quantifying the optimality gap DESIGN.md calls out.

Running this file as a script (``python benchmarks/bench_optimizer_micro.py
[--smoke] [--json PATH]``) times ``solve_oep`` over a size sweep of
ring-connected grid DAGs (about 10^2, the 751-node grid of the end-to-end
benchmark, 3*10^3 and 10^4 nodes; ``--smoke`` stops at 3*10^3) in the three
situations a lifecycle meets: every node forced (iteration 0, and every
iteration of the KeystoneML/DeepDive systems), a rerun with nothing stored,
and one mid-layer edit with everything stored.  It fails when the solve is
not near-linear — ``t(4N) / t(N)`` above ``SCALING_BAR`` on the one-edit case
(a ratio, never absolute seconds) — or when a case the presolve settles
outright still builds a flow network.  The tracked snapshot is
``BENCH_optimizer_micro.json`` (``tools/record_bench.py optimizer_micro``).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Any, Dict, List, Tuple

import numpy as np
import pytest

from repro.core.dag import Node, WorkflowDAG
from repro.core.operators import Component, Operator, RunContext
from repro.execution.engine import ExecutionEngine, cumulative_time
from repro.optimizer.maxflow import FlowNetwork
from repro.optimizer.oep import solve_oep
from repro.optimizer.omp import StreamingMaterializationPolicy, optimal_materialization_plan

from _bench_helpers import emit


class _Noop(Operator):
    def __init__(self, tag: int):
        self.tag = tag

    def config(self):
        return {"tag": self.tag}

    def run(self, inputs, context):  # pragma: no cover - never executed here
        return self.tag


def _layered_dag(layers: int, width: int, seed: int = 0) -> WorkflowDAG:
    """A layered DAG with ``layers x width`` nodes and random cross-layer edges."""
    rng = np.random.default_rng(seed)
    nodes = []
    tag = 0
    previous_layer: list = []
    for layer in range(layers):
        current_layer = []
        for i in range(width):
            name = f"l{layer}_{i}"
            parents = []
            if previous_layer:
                count = int(rng.integers(1, min(3, len(previous_layer)) + 1))
                parents = list(rng.choice(previous_layer, size=count, replace=False))
            nodes.append(Node.create(name, _Noop(tag), parents=parents,
                                     is_output=(layer == layers - 1)))
            current_layer.append(name)
            tag += 1
        previous_layer = current_layer
    return WorkflowDAG(nodes)


def _random_costs(dag: WorkflowDAG, seed: int = 0):
    rng = np.random.default_rng(seed)
    compute = {name: float(rng.uniform(0.5, 5.0)) for name in dag.node_names}
    load = {
        name: (float(rng.uniform(0.05, 1.0)) if rng.random() < 0.6 else float("inf"))
        for name in dag.node_names
    }
    forced = [name for name in dag.node_names if rng.random() < 0.15]
    return compute, load, forced


def test_bench_oep_solver_medium_dag(benchmark):
    """OPT-EXEC-PLAN on a ~60-node DAG (typical compiled workflow size)."""
    dag = _layered_dag(layers=6, width=10)
    compute, load, forced = _random_costs(dag)
    plan = benchmark(lambda: solve_oep(dag, compute, load, forced_compute=forced))
    assert len(plan.states) == len(dag)


def test_bench_oep_solver_large_dag(benchmark):
    """OPT-EXEC-PLAN on a ~300-node DAG (stress test; still well under a second)."""
    dag = _layered_dag(layers=15, width=20, seed=1)
    compute, load, forced = _random_costs(dag, seed=1)
    plan = benchmark(lambda: solve_oep(dag, compute, load, forced_compute=forced))
    assert len(plan.states) == len(dag)


def test_bench_maxflow_dense_network(benchmark):
    """Dinic max flow on a dense bipartite network."""
    network = FlowNetwork()
    rng = np.random.default_rng(0)
    left = [f"u{i}" for i in range(30)]
    right = [f"v{i}" for i in range(30)]
    for u in left:
        network.add_edge("s", u, float(rng.integers(1, 10)))
    for v in right:
        network.add_edge(v, "t", float(rng.integers(1, 10)))
    for u in left:
        for v in right:
            if rng.random() < 0.3:
                network.add_edge(u, v, float(rng.integers(1, 5)))
    value = benchmark(lambda: network.max_flow("s", "t")[0])
    assert value > 0


def _cumulative_times(dag: WorkflowDAG, times: Dict[str, float]) -> Dict[str, float]:
    """Definition 6 for every node of a fully executed DAG, as the engine computes it:
    one ancestor-bitset pass, then one sum per node in topological order."""
    order = dag.topological_order()
    position = {name: index for index, name in enumerate(order)}
    _parents, _children, ancestors = ExecutionEngine._run_graph(dag, position)
    by_position = [times[name] for name in order]
    return {name: cumulative_time(by_position, position[name], ancestors[name]) for name in order}


def test_bench_streaming_policy_decisions(benchmark):
    """Per-node cost of the streaming materialization decisions on a 300-node DAG,
    the ancestor pass that feeds them Definition 6 included."""
    dag = _layered_dag(layers=15, width=20, seed=2)
    compute, _load, _forced = _random_costs(dag, seed=2)
    policy = StreamingMaterializationPolicy()

    def decide_all():
        cumulative = _cumulative_times(dag, compute)
        return sum(
            1
            for name in dag.node_names
            if policy.decide(name, cumulative[name], 0.1, 100, None).materialize
        )

    count = benchmark(decide_all)
    assert 0 <= count <= len(dag)


def test_ablation_streaming_vs_exact_omp(benchmark):
    """Optimality gap of Algorithm 2 vs. the exact OPT-MAT-PLAN on small random DAGs."""

    def measure_gap():
        rng = np.random.default_rng(3)
        gaps = []
        for trial in range(10):
            dag = _layered_dag(layers=3, width=3, seed=trial)
            compute = {name: float(rng.uniform(0.5, 4.0)) for name in dag.node_names}
            load = {name: float(rng.uniform(0.05, 0.8)) for name in dag.node_names}
            sizes = {name: 100 for name in dag.node_names}
            _best, best_objective = optimal_materialization_plan(dag, compute, load, sizes)

            policy = StreamingMaterializationPolicy()
            cumulative = _cumulative_times(dag, compute)
            chosen = {
                name
                for name in dag.node_names
                if policy.decide(name, cumulative[name], load[name], sizes[name], None).materialize
            }
            next_load = {n: (load[n] if n in chosen else float("inf")) for n in dag.node_names}
            heuristic_objective = sum(load[n] for n in chosen) + solve_oep(
                dag, compute, next_load, required=dag.outputs
            ).estimated_time
            gaps.append(heuristic_objective / max(best_objective, 1e-9))
        return gaps

    gaps = benchmark.pedantic(measure_gap, rounds=1, iterations=1)
    emit(
        "Ablation — streaming OMP heuristic vs exact",
        f"objective ratios (heuristic/optimal): mean={np.mean(gaps):.2f} max={np.max(gaps):.2f}",
    )
    # The heuristic never does worse than a small constant factor on these DAGs.
    assert max(gaps) < 4.0


# ---------------------------------------------------------------------------
# Size sweep (standalone script; the tracked BENCH_optimizer_micro.json)
# ---------------------------------------------------------------------------
#: ``(layers, width)`` of the grids; from 15 x 50 (the end-to-end benchmark's
#: ``synth1k_optimizer`` DAG) on, each step doubles both, so N grows 4x.
SWEEP: Tuple[Tuple[int, int], ...] = ((7, 14), (15, 50), (30, 100), (60, 200))

#: ``t(4N) / t(N)`` allowed on the one-edit case: 4 is linear, 16 quadratic.
SCALING_BAR = 6.0

COMPUTE_SECONDS = 5e-5
LOAD_SECONDS = 1e-4


def _grid_dag(layers: int, width: int) -> WorkflowDAG:
    """Ring-connected grid: ``(l, j)`` reads ``(l-1, j)`` and ``(l-1, j+1 mod width)``."""
    nodes = []
    for layer in range(layers):
        for column in range(width):
            parents = (
                [f"n{layer - 1}_{column}", f"n{layer - 1}_{(column + 1) % width}"] if layer else []
            )
            nodes.append(Node.create(f"n{layer}_{column}", _Noop(len(nodes)), parents=parents))
    tails = [f"n{layers - 1}_{column}" for column in range(width)]
    nodes.append(Node.create("sink", _Noop(len(nodes)), parents=tails, is_output=True))
    return WorkflowDAG(nodes)


def _sweep_cases(dag: WorkflowDAG, layers: int) -> Dict[str, Tuple[Dict[str, float], List[str]]]:
    """Case name -> ``(load_time, forced)``; loading costs twice computing."""
    names = dag.node_names
    edited = f"n{layers // 2}_0"
    cone = [edited, *sorted(dag.descendants(edited))]
    nothing = dict.fromkeys(names, float("inf"))
    return {
        "all_forced": (nothing, list(names)),
        "nothing_stored_rerun": (nothing, cone),
        "one_edit_all_stored": (dict.fromkeys(names, LOAD_SECONDS), cone),
    }


def _time_solve(dag, compute, load, forced) -> Tuple[float, Any]:
    """Best of up to five solves, stopping once a second has been spent."""
    best = float("inf")
    spent = 0.0
    for _ in range(5):
        started = time.perf_counter()
        plan = solve_oep(dag, compute, load, forced_compute=forced)
        elapsed = time.perf_counter() - started
        best = min(best, elapsed)
        spent += elapsed
        if spent > 1.0:
            break
    return best, plan


def measure_sweep(sizes: Tuple[Tuple[int, int], ...]) -> Dict[str, List[Dict[str, Any]]]:
    """Per case, one row per grid size: solve seconds and what decided the plan."""
    rows: Dict[str, List[Dict[str, Any]]] = {}
    for layers, width in sizes:
        dag = _grid_dag(layers, width)
        compute = dict.fromkeys(dag.node_names, COMPUTE_SECONDS)
        for case, (load, forced) in _sweep_cases(dag, layers).items():
            seconds, plan = _time_solve(dag, compute, load, forced)
            fractions = plan.state_fractions()
            rows.setdefault(case, []).append({
                "grid": [layers, width],
                "nodes": len(dag),
                "seconds": seconds,
                "microseconds_per_node": 1e6 * seconds / len(dag),
                "states": {state: round(share * len(dag)) for state, share in fractions.items()},
                # Absent on solvers that do not report how the plan was found.
                "decided_by": dict(getattr(plan, "decided_by", {})) or None,
                "flow_nodes": getattr(plan, "flow_nodes", None),
                "flow_edges": getattr(plan, "flow_edges", None),
            })
    for case_rows in rows.values():
        for smaller, larger in zip(case_rows, case_rows[1:]):
            if larger["grid"] == [2 * side for side in smaller["grid"]]:
                larger["ratio_to_quarter_size"] = larger["seconds"] / smaller["seconds"]
    return rows


def _format_sweep(rows: Dict[str, List[Dict[str, Any]]]) -> str:
    lines = []
    for case, case_rows in rows.items():
        lines.append(f"{case}:")
        for row in case_rows:
            ratio = row.get("ratio_to_quarter_size")
            lines.append(
                f"  {row['nodes']:>6} nodes  {1e3 * row['seconds']:9.3f} ms  "
                f"{row['microseconds_per_node']:7.2f} us/node  flow_nodes={row['flow_nodes']}"
                + (f"  t(4N)/t(N)={ratio:.2f}" if ratio is not None else "")
            )
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="solve_oep solve time vs DAG size")
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="stop the sweep at 3*10^3 nodes; used by CI on every push",
    )
    parser.add_argument(
        "--json",
        default=None,
        metavar="PATH",
        help="write the sweep's measurements to PATH as JSON "
        "(uploaded as a CI artifact by the optimizer-micro job)",
    )
    args = parser.parse_args(argv)
    rows = measure_sweep(SWEEP[:3] if args.smoke else SWEEP)
    print(_format_sweep(rows))

    failures: List[str] = []
    for row in rows["one_edit_all_stored"]:
        ratio = row.get("ratio_to_quarter_size")
        if ratio is not None and ratio > SCALING_BAR:
            failures.append(
                f"one-edit solve took {ratio:.1f}x as long on {row['nodes']} nodes as on a "
                f"quarter of them — above the {SCALING_BAR:g}x near-linear bar"
            )
    for case in ("all_forced", "nothing_stored_rerun"):
        for row in rows[case]:
            if row["flow_nodes"]:
                failures.append(
                    f"{case} on {row['nodes']} nodes built a flow network of "
                    f"{row['flow_nodes']} nodes; the presolve decides every node there"
                )
    if not failures:
        print(f"OK: one-edit t(4N)/t(N) within {SCALING_BAR:g}x; settled cases build no network")

    if args.json:
        with open(args.json, "w") as handle:
            json.dump(
                {"smoke": bool(args.smoke), "sections": rows, "failures": failures},
                handle,
                indent=2,
                sort_keys=True,
            )
            handle.write("\n")
        print(f"wrote measurements to {args.json}")

    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
