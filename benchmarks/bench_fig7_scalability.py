"""Figure 7: scalability with dataset size (7a), cluster size (7b) and
executor parallelism (7c).

7(a) runs the census lifecycle at 1x and Nx dataset scale for Helix and
KeystoneML (the paper uses 10x; the harness defaults to 4x to keep run time
modest — pass ``--scale`` via REPRO_FIG7_SCALE to change it).  7(b) repeats
the census-at-scale lifecycle under a simulated 2/4/8-worker cluster cost
model for both systems.  7(c) is a three-way inline/thread/distributed
executor comparison on two synthetic wide-DAG workloads:

* **latency-bound** (``make_wide_dag``, real sleeps): the thread executor
  must beat inline by >= 2x wall-clock — latency overlaps even on one core;
* **CPU-bound** (``make_cpu_dag``, pure-Python spin loops that hold the
  GIL): the distributed executor — 4 locally spawned TCP workers — must
  beat inline by >= 2x on a >= 4-core machine (>= 1.5x on 2-3 cores,
  >= 1.2x for ``--smoke`` on >= 2 cores), while the thread executor stays
  < 1.3x (the GIL gap worker processes exist to close).  On a single core
  the CPU bar is reported but not enforced — there is no parallel CPU to
  win.

Every comparison also asserts all executors produced equivalent run
statistics (timing excluded — the cost model here charges wall-clock).

Running this file as a script (``python benchmarks/bench_fig7_scalability.py
[--smoke] [--executor thread|distributed|all] [--workers host:port,...]
[--json PATH]``) executes the 7(c) comparisons standalone, without
pytest-benchmark; ``--smoke`` shrinks the DAGs for CI and ``--executor``
selects the latency (thread) section, the CPU (distributed) section, or
both.  The distributed section additionally reports depth-2 **pipelined
dispatch** vs one-task-per-worker on short latency-bound tasks (report-only — the win
rides on the framing round trip), an **artifact plane** section measuring
coordinator bytes-on-wire with the worker cache tier on vs off across
two same-seed served runs (report-only; see ``docs/artifacts.md``) and,
with ``--workers``, times pre-started remote workers
(``python -m repro.execution.worker``) instead of the local spawn pool
(report-only: remote workers share CI's cores but pay connect + framing
per task).  ``--json`` dumps every section's measurements for the CI
artifact upload.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import Callable, Dict, Optional, Sequence, Tuple, Union

import pytest

from repro.core.dag import WorkflowDAG
from repro.core.signatures import compute_node_signatures
from repro.execution.engine import ExecutionEngine
from repro.execution.equivalence import assert_equivalent_runs
from repro.execution.executors import DistributedExecutor, Executor, create_executor
from repro.execution.tracker import RunStats
from repro.experiments.figures import figure7b
from repro.experiments.report import format_series_table
from repro.experiments.runner import run_comparison
from repro.optimizer.metrics import StatsStore
from repro.optimizer.oep import solve_oep
from repro.optimizer.omp import StreamingMaterializationPolicy
from repro.storage.store import InMemoryStore
from repro.systems.helix import HelixSystem
from repro.systems.keystoneml import KeystoneMLSystem
from repro.workloads.synthetic import make_cpu_dag, make_wide_dag

from _bench_helpers import SEED, emit, run_once

#: Dataset scale factor for the "Census Nx" experiment (paper: 10).
SCALE = float(os.environ.get("REPRO_FIG7_SCALE", "4"))
ITERS = 6

#: Wide-DAG shape for the 7(c) latency comparison: >= 8 independent branches.
FIG7C_BRANCHES = 8
FIG7C_DEPTH = 3
FIG7C_NODE_SECONDS = 0.02
FIG7C_MAX_WORKERS = 4

#: CPU-bound shape: same topology, pure-Python spin loops instead of sleeps.
FIG7C_CPU_DEPTH = 2
FIG7C_CPU_SPIN = 1_500_000


def test_fig7a_dataset_scalability(benchmark):
    def run():
        output = {}
        for scale in (1.0, SCALE):
            results = run_comparison(
                [HelixSystem.opt(seed=0), KeystoneMLSystem(seed=0)],
                "census",
                n_iterations=ITERS,
                seed=SEED,
                scale=scale,
            )
            for name, result in results.items():
                output[f"{name}-x{scale:g}"] = result.cumulative_times()
        return output

    series = run_once(benchmark, run)
    emit(f"Figure 7a — census vs census {SCALE:g}x cumulative run time (s)", format_series_table(series))

    helix_small = series["helix-opt-x1"][-1]
    helix_large = series[f"helix-opt-x{SCALE:g}"][-1]
    keystone_small = series["keystoneml-x1"][-1]
    keystone_large = series[f"keystoneml-x{SCALE:g}"][-1]

    # Run time grows with dataset size for both systems (roughly linearly).
    assert helix_large > helix_small
    assert keystone_large > keystone_small
    assert keystone_large < keystone_small * SCALE * 3

    # Helix keeps a clear advantage at both scales.
    assert helix_small < keystone_small
    assert helix_large < keystone_large


def test_fig7b_cluster_scalability(benchmark):
    series = run_once(
        benchmark,
        lambda: figure7b(n_iterations=ITERS, seed=SEED, worker_counts=(2, 4, 8), scale=2.0),
    )
    flattened = {name: values["cumulative"] for name, values in series.items()}
    emit("Figure 7b — census 2x on simulated 2/4/8-worker clusters (s)", format_series_table(flattened))

    # Helix beats KeystoneML at every cluster size (paper observation 1).
    for workers in (2, 4, 8):
        assert flattened[f"helix-opt-{workers}w"][-1] < flattened[f"keystoneml-{workers}w"][-1]

    # KeystoneML keeps improving with more workers (roughly linear scaling).
    assert flattened["keystoneml-8w"][-1] < flattened["keystoneml-2w"][-1]

    # Helix improves markedly from 2 to 4 workers (super-linear DPR scaling via
    # loop fusion); beyond that, PPR communication overhead erodes the gains.
    assert flattened["helix-opt-4w"][-1] < flattened["helix-opt-2w"][-1]


# ---------------------------------------------------------------------------
# Figure 7c: inline vs thread vs distributed executors on wide DAGs
# ---------------------------------------------------------------------------
EXECUTORS = ("inline", "thread", "distributed")


def _run_executor(
    executor: Union[str, Executor],
    dag_factory: Callable[[], WorkflowDAG],
    max_workers: Optional[int] = None,
) -> Tuple[float, RunStats]:
    """Execute one DAG on a fresh engine; return (wall_clock, stats).

    An executor name is built here and shut down after the run, both inside
    the timed region: the wall clock includes worker-pool startup and
    teardown — the distributed executor must amortize worker spawn and
    payload framing to win, exactly as it must in practice.  ``executor``
    may instead be a ready instance (e.g. a remote-configured distributed
    executor); the engine then drains it after the run and the caller owns
    its ``shutdown``, so startup amortizes across repeats just as a warm
    pool would in production.
    """
    dag = dag_factory()
    signatures = compute_node_signatures(dag)
    plan = solve_oep(
        dag,
        {name: 1.0 for name in dag.node_names},
        {name: float("inf") for name in dag.node_names},
        forced_compute=dag.node_names,
    )
    owned = not isinstance(executor, Executor)
    started = time.perf_counter()
    if owned:
        executor = create_executor(executor, max_workers=max_workers)
    try:
        engine = ExecutionEngine(
            store=InMemoryStore(),
            policy=StreamingMaterializationPolicy(),
            stats=StatsStore(),
            executor=executor,
        )
        stats = engine.execute(dag, plan, signatures)
    finally:
        if owned:
            executor.shutdown()
    return time.perf_counter() - started, stats


def run_executor_comparison(
    dag_factory: Callable[[], WorkflowDAG],
    max_workers: int = FIG7C_MAX_WORKERS,
    repeats: int = 2,
    executors: Sequence[str] = EXECUTORS,
    overrides: Optional[Dict[str, Executor]] = None,
) -> Dict[str, float]:
    """Best-of-N wall-clock for every executor on the same DAG, after one
    discarded warm-up run of each.

    The warm-up exists because the first run in a process after the
    machine sat idle can be far slower than the rest (a 0.64 s inline run
    against 0.51-0.57 s on later invocations) for reasons outside the
    executors, and best-of-2 alone did not absorb it.  Also asserts all executors produced equivalent run statistics (timing
    excluded — the cost model here charges wall-clock).  ``overrides`` maps
    an executor name to a ready instance to time instead of the
    name-configured default — e.g. ``{"distributed":
    DistributedExecutor(workers=[...])}`` for remote workers (the caller
    shuts overrides down).  Returns ``{executor}_seconds`` and
    ``{executor}_speedup`` (relative to inline) per executor.
    """
    best: Dict[str, float] = {name: float("inf") for name in executors}
    best_stats: Dict[str, RunStats] = {}
    for repeat in range(1 + repeats):
        for name in executors:
            spec: Union[str, Executor] = name
            if overrides is not None and name in overrides:
                spec = overrides[name]
            elapsed, stats = _run_executor(
                spec, dag_factory, max_workers=None if name == "inline" else max_workers
            )
            if repeat > 0 and elapsed < best[name]:
                best[name], best_stats[name] = elapsed, stats
    for name in executors:
        if name != "inline":
            assert_equivalent_runs(best_stats["inline"], best_stats[name], include_times=False)
    result: Dict[str, float] = {"max_workers": max_workers}
    for name in executors:
        result[f"{name}_seconds"] = best[name]
        result[f"{name}_speedup"] = best["inline"] / best[name]
    return result


def _format_executor_comparison(title: str, result: Dict[str, float]) -> str:
    lines = [title]
    for name in EXECUTORS:
        key = f"{name}_seconds"
        if key not in result:
            continue
        lines.append(
            f"{name:<8}: {result[key]:.3f}s  ({result[f'{name}_speedup']:.2f}x vs inline)"
        )
    lines.append(f"workers : {int(result['max_workers'])}, cores: {os.cpu_count()}")
    return "\n".join(lines)


def _latency_comparison(
    smoke: bool = False,
    executors: Sequence[str] = EXECUTORS,
    overrides: Optional[Dict[str, Executor]] = None,
) -> Dict[str, float]:
    branches, depth, node_seconds = (8, 2, 0.01) if smoke else (
        FIG7C_BRANCHES, FIG7C_DEPTH, FIG7C_NODE_SECONDS
    )
    return run_executor_comparison(
        lambda: make_wide_dag(branches=branches, depth=depth, node_seconds=node_seconds),
        executors=executors,
        overrides=overrides,
    )


def _cpu_comparison(
    smoke: bool = False,
    overrides: Optional[Dict[str, Executor]] = None,
    max_workers: int = FIG7C_MAX_WORKERS,
) -> Dict[str, float]:
    branches, depth, spin = (8, 1, 500_000) if smoke else (
        FIG7C_BRANCHES, FIG7C_CPU_DEPTH, FIG7C_CPU_SPIN
    )
    return run_executor_comparison(
        lambda: make_cpu_dag(branches=branches, depth=depth, spin=spin),
        max_workers=max_workers,
        overrides=overrides,
    )


def run_pipeline_comparison(
    smoke: bool = False,
    workers: Optional[Sequence[str]] = None,
    repeats: int = 2,
) -> Dict[str, float]:
    """Distributed dispatch with ``pipeline_depth`` 1 vs 2 on short tasks.

    Uses the latency-bound wide DAG (many short sleeps), where the per-task
    framing round trip is a visible fraction of the task itself — exactly
    the regime depth-2 pipelining targets: the coordinator frames task N+1
    onto a worker's socket while the worker still executes task N.  The
    outcome is **report-only** (the gain rides on round-trip latency, which
    loopback CI cannot bound reliably); both variants must still produce
    equivalent run statistics.  Remote ``workers`` addresses are used for
    both variants when given (sequentially — a listening worker serves one
    coordinator at a time).
    """
    branches, depth, node_seconds = (8, 2, 0.005) if smoke else (
        FIG7C_BRANCHES, FIG7C_DEPTH, 0.01
    )
    dag_factory = lambda: make_wide_dag(  # noqa: E731 - mirrors the sections above
        branches=branches, depth=depth, node_seconds=node_seconds
    )
    best: Dict[str, float] = {}
    best_stats: Dict[str, RunStats] = {}
    for label, pipeline_depth in (("unpipelined", 1), ("pipelined", 2)):
        if workers is not None:
            executor = DistributedExecutor(workers=workers, pipeline_depth=pipeline_depth)
        else:
            executor = DistributedExecutor(
                max_workers=FIG7C_MAX_WORKERS, pipeline_depth=pipeline_depth
            )
        try:
            best[label] = float("inf")
            for _ in range(repeats):
                elapsed, stats = _run_executor(executor, dag_factory)
                if elapsed < best[label]:
                    best[label], best_stats[label] = elapsed, stats
        finally:
            executor.shutdown()
    assert_equivalent_runs(
        best_stats["unpipelined"], best_stats["pipelined"], include_times=False
    )
    return {
        "unpipelined_seconds": best["unpipelined"],
        "pipelined_seconds": best["pipelined"],
        "pipeline_speedup": best["unpipelined"] / best["pipelined"],
        "max_workers": len(workers) if workers is not None else FIG7C_MAX_WORKERS,
    }


def run_artifact_plane_report(smoke: bool = False) -> Dict[str, float]:
    """Coordinator bytes-on-wire saved by the content-addressed artifact plane.

    Serves the same census spec twice over one two-worker fleet — identical
    seeds produce identical artifact signatures, so the second run can
    resolve its store-resident inputs from the fleet's cache tier
    (docs/artifacts.md) — then repeats the pair with the plane off: the
    worker cache tier squeezed to its 1-byte floor, so every artifact byte
    routes through the coordinator on every run.  The difference in the
    coordinator's ``fetch_bytes_served`` is the wire traffic the plane
    absorbed.  **Report-only**: reuse counts depend on
    which workers the runs' tasks land on, so no bar is enforced (both
    configurations' payloads are still checked equivalent elsewhere — the
    serve smoke and tests/test_service.py).
    """
    from repro.service.client import ServiceClient
    from repro.service.daemon import ServeDaemon

    spec = {
        "workload": "census",
        "iterations": 2,
        "scale": 0.1 if smoke else 0.25,
        "seed": SEED,
    }
    planes: Dict[str, Dict[str, float]] = {}
    for label, cache_bytes in (("plane_on", None), ("plane_off", 1)):
        with ServeDaemon(
            max_workers=2, max_concurrent_runs=2, worker_cache_bytes=cache_bytes
        ) as daemon:
            client = ServiceClient(daemon.address)
            client.submit(dict(spec)).result()
            client.submit(dict(spec)).result()  # same seed: same signatures
        planes[label] = daemon.stats()["artifact_plane"]
    on, off = planes["plane_on"], planes["plane_off"]
    return {
        "coordinator_bytes_plane_on": float(on.get("fetch_bytes_served", 0)),
        "coordinator_bytes_plane_off": float(off.get("fetch_bytes_served", 0)),
        "coordinator_bytes_saved": float(
            off.get("fetch_bytes_served", 0) - on.get("fetch_bytes_served", 0)
        ),
        "coordinator_fetches_plane_on": float(on.get("fetches_served", 0)),
        "coordinator_fetches_plane_off": float(off.get("fetches_served", 0)),
        "cross_session_hits": float(on.get("cross_session_hits", 0)),
        "cache_hits": float(on.get("cache_hits", 0)),
    }


def _cpu_distributed_bar(smoke: bool = False) -> Optional[float]:
    """Distributed-executor speedup bar on the CPU-bound DAG, or None to skip.

    There is no parallel CPU to win on a single-core machine, so the bar is
    only enforced where the hardware can express it.
    """
    cores = os.cpu_count() or 1
    if cores < 2:
        return None
    if smoke:
        return 1.2
    return 2.0 if cores >= 4 else 1.5


def test_fig7c_latency_bound_executors(benchmark):
    result = run_once(benchmark, _latency_comparison)
    emit(
        "Figure 7c — executors on a wide latency-bound DAG",
        _format_executor_comparison("latency-bound (sleeping operators)", result),
    )

    # DAG-level parallelism over latency-bound branches must pay off by >= 2x
    # (the acceptance bar; observed ~3x with 4 workers over 8 branches).
    assert result["thread_speedup"] >= 2.0


def test_fig7c_cpu_bound_executors(benchmark):
    result = run_once(benchmark, _cpu_comparison)
    emit(
        "Figure 7c — executors on a wide CPU-bound DAG",
        _format_executor_comparison("CPU-bound (pure-Python spin loops)", result),
    )

    # The GIL caps the thread executor on pure-Python work...
    assert result["thread_speedup"] < 1.3
    # ...while the distributed executor's worker processes scale with cores.
    bar = _cpu_distributed_bar()
    if bar is None:
        pytest.skip("single-core machine: no parallel CPU to demonstrate scaling on")
    assert result["distributed_speedup"] >= bar


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Inline/thread/distributed executor comparison (Figure 7c)"
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="small DAGs + relaxed speedup bars; used by CI as a fast sanity check",
    )
    parser.add_argument(
        "--executor",
        choices=("thread", "distributed", "all"),
        default="all",
        help="which comparison to run: 'thread' = latency-bound section "
        "(inline vs thread), 'distributed' = CPU-bound section (inline vs "
        "thread vs distributed) plus the pipelining and artifact-plane "
        "reports, 'all' = both sections with all three executors",
    )
    parser.add_argument(
        "--workers",
        default=None,
        help="comma-separated host:port addresses of pre-started remote "
        "workers (python -m repro.execution.worker) for the distributed "
        "section; replaces the locally-spawned worker pool",
    )
    parser.add_argument(
        "--json",
        default=None,
        metavar="PATH",
        help="write every section's measurements to PATH as JSON "
        "(uploaded as a CI artifact by the distributed-remote smoke job)",
    )
    args = parser.parse_args(argv)
    worker_addresses = (
        [spec.strip() for spec in args.workers.split(",") if spec.strip()]
        if args.workers
        else None
    )
    if worker_addresses and args.executor not in ("distributed", "all"):
        # Mirror run_lifecycle's guard: addresses must never be silently
        # dropped while the user believes remote workers were measured.
        parser.error("--workers requires --executor distributed (or all)")
    failures = []
    sections: Dict[str, Dict[str, float]] = {}

    if args.executor in ("thread", "all"):
        # The thread-only section skips the distributed executor entirely, so
        # its pass/fail never depends on worker processes or the transport.
        executors = EXECUTORS if args.executor == "all" else ("inline", "thread")
        result = _latency_comparison(smoke=args.smoke, executors=executors)
        sections["latency"] = result
        print(_format_executor_comparison("latency-bound (sleeping operators)", result))
        bar = 1.5 if args.smoke else 2.0
        if result["thread_speedup"] < bar:
            failures.append(
                f"thread speedup {result['thread_speedup']:.2f}x below the {bar:g}x "
                f"bar on the latency-bound DAG"
            )
        else:
            print(f"OK: thread {result['thread_speedup']:.2f}x >= {bar:g}x (equivalent run statistics)")

    if args.executor in ("distributed", "all"):
        pool_label = (
            f"{len(worker_addresses)} remote workers ({args.workers})"
            if worker_addresses
            else "4 local TCP workers"
        )
        overrides = None
        if worker_addresses:
            overrides = {"distributed": DistributedExecutor(workers=worker_addresses)}
        try:
            result = _cpu_comparison(
                smoke=args.smoke,
                overrides=overrides,
                max_workers=(
                    len(worker_addresses) if worker_addresses else FIG7C_MAX_WORKERS
                ),
            )
        finally:
            if overrides is not None:
                overrides["distributed"].shutdown()
        print(_format_executor_comparison(
            f"CPU-bound (pure-Python spin loops), {pool_label}", result
        ))
        sections["distributed"] = result
        if result["thread_speedup"] >= 1.3:
            failures.append(
                f"thread speedup {result['thread_speedup']:.2f}x on CPU-bound work — "
                f"expected < 1.3x (GIL-bound)"
            )
        bar = _cpu_distributed_bar(smoke=args.smoke)
        if worker_addresses:
            # Remote workers share the same cores in CI (loopback) but pay
            # connect + framing per task; the local-spawn bar does not
            # transfer, so the remote section is report-only.
            print(
                f"INFO: distributed {result['distributed_speedup']:.2f}x vs inline "
                f"on {pool_label} (report-only; equivalent run statistics)"
            )
        elif bar is None:
            print("SKIP: single-core machine, distributed speedup bar not enforced")
            print(f"INFO: distributed {result['distributed_speedup']:.2f}x vs inline")
        elif result["distributed_speedup"] < bar:
            failures.append(
                f"distributed speedup {result['distributed_speedup']:.2f}x below the "
                f"{bar:g}x bar on the CPU-bound DAG ({pool_label})"
            )
        else:
            print(
                f"OK: distributed {result['distributed_speedup']:.2f}x >= {bar:g}x "
                f"(equivalent run statistics)"
            )

        # Pipelined vs unpipelined dispatch on short latency-bound tasks:
        # report-only (the win rides on the framing round trip, which
        # loopback CI cannot bound reliably), equivalence still asserted.
        pipeline = run_pipeline_comparison(smoke=args.smoke, workers=worker_addresses)
        sections["pipeline"] = pipeline
        print(
            f"pipelining (depth 2 vs 1, short tasks, {pool_label}): "
            f"{pipeline['unpipelined_seconds']:.3f}s -> "
            f"{pipeline['pipelined_seconds']:.3f}s "
            f"({pipeline['pipeline_speedup']:.2f}x)"
        )
        if pipeline["pipeline_speedup"] >= 1.0:
            print(
                f"OK: pipelined dispatch >= unpipelined "
                f"({pipeline['pipeline_speedup']:.2f}x, report-only bar)"
            )
        else:
            print(
                f"INFO: pipelined dispatch {pipeline['pipeline_speedup']:.2f}x < 1.0x "
                f"on this run (report-only bar; not enforced)"
            )

        # Artifact plane: coordinator bytes-on-wire with the shared cache
        # tier on vs off (report-only — reuse
        # counts depend on task placement; see docs/artifacts.md).  Only
        # meaningful for the local-spawn fleet the service layer drives.
        if not worker_addresses:
            plane = run_artifact_plane_report(smoke=args.smoke)
            sections["artifact_plane"] = plane
            print(
                "artifact plane (two same-seed census runs, 2 workers): "
                f"coordinator streamed "
                f"{plane['coordinator_bytes_plane_off']:.0f} bytes "
                f"({plane['coordinator_fetches_plane_off']:.0f} fetches) "
                f"with the plane off vs "
                f"{plane['coordinator_bytes_plane_on']:.0f} bytes "
                f"({plane['coordinator_fetches_plane_on']:.0f} fetches) with it on"
            )
            print(
                f"INFO: {plane['coordinator_bytes_saved']:.0f} coordinator "
                f"bytes-on-wire saved via {plane['cross_session_hits']:.0f} "
                f"cross-session cache hit(s) (report-only; not enforced)"
            )

    if args.json:
        with open(args.json, "w") as handle:
            json.dump(
                {
                    "smoke": bool(args.smoke),
                    "executor": args.executor,
                    "workers": worker_addresses,
                    "cores": os.cpu_count(),
                    "sections": sections,
                    "failures": failures,
                },
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
