#!/usr/bin/env python3
"""Wall-clock lifecycle benchmark: what a developer waits for, layer by layer.

One run measures one workload (``workloads.py``) in this process::

    python3 benchmarks/e2e/run.py --workload census_reuse --seed 7 --seconds 20 --trace 0

drives ``HelixSystem.opt`` and the ``HelixSystem.never_materialize``
baseline through the same lifecycle, round after round for ``--seconds``,
and prints every end-to-end metric of ``BENCHMARK.json`` (medians over the
rounds).  ``--trace 1`` alternates untraced and traced ``opt`` lifecycles
instead and prints the per-layer metrics (``trace.py``).  Either way every
iteration's outputs are checked against the baseline's, and the last line
of standard output is one JSON object: ``correct``, ``attempted``,
``failed``, ``metrics``.

``--workload all`` runs every workload both ways, each in a fresh
subprocess, and prints one table; ``--check-repeat`` does that twice and
compares the two sets against the bounds.  ``README.md`` has the metric and
workload tables and how to read the numbers.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parents[2]
# One BLAS thread: a second one spin-waits on the other core and makes the
# learners' wall depend on whatever else the machine is doing.
for _variable in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_variable, "1")
if not (ROOT / "src" / "repro").is_dir():
    sys.exit(f"{ROOT / 'src' / 'repro'} not found: the benchmark measures the library in src/")
sys.path.insert(0, str(ROOT / "src"))

from repro.execution.clock import SimulatedCostModel  # noqa: E402
from repro.execution.equivalence import assert_equivalent_runs  # noqa: E402
from repro.execution.executors import create_executor  # noqa: E402
from repro.execution.tracker import RunStats  # noqa: E402
from repro.storage.canonical import content_digest  # noqa: E402
from repro.storage.serialization import serialize  # noqa: E402
from repro.storage.store import DiskStore, InMemoryStore  # noqa: E402
from repro.systems import HelixSystem  # noqa: E402

from workloads import SCENARIOS, Scenario  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
#: DiskStore directories live inside the checkout (removed after each run).
TMP_ROOT = ROOT / ".e2e_tmp"
#: Timed rounds per run: at least this many, then until ``--seconds`` is used up.
MIN_ROUNDS = 5
#: Fresh-interpreter set-ups timed per run (their median is ``setup_s``).
SETUP_SAMPLES = 5


# --------------------------------------------------------------------------
# Set-up: everything before the first timed iteration
# --------------------------------------------------------------------------
class Rig:
    """Stores, systems and the worker pool of one workload."""

    def __init__(self, scenario: Scenario):
        self.scenario = scenario
        self.workers = min(2, os.cpu_count() or 1) if scenario.executor == "distributed" else 0
        self.tmp: Optional[str] = None
        self.executor = None
        self.spawn_seconds = 0.0
        if scenario.store == "disk":
            TMP_ROOT.mkdir(exist_ok=True)
            self.tmp = tempfile.mkdtemp(prefix=f"{scenario.name}-", dir=TMP_ROOT)
        try:
            if self.workers:
                started = time.perf_counter()
                self.executor = create_executor("distributed", max_workers=self.workers)
                self.executor.start()
                self.spawn_seconds = time.perf_counter() - started
            self.opt = self.system(HelixSystem.opt, "opt")
            self.baseline = self.system(HelixSystem.never_materialize, "baseline")
        except BaseException:
            self.close()
            raise

    def system(self, variant: Callable[..., HelixSystem], label: str, inline: bool = False) -> HelixSystem:
        store = DiskStore(Path(self.tmp) / label) if self.tmp else InMemoryStore()
        # The simulated clock charges every operator its declared cost, so the
        # optimizer takes the same load/compute/materialize decisions on every
        # run and the wall-clock metrics always time the same work.  (Under
        # the default measured clock mnist_churn's store_bytes_final flips
        # between 1.32 MB and 1.67 MB with the load on the machine.)
        system = variant(store=store, cost_model=SimulatedCostModel())
        if self.executor is not None and not inline:
            system.configure_executor(self.executor)
        return system

    def worker_peak_rss_kb(self) -> int:
        """Summed peak resident set of the live worker processes (0 when inline)."""
        total = 0
        for pid in (self.executor.worker_pids().values() if self.executor else ()):
            for line in Path(f"/proc/{pid}/status").read_text().splitlines():
                if line.startswith("VmHWM:"):
                    total += int(line.split()[1])
        return total

    def close(self) -> None:
        if self.executor is not None:
            self.executor.shutdown()
        if self.tmp is not None:
            shutil.rmtree(self.tmp, ignore_errors=True)

    def __enter__(self) -> "Rig":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


def timed_setups(scenario: Scenario) -> List[float]:
    """Wall of ``SETUP_SAMPLES`` full set-ups, each in a fresh interpreter.

    A sample boots python, imports the library, builds the stores and
    systems, spawns and registers the worker pool, and tears all of it down
    again — imports cannot be repeated inside one process.
    """
    samples = []
    for _ in range(SETUP_SAMPLES):
        started = time.perf_counter()
        subprocess.run(
            [sys.executable, __file__, "--workload", scenario.name, "--setup-only"],
            check=True, stdout=subprocess.DEVNULL,
        )
        samples.append(time.perf_counter() - started)
    return samples


# --------------------------------------------------------------------------
# One lifecycle and its check
# --------------------------------------------------------------------------
@dataclass
class Lifecycle:
    """Per-iteration walls, statistics and configurations of one lifecycle."""

    walls: List[float] = field(default_factory=list)
    stats: List[RunStats] = field(default_factory=list)
    configs: List[Any] = field(default_factory=list)
    store_bytes: int = 0

    @property
    def wall(self) -> float:
        return sum(self.walls)


def _no_span(_name: str) -> contextlib.AbstractContextManager:
    return contextlib.nullcontext()


def timed_lifecycle(scenario: Scenario, system: HelixSystem, seed: int, tracer: Any = None,
                    ident: str = "") -> Lifecycle:
    """One full lifecycle; per iteration: apply change, build, compile, optimize, execute,
    materialize."""
    span = tracer.span if tracer is not None else _no_span
    workload = scenario.workload
    system.reset()
    gc.collect()
    rng = scenario.change_rng(seed)
    config = workload.initial_config(scale=scenario.scale, seed=seed)
    result = Lifecycle()
    for spec in scenario.plan(seed):
        if tracer is not None:
            tracer.ident = f"{ident}/{spec.index}"
        started = time.perf_counter()
        with span("iteration"):
            with span("workloads.build"):
                config = workload.apply_iteration(config, spec, rng)
                workflow = workload.build(config)
            stats = system.run_iteration(workflow, iteration=spec.index, iteration_type=spec.kind)
        result.walls.append(time.perf_counter() - started)
        result.stats.append(stats)
        result.configs.append(config)
    result.store_bytes = system.storage_bytes()
    return result


def output_digests(lifecycle: Lifecycle) -> List[str]:
    return [content_digest(serialize(stats.outputs)) for stats in lifecycle.stats]


class Checker:
    """Counts attempted and failed iterations across every lifecycle of a run."""

    def __init__(self, scenario: Scenario):
        self.scenario = scenario
        self.reference: Optional[List[str]] = None
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def attempt(self, system: HelixSystem, seed: int, reuse: bool, **trace: Any) -> Optional[Lifecycle]:
        """Run and check one lifecycle; ``None`` (all iterations failed) when it raised."""
        planned = self.scenario.iterations
        self.attempted += planned
        try:
            lifecycle = timed_lifecycle(self.scenario, system, seed, **trace)
        except Exception as exc:  # noqa: BLE001 - a raising iteration is a failed one
            self.failed += planned
            self.problems.append(f"lifecycle raised {type(exc).__name__}: {exc}")
            return None
        digests = output_digests(lifecycle)
        if self.reference is None:
            self.reference = digests  # the first baseline lifecycle
        for index, (stats, config) in enumerate(zip(lifecycle.stats, lifecycle.configs)):
            expected = self.scenario.expected_counts(config, reuse)
            found = {"nodes": len(stats.node_states), "tasks": len(stats.node_times)}
            if digests[index] != self.reference[index]:
                self._fail(f"iteration {index}: outputs differ from the baseline's")
            elif expected and expected != found:
                self._fail(f"iteration {index}: expected {expected}, ran {found}")
        return lifecycle

    def same_as_inline(self, inline: Lifecycle, candidate: Lifecycle) -> None:
        """The distributed run must leave exactly the inline run's statistics."""
        for index, (left, right) in enumerate(zip(inline.stats, candidate.stats)):
            self.attempted += 1
            try:
                assert_equivalent_runs(left, right, include_times=False)
            except AssertionError as exc:
                self._fail(f"iteration {index}: distributed != inline: {exc}")

    def _fail(self, problem: str) -> None:
        self.failed += 1
        self.problems.append(problem)


# --------------------------------------------------------------------------
# The two kinds of run
# --------------------------------------------------------------------------
def _rounds(seconds: float, one_round: Callable[[], None]) -> None:
    """``one_round`` at least ``MIN_ROUNDS`` times, then while another fits in ``seconds``."""
    started = time.perf_counter()
    done = 0
    while True:
        one_round()
        done += 1
        elapsed = time.perf_counter() - started
        if done >= MIN_ROUNDS and elapsed + elapsed / done > seconds:
            return


def _warm_up(rig: Rig, checker: Checker, seed: int) -> Optional[Lifecycle]:
    """Discarded first lifecycles: fill caches, fix the reference outputs and, for a
    distributed workload, compare against one inline run (which is returned)."""
    checker.attempt(rig.baseline, seed, reuse=False)
    warm = checker.attempt(rig.opt, seed, reuse=True)
    inline = None
    if rig.executor is not None and warm is not None:
        inline = checker.attempt(rig.system(HelixSystem.opt, "inline", inline=True), seed, reuse=True)
        if inline is not None:
            checker.same_as_inline(inline, warm)
    return inline


def run_untraced(rig: Rig, checker: Checker, seed: int, seconds: float) -> Tuple[Dict[str, float], Dict[str, Any]]:
    _warm_up(rig, checker, seed)
    samples: Dict[str, List[float]] = {
        name: [] for name in ("lifecycle_wall_s", "iter0_wall_s", "rerun_wall_s",
                              "baseline_wall_s", "reuse_speedup", "store_bytes_final")
    }

    def one_round() -> None:
        opt = checker.attempt(rig.opt, seed, reuse=True)
        baseline = checker.attempt(rig.baseline, seed, reuse=False)
        if opt is None or baseline is None:
            return
        samples["lifecycle_wall_s"].append(opt.wall)
        samples["iter0_wall_s"].append(opt.walls[0])
        samples["rerun_wall_s"].append(sum(opt.walls[1:]))
        samples["baseline_wall_s"].append(baseline.wall)
        # Paired: both lifecycles of a round see the same machine conditions.
        samples["reuse_speedup"].append(baseline.wall / opt.wall)
        samples["store_bytes_final"].append(float(opt.store_bytes))

    _rounds(seconds, one_round)
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss + rig.worker_peak_rss_kb()
    samples["peak_rss_mb"] = [rss_kb / 1024.0]
    samples["setup_s"] = timed_setups(rig.scenario)
    metrics = {name: statistics.median(values) for name, values in samples.items() if values}
    return metrics, samples


def run_traced(rig: Rig, checker: Checker, seed: int, seconds: float,
               trace_out: Optional[str]) -> Tuple[Dict[str, float], Dict[str, Any]]:
    from trace import Instrumentation, Tracer, layer_metrics

    inline = _warm_up(rig, checker, seed)
    tracer = Tracer()
    untraced: List[float] = []
    traced: List[Dict[str, float]] = []

    def one_round() -> None:
        plain = checker.attempt(rig.opt, seed, reuse=True)
        ident = f"{rig.scenario.name}/{len(traced)}"
        instrumentation = Instrumentation(tracer, rig.opt, rig.executor)
        try:
            lifecycle = checker.attempt(rig.opt, seed, reuse=True, tracer=tracer, ident=ident)
        finally:
            instrumentation.remove()
        if plain is None or lifecycle is None:
            return
        untraced.append(plain.wall)
        row = layer_metrics(tracer, ident, lifecycle, rig.workers)
        # Paired with the untraced lifecycle of the same round, like reuse_speedup.
        row["trace.overhead_share"] = (lifecycle.wall - plain.wall) / plain.wall
        row["executors.spawn_s"] = rig.spawn_seconds
        row["executors.inline_ratio"] = inline.wall / plain.wall if inline is not None else 0.0
        traced.append(row)

    _rounds(seconds, one_round)
    if trace_out:
        tracer.write_chrome_trace(trace_out)
    metrics = {name: statistics.median(row[name] for row in traced) for name in traced[0]} if traced else {}
    return metrics, {"untraced_lifecycle_wall_s": untraced, "traced": traced}


# --------------------------------------------------------------------------
# Reporting
# --------------------------------------------------------------------------
def provenance(args: argparse.Namespace, rig: Rig) -> Dict[str, Any]:
    return {
        "workload": rig.scenario.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "workers": rig.workers,
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


def run_one(args: argparse.Namespace) -> int:
    scenario = SCENARIOS[args.workload]
    checker = Checker(scenario)
    with Rig(scenario) as rig:
        if args.trace:
            metrics, samples = run_traced(rig, checker, args.seed, args.seconds, args.trace_out)
        else:
            metrics, samples = run_untraced(rig, checker, args.seed, args.seconds)
        record = provenance(args, rig)
    declared = SPEC["per_layer" if args.trace else "end_to_end"]
    correct = checker.failed == 0 and all(entry["name"] in metrics for entry in declared)
    for problem in checker.problems[:20]:
        print(f"FAILED {problem}", file=sys.stderr)
    reported = {
        entry["name"]: {"value": metrics.get(entry["name"], 0.0), "unit": entry["unit"]}
        for entry in declared
    }
    rounds = len(samples.get("lifecycle_wall_s") or samples.get("traced") or ())
    print(f"# {scenario.name} seed={args.seed} trace={args.trace} rounds={rounds} "
          f"attempted={checker.attempted} failed={checker.failed}")
    for name, entry in reported.items():
        print(f"{name:34s} {entry['value']:.6g} {entry['unit']}")
    if args.json:
        record.update(rounds=rounds, attempted=checker.attempted, failed=checker.failed,
                      problems=checker.problems, metrics=reported, samples=samples)
        Path(args.json).write_text(json.dumps(record, indent=1))
    print(json.dumps({"correct": correct, "attempted": checker.attempted,
                      "failed": checker.failed, "metrics": reported}))
    return 0 if correct else 1


def run_all(args: argparse.Namespace) -> Tuple[int, Dict[Tuple[str, str], float]]:
    """Every workload, untraced then traced, each in a fresh subprocess."""
    status = 0
    values: Dict[Tuple[str, str], float] = {}
    for name in SCENARIOS:
        for trace in (0, 1):
            command = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                       "--seconds", str(args.seconds), "--trace", str(trace)]
            if args.json:
                command += ["--json", f"{args.json}.{name}.{trace}.json"]
            if trace and args.trace_out:
                command += ["--trace-out", f"{args.trace_out}.{name}.json"]
            done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
            status = status or done.returncode
            table, _, result = done.stdout.rstrip("\n").rpartition("\n")
            print(table)
            if done.returncode == 0:
                for metric, entry in json.loads(result)["metrics"].items():
                    values[(name, metric)] = entry["value"]
    return status, values


def check_repeat(args: argparse.Namespace) -> int:
    """Two full sets of runs of the same code, compared against the bounds."""
    status_a, first = run_all(args)
    status_b, second = run_all(args)
    unresolved = []
    print(f"\n{'workload':18s} {'metric':20s} {'first':>12s} {'second':>12s} {'diff':>8s} {'bound':>6s}")
    for entry in SPEC["end_to_end"]:
        for name in SCENARIOS:
            a, b = first.get((name, entry["name"])), second.get((name, entry["name"]))
            if a is None or b is None:
                unresolved.append((name, entry["name"], "missing"))
                continue
            difference = abs(b - a) / abs(a)
            flag = "" if difference <= entry["bound"] else "  UNRESOLVED"
            if flag:
                unresolved.append((name, entry["name"], f"{difference:.1%} > {entry['bound']:.0%}"))
            print(f"{name:18s} {entry['name']:20s} {a:12.5g} {b:12.5g} {difference:8.1%} "
                  f"{entry['bound']:6.0%}{flag}")
    for name, metric, why in unresolved:
        print(f"unresolved: {metric} on {name}: {why}")
    return status_a or status_b or (1 if unresolved else 0)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", default="all", choices=[*SCENARIOS, "all"])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=float(SPEC["run_seconds"]))
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1),
                        help="1 = traced run printing the per-layer metrics")
    parser.add_argument("--trace-out", metavar="PATH", help="write the spans as Chrome-trace JSON")
    parser.add_argument("--json", metavar="PATH", help="write provenance and every raw sample")
    parser.add_argument("--check-repeat", action="store_true")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.check_repeat:
        return check_repeat(args)
    if args.workload == "all":
        return run_all(args)[0]
    if args.setup_only:
        Rig(SCENARIOS[args.workload]).close()
        return 0
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
