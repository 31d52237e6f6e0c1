"""Run a Helix lifecycle across distributed worker processes.

This example drives the census-income workload through a multi-iteration
lifecycle on the ``distributed`` executor: a coordinator dispatches each
iteration's COMPUTE tasks (pipelined, depth 2 per worker connection) to
long-lived worker processes over sockets, while Helix's optimizer still
decides per iteration what to recompute, load or prune.  It then
demonstrates the executor's failure handling by killing one worker mid-run
and letting the coordinator requeue its tasks to the survivors.

Two modes::

    PYTHONPATH=src python examples/distributed_lifecycle.py            # local spawn
    PYTHONPATH=src python examples/distributed_lifecycle.py --remote   # address-configured

The default mode lets the coordinator spawn 4 workers itself, each on one
end of a socket pair.  ``--remote``
demonstrates the multi-host path end to end on loopback: it pre-starts two
``python -m repro.execution.worker`` processes (exactly what you would run
on other machines), waits for their readiness lines, and hands the
coordinator their ``host:port`` addresses via ``workers=[...]`` — the
workers then resolve store-resident inputs over the FETCH/ARTIFACT lane
instead of assuming the coordinator's filesystem.
"""

from __future__ import annotations

import argparse
import os
import re
import signal
import subprocess
import sys
import threading
from pathlib import Path

from repro.experiments import run_lifecycle
from repro.systems import HelixSystem

WORKERS = 4
ITERATIONS = 5
REMOTE_WORKERS = 2


def run_local() -> None:
    """Lifecycle on a locally-spawned worker pool, plus a mid-run worker kill."""
    # Name-configuring the distributed executor makes the system its owner:
    # one coordinator + worker pool, reused by every iteration, and the
    # `with system:` block runs the final shutdown.
    with HelixSystem.opt(executor="distributed", max_workers=WORKERS, seed=0) as system:
        result = run_lifecycle(system, "census", n_iterations=ITERATIONS, seed=7)

        executor = system.executor
        print(f"workers    : {sorted(executor.worker_pids().values())}")
        print(f"\n== census lifecycle on {WORKERS} distributed workers ==")
        _print_iterations(result)

        # --- failure handling: kill one worker mid-run -------------------
        victim = next(iter(executor.worker_pids().values()))
        print(f"\n== rerunning the lifecycle while killing worker pid {victim} ==")
        killer = threading.Timer(0.05, lambda: os.kill(victim, signal.SIGKILL))
        killer.start()
        rerun = run_lifecycle(system, "census", n_iterations=2, seed=7)
        killer.join()
        pool = executor.worker_pids()
        assert victim not in pool.values()
        print(f"pool now   : {sorted(pool.values())}")
        print(f"(pid {victim}'s in-flight tasks were requeued to survivors; "
              f"the next iteration's start() respawned the missing worker)")
        print(f"rerun charged time: {rerun.total_time():.3f}s "
              f"(statistics identical to a healthy run)")


def run_remote() -> None:
    """Lifecycle on pre-started, address-configured workers (the multi-host path)."""
    src_dir = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(src_dir), env.get("PYTHONPATH")) if p
    )
    processes = []
    addresses = []
    try:
        for index in range(REMOTE_WORKERS):
            # On a real deployment these commands run on other hosts; the
            # coordinator only needs their host:port addresses.
            process = subprocess.Popen(
                [sys.executable, "-m", "repro.execution.worker",
                 "--port", "0", "--worker-id", f"remote-{index}"],
                stdout=subprocess.PIPE,
                text=True,
                env=env,
            )
            processes.append(process)
            line = process.stdout.readline().strip()
            match = re.match(r"worker \S+ listening on ([\d.]+):(\d+)", line)
            assert match, f"unexpected worker readiness line: {line!r}"
            addresses.append(f"{match.group(1)}:{match.group(2)}")
            print(line)

        with HelixSystem.opt(
            executor="distributed", workers=addresses, seed=0
        ) as system:
            result = run_lifecycle(system, "census", n_iterations=ITERATIONS, seed=7)
            executor = system.executor
            print(f"\nworkers    : {sorted(executor.worker_pids())}  "
                  f"(address-configured; FETCH lane "
                  f"{'on' if executor.uses_artifact_refs else 'off'})")
            print(f"== census lifecycle on {len(addresses)} remote workers ==")
            _print_iterations(result)

            # --- failure handling: kill one remote worker mid-run --------
            victim = processes[0]
            print(f"\n== rerunning the lifecycle while killing remote worker "
                  f"{addresses[0]} (pid {victim.pid}) ==")
            killer = threading.Timer(0.05, victim.kill)
            killer.start()
            rerun = run_lifecycle(system, "census", n_iterations=2, seed=7)
            killer.join()
            pool = sorted(executor.worker_pids())
            assert addresses[0] not in pool
            print(f"pool now   : {pool}")
            print(f"(the dead worker's tasks were requeued to the survivor; "
                  f"an externally-restarted worker would be re-dialed on the "
                  f"next start)")
            print(f"rerun charged time: {rerun.total_time():.3f}s "
                  f"(statistics identical to a healthy run)")
    finally:
        for process in processes:
            if process.poll() is None:
                process.terminate()
                process.wait(timeout=5)


def _print_iterations(result) -> None:
    for stats, kind in zip(result.iterations, result.iteration_types()):
        print(
            f"iteration {stats.iteration} ({kind or 'initial':>8}): "
            f"{stats.total_time:7.3f}s charged, "
            f"{len(stats.node_times):2d} nodes executed, "
            f"{len(stats.materialized_nodes):2d} materialized"
        )
    print(f"cumulative charged time: {result.total_time():.3f}s")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--remote",
        action="store_true",
        help="pre-start python -m repro.execution.worker processes on "
        "loopback and configure the coordinator with their addresses "
        "(the multi-host path) instead of spawning workers locally",
    )
    args = parser.parse_args()
    if args.remote:
        run_remote()
    else:
        run_local()


if __name__ == "__main__":
    main()
