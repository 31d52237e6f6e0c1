"""Command line entry points for the Helix service: ``serve`` and ``submit``.

Wired through ``python -m repro`` (see :mod:`repro.__main__`) and the
``repro`` console script::

    # Start a daemon owning two locally-spawned workers:
    python -m repro serve --port 7070 --max-workers 2

    # Or one fronting pre-started remote workers:
    python -m repro serve --port 7070 --workers host1:7071,host2:7072

    # Submit a run and stream its progress:
    python -m repro submit --address 127.0.0.1:7070 \\
        --workload census --iterations 2 --scale 0.25 --verify-inline
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
import threading
from typing import Any, List, Optional

from .client import (
    ServiceClient,
    assert_payloads_equivalent,
    inline_reference,
)
from .daemon import COST_MODELS, POLICIES, ServeDaemon

__all__ = ["main", "serve_main", "submit_main"]


def serve_main(argv: Optional[List[str]] = None) -> int:
    """``repro serve``: run the Helix service daemon until interrupted."""
    parser = argparse.ArgumentParser(
        prog="repro serve",
        description="Long-lived Helix service: a shared worker fleet "
        "accepting workflow-run submissions (see docs/executors.md).",
    )
    parser.add_argument("--host", default="127.0.0.1", help="listen address (default: %(default)s)")
    parser.add_argument(
        "--port", type=int, default=7070, help="listen port, 0 = ephemeral (default: %(default)s)"
    )
    group = parser.add_mutually_exclusive_group()
    group.add_argument(
        "--max-workers", type=int, default=None, metavar="N",
        help="spawn N local worker processes (default: library default)",
    )
    group.add_argument(
        "--workers", default=None, metavar="HOST:PORT,...",
        help="connect to pre-started remote workers instead of spawning",
    )
    parser.add_argument(
        "--max-concurrent-runs", type=int, default=2, metavar="N",
        help="workflow runs executing at once; further submissions queue "
        "in arrival order (default: %(default)s)",
    )
    parser.add_argument(
        "--heartbeat-interval", type=float, default=0.5, metavar="SECONDS",
        help="worker heartbeat cadence (default: %(default)s)",
    )
    parser.add_argument(
        "--fetch-timeout", type=float, default=60.0, metavar="SECONDS",
        help="worker-side artifact fetch timeout (default: %(default)s)",
    )
    parser.add_argument(
        "--worker-cache-bytes", type=int, default=None, metavar="BYTES",
        help="per-worker artifact cache tier budget for spawned workers "
        "(default: 256 MiB; remote workers use their own --cache-bytes)",
    )
    args = parser.parse_args(argv)
    if args.worker_cache_bytes is not None and args.worker_cache_bytes < 1:
        parser.error("--worker-cache-bytes must be at least 1")

    workers = args.workers.split(",") if args.workers else None
    daemon = ServeDaemon(
        host=args.host,
        port=args.port,
        max_workers=args.max_workers,
        workers=workers,
        max_concurrent_runs=args.max_concurrent_runs,
        heartbeat_interval=args.heartbeat_interval,
        fetch_timeout=args.fetch_timeout,
        worker_cache_bytes=args.worker_cache_bytes,
    )
    host, port = daemon.start()
    # Parseable readiness line: scripts (and the CI smoke) wait for it.
    print(f"repro service listening on {host}:{port}", flush=True)
    stop = threading.Event()

    def _request_stop(signum, frame):  # noqa: ARG001 - signal handler shape
        stop.set()

    signal.signal(signal.SIGTERM, _request_stop)
    signal.signal(signal.SIGINT, _request_stop)
    try:
        while not stop.is_set():
            stop.wait(0.5)
    finally:
        daemon.stop()
        stats = daemon.stats()
        print(
            f"repro service stopped "
            f"({len(stats['completed'])} completed, {len(stats['failed'])} failed, "
            f"{len(stats['cancelled'])} cancelled)",
            flush=True,
        )
        # Greppable artifact-plane summary (the CI serve-smoke asserts on
        # it): how many artifacts one served run reused from the workers'
        # content-addressed tier after another run put them there.
        plane = stats.get("artifact_plane", {})
        reuse = plane.get("cross_session_hits", 0)
        print(
            f"  artifact plane: cache reuse {reuse} "
            f"(cross_session_hits {reuse}, "
            f"cache_hits {plane.get('cache_hits', 0)}, "
            f"coordinator fetches {plane.get('fetches_served', 0)} / "
            f"{plane.get('fetch_bytes_served', 0)} bytes)",
            flush=True,
        )
    return 0


def submit_main(argv: Optional[List[str]] = None) -> int:
    """``repro submit``: ship one run spec to a daemon and await its stats."""
    parser = argparse.ArgumentParser(
        prog="repro submit",
        description="Submit a workflow run to a running `repro serve` daemon, "
        "stream its progress, and print the run stats.",
    )
    parser.add_argument(
        "--address", default="127.0.0.1:7070", metavar="HOST:PORT",
        help="daemon address (default: %(default)s)",
    )
    parser.add_argument("--workload", required=True, help="workload name (e.g. census)")
    parser.add_argument(
        "--iterations", type=int, default=0, metavar="N",
        help="lifecycle iterations, 0 = workload default (default: %(default)s)",
    )
    parser.add_argument(
        "--scale", type=float, default=1.0, help="dataset scale factor (default: %(default)s)"
    )
    parser.add_argument("--seed", type=int, default=7, help="plan seed (default: %(default)s)")
    parser.add_argument(
        "--policy", default="opt", choices=sorted(POLICIES),
        help="Helix materialization policy (default: %(default)s)",
    )
    parser.add_argument(
        "--cost-model", default="simulated", choices=list(COST_MODELS),
        help="per-node time charging (default: %(default)s; `simulated` "
        "makes served and inline runs bit-comparable)",
    )
    parser.add_argument(
        "--verify-inline", action="store_true",
        help="also run the spec in-process on the inline executor and "
        "assert the served stats are equivalent (modulo timing/memory)",
    )
    parser.add_argument(
        "--json", default=None, metavar="PATH",
        help="write the result payload as JSON (- for stdout)",
    )
    parser.add_argument(
        "--quiet", action="store_true", help="suppress per-iteration progress lines"
    )
    args = parser.parse_args(argv)

    spec = {
        "workload": args.workload,
        "iterations": args.iterations,
        "scale": args.scale,
        "seed": args.seed,
        "policy": args.policy,
        "cost_model": args.cost_model,
    }

    def _print_progress(kind: str, info: Any) -> None:
        if kind == "progress" and not args.quiet:
            print(
                f"  iteration {info['iteration']} ({info['kind']}): "
                f"{info['executed_nodes']} nodes executed, "
                f"{info['total_time']:.3f}s",
                flush=True,
            )

    client = ServiceClient(args.address)
    handle = client.submit(spec)
    if not args.quiet:
        print(
            f"submitted {handle.run_id} ({handle.queue_position} run(s) ahead)",
            flush=True,
        )
    payload = handle.result(on_event=_print_progress)
    summary = payload["summary"]
    print(
        f"{handle.run_id} done: {summary['system']} on {summary['workload']}, "
        f"{summary['iterations']} iterations, "
        f"cumulative time {summary['cumulative_time']:.3f}s",
        flush=True,
    )
    if args.verify_inline:
        reference = inline_reference(spec)
        assert_payloads_equivalent(payload, reference)
        print("served run is equivalent to the inline reference", flush=True)
    if args.json:
        text = json.dumps(payload, indent=2, sort_keys=True, default=float)
        if args.json == "-":
            print(text)
        else:
            with open(args.json, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """Dispatch ``repro <command>`` (see :mod:`repro.__main__`)."""
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Helix reproduction command line: serve a worker fleet "
        "or submit workflow runs to one.",
    )
    parser.add_argument("command", choices=["serve", "submit"], help="subcommand")
    ns, rest = parser.parse_known_args(argv)
    if ns.command == "serve":
        return serve_main(rest)
    return submit_main(rest)


if __name__ == "__main__":  # pragma: no cover - exercised via python -m repro
    sys.exit(main())
