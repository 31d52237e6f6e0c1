"""Standalone distributed-worker entrypoint: ``python -m repro.execution.worker``.

Starts one listening :class:`~repro.execution.executors.WorkerServer` that a
coordinator reaches through
``DistributedExecutor(workers=["host:port", ...])`` (or any of the
``workers=`` plumbing: ``create_engine(..., workers=...)``,
``System.configure_executor("distributed", workers=...)``,
``run_lifecycle(..., executor="distributed", workers=...)``).  The worker
serves coordinator *connections* one at a time and survives across them, so
one long-lived process amortizes interpreter startup over many runs.

Within a single connection the protocol (canonical zero-copy frame
payloads, batch envelopes and the worker-to-worker artifact plane; the
coordinator must run the same library revision — see
``repro/storage/serialization.py``) is session-multiplexed: every task,
fetch and result frame carries the coordinator-side session id, so one
coordinator — e.g. the ``repro serve`` daemon — can interleave tasks from
several concurrent workflow runs over the same worker.  Task inputs
resolve through the worker's **content-addressed artifact tier** (see
``docs/artifacts.md``): a session-spanning LRU keyed on canonical
signatures that survives across coordinator connections, backed by a
peer-artifact listener other workers dial to pull blobs directly instead
of routing every byte through the coordinator.  ``--no-peer-fetch``
disables the listener (and the locate round trips), ``--cache-bytes``
bounds the tier; ``--max-sessions`` counts coordinator *connections* (one
``DistributedExecutor`` lifetime), not in-flight logical sessions.

Typical use — two loopback workers for a smoke test::

    PYTHONPATH=src python -m repro.execution.worker --port 7071 &
    PYTHONPATH=src python -m repro.execution.worker --port 7072 &
    # then, in the coordinator process:
    #   DistributedExecutor(workers=["127.0.0.1:7071", "127.0.0.1:7072"])

The worker prints ``worker <id> listening on <host>:<port>`` (flushed) once
it is ready to accept, so launchers can wait for readiness and, with
``--port 0``, discover the ephemeral port.  Workers bound to a non-loopback
interface (``--host 0.0.0.0``) accept any coordinator that speaks the framed
protocol — there is no TLS/auth yet, so keep non-loopback deployments on a
trusted network (see the "Remote workers" section of ``docs/executors.md``).
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Optional, Sequence

from .executors import WorkerServer

__all__ = ["main"]


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.execution.worker",
        description=(
            "Start a listening distributed-executor worker that coordinators "
            "reach via DistributedExecutor(workers=['host:port', ...])."
        ),
    )
    parser.add_argument(
        "--host",
        default="127.0.0.1",
        help="interface to bind (default: 127.0.0.1; use 0.0.0.0 only on a "
        "trusted network — the protocol has no TLS/auth)",
    )
    parser.add_argument(
        "--port",
        type=int,
        default=0,
        help="port to bind (default: 0 = an ephemeral port, printed on the "
        "readiness line)",
    )
    parser.add_argument(
        "--worker-id",
        default=None,
        help="identity announced at registration (default: pid<pid>)",
    )
    parser.add_argument(
        "--heartbeat-interval",
        type=float,
        default=0.5,
        help="seconds between heartbeats to the coordinator (default: 0.5); "
        "announced at registration, so a coordinator configured for faster "
        "beats widens its silence threshold instead of declaring this "
        "worker dead between healthy heartbeats",
    )
    parser.add_argument(
        "--fetch-timeout",
        type=float,
        default=60.0,
        help="seconds to wait for the coordinator to answer an artifact "
        "fetch before failing the task that needs it (default: 60)",
    )
    parser.add_argument(
        "--max-sessions",
        type=int,
        default=None,
        help="exit after serving this many coordinator sessions "
        "(default: serve forever)",
    )
    parser.add_argument(
        "--no-peer-fetch",
        action="store_true",
        help="opt out of the worker-to-worker artifact plane: no "
        "peer-artifact listener is bound and every artifact fetch routes "
        "through the coordinator",
    )
    parser.add_argument(
        "--cache-bytes",
        type=int,
        default=None,
        help="byte budget of the content-addressed artifact cache tier "
        "(default: 256 MiB); the tier spans run sessions and coordinator "
        "connections and also feeds the peer-fetch lane",
    )
    args = parser.parse_args(argv)
    if args.max_sessions is not None and args.max_sessions < 1:
        parser.error("--max-sessions must be at least 1")
    if args.heartbeat_interval <= 0:
        parser.error("--heartbeat-interval must be positive")
    if args.fetch_timeout <= 0:
        parser.error("--fetch-timeout must be positive")
    if args.cache_bytes is not None and args.cache_bytes < 1:
        parser.error("--cache-bytes must be at least 1")

    def announce(host: str, port: int) -> None:
        server_id = args.worker_id if args.worker_id is not None else f"pid{os.getpid()}"
        print(f"worker {server_id} listening on {host}:{port}", flush=True)

    try:
        WorkerServer.listen(
            host=args.host,
            port=args.port,
            worker_id=args.worker_id,
            heartbeat_interval=args.heartbeat_interval,
            fetch_timeout=args.fetch_timeout,
            max_sessions=args.max_sessions,
            on_ready=announce,
            peer_fetch=not args.no_peer_fetch,
            cache_bytes=args.cache_bytes,
        )
    except KeyboardInterrupt:
        pass
    return 0


if __name__ == "__main__":
    sys.exit(main())
