"""The ``repro serve`` daemon: a shared worker fleet behind a submit API.

One long-lived :class:`ServeDaemon` owns a
:class:`~repro.execution.executors.DistributedExecutor` worker fleet and
accepts workflow-run submissions over the same framed wire protocol the
executor transport uses (:mod:`repro.storage.serialization`).  Each accepted
run executes a full :func:`~repro.experiments.runner.run_lifecycle` on its
own :class:`~repro.execution.executors.DistributedSession`, so several runs
share the warm worker processes concurrently — the executor's session
multiplexing — instead of each run paying worker startup or queuing
behind a per-run coordinator.

Admitted runs wait in one arrival-order queue drained by
``max_concurrent_runs`` runner threads.  The queue only decides *start*
order; once started, runs share workers fairly through the fleet's
round-robin session dispatch, and running work is never preempted.  A
*queued* run whose submitter closes its connection is cancelled without
ever occupying a runner.

Service wire protocol (client side in :mod:`repro.service.client`)::

    client:  ("submit", spec)
    daemon:  ("accepted", run_id, admission_dict)
             ("progress", run_id, info_dict)      # one per iteration
             ("done", run_id, payload)            # terminal, or:
             ("failed", run_id, message)          # terminal

``admission_dict`` reports the ``queued``/``active`` counter split at
admission.

``spec`` is a plain dict (see :func:`validate_spec`) naming the workload,
iteration count, scale, seed, Helix materialization policy and cost model.
``payload`` is JSON-serializable: the lifecycle summary plus the
equivalence harness's canonical per-iteration views
(:func:`~repro.execution.equivalence.canonical_lifecycle`), which is what
makes a served run directly comparable to an inline run of the same spec.
"""

from __future__ import annotations

import itertools
import math
import select
import socket
import threading
import warnings
from collections import deque
from typing import Any, Deque, Dict, List, Optional, Sequence, Tuple, Union

from ..exceptions import ExecutionError
from ..execution.clock import SimulatedCostModel
from ..execution.equivalence import canonical_lifecycle
from ..execution.executors import DistributedExecutor, parse_worker_address
from ..storage.serialization import recv_message, send_message
from ..experiments.runner import LifecycleResult, run_lifecycle
from ..systems.helix import HelixSystem
from ..workloads.base import get_workload

__all__ = [
    "ServeDaemon",
    "validate_spec",
    "build_system",
    "run_spec",
    "lifecycle_payload",
    "POLICIES",
    "COST_MODELS",
]

#: Helix materialization policies a spec may name, mapped to the
#: :class:`HelixSystem` variant factories.
POLICIES = {
    "opt": HelixSystem.opt,
    "am": HelixSystem.always_materialize,
    "nm": HelixSystem.never_materialize,
}

#: Cost models a spec may name.  ``"simulated"`` charges deterministic
#: declared times, so a served run is bit-comparable to an inline run;
#: ``"measured"`` charges wall clock (timings then legitimately differ).
COST_MODELS = ("simulated", "measured")


def _whole_number(spec: Dict[str, Any], key: str, default: int) -> int:
    """``spec[key]`` as an int, refusing a value ``int()`` would truncate."""
    value = spec.get(key, default)
    try:
        number = int(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ExecutionError(f"run spec has a non-numeric field: {exc}") from None
    if not isinstance(value, str) and number != value:
        raise ExecutionError(f"{key} must be a whole number, got {value!r}")
    return number


def validate_spec(spec: Any) -> Dict[str, Any]:
    """Normalize and validate a submitted workload spec.

    Returns a dict with exactly the keys ``workload``, ``iterations``,
    ``scale``, ``seed``, ``policy`` and ``cost_model``.  Raises
    :class:`ExecutionError` on anything malformed, so the daemon can refuse
    a bad submission at admission time instead of failing mid-run.
    """
    if not isinstance(spec, dict):
        raise ExecutionError(f"run spec must be a dict, got {type(spec).__name__}")
    known = {"workload", "iterations", "scale", "seed", "policy", "cost_model"}
    unknown = sorted(set(spec) - known)
    if unknown:
        raise ExecutionError(f"run spec has unknown field(s): {unknown}")
    workload = spec.get("workload")
    if not isinstance(workload, str):
        raise ExecutionError("run spec needs a workload name (string)")
    try:
        get_workload(workload)
    except KeyError as exc:
        raise ExecutionError(str(exc)) from None
    iterations = _whole_number(spec, "iterations", 0)
    seed = _whole_number(spec, "seed", 7)
    try:
        scale = float(spec.get("scale", 1.0))
    except (TypeError, ValueError, OverflowError) as exc:
        raise ExecutionError(f"run spec has a non-numeric field: {exc}") from None
    if iterations < 0:
        raise ExecutionError("iterations must be >= 0 (0 = workload default)")
    if not math.isfinite(scale):
        raise ExecutionError(f"scale must be finite, got {scale}")
    if scale <= 0:
        raise ExecutionError("scale must be positive")
    policy = spec.get("policy", "opt")
    if policy not in POLICIES:
        raise ExecutionError(
            f"unknown policy {policy!r}; expected one of {sorted(POLICIES)}"
        )
    cost_model = spec.get("cost_model", "simulated")
    if cost_model not in COST_MODELS:
        raise ExecutionError(
            f"unknown cost_model {cost_model!r}; expected one of {list(COST_MODELS)}"
        )
    return {
        "workload": workload,
        "iterations": iterations,
        "scale": scale,
        "seed": seed,
        "policy": policy,
        "cost_model": cost_model,
    }


def build_system(spec: Dict[str, Any]) -> HelixSystem:
    """Build the Helix variant a validated spec names (executor unconfigured)."""
    factory = POLICIES[spec["policy"]]
    if spec["cost_model"] == "simulated":
        return factory(cost_model=SimulatedCostModel(), seed=spec["seed"])
    return factory(seed=spec["seed"])


def lifecycle_payload(result: LifecycleResult) -> Dict[str, Any]:
    """The JSON-serializable result payload of one served (or inline) run.

    Times are excluded from the canonical iteration views — they are the
    legitimately run-dependent part — while exact storage byte counts
    participate: the canonical serializer makes artifact sizes
    deterministic across process boundaries, so two payloads for the same
    spec are equal exactly when the runs were equivalent "modulo
    timing/memory", stored bytes included.
    """
    return {
        "summary": result.summary(),
        "iteration_types": result.iteration_types(),
        "iterations": canonical_lifecycle(result.iterations, include_times=False),
    }


def run_spec(
    spec: Dict[str, Any],
    executor: Any = "inline",
    on_iteration: Any = None,
) -> Dict[str, Any]:
    """Run a validated spec to completion and return its result payload.

    ``executor`` is anything :meth:`System.configure_executor` accepts — the
    daemon passes a :class:`DistributedSession`, the inline-verification
    path passes ``"inline"``.
    """
    system = build_system(spec)
    system.configure_executor(executor)
    try:
        result = run_lifecycle(
            system,
            spec["workload"],
            n_iterations=spec["iterations"],
            seed=spec["seed"],
            scale=spec["scale"],
            on_iteration=on_iteration,
        )
    finally:
        system.close_executor()
    return lifecycle_payload(result)


class _RunRecord:
    """One admitted submission travelling through the daemon.

    ``state`` moves ``queued -> active -> finished`` (or ``queued ->
    cancelled``/``failed`` for runs that never start); the disconnect
    watcher reads it to know when the record stopped being its business.
    """

    __slots__ = ("run_id", "spec", "sock", "send_lock", "client_gone", "state")

    def __init__(self, run_id: str, spec: Dict[str, Any], sock: socket.socket):
        self.run_id = run_id
        self.spec = spec
        self.sock = sock
        self.send_lock = threading.Lock()
        self.client_gone = False
        self.state = "queued"

    def send(self, message: Tuple[Any, ...]) -> None:
        """Best-effort frame to the submitter; a vanished client is not fatal."""
        if self.client_gone:
            return
        try:
            send_message(self.sock, message, self.send_lock)
        except Exception:  # noqa: BLE001 - client gone; the run itself continues
            self.client_gone = True

    def client_alive(self) -> bool:
        """Zero-byte peek for EOF: is the submitter still connected?

        Clients send nothing after the submit frame, so a readable socket
        means either EOF (client gone) or a protocol violation; only a
        clean zero-byte read or a socket error marks the client gone.
        """
        if self.client_gone:
            return False
        try:
            previous = self.sock.gettimeout()
            self.sock.settimeout(0)
            try:
                data = self.sock.recv(1, socket.MSG_PEEK)
            finally:
                self.sock.settimeout(previous)
        except (BlockingIOError, InterruptedError):
            return True  # nothing to read: the connection is open and quiet
        except OSError:
            self.client_gone = True
            return False
        if data == b"":
            self.client_gone = True
            return False
        return True  # stray inbound bytes; still connected

    def close(self) -> None:
        try:
            # shutdown() first: close() alone does not reliably wake a
            # thread blocked reading this socket (the disconnect watcher).
            self.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self.sock.close()
        except OSError:
            pass


class ServeDaemon:
    """Long-lived Helix service: one worker fleet, many concurrent runs.

    Parameters
    ----------
    host, port:
        Listening address for submissions (``port=0`` binds an ephemeral
        port; read :attr:`address` after :meth:`start`).
    max_workers:
        Locally-spawned worker count for the owned fleet (mutually
        exclusive with ``workers``, exactly like
        :class:`DistributedExecutor`).
    workers:
        Pre-started remote worker addresses (``"host:port"``) the fleet
        connects to instead of spawning.
    max_concurrent_runs:
        Runner threads draining the admission queue — the maximum number
        of workflow runs executing on the fleet at once.  Further
        submissions queue in arrival order and report the queued/active
        split at admission.
    heartbeat_interval, fetch_timeout:
        Forwarded to the owned fleet.
    worker_cache_bytes:
        Each spawned worker's artifact cache-tier byte budget, forwarded to
        the owned fleet (see ``docs/artifacts.md``).  :meth:`stats` reports the
        plane's reuse counters under ``"artifact_plane"`` — kept readable
        after :meth:`stop` (snapshotted before the fleet shuts down).

    Lifecycle: :meth:`start` warms the fleet and opens the listener;
    :meth:`stop` drains, fails still-queued submissions, and shuts the
    fleet down.  Usable as a context manager.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        max_workers: Optional[int] = None,
        workers: Optional[Sequence[Union[str, Tuple[str, int]]]] = None,
        max_concurrent_runs: int = 2,
        heartbeat_interval: float = 0.5,
        fetch_timeout: float = 60.0,
        worker_cache_bytes: Optional[int] = None,
    ) -> None:
        if max_concurrent_runs < 1:
            raise ExecutionError("max_concurrent_runs must be at least 1")
        self.host = host
        self.port = port
        self.max_concurrent_runs = int(max_concurrent_runs)
        self._fleet = DistributedExecutor(
            max_workers=max_workers,
            workers=workers,
            heartbeat_interval=heartbeat_interval,
            fetch_timeout=fetch_timeout,
            fetch_inputs=True,
            worker_cache_bytes=worker_cache_bytes,
        )
        #: Artifact-plane stats frozen at stop() time, so operators can read
        #: reuse counters after the fleet (and its workers) are gone.
        self._plane_snapshot: Optional[Dict[str, Any]] = None
        self._listener: Optional[socket.socket] = None
        self._threads: List[threading.Thread] = []
        self._run_seq = itertools.count(1)
        #: Raised by stop(): admissions are refused, and runners blocked on
        #: the queue return instead of taking another record.
        self._stopping = threading.Event()
        #: Serializes admission against stop(): an admission holds it from
        #: the stop check through the enqueue, and stop() holds it both to
        #: raise the stop flag and for the final drain, so a submission
        #: racing with shutdown is either refused or drained — never
        #: stranded unanswered.  It also guards the queue itself.
        self._admit_lock = threading.Lock()
        self._queue_ready = threading.Condition(self._admit_lock)
        #: Admitted records waiting for a runner, in arrival order.
        self._queue: Deque[_RunRecord] = deque()
        self._stats_lock = threading.Lock()
        self._queued = 0
        self._active = 0
        self._peak_active = 0
        self._completed: List[str] = []
        self._failed: List[str] = []
        self._cancelled: List[str] = []
        self._started = False

    # ------------------------------------------------------------------ lifecycle
    def start(self) -> Tuple[str, int]:
        """Warm the worker fleet, open the listener; returns the bound address."""
        if self._started:
            return self.address
        self._plane_snapshot = None  # a restart reports live counters again
        self._fleet.start()  # strict first start: a bad fleet config fails here
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((self.host, self.port))
        listener.listen(16)
        # A timeout lets the accept loop poll the stop flag: closing a
        # socket does not reliably wake a thread blocked in accept().
        listener.settimeout(0.25)
        self._listener = listener
        self._stopping.clear()
        self._threads = [
            threading.Thread(
                target=self._accept_loop, daemon=True, name="repro-serve-accept"
            )
        ]
        for index in range(self.max_concurrent_runs):
            self._threads.append(
                threading.Thread(
                    target=self._runner_loop,
                    daemon=True,
                    name=f"repro-serve-run-{index}",
                )
            )
        for thread in self._threads:
            thread.start()
        self._started = True
        return self.address

    @property
    def address(self) -> Tuple[str, int]:
        """The bound ``(host, port)`` submissions connect to."""
        if self._listener is None:
            raise ExecutionError("daemon not started")
        return self._listener.getsockname()[:2]

    def stop(self, join_timeout: float = 30.0) -> None:
        """Refuse new submissions, fail queued ones, drain and stop the fleet.

        Active runs are allowed to finish; anything still *queued* when the
        stop flag goes up is failed without running — raising the flag
        wakes every idle runner, and a runner that dequeued a record just
        before the flag fails it rather than executing it, so stop never
        waits behind a backlog, only behind the runs already executing.
        The final drain below catches records no runner ever dequeued and,
        held under the admission lock, any submission that raced with the
        flag.

        A runner still mid-run after ``join_timeout`` seconds is reported
        with a :class:`RuntimeWarning` and re-joined after the fleet drain
        (fleet shutdown cancels its outstanding tasks, which normally
        unblocks it); a runner alive even then is reported again rather
        than silently leaked.
        """
        if not self._started:
            return
        with self._queue_ready:
            # Flag under the admission lock: an admission that already
            # passed the stop check finishes its enqueue first, so the
            # final drain below answers every client told "accepted".
            self._stopping.set()
            self._queue_ready.notify_all()
        if self._listener is not None:
            self._listener.close()
            self._listener = None
        for thread in self._threads:
            thread.join(timeout=join_timeout)
        stragglers = [t for t in self._threads if t.is_alive()]
        self._threads = []
        if stragglers:
            names = ", ".join(t.name for t in stragglers)
            warnings.warn(
                f"ServeDaemon.stop: runner thread(s) still mid-run after "
                f"{join_timeout:.1f}s: {names}; shutting the fleet down and "
                f"re-joining",
                RuntimeWarning,
                stacklevel=2,
            )
        # Anything still queued never got a runner: tell its submitter.
        # Admissions serialize against this drain via the lock, so a record
        # queued concurrently with stop() is either refused at admission or
        # sitting in the queue here — never stranded unanswered.
        with self._admit_lock:
            while self._queue:
                self._fail_unrun(self._queue.popleft())
        # Freeze plane counters before the fleet goes away: worker stats
        # arrived on heartbeats and survive in the coordinator, but the
        # aggregate must stay readable from stats() after shutdown.
        self._plane_snapshot = self._fleet.artifact_plane_stats()
        self._fleet.shutdown()
        for thread in stragglers:
            thread.join(timeout=join_timeout)
        leaked = [t.name for t in stragglers if t.is_alive()]
        if leaked:
            warnings.warn(
                f"ServeDaemon.stop: runner thread(s) survived the fleet "
                f"shutdown and a second {join_timeout:.1f}s join: "
                f"{', '.join(leaked)}",
                RuntimeWarning,
                stacklevel=2,
            )
        self._started = False

    def _fail_unrun(self, record: _RunRecord) -> None:
        """Fail a queued-but-never-started record, keeping stats consistent."""
        with self._stats_lock:
            self._queued -= 1
            self._failed.append(record.run_id)
            record.state = "failed"
        record.send(("failed", record.run_id, "daemon stopped before the run started"))
        record.close()

    def __enter__(self) -> "ServeDaemon":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # ------------------------------------------------------------------ introspection
    def stats(self) -> Dict[str, Any]:
        """Admission counters (tests and operators): active/peak/completed.

        ``cancelled`` lists queued runs dropped because their submitter
        disconnected before they started.  ``artifact_plane``
        aggregates the fleet's content-addressed artifact tier counters —
        coordinator fetch serving plus every worker's cache stats
        (``docs/artifacts.md``); after :meth:`stop` it
        is the snapshot taken just before the fleet shut down.
        """
        plane = (
            self._plane_snapshot
            if self._plane_snapshot is not None
            else self._fleet.artifact_plane_stats()
        )
        with self._stats_lock:
            return {
                "queued": self._queued,
                "active": self._active,
                "peak_active": self._peak_active,
                "completed": list(self._completed),
                "failed": list(self._failed),
                "cancelled": list(self._cancelled),
                "artifact_plane": plane,
            }

    def worker_pids(self) -> Dict[str, int]:
        """Live worker PIDs of the owned fleet (see ``DistributedExecutor``)."""
        return self._fleet.worker_pids()

    # ------------------------------------------------------------------ loops
    def _accept_loop(self) -> None:
        listener = self._listener
        while not self._stopping.is_set():
            try:
                conn, _ = listener.accept()
            except socket.timeout:
                continue
            except OSError:
                return  # listener closed by stop()
            threading.Thread(
                target=self._handle_submission,
                args=(conn,),
                daemon=True,
                name="repro-serve-admit",
            ).start()

    def _handle_submission(self, conn: socket.socket) -> None:
        """Admit one connection: validate its spec, queue it, hand off."""
        conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        conn.settimeout(10.0)
        try:
            message = recv_message(conn)
            conn.settimeout(None)
        except Exception:  # noqa: BLE001 - reject peers that talk garbage
            conn.close()
            return
        if not (isinstance(message, tuple) and len(message) == 2 and message[0] == "submit"):
            try:
                send_message(conn, ("failed", "", "expected a (submit, spec) frame"))
            except Exception:  # noqa: BLE001 - best-effort refusal
                pass
            conn.close()
            return
        try:
            spec = validate_spec(message[1])
        except ExecutionError as exc:
            try:
                send_message(conn, ("failed", "", str(exc)))
            except Exception:  # noqa: BLE001 - best-effort refusal
                pass
            conn.close()
            return
        record = _RunRecord(f"run-{next(self._run_seq)}", spec, conn)
        # Check-and-queue under the admission lock: once stop() has drained
        # the queue (holding this lock), no record can slip in behind
        # the drain and leave its client blocked on a terminal frame that
        # never comes.  The "accepted" frame is tiny and the socket fresh,
        # so sending it under the lock cannot stall stop() behind a slow
        # peer — and it must go out before the record becomes visible to
        # runners, or a fast run's progress frames could outrace it.
        with self._queue_ready:
            refused = self._stopping.is_set()
            if not refused:
                with self._stats_lock:
                    # The queued/active split at admission.  Their sum is
                    # exact (runners move a run between the counters under
                    # this lock); the split itself can lag a dequeue by an
                    # instant.
                    admission = {"queued": self._queued, "active": self._active}
                    self._queued += 1
                record.send(("accepted", record.run_id, admission))
                self._queue.append(record)
                self._queue_ready.notify()
        if refused:
            record.send(("failed", "", "daemon is stopping"))
            record.close()
            return
        # The admission thread lives on as the disconnect watcher while
        # the record waits its turn: a queued run whose submitter hangs up
        # is cancelled instead of occupying a runner later.
        self._watch_queued_client(record)

    def _watch_queued_client(self, record: _RunRecord) -> None:
        """Cancel ``record`` if its submitter disconnects while queued.

        Watches the submission socket with ``select`` (which leaves the
        socket's blocking state alone — a runner may start streaming
        progress on it at any moment) until the record leaves the queued
        state or the peer goes away.  Clients send nothing after the
        submit frame, so any inbound readability is either EOF or a
        protocol violation; only EOF/socket errors cancel.
        """
        while record.state == "queued" and not self._stopping.is_set():
            try:
                readable, _, _ = select.select([record.sock], [], [], 0.5)
            except (OSError, ValueError):
                break  # socket closed under us: the record left the queue
            if not readable:
                continue
            try:
                data = record.sock.recv(1)
            except OSError:
                data = b""
            if data != b"":
                continue  # stray bytes from a sloppy client; ignore
            # EOF while queued: pull the record back out of the queue.  A
            # False return means a runner (or the stop drain) claimed it
            # first — then the dequeue-time liveness check is in charge.
            if self._cancel_queued(record):
                with self._stats_lock:
                    self._queued -= 1
                    self._cancelled.append(record.run_id)
                    record.state = "cancelled"
                record.client_gone = True
                record.close()
            return

    def _cancel_queued(self, record: _RunRecord) -> bool:
        """Remove a still-queued record; False if it already left the queue."""
        with self._admit_lock:
            try:
                self._queue.remove(record)
            except ValueError:
                return False
            return True

    def _next_queued(self) -> Optional[_RunRecord]:
        """Block for the oldest queued record; ``None`` once stopping.

        The stop flag wakes every blocked runner *without* handing out
        still-queued records — stop() drains those itself, so it can fail
        them to their submitters.
        """
        with self._queue_ready:
            while not self._stopping.is_set():
                if self._queue:
                    return self._queue.popleft()
                self._queue_ready.wait()
            return None

    def _runner_loop(self) -> None:
        while True:
            record = self._next_queued()
            if record is None:
                return  # stopping: stop() drains what remains
            if self._stopping.is_set():
                # stop() was called while this record sat in the queue: fail
                # it without running (executing here would make stop() wait
                # out — and then cancel mid-run — an entire queued backlog).
                self._fail_unrun(record)
                continue
            # A run whose submitter vanished while it queued must not
            # occupy a runner slot and the fleet: nobody can ever read the
            # result.  The watcher usually cancels such records before
            # they get here; this dequeue-time check catches a client that
            # hung up in the handoff window.
            if not record.client_alive():
                with self._stats_lock:
                    self._queued -= 1
                    self._failed.append(record.run_id)
                    record.state = "failed"
                record.close()
                continue
            with self._stats_lock:
                self._queued -= 1
                self._active += 1
                self._peak_active = max(self._peak_active, self._active)
                record.state = "active"
            # Counters update before the terminal frame goes out, so a
            # submitter that just saw "done" observes consistent stats().
            try:
                payload = self._execute(record)
            except Exception as exc:  # noqa: BLE001 - reported to the submitter
                with self._stats_lock:
                    self._failed.append(record.run_id)
                record.send(
                    ("failed", record.run_id, f"{type(exc).__name__}: {exc}")
                )
            else:
                with self._stats_lock:
                    self._completed.append(record.run_id)
                record.send(("done", record.run_id, payload))
            finally:
                record.state = "finished"
                record.close()
                with self._stats_lock:
                    self._active -= 1

    def _execute(self, record: _RunRecord) -> Dict[str, Any]:
        """Run one admitted spec on its own session of the shared fleet."""
        session = self._fleet.session()

        def _progress(spec_it, stats) -> None:
            record.send(
                (
                    "progress",
                    record.run_id,
                    {
                        "iteration": spec_it.index,
                        "kind": spec_it.kind,
                        "executed_nodes": len(stats.node_times),
                        "total_time": float(stats.total_time),
                    },
                )
            )

        try:
            return run_spec(record.spec, executor=session, on_iteration=_progress)
        finally:
            # cancel=True: on failure nothing may stay queued on the fleet.
            session.shutdown(cancel=True)


def parse_service_address(spec: Union[str, Tuple[str, int]]) -> Tuple[str, int]:
    """Canonicalize a ``host:port`` service address (same rules as workers)."""
    return parse_worker_address(spec)
