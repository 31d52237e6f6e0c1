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

Admission scheduling is pluggable (:mod:`repro.service.scheduler`): the
default ``"fifo"`` policy serves submissions in arrival order, while
``"fair"`` gives per-tenant weighted fair sharing with priority classes
— a higher-priority submission jumps the queued line, and one tenant's
burst cannot starve another tenant's next iteration.  Scheduling only
decides *start* order among queued runs; once started, runs share
workers fairly through the fleet's round-robin session dispatch, and
running work is never preempted.  A *queued* run whose submitter closes
its connection is cancelled without ever occupying a runner.

Service wire protocol (client side in :mod:`repro.service.client`)::

    client:  ("submit", spec)
    daemon:  ("accepted", run_id, admission_dict)
             ("progress", run_id, info_dict)      # one per iteration
             ("done", run_id, payload)            # terminal, or:
             ("failed", run_id, message)          # terminal

``admission_dict`` reports the run's effective ``tenant`` and
``priority``, the daemon's ``scheduler`` name, the deterministic
``queued``/``active`` counter split at admission, and ``position`` — the
policy-aware count of queued runs guaranteed to start first.

``spec`` is a plain dict (see :func:`validate_spec`) naming the workload,
iteration count, scale, seed, Helix materialization policy, cost model,
and optionally the submitting ``tenant`` and a ``priority``.
``payload`` is JSON-serializable: the lifecycle summary plus the
equivalence harness's canonical per-iteration views
(:func:`~repro.execution.equivalence.canonical_lifecycle`), which is what
makes a served run directly comparable to an inline run of the same spec.
"""

from __future__ import annotations

import itertools
import re
import select
import socket
import threading
import warnings
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from ..exceptions import ExecutionError
from ..execution.clock import SimulatedCostModel
from ..execution.equivalence import canonical_lifecycle
from ..execution.executors import DistributedExecutor, parse_worker_address
from ..storage.serialization import recv_message, send_message
from ..experiments.runner import LifecycleResult, run_lifecycle
from ..systems.helix import HelixSystem
from ..workloads.base import get_workload
from .scheduler import SCHEDULERS, SchedulerPolicy, make_scheduler

__all__ = [
    "ServeDaemon",
    "validate_spec",
    "build_system",
    "run_spec",
    "lifecycle_payload",
    "POLICIES",
    "COST_MODELS",
    "DEFAULT_TENANT",
    "PRIORITY_RANGE",
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

#: Tenant a spec that names none is accounted under.
DEFAULT_TENANT = "default"

#: Inclusive priority bounds a spec may request (larger = more urgent).
PRIORITY_RANGE = (0, 9)

_TENANT_PATTERN = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]{0,63}$")


def validate_spec(spec: Any) -> Dict[str, Any]:
    """Normalize and validate a submitted workload spec.

    Returns a dict with exactly the keys ``workload``, ``iterations``,
    ``scale``, ``seed``, ``policy``, ``cost_model``, ``tenant`` and
    ``priority``.  Raises :class:`ExecutionError` on anything malformed,
    so the daemon can refuse a bad submission at admission time instead
    of failing mid-run.

    ``tenant`` (default ``"default"``) names the fair-share queue the run
    is accounted under; ``priority`` (default 0, within
    :data:`PRIORITY_RANGE`) orders it against other queued runs.  Both
    are carried — and validated — under every scheduler, but only the
    fair policy acts on them.
    """
    if not isinstance(spec, dict):
        raise ExecutionError(f"run spec must be a dict, got {type(spec).__name__}")
    known = {
        "workload", "iterations", "scale", "seed", "policy", "cost_model",
        "tenant", "priority",
    }
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
    try:
        iterations = int(spec.get("iterations", 0))
        scale = float(spec.get("scale", 1.0))
        seed = int(spec.get("seed", 7))
    except (TypeError, ValueError) as exc:
        raise ExecutionError(f"run spec has a non-numeric field: {exc}") from None
    if iterations < 0:
        raise ExecutionError("iterations must be >= 0 (0 = workload default)")
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
    tenant = spec.get("tenant", DEFAULT_TENANT)
    if not isinstance(tenant, str) or not _TENANT_PATTERN.match(tenant):
        raise ExecutionError(
            f"tenant must be 1-64 characters of [A-Za-z0-9._-] starting "
            f"alphanumeric, got {tenant!r}"
        )
    try:
        priority = int(spec.get("priority", PRIORITY_RANGE[0]))
    except (TypeError, ValueError) as exc:
        raise ExecutionError(f"run spec has a non-numeric priority: {exc}") from None
    if not PRIORITY_RANGE[0] <= priority <= PRIORITY_RANGE[1]:
        raise ExecutionError(
            f"priority must be within {PRIORITY_RANGE[0]}..{PRIORITY_RANGE[1]}, "
            f"got {priority}"
        )
    return {
        "workload": workload,
        "iterations": iterations,
        "scale": scale,
        "seed": seed,
        "policy": policy,
        "cost_model": cost_model,
        "tenant": tenant,
        "priority": priority,
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
    Schedulers consult ``tenant`` and ``priority``.
    """

    __slots__ = (
        "run_id", "spec", "sock", "send_lock", "client_gone", "tenant",
        "priority", "state",
    )

    def __init__(self, run_id: str, spec: Dict[str, Any], sock: socket.socket):
        self.run_id = run_id
        self.spec = spec
        self.sock = sock
        self.send_lock = threading.Lock()
        self.client_gone = False
        self.tenant = spec.get("tenant", DEFAULT_TENANT)
        self.priority = int(spec.get("priority", PRIORITY_RANGE[0]))
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
        Runner threads draining the admission scheduler — the maximum
        number of workflow runs executing on the fleet at once.  Further
        submissions queue under the scheduler policy and report their
        position at admission.
    scheduler:
        Admission policy: ``"fifo"`` (default, arrival order), ``"fair"``
        (per-tenant weighted fair share with priority classes), or a
        ready :class:`~repro.service.scheduler.SchedulerPolicy` instance.
    tenant_weights:
        Fair-share weights by tenant name (fair scheduler only); unnamed
        tenants weigh 1.
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
        scheduler: Union[str, SchedulerPolicy] = "fifo",
        tenant_weights: Optional[Dict[str, float]] = None,
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
        self._scheduler = make_scheduler(scheduler, tenant_weights)
        self._run_seq = itertools.count(1)
        self._stopping = threading.Event()
        #: Serializes admission against stop(): an admission holds it from
        #: the stop check through the scheduler put, and stop() holds it
        #: both to raise the stop flag and for the final drain, so a
        #: submission racing with shutdown is either refused or drained —
        #: never stranded unanswered.
        self._admit_lock = threading.Lock()
        self._stats_lock = threading.Lock()
        self._queued = 0
        self._active = 0
        self._peak_active = 0
        self._completed: List[str] = []
        self._failed: List[str] = []
        self._cancelled: List[str] = []
        self._tenants: Dict[str, Dict[str, int]] = {}
        self._started = False

    # ------------------------------------------------------------------ lifecycle
    def start(self) -> Tuple[str, int]:
        """Warm the worker fleet, open the listener; returns the bound address."""
        if self._started:
            return self.address
        self._scheduler.open()
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
        stop flag goes up is failed without running — closing the scheduler
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
        with self._admit_lock:
            # Flag + close under the admission lock: an admission that
            # already passed the stop check finishes its put first, so the
            # scheduler never refuses a record whose client was told
            # "accepted".
            self._stopping.set()
            self._scheduler.close()
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
        # sitting in the scheduler here — never stranded unanswered.
        with self._admit_lock:
            for record in self._scheduler.drain():
                self._fail_unrun(record)
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
            counters = self._tenant_counters(record.tenant)
            counters["queued"] -= 1
            counters["failed"] += 1
            record.state = "failed"
        record.send(("failed", record.run_id, "daemon stopped before the run started"))
        record.close()

    def __enter__(self) -> "ServeDaemon":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # ------------------------------------------------------------------ introspection
    def _tenant_counters(self, tenant: str) -> Dict[str, int]:
        """Per-tenant counter row; the stats lock must be held."""
        return self._tenants.setdefault(
            tenant,
            {"queued": 0, "active": 0, "completed": 0, "failed": 0, "cancelled": 0},
        )

    def stats(self) -> Dict[str, Any]:
        """Scheduler counters (tests and operators): active/peak/completed.

        ``tenants`` breaks queued/active/completed/failed/cancelled down
        by tenant; ``cancelled`` lists queued runs dropped because their
        submitter disconnected before they started.  ``artifact_plane``
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
                "scheduler": self._scheduler.name,
                "queued": self._queued,
                "active": self._active,
                "peak_active": self._peak_active,
                "completed": list(self._completed),
                "failed": list(self._failed),
                "cancelled": list(self._cancelled),
                "tenants": {name: dict(row) for name, row in self._tenants.items()},
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
        """Admit one connection: validate its spec, queue it FIFO, hand off."""
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
        # the scheduler (holding this lock), no record can slip in behind
        # the drain and leave its client blocked on a terminal frame that
        # never comes.  The "accepted" frame is tiny and the socket fresh,
        # so sending it under the lock cannot stall stop() behind a slow
        # peer — and it must go out before the record becomes visible to
        # runners, or a fast run's progress frames could outrace it.
        with self._admit_lock:
            if self._stopping.is_set():
                refused = True
            else:
                refused = False
                with self._stats_lock:
                    # The queued/active split at admission.  Their sum is
                    # exact (runners move a run between the counters under
                    # this lock); the split itself can lag a dequeue by an
                    # instant.
                    admission = {
                        "tenant": record.tenant,
                        "priority": record.priority,
                        "scheduler": self._scheduler.name,
                        "queued": self._queued,
                        "active": self._active,
                        "position": self._scheduler.queued_ahead(record),
                    }
                    self._queued += 1
                    self._tenant_counters(record.tenant)["queued"] += 1
                record.send(("accepted", record.run_id, admission))
                self._scheduler.put(record)
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
            # EOF while queued: pull the record back out of the scheduler.
            # A False return means a runner (or the stop drain) claimed it
            # first — then the dequeue-time liveness check is in charge.
            if self._scheduler.cancel(record):
                with self._stats_lock:
                    self._queued -= 1
                    self._cancelled.append(record.run_id)
                    counters = self._tenant_counters(record.tenant)
                    counters["queued"] -= 1
                    counters["cancelled"] += 1
                    record.state = "cancelled"
                record.client_gone = True
                record.close()
            return

    def _runner_loop(self) -> None:
        while True:
            record = self._scheduler.get()
            if record is None:
                return  # scheduler closed: stop() drains what remains
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
                    counters = self._tenant_counters(record.tenant)
                    counters["queued"] -= 1
                    counters["failed"] += 1
                    record.state = "failed"
                record.close()
                continue
            with self._stats_lock:
                self._queued -= 1
                self._active += 1
                self._peak_active = max(self._peak_active, self._active)
                counters = self._tenant_counters(record.tenant)
                counters["queued"] -= 1
                counters["active"] += 1
                record.state = "active"
            # Counters update before the terminal frame goes out, so a
            # submitter that just saw "done" observes consistent stats().
            try:
                payload = self._execute(record)
            except Exception as exc:  # noqa: BLE001 - reported to the submitter
                with self._stats_lock:
                    self._failed.append(record.run_id)
                    self._tenant_counters(record.tenant)["failed"] += 1
                record.send(
                    ("failed", record.run_id, f"{type(exc).__name__}: {exc}")
                )
            else:
                with self._stats_lock:
                    self._completed.append(record.run_id)
                    self._tenant_counters(record.tenant)["completed"] += 1
                record.send(("done", record.run_id, payload))
            finally:
                record.state = "finished"
                record.close()
                with self._stats_lock:
                    self._active -= 1
                    self._tenant_counters(record.tenant)["active"] -= 1

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
