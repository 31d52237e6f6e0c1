"""Executor strategies: *where* individual node tasks run.

The execution layer separates two concerns that PR 2 entangled in a pair of
near-duplicate engines:

* **Lifecycle orchestration** — scheduling ready nodes, cache/scope reference
  counting, deterministic retirement commits (streaming materialization
  decisions + eviction), stats recording.  This lives in one place:
  :class:`~repro.execution.engine.ExecutionEngine`.
* **Task dispatch** — actually running one node's load/compute somewhere.
  That is this module's :class:`Executor` strategy, with three built-ins:

  - :class:`InlineExecutor` (``"inline"``) — tasks run synchronously on the
    scheduler thread.  The reference strategy; replaces the old serial
    engine.
  - :class:`ThreadExecutor` (``"thread"``) — tasks run on a
    ``ThreadPoolExecutor``.  Best for latency-bound operators (store I/O,
    external services) which overlap even on a single core; CPU-bound pure
    Python is GIL-limited.
  - :class:`DistributedExecutor` (``"distributed"``) — COMPUTE payloads are
    dispatched as length-prefixed frames (see the wire format in
    :mod:`repro.storage.serialization`) to long-lived
    :class:`WorkerServer` processes that register with the coordinator and
    heartbeat.  Workers are either spawned locally (``max_workers``), each
    handed one end of a socket pair, or pre-started elsewhere, listening on
    TCP and addressed explicitly (``workers=["host:port", ...]``; see
    ``python -m repro.execution.worker``).  Each worker connection carries a small
    pipelined dispatch window (``pipeline_depth``, default 2) so the
    coordinator overlaps framing/serialization of the next task with the
    execution of the current one.  Every task a dying worker held — the one
    executing and the ones queued behind it — is requeued to a surviving
    worker (bounded attempts).  Operators must be process safe (encodable
    by reference, see :func:`~repro.core.operators.ensure_process_safe`);
    workers without access to the coordinator's filesystem resolve
    store-resident inputs through the FETCH/ARTIFACT lane
    (:class:`~repro.storage.serialization.ArtifactRef`).  Best for CPU-bound
    pure-Python operators, which scale with cores instead of fighting over
    the GIL.

One distributed fleet can serve **several runs at once**: every
task/result/error/fetch frame is tagged with a *session id*, and
:meth:`DistributedExecutor.session` opens a :class:`DistributedSession` —
a full :class:`Executor` with its own completion queue and bound store,
multiplexed onto the shared worker pool.
Sessions dispatch round-robin (per-session FIFO order, fair interleaving
across sessions) and workers keep per-session fetch lanes, which is how
the ``repro serve`` daemon (:mod:`repro.service`) runs each admitted
lifecycle on its own session of one shared fleet.

The engine drives the executor it is given through one run as
``start -> submit*/submit_payload* -> next_completion* -> finish_run``;
``start`` resets the instance for reuse, so one executor serves many runs.
Whoever builds an executor — from a name with :func:`create_executor`, or
directly — owns it and runs its final ``shutdown``.  Completions are delivered through an internal queue as
``(key, outcome, error)`` triples, so the engine's scheduling loop is
identical across strategies.  The full contract — required methods,
generation-stamped completion queues, process-safety rules, how to plug in
a custom strategy — is documented in ``docs/executors.md``.
"""

from __future__ import annotations

import itertools
import multiprocessing
import os
import queue
import socket
import threading
import time
import warnings
from abc import ABC, abstractmethod
from collections import OrderedDict, deque
from concurrent.futures import CancelledError, Future, ThreadPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from concurrent.futures import wait as wait_futures
from functools import partial
from typing import Any, Callable, Deque, Dict, List, Optional, Sequence, Set, Tuple, Type, Union

from ..exceptions import ExecutionError, OperatorError, ProtocolError
from ..storage.canonical import content_digest
from ..storage.serialization import (
    ArtifactRef,
    deserialize,
    recv_message,
    send_message,
    serialize,
)

__all__ = [
    "Executor",
    "InlineExecutor",
    "ThreadExecutor",
    "DistributedExecutor",
    "DistributedSession",
    "WorkerServer",
    "EXECUTOR_NAMES",
    "parse_worker_address",
    "create_executor",
    "default_max_workers",
    "default_process_workers",
    "run_serialized_task",
]

#: Canonical executor strategy names.
EXECUTOR_NAMES = ("inline", "thread", "distributed")

#: A completed task: (task key, outcome or None, error or None).
Completion = Tuple[str, Any, Optional[BaseException]]


def default_max_workers() -> int:
    """Default thread count: enough to overlap latency on small machines."""
    return min(32, (os.cpu_count() or 1) + 4)


def default_process_workers() -> int:
    """Default process count: one worker per core (CPU-bound work)."""
    return os.cpu_count() or 1


def parse_worker_address(spec: Union[str, Tuple[str, int]]) -> Tuple[str, int]:
    """Canonicalize a remote worker address: ``"host:port"`` -> ``(host, port)``.

    Accepts an already-split ``(host, port)`` pair too.  The port must be an
    integer in ``1..65535``; the host part must be non-empty (use
    ``127.0.0.1`` for loopback workers).
    """
    if isinstance(spec, tuple) and len(spec) == 2:
        host, port = spec
    else:
        host, sep, port = str(spec).strip().rpartition(":")
        if not sep:
            raise ExecutionError(
                f"worker address {spec!r} is not of the form host:port"
            )
        if host.startswith("[") and host.endswith("]"):
            host = host[1:-1]  # bracketed IPv6 literal, e.g. "[::1]:7071"
        elif ":" in host:
            # A bare IPv6 literal ("::1") would otherwise mis-split into a
            # bogus host and a colon-count-dependent port.
            raise ExecutionError(
                f"worker address {spec!r} is ambiguous; bracket IPv6 hosts "
                f"as [host]:port"
            )
    try:
        port = int(port)
    except (TypeError, ValueError):
        raise ExecutionError(
            f"worker address {spec!r} has a non-integer port"
        ) from None
    if not host or not 0 < port < 65536:
        raise ExecutionError(
            f"worker address {spec!r} is not a valid host:port (port 1-65535)"
        )
    return str(host), port


def run_serialized_task(
    payload: bytes, resolve: Optional[Callable[[str], Any]] = None
) -> bytes:
    """Worker-side entry point for out-of-process COMPUTE tasks.

    A task is a chain of one or more nodes: it deserializes ``(names,
    operators, head_inputs, context)``, runs the operators in order — the
    head on ``head_inputs``, every later one on ``[previous value]`` — and
    returns the serialized tuple of one ``(value, measured_seconds)`` pair
    per node, each timed separately.  Head inputs may be
    :class:`~repro.storage.serialization.ArtifactRef` placeholders for
    values that live in the coordinator's store; they are resolved through
    ``resolve(signature)`` *before* the compute timer starts (fetching is
    I/O, not compute).  A ref without a resolver — or a resolver failure —
    fails the task with a typed error.  Failures — including payload
    deserialization itself, which can fail on spawn-based platforms when
    the operator's module is not importable in the worker — are wrapped
    into an encodable :class:`OperatorError` naming the failing node,
    exactly as the in-process compute path does; later nodes do not run.
    """
    try:
        names, operators, inputs, context = deserialize(payload)
    except Exception as exc:  # noqa: BLE001 - worker cannot rebuild the task
        raise OperatorError(
            "<task payload>",
            f"worker could not deserialize the task: {exc}; on spawn-based "
            f"platforms operators must be importable from their module "
            f"(not defined in __main__ or a notebook cell)",
        ) from exc
    if any(isinstance(value, ArtifactRef) for value in inputs):
        if resolve is None:
            raise OperatorError(
                names[0],
                "task inputs reference stored artifacts but this worker has "
                "no fetch lane to the coordinator's store",
            )
        try:
            inputs = [
                resolve(value.signature) if isinstance(value, ArtifactRef) else value
                for value in inputs
            ]
        except Exception as exc:  # noqa: BLE001 - shipped back typed
            raise OperatorError(
                names[0], f"failed to fetch a stored input: {exc}"
            ) from exc
    results = []
    for name, operator in zip(names, operators):
        started = time.perf_counter()
        try:
            value = operator.run(inputs, context)
        except OperatorError:
            raise
        except Exception as exc:  # noqa: BLE001 - wrap arbitrary operator failures
            raise OperatorError(name, str(exc)) from exc
        results.append((value, time.perf_counter() - started))
        inputs = [value]
    try:
        return serialize(tuple(results))
    except Exception:  # noqa: BLE001 - an operator result without a codec
        for name, (value, _) in zip(names, results):
            try:
                serialize(value)
            except Exception as exc:  # noqa: BLE001 - name the node that made it
                raise OperatorError(
                    name, f"result of type {type(value).__name__} is not encodable: {exc}"
                ) from exc
        raise


class Executor(ABC):
    """Strategy interface: run node tasks, deliver completions through a queue.

    Subclasses dispatch work somewhere (scheduler thread, thread pool,
    worker processes) and push :data:`Completion` triples onto
    ``self._results``; the engine consumes them with :meth:`next_completion`.
    One ``start``/``finish_run`` cycle serves one ``ExecutionEngine.execute``
    call; ``start`` opens a fresh run generation so the instance can serve
    another run afterwards, and :meth:`shutdown` releases worker resources
    (a later ``start`` acquires them again).  A custom strategy must provide :attr:`name`, :meth:`submit`,
    and — when :attr:`out_of_process` is true — :meth:`submit_payload`;
    everything else has working defaults.  The full contract, including the
    generation-stamped completion-queue semantics and the process-safety
    rules out-of-process strategies inherit, is documented in
    ``docs/executors.md``.
    """

    #: Canonical strategy name (registry key and display name).
    name: str = "abstract"

    #: True when workers run in a separate interpreter.  The engine then
    #: ships one serialized payload (``submit_payload``) per chain of
    #: COMPUTE nodes and validates operator process safety before
    #: dispatching anything; LOAD tasks still go through :meth:`submit` on
    #: the scheduler thread.
    out_of_process: bool = False

    #: True when :meth:`submit` runs the task before returning.  The engine
    #: then dispatches one task at a time (in topological order) so each
    #: value enters the tracked cache — and is retired — before the next
    #: task runs, reproducing the serial reference's bounded memory profile
    #: instead of buffering a whole ready frontier in the completion queue.
    synchronous: bool = False

    def __init__(self) -> None:
        self._results: "queue.Queue[Completion]" = queue.Queue()
        self._inflight: Set["Future[Any]"] = set()
        self._inflight_lock = threading.Lock()
        self._generation = 0

    def start(self) -> None:
        """Acquire worker resources (pools) for one engine run.

        Subclasses must call ``super().start()``: it opens a new run
        generation with a fresh completion queue, so completions left over
        from a previous run on the same instance can never leak into this
        one.  (``finish_run`` waits for futures to *complete*, but a
        completed future's done-callback may still be running — the
        generation check in ``_track`` drops such stragglers.)
        """
        with self._inflight_lock:
            self._generation += 1
        self._results = queue.Queue()

    @abstractmethod
    def submit(self, key: str, fn: Callable[[], Any]) -> None:
        """Run ``fn`` and deliver ``(key, fn(), None)`` — or the error — later."""

    def submit_payload(self, key: str, payload: bytes) -> None:
        """Dispatch a serialized chain of COMPUTE nodes (out-of-process
        executors only); ``key`` is the chain's head."""
        raise ExecutionError(
            f"executor {self.name!r} does not accept serialized payloads"
        )

    def bind_store(self, store: Any) -> None:
        """Give the executor read access to the engine's materialization store.

        The engine calls this once per ``execute`` before ``start``.  The
        default is a no-op; executors whose workers cannot share the
        coordinator's filesystem (the distributed executor's artifact
        FETCH lane) override it to serve store reads over their transport.
        """

    #: True when the engine should replace store-resident COMPUTE inputs
    #: with :class:`~repro.storage.serialization.ArtifactRef` placeholders
    #: in shipped payloads; the executor's workers resolve them against the
    #: store bound via :meth:`bind_store`.  Only meaningful together with
    #: :attr:`out_of_process`.
    uses_artifact_refs: bool = False

    def next_completion(self) -> Completion:
        """Block until one submitted task finishes; return its completion."""
        return self._results.get()

    def finish_run(self, cancel: bool = False) -> None:
        """End one engine run without releasing pools.

        Cancels queued tasks (when ``cancel``) and waits for in-flight ones
        to drain, so a reused instance carries no work into its next
        ``start``.  The engine ends every run with this, never with
        :meth:`shutdown`, so pool startup amortizes across executes; the
        executor's owner runs the final :meth:`shutdown`.
        """
        with self._inflight_lock:
            pending = list(self._inflight)
        if cancel:
            for future in pending:
                future.cancel()
        if pending:
            wait_futures(pending)
        with self._inflight_lock:
            self._inflight.clear()

    def shutdown(self, cancel: bool = False) -> None:
        """Release worker resources, optionally cancelling queued tasks.

        Always waits for in-flight tasks to drain so no worker outlives the
        executor.  The instance can be ``start``-ed again afterwards.
        """

    # ------------------------------------------------------------------ helpers
    def _run_to_completion(self, key: str, fn: Callable[[], Any]) -> None:
        """Run ``fn`` here and now, converting the result into a completion."""
        try:
            outcome = fn()
        except BaseException as exc:  # noqa: BLE001 - surfaced by the engine
            self._results.put((key, None, exc))
        else:
            self._results.put((key, outcome, None))

    def _track(
        self,
        key: str,
        future: "Future[Any]",
        deliver: Callable[[str, "Future[Any]"], None],
    ) -> None:
        """Register an in-flight future and route its completion to ``deliver``.

        Deliveries are stamped with the current run generation and bound to
        that generation's queue (both read atomically), so a straggler
        callback firing around the next ``start`` either gets dropped or
        posts into the already-discarded old queue — never into the new
        run's queue.
        """
        with self._inflight_lock:
            self._inflight.add(future)
            generation = self._generation

        def _done(f: "Future[Any]", k: str = key) -> None:
            with self._inflight_lock:
                self._inflight.discard(f)
                if self._generation != generation:
                    return
                results = self._results
            deliver(k, f, results)

        future.add_done_callback(_done)

    def _deliver_future(
        self, key: str, future: "Future[Any]", results: "queue.Queue[Completion]"
    ) -> None:
        try:
            outcome = future.result()
        except BaseException as exc:  # noqa: BLE001 - surfaced by the engine
            results.put((key, None, exc))
        else:
            results.put((key, outcome, None))


class InlineExecutor(Executor):
    """Tasks run synchronously on the scheduler thread (the reference strategy).

    ``max_workers`` is accepted for constructor uniformity and ignored.
    """

    name = "inline"
    synchronous = True

    def __init__(self, max_workers: Optional[int] = None) -> None:
        super().__init__()
        del max_workers

    def submit(self, key: str, fn: Callable[[], Any]) -> None:
        self._run_to_completion(key, fn)


class ThreadExecutor(Executor):
    """Tasks run on a ``ThreadPoolExecutor`` (DAG-level parallelism)."""

    name = "thread"

    def __init__(self, max_workers: Optional[int] = None) -> None:
        super().__init__()
        if max_workers is not None and max_workers < 1:
            raise ExecutionError("max_workers must be at least 1")
        self.max_workers = int(max_workers) if max_workers is not None else default_max_workers()
        self._pool: Optional[ThreadPoolExecutor] = None

    def start(self) -> None:
        super().start()
        if self._pool is None:
            self._pool = ThreadPoolExecutor(
                max_workers=self.max_workers, thread_name_prefix="repro-exec"
            )

    def submit(self, key: str, fn: Callable[[], Any]) -> None:
        assert self._pool is not None, "executor used before start()"
        self._track(key, self._pool.submit(fn), self._deliver_future)

    def shutdown(self, cancel: bool = False) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True, cancel_futures=cancel)
            self._pool = None


# ---------------------------------------------------------------------------
# Distributed executor: coordinator + long-lived worker processes
# ---------------------------------------------------------------------------
#: Dispatch attempts per task before it fails.
_MAX_TASK_ATTEMPTS = 3

#: Seconds ``start`` waits for spawned workers to register — or for remote
#: addresses to accept their first connection — before it raises.
_START_TIMEOUT = 30.0

#: Seconds allotted to one remote connection attempt (TCP connect +
#: registration read).
_CONNECT_TIMEOUT = 5.0

#: Base of the exponential re-dial backoff for a remote address whose dial
#: failed: the n-th consecutive failure hides the address from non-strict
#: pool healing for ``_REDIAL_BACKOFF * 2**(n-1)`` seconds, capped at
#: ``max(5, 2 * _CONNECT_TIMEOUT)``.  The counter resets on a successful
#: dial, so a worker that merely restarted is re-adopted on the next
#: healing pass instead of staying invisible for the full cap.
_REDIAL_BACKOFF = 0.25


def _parse_registration(message: Any) -> Optional[Tuple[str, int, Optional[float]]]:
    """Split a first frame into ``(worker_id, pid, interval)``.

    A registration is exactly ``("register", worker_id, pid,
    heartbeat_interval)``: the interval announces the worker's own
    heartbeat cadence so the coordinator can widen its silence threshold
    for slow beaters.  Anything else — another tuple length, a non-string
    worker id, a non-integer pid — returns ``None`` and the connection is
    refused.  The interval comes from another process, so a malformed one
    degrades to ``None`` (assumed cadence) rather than being trusted.
    """
    if not (
        isinstance(message, tuple)
        and len(message) == 4
        and message[0] == "register"
        and isinstance(message[1], str)
        and isinstance(message[2], int)
    ):
        return None
    _, worker_id, pid, interval = message
    if interval is not None:
        try:
            interval = float(interval)
        except (TypeError, ValueError):
            interval = None
    return worker_id, pid, interval


def _encodable_error(key: str, error: BaseException) -> BaseException:
    """Ensure a worker-side failure can cross the wire.

    :func:`run_serialized_task` already wraps operator failures into the
    encodable :class:`OperatorError`; this is the safety net for anything
    else (e.g. an exotic exception raised while framing the reply): an
    exception whose ``__reduce__`` does not rebuild it from its class, or
    whose args or state have no codec, becomes an :class:`OperatorError`.
    """
    try:
        deserialize(serialize(error))
        return error
    except Exception:  # noqa: BLE001 - anything without an encoding gets re-wrapped
        return OperatorError(key, f"worker failed with an unencodable error: {error!r}")


#: Entry cap on a worker's shared artifact cache.  The cache spans every
#: session multiplexed onto the worker (and, for a listen-mode worker,
#: every coordinator connection), so the cap covers the working set of a
#: handful of concurrent pipelines rather than one dispatch window.
_WORKER_CACHE_ENTRIES = 32

#: Byte budget for the same cache, measured in the *canonical encoded
#: size* of each artifact — the exact length of the blob that crossed the
#: wire, which is deterministic for a given value (no pickle-memoization
#: drift across processes, so cache-bound behavior is reproducible).  The
#: entry cap alone is the wrong bound for large values — a few dozen
#: multi-GB artifacts would hold the worker's whole address space hostage
#: — so eviction triggers on whichever bound is exceeded first.
_WORKER_CACHE_BYTES = 256 * 1024 * 1024


class _ArtifactCache:
    """The worker's content-addressed artifact tier: a sized LRU with dedup.

    One instance spans every run session (and every coordinator
    connection) a worker serves, keyed on canonical artifact signatures —
    the signature *is* the content address, so two concurrent served runs
    with overlapping pipelines share one materialized copy per artifact.
    Each entry keeps the deserialized value (what task resolution hands to
    operators), charged at the size of its canonical blob: the exact
    ``len()`` of the bytes that crossed the wire, deterministic per value.
    Inserting a signature that is already cached is a **dedup hit**: the
    existing entry is kept, its recency refreshed and nothing re-charged —
    with a digest check asserting the byte-exactness the canonical
    encoding guarantees (same signature, same bytes).

    Eviction is LRU over whichever bound — entries or bytes — is exceeded
    first, with two protections: the most recently inserted entry is never
    evicted *at insert time* (an artifact above the whole budget still
    serves the task that fetched it; the budget is re-enforced when its
    last pin is released), and **pinned** entries — inputs of in-flight
    tasks, pinned by the resolver and unpinned when the task finishes —
    are skipped, so eviction pressure from one session can never pull an
    artifact out from under another session's running task.

    All methods are thread-safe: the executor loop and the heartbeat
    stats snapshot touch one lock.
    """

    __slots__ = ("max_entries", "max_bytes", "_lock", "_entries", "_bytes", "_pins", "_counters")

    def __init__(
        self,
        max_entries: int = _WORKER_CACHE_ENTRIES,
        max_bytes: int = _WORKER_CACHE_BYTES,
    ) -> None:
        self.max_entries = max_entries
        self.max_bytes = max_bytes
        self._lock = threading.Lock()
        #: signature -> (value, size, digest, inserting_session)
        self._entries: "OrderedDict[str, Tuple[Any, int, str, Any]]" = OrderedDict()
        self._bytes = 0
        self._pins: Dict[str, int] = {}
        self._counters: Dict[str, int] = {
            "cache_hits": 0,
            "cache_misses": 0,
            "cross_session_hits": 0,
            "inserts": 0,
            "dedup_hits": 0,
            "evictions": 0,
            "coordinator_fetches": 0,
        }

    def get(self, signature: str, session: Any = None) -> Tuple[bool, Any]:
        """``(hit, value)``; a hit refreshes the entry's recency.

        ``session`` identifies the asking run session: a hit on an entry
        inserted by a *different* session counts as a cross-session hit —
        the wire-observable signal that concurrent runs are sharing
        materialized state on this worker.
        """
        with self._lock:
            entry = self._entries.get(signature)
            if entry is None:
                self._counters["cache_misses"] += 1
                return False, None
            self._entries.move_to_end(signature)
            self._counters["cache_hits"] += 1
            if session is not None and entry[3] is not None and entry[3] != session:
                self._counters["cross_session_hits"] += 1
            return True, entry[0]

    def put(self, signature: str, value: Any, blob: bytes, session: Any = None) -> None:
        """Insert one artifact under its content address (byte-exact dedup).

        A signature already cached keeps its existing entry — same
        address, same bytes, so re-charging or replacing it would only
        churn; the digest assertion documents (and checks) that byte
        exactness.  New entries charge ``len(blob)`` and trigger LRU
        eviction on the entry/byte bounds, skipping pinned entries and
        the entry just inserted.
        """
        size = len(blob)
        digest = content_digest(blob)
        with self._lock:
            existing = self._entries.get(signature)
            if existing is not None:
                self._counters["dedup_hits"] += 1
                if existing[2] != digest:  # pragma: no cover - canonical bytes diverged
                    warnings.warn(
                        f"artifact {signature!r} arrived with different bytes "
                        f"than the cached copy; keeping the first (content "
                        f"addressing assumes deterministic serialization)",
                        RuntimeWarning,
                        stacklevel=2,
                    )
                self._entries.move_to_end(signature)
                return
            self._entries[signature] = (value, size, digest, session)
            self._bytes += size
            self._counters["inserts"] += 1
            self._evict_over_budget(protect_newest=True)

    def _evict_over_budget(self, protect_newest: bool) -> None:
        """Drop LRU unpinned entries until within bounds (lock held).

        ``protect_newest`` exempts the most recent entry — insert-time
        eviction must not drop the artifact just fetched for a task; once
        the last pin is released an over-budget entry is fair game.
        """
        while self._bytes > self.max_bytes or len(self._entries) > self.max_entries:
            victim = None
            candidates = list(self._entries)
            if protect_newest:
                candidates = candidates[:-1]
            for candidate in candidates:
                if self._pins.get(candidate, 0) == 0:
                    victim = candidate
                    break
            if victim is None:
                break  # everything evictable is pinned by in-flight tasks
            _, dropped, _, _ = self._entries.pop(victim)
            self._bytes -= dropped
            self._counters["evictions"] += 1

    def pin(self, signature: str) -> None:
        """Protect an in-flight task's input from eviction (refcounted)."""
        with self._lock:
            self._pins[signature] = self._pins.get(signature, 0) + 1

    def unpin(self, signature: str) -> None:
        """Release one pin; re-enforce the budget once nothing needs it.

        The insert-time pass never evicts the entry it just admitted even
        when that entry alone exceeds the whole budget — so an over-budget
        tier is re-checked here, where the pin release marks the moment
        the oversized artifact stops being an in-flight task's input.
        """
        with self._lock:
            count = self._pins.get(signature, 0) - 1
            if count <= 0:
                self._pins.pop(signature, None)
                self._evict_over_budget(protect_newest=False)
            else:
                self._pins[signature] = count

    def count(self, name: str, delta: int = 1) -> None:
        """Bump a plane counter (resolver-path events the cache can't see)."""
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + delta

    def stats(self) -> Dict[str, int]:
        """Snapshot of counters + occupancy (the heartbeat payload)."""
        with self._lock:
            snapshot = dict(self._counters)
            snapshot["cache_entries"] = len(self._entries)
            snapshot["cache_bytes"] = self._bytes
            return snapshot

    @property
    def total_bytes(self) -> int:
        with self._lock:
            return self._bytes

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)


class WorkerServer:
    """Worker-side loop of the distributed executor.

    A worker serves one coordinator connection at a time, as a
    :class:`_WorkerConnection` with three threads: a **reader** receives
    frames and dispatches every message through one handler table, which
    queues tasks and completes pending fetches with their ``artifact``
    replies — an **executor loop** (the
    calling thread) pops queued tasks and runs them via
    :func:`run_serialized_task`, answering with a ``result`` or an encodable
    ``error``, and a **heartbeat** thread beats every
    ``heartbeat_interval`` seconds so the coordinator can distinguish a
    busy worker from a dead one.  Frames use the canonical zero-copy
    encoding, one message per frame.  One connection can carry several
    multiplexed run *sessions* (every task-related frame carries a session
    id).  Tasks run in arrival order: the coordinator already interleaves
    sessions round-robin, and a worker holds at most ``pipeline_depth``
    tasks of the one coordinator it serves.  Task
    inputs shipped as :class:`~repro.storage.serialization.ArtifactRef` are
    resolved through the worker's **content-addressed artifact tier** — a
    session-spanning, byte-bounded LRU (:class:`_ArtifactCache`) keyed on
    canonical signatures, so concurrent runs with overlapping pipelines
    share one materialized copy per artifact.  A miss costs one ``fetch``
    round trip to the coordinator, which streams the blob from the run's
    store.  The loop exits on a
    ``shutdown`` message, when the connection closes, or on the first
    malformed message.

    :meth:`serve` serves one connected socket.  A locally spawned worker
    serves its end of the socket pair its coordinator made for it;
    :meth:`listen` binds ``host:port`` and serves the coordinators that
    connect, one at a time — the pre-started remote workers (``python -m
    repro.execution.worker``) a coordinator reaches via
    ``DistributedExecutor(workers=["host:port", ...])``.

    Parameters
    ----------
    worker_id:
        Identity announced at registration; defaults to ``pid<os.getpid()>``.
    heartbeat_interval:
        Seconds between heartbeats.
    fetch_timeout:
        Seconds to wait for the coordinator to answer an artifact fetch
        before failing the task that needs it.
    cache_bytes:
        Byte budget of the shared artifact cache tier (``None`` = the
        :data:`_WORKER_CACHE_BYTES` default); its entry cap is
        :data:`_WORKER_CACHE_ENTRIES`.
    """

    def __init__(
        self,
        worker_id: Optional[str] = None,
        heartbeat_interval: float = 0.5,
        fetch_timeout: float = 60.0,
        cache_bytes: Optional[int] = None,
    ) -> None:
        if heartbeat_interval <= 0:
            # Mirrors the coordinator-side check: stop.wait(0) would turn
            # the heartbeat thread into a busy loop flooding the socket.
            raise ExecutionError("heartbeat_interval must be positive")
        if fetch_timeout <= 0:
            raise ExecutionError("fetch_timeout must be positive")
        if cache_bytes is not None and cache_bytes < 1:
            raise ExecutionError("cache_bytes must be positive")
        self.worker_id = worker_id if worker_id is not None else f"pid{os.getpid()}"
        self.heartbeat_interval = heartbeat_interval
        self.fetch_timeout = fetch_timeout
        #: The session-spanning artifact tier.  Lives on the *server*, not
        #: the connection: a listen-mode worker keeps it warm across
        #: coordinator sessions, which is where cross-run reuse comes from.
        self.cache = _ArtifactCache(
            max_bytes=cache_bytes if cache_bytes is not None else _WORKER_CACHE_BYTES,
        )

    def serve(self, sock: socket.socket) -> None:
        """Register on a connected coordinator socket, then serve it, as a
        :class:`_WorkerConnection`, until shutdown, disconnect or a
        malformed message."""
        _WorkerConnection(self, sock).serve()

    @classmethod
    def listen(
        cls,
        host: str = "127.0.0.1",
        port: int = 0,
        worker_id: Optional[str] = None,
        heartbeat_interval: float = 0.5,
        fetch_timeout: float = 60.0,
        max_sessions: Optional[int] = None,
        on_ready: Optional[Callable[[str, int], None]] = None,
        cache_bytes: Optional[int] = None,
    ) -> None:
        """Bind ``host:port`` and serve coordinator sessions, one at a time.

        This is the remote-worker entry point (wrapped by ``python -m
        repro.execution.worker``): a coordinator configured with
        ``workers=["host:port", ...]`` connects in, receives the worker's
        registration as the first frame, and then drives the exact same
        protocol as over a locally spawned worker's socket pair.  When a
        session ends (the coordinator shuts down or disconnects) the worker
        loops back to ``accept`` and serves the next coordinator, so one
        long-lived worker process survives many runs.

        ``port=0`` binds an ephemeral port; ``on_ready(host, port)`` is
        invoked with the bound address before the first ``accept`` (tests
        and launchers use it to learn the port).  ``max_sessions`` bounds
        the number of coordinator sessions served (``None`` = forever).
        The worker's artifact cache tier lives on the server, not the
        connection, so cached artifacts survive from one coordinator
        session into the next.
        """
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((host, port))
        listener.listen(1)
        bound_host, bound_port = listener.getsockname()[:2]
        server = cls(
            worker_id=worker_id,
            heartbeat_interval=heartbeat_interval,
            fetch_timeout=fetch_timeout,
            cache_bytes=cache_bytes,
        )
        if on_ready is not None:
            on_ready(bound_host, bound_port)
        served = 0
        try:
            while max_sessions is None or served < max_sessions:
                conn, _ = listener.accept()
                try:
                    server.serve(conn)
                except (OSError, ProtocolError):
                    pass  # coordinator vanished mid-session; await the next one
                served += 1
        finally:
            listener.close()


class _WorkerConnection:
    """One coordinator connection of a :class:`WorkerServer` (threads: see there).

    Pending fetches are kept per run session and released on the
    coordinator's ``close_session`` frame; the artifact
    cache tier is deliberately *not* — it is content-addressed (entries can
    never go stale), session-spanning, and bounded by its own LRU budget.
    Registration and heartbeats stay per-connection — liveness is a
    property of the transport, not of any one session.
    """

    #: Inbound message kind -> handler method name, looked up per message.
    #: The reader itself ends the session on ``shutdown``; any other kind is
    #: a protocol violation that ends it too.
    _HANDLERS = {
        "task": "_on_task",
        "artifact": "_on_artifact",
        "close_session": "_on_close_session",
    }

    def __init__(self, server: WorkerServer, sock: socket.socket) -> None:
        self.server = server
        self.cache = server.cache
        self.sock = sock
        self.send_lock = threading.Lock()
        self.stop = threading.Event()
        self.wake = threading.Condition()
        # Received ``(session, key, payload)`` tasks, run in arrival order.
        self.tasks: Deque[Tuple[Any, str, bytes]] = deque()
        # Fetches awaiting their artifact reply, keyed by (session, signature).
        self._pending_lock = threading.Lock()
        self._pending: Dict[Tuple[Any, str], Future] = {}

    def _send(self, message: Tuple[Any, ...]) -> None:
        send_message(self.sock, message, self.send_lock)

    def serve(self) -> None:
        """Register, then run queued tasks until the session ends."""
        server = self.server
        _set_nodelay(self.sock)
        # Registration announces the worker's own heartbeat interval so a
        # coordinator whose heartbeat_timeout was derived from a *different*
        # interval can widen its silence threshold for this worker instead
        # of declaring a slow-beating (but healthy) remote worker dead.
        self._send(("register", server.worker_id, os.getpid(), server.heartbeat_interval))
        threading.Thread(
            target=self._heartbeat_loop, daemon=True, name=f"repro-dist-hb-{server.worker_id}"
        ).start()
        reader = threading.Thread(
            target=self._read, daemon=True, name=f"repro-dist-read-{server.worker_id}"
        )
        reader.start()
        try:
            while True:
                item = self._next_task()
                if item is None:
                    break
                self._run_task(*item)
        finally:
            self.stop.set()
            # close() alone does not wake a reader blocked in recv() (the
            # in-flight syscall keeps the connection alive), so the peer
            # would not see EOF until process exit; shutdown() unblocks the
            # reader and sends FIN immediately.
            _close_socket(self.sock)
            reader.join(timeout=2.0)

    def _beat(self) -> None:
        """One heartbeat; it carries the artifact-cache counters."""
        self._send(("heartbeat", self.server.worker_id, self.cache.stats()))

    def _heartbeat_loop(self) -> None:
        while not self.stop.wait(self.server.heartbeat_interval):
            try:
                self._beat()
            except OSError:
                return

    # ------------------------------------------------------------------ reader
    def _read(self) -> None:
        """Receive and dispatch frames until the session ends.

        Runs concurrently with task execution, so fetch replies and
        pipelined tasks arrive while a task runs.  A transport error and a
        malformed message alike end the session below, so the serve loop is
        always released.
        """
        try:
            while True:
                message = recv_message(self.sock)
                if message is None:
                    break
                if message[0] == "shutdown":
                    break
                getattr(self, self._HANDLERS[message[0]])(message)
        except Exception:  # noqa: BLE001 - transport error or malformed message
            pass
        self.stop.set()
        with self.wake:
            self.wake.notify_all()  # unblock the executor loop
        with self._pending_lock:
            for future in self._pending.values():
                future.cancel()  # the waiting task fails typed
            self._pending.clear()

    def _on_task(self, message: Tuple[Any, ...]) -> None:
        _, session, key, payload = message
        with self.wake:
            self.tasks.append((session, key, payload))
            self.wake.notify_all()

    def _on_artifact(self, message: Tuple[Any, ...]) -> None:
        """Complete the pending fetch this ``artifact`` frame answers."""
        _, session, signature, blob = message
        with self._pending_lock:
            future = self._pending.pop((session, signature), None)
        if future is not None:
            future.set_result(blob)

    def _on_close_session(self, message: Tuple[Any, ...]) -> None:
        """The coordinator drained the session and dropped it.

        Release its pending fetches.  No task of the session can still be
        queued here: ``DistributedSession.shutdown`` closes a session only
        after ``_drain_session`` has seen every one of its tasks answered.
        The artifact cache tier survives on purpose — it is content
        addressed (entries can never go stale) and bounded by its own LRU
        budget, and keeping it warm across sessions is what lets the next
        run reuse this one's artifacts.
        """
        _, session = message
        with self._pending_lock:
            for key in [k for k in self._pending if k[0] == session]:
                self._pending.pop(key).cancel()  # the waiting task fails typed
        # Flush final plane counters while the coordinator still has this
        # session's stats consumer attached (the periodic beat may lag the
        # session close by up to an interval).
        self._beat()

    # ------------------------------------------------------------------ executor loop
    def _next_task(self) -> Optional[Tuple[Any, str, bytes]]:
        """Pop the oldest received task; ``None`` once the session ends."""
        with self.wake:
            while True:
                if self.tasks:
                    return self.tasks.popleft()
                if self.stop.is_set():
                    return None
                self.wake.wait(timeout=0.5)

    def _run_task(self, session: Any, key: str, payload: bytes) -> None:
        """Run one task and answer with its ``result`` or ``error``."""
        pinned: List[str] = []
        try:
            reply = run_serialized_task(payload, resolve=partial(self._resolve, session, pinned))
        except BaseException as exc:  # noqa: BLE001 - shipped back typed
            # Interrupt/exit must still take the worker down: report the
            # failure best-effort, then re-raise instead of looping — a
            # Ctrl-C (or SystemExit) during task execution would otherwise
            # be encoded into a mere task error, leaving behind a worker
            # that refuses to die.
            fatal = isinstance(exc, (KeyboardInterrupt, SystemExit))
            try:
                self._send(("error", session, key, _encodable_error(key, exc)))
            except OSError:
                if not fatal:
                    raise  # coordinator gone; nobody to report to
            if fatal:
                raise
            return
        finally:
            # Inputs were pinned by the resolver so eviction could not drop
            # them mid-task; the task is over either way.
            for pinned_signature in pinned:
                self.cache.unpin(pinned_signature)
        try:
            self._send(("result", session, key, reply))
        except OSError:
            raise  # coordinator gone; nobody to report to
        except Exception as exc:  # noqa: BLE001 - e.g. reply over frame limit
            # The reply could not be framed (not a transport problem): report
            # it as a task error instead of dying and dragging the run
            # through pointless worker-death retries.
            self._send(
                ("error", session, key, OperatorError(key, f"result reply could not be framed: {exc}"))
            )

    # ------------------------------------------------------------------ artifact resolution
    def _ask(self, session: Any, signature: str) -> Optional[bytes]:
        """Send a ``fetch`` request and wait for its ``artifact`` reply's blob.

        Raises ``OSError`` when the request cannot be sent,
        :class:`CancelledError` when the session or the connection ends
        first, and :class:`FutureTimeoutError` after the server's
        ``fetch_timeout``; the pending entry never outlives the call.
        """
        key = (session, signature)
        future: Future = Future()
        with self._pending_lock:
            if self.stop.is_set():
                raise CancelledError
            self._pending[key] = future
        try:
            self._send(("fetch", self.server.worker_id, session, signature))
            return future.result(self.server.fetch_timeout)
        finally:
            with self._pending_lock:
                self._pending.pop(key, None)

    def _resolve(self, session: Any, pinned: List[str], signature: str) -> Any:
        """Resolve one :class:`ArtifactRef` input — cache tier, then one
        coordinator fetch — pinned for the task."""
        cache = self.cache
        hit, value = cache.get(signature, session=session)
        if not hit:
            try:
                blob = self._ask(session, signature)
            except FutureTimeoutError:
                raise ExecutionError(
                    f"coordinator did not answer the fetch of artifact "
                    f"{signature!r} within {self.server.fetch_timeout:g}s"
                ) from None
            except CancelledError:
                raise ExecutionError(
                    f"connection closed while fetching artifact {signature!r}"
                ) from None
            if blob is None:
                raise ExecutionError(
                    f"coordinator has no stored artifact for signature {signature!r}"
                )
            cache.count("coordinator_fetches")
            value = deserialize(blob)
            cache.put(signature, value, blob, session=session)
        cache.pin(signature)
        pinned.append(signature)
        return value


def _set_nodelay(sock: socket.socket) -> None:
    """Send small frames at once on a TCP socket (a socket pair has no Nagle
    delay to switch off, and an AF_UNIX socket refuses the option)."""
    if sock.family in (socket.AF_INET, socket.AF_INET6):
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)


def _close_socket(sock: socket.socket) -> None:
    """Send FIN, then close.

    ``close()`` alone only drops this process's descriptor: a worker forked
    later inherits a copy of the coordinator's end of every earlier socket
    pair, and while that copy is open the peer sees no EOF.  ``shutdown``
    ends the connection for every holder at once.
    """
    try:
        sock.shutdown(socket.SHUT_RDWR)
    except OSError:
        pass  # already disconnected
    sock.close()


def _distributed_worker_main(
    sock: socket.socket,
    coordinator_end: socket.socket,
    worker_id: str,
    heartbeat_interval: float,
    fetch_timeout: float = 60.0,
    cache_bytes: Optional[int] = None,
) -> None:
    """Entry point of a spawned worker process (module-level: spawn-safe).

    ``sock`` is this worker's end of the socket pair its coordinator made
    for it.  A forked child also inherits the coordinator's end; it is
    closed first, or the worker would hold its own peer open and never see
    EOF when the coordinator dies.
    """
    coordinator_end.close()
    WorkerServer(
        worker_id=worker_id,
        heartbeat_interval=heartbeat_interval,
        fetch_timeout=fetch_timeout,
        cache_bytes=cache_bytes,
    ).serve(sock)


class _SessionState:
    """Coordinator-side bookkeeping of one multiplexed run session.

    The fleet (:class:`DistributedExecutor`) dispatches from these
    per-session FIFO lanes round-robin, so concurrent runs interleave
    fairly instead of queuing behind each other, and answers workers'
    artifact fetches from the session's own bound store.  The executor's
    classic single-run API runs on one implicit default session; sessions
    only become visible when :meth:`DistributedExecutor.session` opens
    more.
    """

    __slots__ = ("session_id", "queue", "outstanding", "cancelling", "store", "open")

    def __init__(self, session_id: str):
        self.session_id = session_id
        self.queue: Deque["_DistributedTask"] = deque()
        self.outstanding = 0
        self.cancelling = False
        self.store: Optional[Any] = None
        self.open = True


class _DistributedTask:
    """One COMPUTE payload travelling through the coordinator."""

    __slots__ = ("session", "key", "payload", "results", "attempts", "done")

    def __init__(
        self,
        session: _SessionState,
        key: str,
        payload: bytes,
        results: "queue.Queue[Completion]",
    ):
        #: The run session this task belongs to — its FIFO lane,
        #: outstanding count, cancel flag and bound store live there.
        self.session = session
        self.key = key
        self.payload = payload
        #: The completion queue of the run that submitted this task.  Binding
        #: it at submit time makes delivery generation-safe: a straggler from
        #: a previous run posts into that run's discarded queue, never ours.
        self.results = results
        self.attempts = 0
        self.done = False


class _WorkerHandle:
    """Coordinator-side record of one worker (locally spawned or remote)."""

    __slots__ = (
        "worker_id", "process", "pid", "sock", "send_lock", "alive",
        "last_seen", "inflight", "address", "silence_timeout",
    )

    def __init__(self, worker_id: str):
        self.worker_id = worker_id
        self.process: Optional[multiprocessing.process.BaseProcess] = None
        self.pid: Optional[int] = None
        self.sock: Optional[socket.socket] = None
        self.send_lock = threading.Lock()
        self.alive = True
        self.last_seen = time.monotonic()
        #: Dispatched-but-unfinished tasks keyed by ``(session_id, key)`` —
        #: node names are only unique within a run, and concurrent sessions
        #: routinely run the same workflow.
        self.inflight: Dict[Tuple[str, str], _DistributedTask] = {}
        #: ``(host, port)`` of an address-configured remote worker;
        #: ``None`` for locally-spawned workers.
        self.address: Optional[Tuple[str, int]] = None
        #: Per-worker silence threshold, widened past the executor's
        #: ``heartbeat_timeout`` when the worker registered with a slower
        #: heartbeat interval than the coordinator assumed (``None`` =
        #: use the executor's timeout).
        self.silence_timeout: Optional[float] = None

    def send(self, message: Tuple[Any, ...]) -> None:
        send_message(self.sock, message, self.send_lock)


class DistributedExecutor(Executor):
    """COMPUTE tasks run on worker *processes* reached over sockets.

    Two worker-pool modes share one coordinator, which never listens:

    * **local spawn** (default) — the coordinator spawns ``max_workers``
      long-lived :class:`WorkerServer` processes, hands each one end of a
      ``socket.socketpair()``, and reads its registration from the other.
    * **remote (address-configured)** — ``workers=["host:port", ...]``
      names pre-started listening workers (``python -m
      repro.execution.worker``); the coordinator dials each address and
      reads its registration.  Remote workers have no local process handle,
      so heartbeat silence beyond ``heartbeat_timeout`` is authoritative
      for declaring them dead, and ``shutdown`` only closes their sessions
      (externally-managed processes are never reaped).

    Serialized COMPUTE chains are dispatched to workers as
    length-prefixed frames (wire format in
    :mod:`repro.storage.serialization`), **pipelined** up to
    ``pipeline_depth`` tasks per worker connection: while a worker executes
    task N the coordinator already serializes and frames task N+1 onto the
    same socket, hiding the framing round trip on short tasks.  Frames
    carry the canonical encoding and are gather-written (``sendmsg``) so
    NumPy-backed payload buffers are never copied into a contiguous frame;
    each dispatch is one ``("task", ...)`` frame.  Workers heartbeat while
    idle or busy and answer each task with one ``result`` frame: the
    serialized tuple of ``(value, measured_seconds)`` pairs, one per chain
    node (:func:`run_serialized_task`), deserialized here before delivery,
    so the engine applies the cost model exactly as in-process.

    Store access (the artifact plane): when ``fetch_inputs`` is active
    — the default for address-configured workers, which cannot assume the
    coordinator's filesystem — the engine ships store-resident COMPUTE
    inputs as :class:`~repro.storage.serialization.ArtifactRef`
    placeholders, and workers resolve them content-addressed by
    signature: from their own artifact cache tier, or else with one
    ``fetch`` request the coordinator answers from the session's store
    bound via :meth:`bind_store` (served on the I/O pool, so fetches never
    stall dispatch).  :meth:`artifact_plane_stats` aggregates both sides'
    counters.

    Failure handling: a worker that dies (socket EOF, dead process, or
    missed heartbeats for ``heartbeat_timeout`` seconds) has its in-flight
    tasks — the one executing and the ones pipelined behind it — requeued
    to surviving workers exactly once per death (a duplicate reply from a
    worker wrongly declared dead is dropped; first answer wins); a task
    dispatched ``_MAX_TASK_ATTEMPTS`` times without a reply — or orphaned
    when no worker survives — fails with an :class:`ExecutionError` naming
    it.  Operators must be pure and encodable by reference (replayed tasks
    re-run the operator, which is safe only because operators are pure
    functions of their inputs).

    LOAD tasks and all bookkeeping stay in the coordinating process.  Loads
    run on a small coordinator-side I/O thread pool (the same thread-safe
    substrate the thread executor uses) rather than the scheduler thread,
    so a slow store read never stalls COMPUTE dispatch to idle workers.
    ``start`` on a reused instance keeps surviving workers and respawns
    dead ones (local mode) or re-dials disconnected addresses (remote mode,
    best-effort), so a lifecycle amortizes worker startup; ``finish_run``
    drains without releasing the pool and ``shutdown`` sends every spawned
    worker a graceful ``shutdown`` frame before reaping it.  Workers are
    spawned with the platform's default multiprocessing start method (fast
    forks on Linux; the entry point is module-level, so spawn-based
    platforms work too).  On spawn-based platforms, operators whose results
    depend on per-process state (e.g. ``PYTHONHASHSEED``-randomized
    ``hash()``) can legitimately diverge from the in-process executors.

    Parameters
    ----------
    max_workers:
        Number of locally-spawned worker processes (default: one per
        core).  Rejected in combination with ``workers`` unless it equals
        the address count.
    workers:
        Remote worker addresses (``"host:port"`` strings or ``(host,
        port)`` pairs).  When given, no local workers are spawned; the
        coordinator connects to each address instead (retrying until
        ``_START_TIMEOUT`` on the first ``start``).
    pipeline_depth:
        Tasks dispatched onto one worker connection at a time (>= 1).  The
        default of 2 overlaps coordinator-side serialization/framing of the
        next task with worker-side execution of the current one; 1 restores
        strict one-task-per-worker dispatch.
    heartbeat_interval:
        Seconds between worker heartbeats (spawned workers inherit it;
        remote workers use the interval they were started with, announce it
        at registration, and get a correspondingly widened per-worker
        silence threshold when they beat slower than this coordinator
        assumed).  A worker silent (no frame of any kind) for
        ``heartbeat_timeout = max(5, 10 * heartbeat_interval)`` seconds is
        declared dead.  Socket EOF and process exit are detected
        immediately; for locally-spawned workers the process handle is
        authoritative, so silence alone never kills a provably-alive worker
        (a GIL-holding C call can starve the heartbeat thread).  For
        address-configured remote workers there is no process handle, so
        the timeout is authoritative.
    fetch_inputs:
        Whether store-resident COMPUTE inputs ship as artifact refs
        resolved over the FETCH lane.  ``None`` (default) enables it
        exactly when ``workers`` addresses are configured; pass ``True`` to
        exercise the lane with locally-spawned workers too.
    fetch_timeout:
        Seconds a locally-spawned worker waits for this coordinator to
        answer an artifact fetch before failing the task that needs it
        (remote workers use the ``--fetch-timeout`` they were started
        with).
    worker_cache_bytes:
        Byte budget of each locally-spawned worker's content-addressed
        artifact cache tier (default: the worker-side
        ``_WORKER_CACHE_BYTES`` bound; remote workers use the
        ``--cache-bytes`` they were started with).

    Several engines can share one executor's worker pool concurrently:
    :meth:`session` opens a :class:`DistributedSession` with its own
    completion queue, outstanding-task bookkeeping and bound store,
    dispatched fairly (round-robin across sessions, FIFO within each)
    and tagged with a session id on the wire.
    """

    name = "distributed"
    out_of_process = True

    def __init__(
        self,
        max_workers: Optional[int] = None,
        heartbeat_interval: float = 0.5,
        workers: Optional[Sequence[Union[str, Tuple[str, int]]]] = None,
        pipeline_depth: int = 2,
        fetch_inputs: Optional[bool] = None,
        fetch_timeout: float = 60.0,
        worker_cache_bytes: Optional[int] = None,
    ) -> None:
        super().__init__()
        self._io_pool: Optional[ThreadPoolExecutor] = None
        if max_workers is not None and max_workers < 1:
            raise ExecutionError("max_workers must be at least 1")
        self.worker_addresses: Optional[List[Tuple[str, int]]] = None
        if workers is not None:
            addresses = [parse_worker_address(spec) for spec in workers]
            if not addresses:
                raise ExecutionError(
                    "workers must name at least one host:port address"
                )
            if len(set(addresses)) != len(addresses):
                raise ExecutionError(
                    f"workers lists a duplicate address: {sorted(addresses)}"
                )
            if max_workers is not None and max_workers != len(addresses):
                raise ExecutionError(
                    f"max_workers ({max_workers}) conflicts with the "
                    f"{len(addresses)} explicit worker address(es); omit it"
                )
            self.worker_addresses = addresses
            max_workers = len(addresses)
        self.max_workers = (
            int(max_workers) if max_workers is not None else default_process_workers()
        )
        if pipeline_depth < 1:
            raise ExecutionError("pipeline_depth must be at least 1")
        if heartbeat_interval <= 0:
            raise ExecutionError("heartbeat_interval must be positive")
        if fetch_timeout <= 0:
            raise ExecutionError("fetch_timeout must be positive")
        if worker_cache_bytes is not None and worker_cache_bytes < 1:
            raise ExecutionError("worker_cache_bytes must be at least 1")
        self.worker_cache_bytes = worker_cache_bytes
        self.heartbeat_interval = heartbeat_interval
        #: Silence (no frame of any kind) after which a worker is declared
        #: dead: ten missed beats, and never under five seconds.
        self.heartbeat_timeout = max(5.0, 10.0 * heartbeat_interval)
        self.pipeline_depth = int(pipeline_depth)
        self.fetch_timeout = fetch_timeout
        self.uses_artifact_refs = (
            bool(fetch_inputs)
            if fetch_inputs is not None
            else self.worker_addresses is not None
        )

        self._lock = threading.Lock()
        self._cond = threading.Condition(self._lock)
        self._workers: Dict[str, _WorkerHandle] = {}
        self._stopping = False
        self._worker_seq = itertools.count()
        self._session_seq = itertools.count()
        #: Open sessions by id, in round-robin dispatch order (the session
        #: just served moves to the back).
        self._sessions: "OrderedDict[str, _SessionState]" = OrderedDict()
        self._default_session = self._open_session()
        self._stop_event = threading.Event()
        self._threads: List[threading.Thread] = []
        self._running = False
        #: Serializes pool bring-up: concurrent sessions may start() at the
        #: same time, and the threads/spawn sequence is not safe to run
        #: twice.
        self._start_lock = threading.Lock()
        self._remote_ready = False
        #: Per-address earliest next re-dial time: a dead remote host costs
        #: a full ``_CONNECT_TIMEOUT`` to probe, so non-strict healing skips it
        #: for a backoff window instead of stalling every start().
        self._remote_retry_at: Dict[Tuple[str, int], float] = {}
        #: Consecutive failed dials per address; drives the exponential
        #: re-dial backoff and resets to zero on a successful dial.
        self._remote_dial_failures: Dict[Tuple[str, int], int] = {}
        self._plane_lock = threading.Lock()
        #: Coordinator-side artifact-plane counters (see
        #: :meth:`artifact_plane_stats`).
        self._plane: Dict[str, int] = {"fetches_served": 0, "fetch_bytes_served": 0}
        #: Latest cache stats heartbeat per worker id.
        #: Deliberately never pruned on worker death or shutdown so the
        #: serve daemon can report cache reuse after the fleet stops.
        self._worker_plane: Dict[str, Dict[str, int]] = {}

    # ------------------------------------------------------------------ lifecycle
    def bind_store(self, store: Any) -> None:
        """Bind the engine's materialization store for the default session's
        FETCH lane (each :class:`DistributedSession` binds its own)."""
        self._default_session.store = store

    def start(self) -> None:
        """Open a run generation; bring the worker pool up to strength.

        Local-spawn mode: first use spawns ``max_workers`` workers; a
        reused instance keeps surviving workers and only respawns dead ones.
        Blocks until every spawned worker has registered or been dropped
        (``_START_TIMEOUT``), and raises when none registered.  Remote
        mode: dial every still-disconnected address — retrying until ``_START_TIMEOUT`` on a
        first start (which fails if any address stays unreachable); on
        reuse, reconnection is a best-effort single pass that warns about
        unreachable workers and proceeds as long as one survives.
        """
        super().start()
        self._ensure_workers()

    def _ensure_workers(self) -> None:
        """Bring the shared worker pool up to strength (thread-safe).

        Factored out of :meth:`start` so every :class:`DistributedSession`
        can call it from its own run thread; the start lock serializes
        concurrent session starts against each other (the pool is shared
        state, and the threads/spawn sequence must not run twice).
        """
        with self._start_lock:
            self._start_io_pool()
            first = not self._running
            if first:
                self._stopping = False
                self._stop_event.clear()
                self._threads = [
                    threading.Thread(target=loop, daemon=True, name=f"repro-dist-{label}")
                    for label, loop in (
                        ("dispatch", self._dispatch_loop), ("monitor", self._monitor_loop)
                    )
                ]
                for thread in self._threads:
                    thread.start()
                self._running = True
            with self._cond:
                for worker_id in [w for w, h in self._workers.items() if not h.alive]:
                    del self._workers[worker_id]
            if self.worker_addresses is not None:
                # Strictness is keyed on a *successful* first start, not on the
                # coordinator threads being up: a failed strict start must stay
                # strict on retry instead of silently downgrading to best-effort.
                self._connect_remote_workers(strict=not self._remote_ready)
                self._remote_ready = True
                return
            with self._cond:
                missing = self.max_workers - len(self._workers)
            self._register_spawned([self._spawn_worker() for _ in range(missing)])

    def submit(self, key: str, fn: Callable[[], Any]) -> None:
        """Run an in-process task (store LOAD) on the coordinator's I/O pool."""
        assert self._io_pool is not None, "executor used before start()"
        self._track(key, self._io_pool.submit(fn), self._deliver_future)

    def submit_payload(self, key: str, payload: bytes) -> None:
        """Queue one serialized COMPUTE task for dispatch to an idle worker."""
        self._submit(self._default_session, key, payload, self._results)

    def _submit(
        self,
        state: _SessionState,
        key: str,
        payload: bytes,
        results: "queue.Queue[Completion]",
    ) -> None:
        """Queue one COMPUTE task on a session's lane (shared dispatch)."""
        task = _DistributedTask(state, key, payload, results)
        with self._cond:
            if not self._running:
                raise ExecutionError("executor used before start()")
            if not any(handle.alive for handle in self._workers.values()):
                raise ExecutionError(
                    "distributed executor has no live workers to dispatch to"
                )
            state.outstanding += 1
            state.queue.append(task)
            self._cond.notify_all()

    def finish_run(self, cancel: bool = False) -> None:
        """Drain this run without releasing workers.

        Waits until every submitted task has been delivered (or, with
        ``cancel``, drops tasks still queued on the coordinator — matching
        the pool executors, a cancelled never-dispatched task produces no
        completion).  In-flight tasks always run to completion or to their
        worker's death.  Only the executor's own default session is
        drained; concurrent :class:`DistributedSession` runs are untouched
        (each drains itself).
        """
        super().finish_run(cancel=cancel)
        self._drain_session(self._default_session, cancel)

    def _drain_session(self, state: _SessionState, cancel: bool) -> None:
        with self._cond:
            if cancel:
                state.cancelling = True
                while state.queue:
                    task = state.queue.pop()
                    if task.done:
                        continue  # completed elsewhere while still queued
                    task.done = True
                    state.outstanding -= 1
            while state.outstanding > 0:
                self._cond.wait(timeout=0.1)
            state.cancelling = False
            self._cond.notify_all()

    def shutdown(self, cancel: bool = False) -> None:
        """Drain, then gracefully stop workers and release the transport.

        Every locally-spawned worker gets a ``shutdown`` frame and a grace
        period before being terminated; remote (address-configured) workers
        only have their session closed — their processes are externally
        managed and loop back to accept the next coordinator.  The
        coordinator threads are released.  The instance can be
        ``start``-ed again afterwards.

        Open :class:`DistributedSession` runs are drained with cancel
        first — closing the fleet under a running session is the owner's
        call to make, and nothing may be left waiting on completions.
        """
        if not self._running and self._io_pool is None:
            return
        self.finish_run(cancel=cancel)
        with self._cond:
            others = [
                s for s in self._sessions.values() if s is not self._default_session
            ]
        for state in others:
            self._drain_session(state, cancel=True)
        with self._cond:
            self._stopping = True
            handles = list(self._workers.values())
            self._workers.clear()
            self._cond.notify_all()
        self._stop_event.set()
        for handle in handles:
            if handle.sock is not None and handle.address is None:
                try:
                    handle.send(("shutdown",))
                except OSError:
                    pass
        for handle in handles:
            if handle.process is not None:
                handle.process.join(timeout=2.0)
                if handle.process.is_alive():
                    handle.process.terminate()
                    handle.process.join(timeout=1.0)
            if handle.sock is not None:
                _close_socket(handle.sock)
        for thread in self._threads:
            thread.join(timeout=2.0)
        self._threads = []
        self._running = False
        self._remote_ready = False
        self._remote_retry_at.clear()
        self._remote_dial_failures.clear()
        self._shutdown_io_pool(cancel)

    def _start_io_pool(self) -> None:
        if self._io_pool is None:
            self._io_pool = ThreadPoolExecutor(
                max_workers=min(4, self.max_workers), thread_name_prefix="repro-io"
            )

    def _shutdown_io_pool(self, cancel: bool = False) -> None:
        if self._io_pool is not None:
            self._io_pool.shutdown(wait=True, cancel_futures=cancel)
            self._io_pool = None

    # ------------------------------------------------------------------ sessions
    def session(self) -> "DistributedSession":
        """Open a new run session multiplexed onto this executor's workers.

        The returned :class:`DistributedSession` is a full executor whose
        tasks share this fleet's worker processes with every other open
        session (and with the fleet's own default session), dispatched
        round-robin.  The caller owns it: pass it to an engine or a
        ``System`` (engines only drain it between runs) and close it with
        its ``shutdown()`` when the run is over — the fleet stays up.
        """
        return DistributedSession(self)

    def _open_session(self) -> _SessionState:
        state = _SessionState(f"s{next(self._session_seq)}")
        with self._cond:
            self._sessions[state.session_id] = state
        return state

    def _close_session(self, state: _SessionState) -> None:
        with self._cond:
            state.open = False
            self._sessions.pop(state.session_id, None)
            handles = [
                h for h in self._workers.values()
                if h.alive and h.sock is not None
            ]
            self._cond.notify_all()
        # Tell every worker to drop the session's lane and pending fetches.
        # Without this frame a long-lived fleet (the ``repro serve`` daemon)
        # leaks per-run bookkeeping into every worker, since the connection
        # outlives the sessions multiplexed onto it.
        for handle in handles:
            try:
                handle.send(("close_session", state.session_id))
            except OSError:
                pass  # worker vanished; its connection state dies with it

    # ------------------------------------------------------------------ introspection
    def worker_pids(self) -> Dict[str, int]:
        """PIDs of currently-registered live workers, keyed by worker id.

        Remote workers report the pid they announced at registration —
        informational only (it belongs to another host's pid namespace) —
        under a ``host:port`` worker id.
        """
        with self._lock:
            return {
                worker_id: handle.pid
                for worker_id, handle in self._workers.items()
                if handle.alive and handle.pid is not None
            }

    # ------------------------------------------------------------------ workers
    def _spawn_worker(self) -> Tuple[_WorkerHandle, socket.socket]:
        """Start one worker process on one end of a new socket pair.

        Returns the worker's handle and the coordinator's end, from which
        :meth:`_register_spawned` reads the registration.
        """
        worker_id = f"w{next(self._worker_seq)}"
        handle = _WorkerHandle(worker_id)
        with self._cond:
            self._workers[worker_id] = handle
        ours, theirs = socket.socketpair()
        process = multiprocessing.get_context().Process(
            target=_distributed_worker_main,
            args=(
                theirs,
                ours,
                worker_id,
                self.heartbeat_interval,
                self.fetch_timeout,
                self.worker_cache_bytes,
            ),
            daemon=True,
            name=f"repro-dist-{worker_id}",
        )
        handle.process = process
        try:
            process.start()
        except BaseException:
            ours.close()
            raise
        finally:
            # Only the worker may hold its end: a death must read as EOF here.
            theirs.close()
        handle.pid = process.pid
        return handle, ours

    def _register_spawned(self, spawned: List[Tuple[_WorkerHandle, socket.socket]]) -> None:
        """Attach each spawned worker once it registers on its socket pair.

        A worker that dies, stays silent until ``_START_TIMEOUT`` or
        announces another id is dropped; this raises only when no worker
        of the pool is left alive.
        """
        deadline = time.monotonic() + _START_TIMEOUT
        for handle, sock in spawned:
            try:
                registration = self._read_registration(
                    sock, max(0.0, deadline - time.monotonic())
                )
            except Exception:  # noqa: BLE001 - a worker that cannot register is dropped
                self._worker_failed(handle)
                continue
            if registration[0] != handle.worker_id:
                _close_socket(sock)
                self._worker_failed(handle)
                continue
            self._attach(handle, sock, registration)
        with self._cond:
            if not any(h.alive for h in self._workers.values()):
                raise ExecutionError(
                    f"distributed executor: no worker registered within "
                    f"{_START_TIMEOUT:.0f}s"
                )

    def _connect_remote_workers(self, strict: bool) -> None:
        """Dial every address without a live connection.

        ``strict`` (until a start has fully succeeded): keep retrying until
        ``_START_TIMEOUT`` and raise if any address stays unreachable — a
        misconfigured address must fail loudly, and a worker that is still
        booting gets its grace period.  Non-strict (pool healing on reuse):
        one attempt per address; unreachable workers produce a warning, and
        the run proceeds on the survivors (raising only when none is left).

        Failed dials back off exponentially from ``_REDIAL_BACKOFF`` seconds
        (doubling per consecutive failure, capped at ``max(5, 2 *
        _CONNECT_TIMEOUT)``) and the counter resets on a successful dial whose
        worker is still registered when the pass ends — a worker that merely
        restarted between lifecycle iterations is picked back up on the next
        healing pass, while a host that stays dead (or a worker that
        registers and immediately dies) quickly escalates to the cap instead
        of costing a connect probe per start().
        """
        deadline = time.monotonic() + (_START_TIMEOUT if strict else 0.0)
        backoff_cap = max(5.0, 2.0 * _CONNECT_TIMEOUT)
        failures: Dict[str, BaseException] = {}
        attempted = False
        while True:
            missing = self._missing_remote_addresses()
            if not missing:
                return
            # The deadline gates every pass — including passes whose dials
            # all "succeeded" but whose workers died right after registering
            # (a crash-looping worker must not spin this loop forever).
            # Checked before the backoff filter so a pass that just failed
            # falls through to the warn/raise reporting below instead of
            # returning silently with the pool under strength.
            if attempted and time.monotonic() >= deadline:
                break
            if not strict:
                # Healing: skip addresses that failed a dial recently — a
                # dead host costs a full ``_CONNECT_TIMEOUT`` to probe, and a
                # System's lifecycle calls start() every iteration.
                # With no live worker at all there is nothing to run on,
                # so the backoff yields and every address is probed.
                with self._cond:
                    any_alive = any(h.alive for h in self._workers.values())
                if any_alive:
                    now = time.monotonic()
                    missing = [
                        a for a in missing
                        if self._remote_retry_at.get(a, 0.0) <= now
                    ]
                    if not missing:
                        return
            dialed = []
            for address in missing:
                label = f"{address[0]}:{address[1]}"
                try:
                    self._connect_remote(address)
                except (OSError, ExecutionError) as exc:
                    failures[label] = exc
                    self._note_dial_failure(address, backoff_cap)
                else:
                    failures.pop(label, None)
                    dialed.append(address)
            # A dial only resets the backoff if its worker is still
            # registered at the end of the pass: one that registered and
            # died straight away is a crash loop and must keep escalating.
            still_missing = set(self._missing_remote_addresses())
            progress = False
            for address in dialed:
                if address in still_missing:
                    self._note_dial_failure(address, backoff_cap)
                else:
                    self._remote_retry_at.pop(address, None)
                    self._remote_dial_failures.pop(address, None)
                    progress = True
            attempted = True
            if not progress and time.monotonic() < deadline:
                time.sleep(0.1)
        missing = self._missing_remote_addresses()
        if not missing:
            return  # the final pass connected everything after all
        unreachable = "; ".join(
            f"{address[0]}:{address[1]}: "
            f"{failures.get(f'{address[0]}:{address[1]}', 'worker connected but did not stay registered')}"
            for address in missing
        )
        if strict:
            raise ExecutionError(
                f"distributed executor: could not connect to "
                f"{len(missing)} of {len(self.worker_addresses)} remote "
                f"worker(s) within {_START_TIMEOUT:.0f}s — {unreachable}"
            )
        with self._cond:
            alive = sum(1 for h in self._workers.values() if h.alive)
        if alive == 0:
            raise ExecutionError(
                f"distributed executor: no remote worker is reachable — {unreachable}"
            )
        warnings.warn(
            f"distributed executor: proceeding with {alive} of "
            f"{len(self.worker_addresses)} remote workers; unreachable: {unreachable}",
            RuntimeWarning,
            stacklevel=3,
        )

    def _note_dial_failure(self, address: Tuple[str, int], backoff_cap: float) -> None:
        """Count one more consecutive failure and arm its exponential backoff."""
        count = self._remote_dial_failures.get(address, 0) + 1
        self._remote_dial_failures[address] = count
        backoff = min(backoff_cap, _REDIAL_BACKOFF * 2.0 ** (count - 1))
        self._remote_retry_at[address] = time.monotonic() + backoff

    def _missing_remote_addresses(self) -> List[Tuple[str, int]]:
        """Configured addresses without a live, registered connection."""
        with self._cond:
            connected = {h.address for h in self._workers.values() if h.alive}
        return [a for a in self.worker_addresses if a not in connected]

    def _silence_timeout_for(self, announced_interval: Optional[float]) -> Optional[float]:
        """Per-worker silence threshold given its announced heartbeat interval.

        A worker beating slower than this coordinator's own
        ``heartbeat_interval`` (e.g. a remote worker started with
        ``--heartbeat-interval 10``) would be declared dead between
        perfectly healthy beats under the configured ``heartbeat_timeout``,
        so the threshold widens to the same ``max(5, 10x interval)`` rule
        the constructor applies to its own interval.  ``None`` keeps the
        configured timeout (worker announced nothing, or beats at least as
        fast as assumed).
        """
        if announced_interval is None or announced_interval <= self.heartbeat_interval:
            return None
        return max(self.heartbeat_timeout, 5.0, 10.0 * announced_interval)

    def _connect_remote(self, address: Tuple[str, int]) -> None:
        """Dial one listening worker and adopt it on its registration."""
        sock = socket.create_connection(address, timeout=_CONNECT_TIMEOUT)
        # A peer that accepts but stays silent (e.g. a worker busy serving
        # another coordinator) must not wedge start() past its own deadline
        # handling.
        registration = self._read_registration(sock, _CONNECT_TIMEOUT)
        handle = _WorkerHandle(f"{address[0]}:{address[1]}")
        handle.address = address
        self._attach(handle, sock, registration)

    @staticmethod
    def _read_registration(sock: socket.socket, timeout: float) -> Tuple[Any, ...]:
        """Read a worker connection's first frame as its registration.

        The read is bounded by ``timeout``; on any failure — including a
        frame that is not a registration — the socket is closed and the
        error raised.
        """
        try:
            _set_nodelay(sock)
            sock.settimeout(timeout)
            registration = _parse_registration(recv_message(sock))
            if registration is None:
                raise ExecutionError(
                    "worker did not announce a registration (is it a "
                    "repro.execution.worker of the same protocol revision?)"
                )
            sock.settimeout(None)
        except BaseException:
            _close_socket(sock)
            raise
        return registration

    def _attach(
        self, handle: Optional[_WorkerHandle], sock: socket.socket, registration: Tuple[Any, ...]
    ) -> None:
        """Adopt a registered connection as ``handle``'s and start reading it.

        Refused — the socket is closed — when there is no such handle, it is
        dead or already connected, or the fleet is shutting down.
        """
        _, pid, announced_interval = registration
        with self._cond:
            adopt = (
                handle is not None and handle.alive and handle.sock is None
                and not self._stopping
            )
            if adopt:
                handle.sock = sock
                handle.pid = pid
                handle.silence_timeout = self._silence_timeout_for(announced_interval)
                handle.last_seen = time.monotonic()
                self._workers[handle.worker_id] = handle
                self._cond.notify_all()
        if not adopt:
            _close_socket(sock)
            return
        threading.Thread(
            target=self._receive_loop,
            args=(handle,),
            daemon=True,
            name=f"repro-dist-recv-{handle.worker_id}",
        ).start()

    # ------------------------------------------------------------------ coordinator loops
    def _dispatch_loop(self) -> None:
        """Move queued tasks onto workers with spare pipeline capacity.

        Each worker connection holds up to ``pipeline_depth`` dispatched
        tasks: while the worker executes one, the next is already framed
        onto its socket, so short tasks do not pay a full coordinator round
        trip each.  Tasks are
        drawn from the open sessions' FIFO lanes round-robin — the session
        just served rotates to the back — so concurrent runs multiplexed
        onto one fleet interleave fairly instead of queuing behind
        whichever run submitted first.  Each dispatch is one ``("task",
        ...)`` frame.
        """
        while True:
            with self._cond:
                worker = None
                task = None
                while not self._stopping:
                    if any(s.queue for s in self._sessions.values()):
                        worker = self._pick_available_worker()
                        if worker is not None:
                            task = self._next_task_locked()
                            if task is not None:
                                break
                    self._cond.wait(timeout=0.5)
                if self._stopping:
                    return
                task.attempts += 1
                worker.inflight[(task.session.session_id, task.key)] = task
            try:
                worker.send(("task", task.session.session_id, task.key, task.payload))
            except OSError:
                self._worker_failed(worker)
            except Exception as exc:  # noqa: BLE001 - e.g. unframeable payload
                # The frame never left this process (say, a payload above the
                # frame limit): that is a *task* failure, not a worker death —
                # fail the task, keep the worker and the loop alive.
                with self._cond:
                    worker.inflight.pop((task.session.session_id, task.key), None)
                    self._cond.notify_all()
                self._complete(
                    task,
                    None,
                    ExecutionError(
                        f"distributed task {task.key!r} could not be sent to "
                        f"worker {worker.worker_id!r}: {exc}"
                    ),
                )

    def _next_task_locked(self) -> Optional[_DistributedTask]:
        """Pop the next task round-robin across session lanes (lock held)."""
        for session_id in list(self._sessions):
            state = self._sessions[session_id]
            if state.queue:
                self._sessions.move_to_end(session_id)
                return state.queue.popleft()
        return None

    def _pick_available_worker(self) -> Optional[_WorkerHandle]:
        """The least-loaded live worker with pipeline capacity (lock held).

        Idle workers win over busy ones, so the frontier spreads one task
        per worker before any connection stacks a second pipelined task.
        Ties break by registration order, keeping dispatch deterministic.
        """
        best: Optional[_WorkerHandle] = None
        for handle in self._workers.values():
            if not (handle.alive and handle.sock is not None):
                continue
            load = len(handle.inflight)
            if load >= self.pipeline_depth:
                continue
            # Best-effort: skip a connection whose send lock is held right
            # now (e.g. an I/O-pool thread mid-way through a large artifact
            # reply), since dispatching to it would block the single
            # dispatch thread behind that transfer and starve the other
            # workers.  A transfer that *starts* between this probe and the
            # actual send can still block one dispatch — the probe narrows
            # that window, it does not close it.
            if not handle.send_lock.acquire(blocking=False):
                continue
            handle.send_lock.release()
            if load == 0:
                return handle
            if best is None or load < len(best.inflight):
                best = handle
        return best

    def _receive_loop(self, worker: _WorkerHandle) -> None:
        """Consume one worker's frames until its connection ends."""

        def _alive() -> None:
            # Fires per received chunk, mid-frame included: a worker pushing
            # a large result is provably alive even though its heartbeats
            # queue behind the transfer on its send lock — without this, a
            # frame taking longer than heartbeat_timeout would get a healthy
            # remote worker (no process handle to probe) declared dead.
            worker.last_seen = time.monotonic()

        # A transport error and a decodable frame with a nonsense message
        # shape (the peer is not speaking this protocol) both end the
        # connection here, never silently kill this receive thread while the
        # worker keeps looking healthy.
        try:
            while True:
                message = recv_message(worker.sock, on_progress=_alive)
                if message is None:
                    break
                worker.last_seen = time.monotonic()
                self._handle_worker_message(worker, message)
        except Exception:  # noqa: BLE001 - transport error or malformed message
            pass
        self._worker_failed(worker)

    #: Inbound worker message kind -> handler method name, looked up per
    #: message so a handler replaced on the class reaches running fleets.
    #: Registration is read before the receive loop starts; a kind missing
    #: here is a protocol violation that ends the connection.
    _WORKER_MESSAGES = {
        "result": "_task_finished",
        "error": "_task_finished",
        "fetch": "_on_fetch",
        "heartbeat": "_on_heartbeat",
    }

    def _handle_worker_message(self, worker: _WorkerHandle, message: Any) -> None:
        getattr(self, self._WORKER_MESSAGES[message[0]])(worker, message)

    def _on_fetch(self, worker: _WorkerHandle, message: Any) -> None:
        # Answered on the I/O pool (inline without one): a slow store read
        # must never stall this receive loop, which has to keep consuming
        # results and heartbeats.
        _, _, session_id, signature = message
        pool = self._io_pool
        if pool is None:
            self._answer_fetch(worker, session_id, signature)
        else:
            pool.submit(self._answer_fetch, worker, session_id, signature)

    def _on_heartbeat(self, worker: _WorkerHandle, message: Any) -> None:
        # Heartbeats piggyback the worker's artifact-cache counters; the
        # receive loop already refreshed last_seen.  Anything but the exact
        # 3-tuple with a dict ends the connection (the caller treats a raise
        # as a protocol violation).
        _, _, stats = message
        if not isinstance(stats, dict):
            raise ProtocolError("heartbeat stats must be a dict")
        with self._plane_lock:
            self._worker_plane[worker.worker_id] = dict(stats)

    def _answer_fetch(
        self, worker: _WorkerHandle, session_id: str, signature: str
    ) -> None:
        """Answer a worker's artifact fetch from the session's bound store.

        A missing artifact — or an unreadable/unframeable one — answers
        ``None``, which the worker turns into a typed task error; fetch
        serving never touches run statistics (it is transport, not a
        planned LOAD).
        """
        blob: Optional[bytes] = None
        with self._cond:
            state = self._sessions.get(session_id)
        # Concurrent sessions can bind different stores; the fetch must be
        # answered from the store of the session that shipped the ref.
        store = state.store if state is not None else None
        if store is not None:
            try:
                # The bound MaterializationStore forwards the bytes it holds
                # (``None`` on a miss) instead of deserializing and
                # re-serializing a potentially large value per fetch.
                blob = store.load_serialized(signature)
            except Exception:  # noqa: BLE001 - report as missing, task errors typed
                blob = None
        if blob is not None:
            # Accounted before the reply leaves: the task it unblocks can
            # complete — and its caller read these counters — before this
            # thread runs again.
            with self._plane_lock:
                self._plane["fetches_served"] += 1
                self._plane["fetch_bytes_served"] += len(blob)
        try:
            worker.send(("artifact", session_id, signature, blob))
        except OSError:
            pass  # worker death is handled by its receive loop / monitor
        except Exception:  # noqa: BLE001 - e.g. artifact above the frame limit
            try:
                worker.send(("artifact", session_id, signature, None))
            except OSError:
                pass

    def artifact_plane_stats(self) -> Dict[str, Any]:
        """Aggregate artifact-plane counters across coordinator and workers.

        Returns the coordinator's own counters (``fetches_served``,
        ``fetch_bytes_served``) merged with a sum over every worker's last
        heartbeat stats (``cache_hits``, ``cross_session_hits``,
        ``coordinator_fetches``, ``dedup_hits``, ...), plus the per-worker
        breakdown under ``"workers"``.  Worker stats survive worker death
        and fleet shutdown, so the serve daemon can report reuse after
        :meth:`shutdown`.
        """
        with self._plane_lock:
            stats: Dict[str, Any] = dict(self._plane)
            workers = {wid: dict(s) for wid, s in self._worker_plane.items()}
        totals: Dict[str, int] = {}
        for worker_stats in workers.values():
            for name, value in worker_stats.items():
                if isinstance(value, int):
                    totals[name] = totals.get(name, 0) + value
        stats.update(totals)
        stats["workers"] = workers
        return stats

    def _monitor_loop(self) -> None:
        """Declare workers dead on process exit or prolonged heartbeat silence."""
        while not self._stop_event.wait(min(0.2, self.heartbeat_interval)):
            with self._cond:
                if self._stopping:
                    return
                handles = list(self._workers.values())
            now = time.monotonic()
            for handle in handles:
                if not handle.alive:
                    continue
                process_dead = handle.process is not None and not handle.process.is_alive()
                threshold = (
                    handle.silence_timeout
                    if handle.silence_timeout is not None
                    else self.heartbeat_timeout
                )
                silent = (
                    handle.sock is not None
                    and now - handle.last_seen > threshold
                )
                # Silence alone is authoritative only when liveness cannot be
                # probed (no local process handle): a provably-alive worker
                # may just have its heartbeat thread starved by a GIL-holding
                # C call, and killing it would re-execute a healthy task.
                probeable = handle.process is not None
                if process_dead or (silent and not probeable):
                    self._worker_failed(handle)

    # ------------------------------------------------------------------ completion + failure
    def _task_finished(self, worker: _WorkerHandle, message: Any) -> None:
        """Retire a task on its ``result`` or ``error`` reply."""
        kind, session_id, key, payload = message
        with self._cond:
            task = worker.inflight.pop((session_id, key), None)
            self._cond.notify_all()  # the worker is idle again
        if task is None:
            return  # replay of a task already requeued elsewhere; first reply won
        if kind == "error":
            self._complete(task, None, payload)
            return
        try:
            outcome = deserialize(payload)
        except BaseException as exc:  # noqa: BLE001 - surfaced by the engine
            self._complete(task, None, exc)
        else:
            self._complete(task, outcome, None)

    def _complete(
        self, task: _DistributedTask, outcome: Any, error: Optional[BaseException]
    ) -> None:
        with self._cond:
            if task.done:
                return
            task.done = True
            task.session.outstanding -= 1
            self._cond.notify_all()
        task.results.put((task.key, outcome, error))

    def _worker_failed(self, worker: _WorkerHandle) -> None:
        """Retire a dead worker; requeue or fail its in-flight tasks.

        With pipelining a death can orphan several tasks at once — the one
        the worker was executing plus the ones queued on its connection.
        Each orphan is requeued exactly once, at the front of the queue in its original dispatch order; the
        ``task.done`` guard and the ``inflight.pop`` in ``_task_finished``
        ensure a straggler reply from a worker wrongly declared dead can
        never retire a task a second time.
        """
        failures: List[_DistributedTask] = []
        requeue: "OrderedDict[str, List[_DistributedTask]]" = OrderedDict()
        with self._cond:
            if not worker.alive:
                return
            worker.alive = False
            orphans = list(worker.inflight.values())
            worker.inflight.clear()
            survivors = any(h.alive for h in self._workers.values())
            for task in orphans:
                if task.done:
                    continue
                if task.session.cancelling:
                    # The run is being torn down: drop silently, like a
                    # cancelled future (nobody reads this run's completions).
                    task.done = True
                    task.session.outstanding -= 1
                elif task.attempts >= _MAX_TASK_ATTEMPTS or not survivors:
                    failures.append(task)
                else:
                    requeue.setdefault(task.session.session_id, []).append(task)
            # Orphans go back to the *front* of their own session's lane,
            # in original dispatch order, so a death never reorders a run.
            for session_id, tasks in requeue.items():
                state = self._sessions.get(session_id)
                if state is None:
                    state = tasks[0].session  # session closed mid-flight
                state.queue.extendleft(reversed(tasks))
            if not survivors:
                # No worker left to drain the queues: fail queued tasks too,
                # or the engines would wait forever on completions.
                for state in self._sessions.values():
                    while state.queue:
                        failures.append(state.queue.popleft())
            self._cond.notify_all()
        if worker.sock is not None:
            _close_socket(worker.sock)
        if worker.process is not None and not worker.process.is_alive():
            worker.process.join(timeout=0.1)
        for task in failures:
            self._complete(
                task,
                None,
                ExecutionError(
                    f"distributed task {task.key!r} failed after {task.attempts} "
                    f"dispatch attempt(s): worker {worker.worker_id!r} died holding it and "
                    f"{'no retry budget remains' if task.attempts >= _MAX_TASK_ATTEMPTS else 'no worker survives to retry it'}"
                ),
            )


class DistributedSession(Executor):
    """One multiplexed run session on a shared :class:`DistributedExecutor`.

    Opened with :meth:`DistributedExecutor.session`, a session implements
    the full executor contract — ``start`` / ``submit`` /
    ``submit_payload`` / ``next_completion`` / ``finish_run`` — against its
    *own* completion queue, outstanding-task bookkeeping and bound store,
    while every session's COMPUTE tasks share the fleet's worker processes
    (dispatched round-robin across sessions and tagged with the session id
    on the wire).  That is what lets several engines — e.g. the ``repro
    serve`` daemon's concurrent runs — execute on one warm worker pool at
    the same time without their completions, fetches or drains
    interfering.

    Sessions are caller-owned executor instances in the sense of
    ``docs/executors.md``: engines drain them with ``finish_run``, and the
    opener runs the final :meth:`shutdown`, which closes *only this
    session* — the fleet and its workers stay up for other sessions (the
    fleet's owner calls ``fleet.shutdown()`` at the very end).  ``start``
    transparently heals the shared pool, exactly like the fleet's own
    ``start``.
    """

    out_of_process = True

    def __init__(self, fleet: DistributedExecutor) -> None:
        super().__init__()
        self.name = "distributed-session"
        self._fleet = fleet
        self._state = fleet._open_session()
        self.max_workers = fleet.max_workers
        self.uses_artifact_refs = fleet.uses_artifact_refs

    @property
    def session_id(self) -> str:
        """Wire-level id tagging this session's frames (``"s<n>"``)."""
        return self._state.session_id

    @property
    def fleet(self) -> DistributedExecutor:
        """The shared executor whose workers run this session's tasks."""
        return self._fleet

    def bind_store(self, store: Any) -> None:
        """Bind the store this session's artifact fetches are served from."""
        self._state.store = store

    def start(self) -> None:
        if not self._state.open:
            raise ExecutionError(
                "distributed session is closed; open a new one with "
                "DistributedExecutor.session()"
            )
        super().start()
        self._fleet._ensure_workers()

    def submit(self, key: str, fn: Callable[[], Any]) -> None:
        """Run an in-process task (store LOAD) on the fleet's I/O pool."""
        pool = self._fleet._io_pool
        if pool is None:
            # Typed like the submit_payload path — and unlike an assert,
            # still raised under ``python -O``.
            raise ExecutionError("session used before start()")
        self._track(key, pool.submit(fn), self._deliver_future)

    def submit_payload(self, key: str, payload: bytes) -> None:
        self._fleet._submit(self._state, key, payload, self._results)

    def finish_run(self, cancel: bool = False) -> None:
        super().finish_run(cancel=cancel)
        self._fleet._drain_session(self._state, cancel)

    def shutdown(self, cancel: bool = False) -> None:
        """Drain and close this session; the fleet stays up."""
        if not self._state.open:
            return
        self.finish_run(cancel=cancel)
        self._fleet._close_session(self._state)


_EXECUTORS: Dict[str, Type[Executor]] = {
    InlineExecutor.name: InlineExecutor,
    ThreadExecutor.name: ThreadExecutor,
    DistributedExecutor.name: DistributedExecutor,
}


def create_executor(
    name: str = "inline",
    max_workers: Optional[int] = None,
    workers: Optional[Sequence[Union[str, Tuple[str, int]]]] = None,
) -> Executor:
    """Build a new executor from its name (one of :data:`EXECUTOR_NAMES`).

    The caller owns the result and runs its final ``shutdown()``.
    ``workers=["host:port", ...]`` selects the distributed executor's remote
    (address-configured) mode and is rejected for every other name.
    """
    if name not in EXECUTOR_NAMES:
        raise ExecutionError(
            f"unknown executor {name!r}; expected one of {list(EXECUTOR_NAMES)}"
        )
    cls = _EXECUTORS[name]
    if workers is None:
        return cls(max_workers=max_workers)
    if cls is not DistributedExecutor:
        raise ExecutionError(
            f"workers=[\"host:port\", ...] is only valid for the "
            f"distributed executor, not {name!r}"
        )
    return cls(max_workers=max_workers, workers=workers)
