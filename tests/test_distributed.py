"""Distributed executor: wire format, worker lifecycle, failure handling.

The distributed executor dispatches serialized COMPUTE payloads to
long-lived worker processes over TCP sockets.  This suite pins down the
pieces the other executors do not have:

* **Wire format** — length-prefixed frames with a magic + protocol-version
  header round-trip over real sockets; a version mismatch, bad magic,
  truncated frame or mid-frame disconnect raises a typed
  :class:`ProtocolError`; a clean close between frames reads as
  end-of-stream.
* **Equivalence** — the distributed strategy produces run statistics
  identical to the inline reference on the synthetic matrix and on a real
  (census) lifecycle, including while a worker is killed mid-run and its
  tasks are requeued to a survivor.
* **Remote workers** — address-configured pools (``workers=["host:port"]``
  dialing pre-started listening ``WorkerServer``s, incl. the ``python -m
  repro.execution.worker`` entrypoint) pass the same equivalence matrix as
  a fifth column, survive a worker kill mid-run, and fail fast on an
  unreachable address.
* **Pipelined dispatch** — each worker connection holds up to
  ``pipeline_depth`` tasks; killing a worker with one in-flight and one
  queued pipelined task requeues both exactly once (no duplicate
  completions) and still matches the inline reference.
* **Stage dispatch** — a chain of computed nodes (each the only consumer
  of the one before) travels as one task: chains are detected as
  specified, the engine submits one payload per chain, a mid-chain
  failure names its node, a requeued chain completes every node once, and
  storage stays exactly equal across the executor matrix.
* **Artifact FETCH lane** — store-resident inputs ship as
  :class:`ArtifactRef` placeholders that workers resolve from the
  coordinator's bound store; a missing artifact fails the task with a
  typed error instead of killing the worker.
* **Failure handling** — a task whose worker keeps dying fails after
  bounded dispatch attempts with an :class:`ExecutionError` naming it; a
  worker crash mid-operator does not lose the task.
* **Drain + shutdown** — ``finish_run`` drains without releasing workers,
  ``shutdown`` reaps every worker process and the listener, and a
  subsequent ``start`` heals the pool back to full strength.
* **System-owned executors** — a System configured *by name* owns one
  executor reused across lifecycle iterations, closed by
  ``close_executor``/``with system:``/reconfigure; an instance stays
  caller-owned.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import queue
import signal
import socket
import sys
import threading
import time
import warnings

import pytest

import repro.execution.executors as executors_module
from repro.core.dag import Node, WorkflowDAG
from repro.core.operators import Operator, RunContext
from repro.core.signatures import compute_node_signatures
from repro.exceptions import ExecutionError, OperatorError, ProtocolError
from repro.execution.clock import SimulatedCostModel
from repro.execution.engine import ExecutionEngine
from repro.execution.equivalence import (
    assert_equivalent_runs,
    assert_executors_equivalent,
)
from repro.execution.executors import (
    EXECUTOR_NAMES,
    DistributedExecutor,
    WorkerServer,
    _ArtifactCache,
    _encodable_error,
    _parse_registration,
    parse_worker_address,
    run_serialized_task,
)
from repro.experiments.runner import run_lifecycle
from repro.optimizer.metrics import StatsStore
from repro.optimizer.oep import ExecutionPlan, NodeState, solve_oep
from repro.optimizer.omp import StreamingMaterializationPolicy
from repro.storage import canonical
from repro.storage.serialization import (
    ArtifactRef,
    FRAME_MAGIC,
    PROTOCOL_VERSION,
    decode_frame,
    deserialize,
    encode_frame,
    message_segments,
    recv_frame,
    recv_message,
    send_frame,
    send_message,
    serialize,
)
from repro.storage.store import InMemoryStore
from repro.systems.helix import HelixSystem
from repro.workloads.synthetic import make_cpu_dag, make_random_dag, make_wide_dag

from conftest import UNPICKLED, ConstOperator, FailingOperator, SumOperator, UnpickleTripwire

INF = float("inf")


class WorkerSuicideOperator(Operator):
    """Kills its own worker process before replying — every attempt fails."""

    def config(self):
        return {}

    def run(self, inputs, context):
        os._exit(17)


class InterruptOperator(Operator):
    """Raises KeyboardInterrupt mid-task, like a Ctrl-C hitting the worker."""

    def config(self):
        return {}

    def run(self, inputs, context):
        raise KeyboardInterrupt


def _task_payload(*nodes, inputs=()):
    """One serialized task as the engine ships it: a chain of ``(name,
    operator)`` nodes in order, whose head runs on ``inputs``."""
    names, operators = zip(*nodes)
    return serialize((names, operators, list(inputs), RunContext()))


def _all_compute_plan(dag: WorkflowDAG):
    return solve_oep(
        dag,
        {name: 1.0 for name in dag.node_names},
        {name: INF for name in dag.node_names},
        forced_compute=dag.node_names,
    )


def _engine_for(executor=None, **kwargs):
    """An engine wired like the equivalence rig (deterministic cost model)."""
    return ExecutionEngine(
        store=InMemoryStore(),
        policy=StreamingMaterializationPolicy(),
        cost_model=SimulatedCostModel(),
        stats=StatsStore(),
        executor=executor,
        **kwargs,
    )


def _listen_worker_main(port_queue, worker_id=None, heartbeat_interval=0.5, port=0):
    """Entry point of a pre-started listening worker (module-level: spawn-safe)."""
    WorkerServer.listen(
        "127.0.0.1", port, worker_id=worker_id,
        heartbeat_interval=heartbeat_interval,
        on_ready=lambda _host, bound_port: port_queue.put(bound_port),
    )


def _start_listening_workers(count):
    """Start ``count`` listening worker processes; return (processes, addresses).

    ``addresses[i]`` is the listener of ``processes[i]``: each worker's port
    is read before the next one starts.  (Reading them after starting all
    of them pairs ports in readiness order, which under load is not start
    order — a test would then kill one worker and watch another's address.)
    """
    ctx = multiprocessing.get_context()
    port_queue = ctx.Queue()
    processes = []
    addresses = []
    for _ in range(count):
        process = ctx.Process(target=_listen_worker_main, args=(port_queue,), daemon=True)
        process.start()
        processes.append(process)
        addresses.append(f"127.0.0.1:{port_queue.get(timeout=10)}")
    return processes, addresses


def _frame_at(version, payload):
    """``payload`` framed under an arbitrary protocol version header — what a
    peer at another library revision puts on the wire (this process only
    ever stamps :data:`PROTOCOL_VERSION`)."""
    frame = bytearray(encode_frame(payload))
    frame[2:4] = version.to_bytes(2, "big")
    return bytes(frame)


def _canonical_payload(body):
    """A current-format canonical payload around a hand-written ``body``."""
    payload = bytearray(canonical.CANONICAL_MAGIC)
    payload.append(canonical.CANONICAL_VERSION)
    payload.append(0)  # no out-of-band buffers
    canonical._write_uvarint(payload, len(body))
    return bytes(payload + body)


def _refused_as_bytes_and_as_a_frame(payload, match):
    with pytest.raises(ProtocolError, match=match):
        deserialize(payload)
    left, right = socket.socketpair()
    try:
        left.sendall(encode_frame(payload))
        with pytest.raises(ProtocolError, match=match):
            recv_message(right)
    finally:
        left.close()
        right.close()


def _reap(processes):
    for process in processes:
        if process.is_alive():
            process.terminate()
        process.join(timeout=2.0)


# ---------------------------------------------------------------------------
# Wire format
# ---------------------------------------------------------------------------
class TestWireFormat:
    def test_frame_round_trip_in_memory(self):
        payload = serialize({"node": "n0", "value": list(range(50))})
        assert decode_frame(encode_frame(payload)) == payload

    def test_frame_round_trip_over_socket(self):
        left, right = socket.socketpair()
        try:
            payloads = [b"", b"x", serialize(("task", "n0", b"blob"))]
            for payload in payloads:
                send_frame(left, payload)
            for payload in payloads:
                assert recv_frame(right) == payload
        finally:
            left.close()
            right.close()

    def test_clean_close_reads_as_end_of_stream(self):
        left, right = socket.socketpair()
        send_frame(left, b"last")
        left.close()
        try:
            assert recv_frame(right) == b"last"
            assert recv_frame(right) is None
        finally:
            right.close()

    def test_protocol_version_mismatch_rejected(self):
        frame = _frame_at(PROTOCOL_VERSION + 1, b"payload")
        with pytest.raises(ProtocolError, match="version mismatch"):
            decode_frame(frame)
        left, right = socket.socketpair()
        try:
            left.sendall(frame)
            with pytest.raises(ProtocolError, match="version mismatch"):
                recv_frame(right)
        finally:
            left.close()
            right.close()

    def test_bad_magic_rejected(self):
        frame = bytearray(encode_frame(b"payload"))
        frame[:2] = b"ZZ"
        with pytest.raises(ProtocolError, match="magic"):
            decode_frame(bytes(frame))

    def test_truncated_frame_rejected(self):
        frame = encode_frame(b"payload")
        with pytest.raises(ProtocolError):
            decode_frame(frame[:-3])
        with pytest.raises(ProtocolError):
            decode_frame(frame[:4])

    def test_mid_frame_disconnect_raises(self):
        left, right = socket.socketpair()
        frame = encode_frame(b"x" * 100)
        left.sendall(frame[:20])
        left.close()
        try:
            with pytest.raises(ProtocolError, match="mid-frame"):
                recv_frame(right)
        finally:
            right.close()

    def test_header_constants_are_stable(self):
        """The on-wire header layout is a compatibility contract."""
        frame = encode_frame(b"abc")
        assert frame[:2] == FRAME_MAGIC
        assert int.from_bytes(frame[2:4], "big") == PROTOCOL_VERSION
        assert int.from_bytes(frame[4:8], "big") == 3

    def test_a_payload_naming_an_unimported_module_never_imports_it(
        self, tmp_path, monkeypatch
    ):
        """A module the process has not imported, named as an object layout
        and as a reference, is refused; its top-level code never runs."""
        module = "helix_planted_module"
        marker = tmp_path / "imported"
        (tmp_path / f"{module}.py").write_text(
            f"open({str(marker)!r}, 'w').close()\n\n\nclass Planted:\n    pass\n"
        )
        monkeypatch.syspath_prepend(str(tmp_path))
        definition = bytearray()
        canonical._raw_str(definition, module)
        canonical._raw_str(definition, "Planted")
        definition.append(0)  # no attribute names
        for tag in (b"o", b"R"):  # definition slot 0, then its definition
            _refused_as_bytes_and_as_a_frame(
                _canonical_payload(tag + b"\x00" + definition),
                f"module '{module}', which this process has not imported",
            )
        assert not marker.exists()
        assert module not in sys.modules
        __import__(module)  # the planted module is live: importing it does run it
        assert marker.exists()
        del sys.modules[module]

    def test_a_ufunc_travels_as_its_reference(self):
        import numpy as np

        packed = canonical.encode({"fn": np.log})
        assert canonical.decode(packed)["fn"] is np.log
        assert canonical.encode(canonical.decode(packed)) == packed
        assert deserialize(serialize(np.add)) is np.add

    def test_a_reference_that_does_not_resolve_is_a_protocol_error(self):
        """A ``numpy`` name that is missing, or that is no class, function or
        ufunc, is a typed refusal — never a ``TypeError`` from a constructor."""
        for qualname in ("no_such_ufunc", "pi"):
            definition = bytearray()
            canonical._raw_str(definition, "numpy")
            canonical._raw_str(definition, qualname)
            definition.append(0)  # no attribute names
            _refused_as_bytes_and_as_a_frame(
                _canonical_payload(b"R\x00" + definition),
                f"references numpy:{qualname}, which does not resolve",
            )

    def test_a_body_tagged_p_is_an_unknown_tag_never_unpickled(self):
        """The former pickle tag, around an unpickle tripwire laid out as it
        was (no out-of-band buffers, then an inline blob), is no tag at all."""
        raw = pickle.dumps(UnpickleTripwire(), protocol=5)
        body = bytearray(b"P\x00\x00")
        canonical._write_uvarint(body, len(raw))
        body += raw
        _refused_as_bytes_and_as_a_frame(_canonical_payload(bytes(body)), "unknown type tag 0x50")
        assert UNPICKLED == []


class _NotRebuiltError(Exception):
    """Its ``__reduce__`` rebuilds a plain ``ValueError``, not itself."""

    def __reduce__(self):
        return (ValueError, self.args)


class TestErrorsAcrossTheWire:
    """A worker's ``error`` reply carries its exception by class reference,
    args and state — or, when that cannot rebuild it, an OperatorError."""

    @staticmethod
    def _arrived(error):
        message = ("error", "s0", "n0", _encodable_error("n0", error))
        return deserialize(serialize(message))[3]

    def test_errors_keep_their_class_args_and_state(self):
        arrived = self._arrived(OperatorError("n0", "boom"))
        assert type(arrived) is OperatorError
        assert (arrived.node_name, arrived.message) == ("n0", "boom")
        assert type(self._arrived(KeyboardInterrupt())) is KeyboardInterrupt
        noted = ValueError("bad value", 3)
        noted.hint = "check the input"
        arrived = self._arrived(noted)
        assert (type(arrived), arrived.args, arrived.hint) == (ValueError, ("bad value", 3), "check the input")

    def test_an_error_without_an_encoding_arrives_as_operator_error(self):
        not_rebuilt = _NotRebuiltError("not rebuilt")
        closure_arg = ValueError("closure arg", lambda: None)
        for error in (not_rebuilt, closure_arg):
            with pytest.raises(TypeError):
                serialize(error)
            arrived = self._arrived(error)
            assert type(arrived) is OperatorError and arrived.node_name == "n0"
            assert repr(error.args[0]) in arrived.message


# ---------------------------------------------------------------------------
# Wire protocol: canonical payloads, one version, one message per frame, fuzz
# ---------------------------------------------------------------------------
class TestWireProtocolV4:
    """The wire protocol: canonical zero-copy payloads under exactly one
    protocol version, one message per frame — and the fuzz contract that
    every malformed input surfaces as a typed error, never a dead worker."""

    def test_v4_frame_is_header_plus_canonical_payload(self):
        """The gather-write segments join to exactly the packed frame."""
        message = ("task", "s0", "n0", b"payload-bytes")
        joined = b"".join(bytes(s) for s in message_segments(message))
        assert joined == encode_frame(serialize(message))
        assert joined[:2] == FRAME_MAGIC
        assert int.from_bytes(joined[2:4], "big") == PROTOCOL_VERSION

    def test_send_and_recv_round_trip_and_end_of_stream(self):
        """``recv_message`` returns exactly the message sent, and ``None``
        once the peer closes at a frame boundary."""
        message = ("fetch", "w0", "s0", "sig")
        left, right = socket.socketpair()
        try:
            send_message(left, message)
            send_message(left, ("heartbeat", "w0", {"cache_hits": 1}))
            assert recv_message(right) == message
            assert recv_message(right) == ("heartbeat", "w0", {"cache_hits": 1})
            left.close()
            assert recv_message(right) is None
        finally:
            left.close()
            right.close()

    def test_versions_outside_the_window_are_typed_errors(self):
        """The window is one version wide: the previous revision is refused
        on its first frame exactly like a future one."""
        for version in (0, 2, PROTOCOL_VERSION - 1, PROTOCOL_VERSION + 1):
            frame = _frame_at(version, b"junk")
            with pytest.raises(ProtocolError, match="version mismatch"):
                decode_frame(frame)
            left, right = socket.socketpair()
            try:
                left.sendall(frame)
                with pytest.raises(ProtocolError, match="version mismatch"):
                    recv_message(right)
            finally:
                left.close()
                right.close()

    def test_raw_pickle_payloads_are_refused_never_unpickled(self):
        """A payload without the canonical magic is refused with a typed
        error before anything is unpickled — as bytes and as a frame."""
        raw = pickle.dumps(UnpickleTripwire(), protocol=4)
        with pytest.raises(ProtocolError):
            deserialize(raw)
        left, right = socket.socketpair()
        try:
            left.sendall(encode_frame(raw))
            with pytest.raises(ProtocolError):
                recv_message(right)
        finally:
            left.close()
            right.close()
        assert UNPICKLED == []
        pickle.loads(raw)  # the tripwire is live: unpickling does trip it
        assert UNPICKLED == [True]
        UNPICKLED.clear()

    def test_truncated_canonical_payload_is_a_typed_error(self):
        payload = serialize(("result", "s0", "n0", b"x" * 200))
        for cut in (2, 3, 15, len(payload) - 1):
            with pytest.raises(ProtocolError):
                deserialize(payload[:cut])
        left, right = socket.socketpair()
        try:
            left.sendall(encode_frame(payload[:-7]))
            with pytest.raises(ProtocolError):
                recv_message(right)
        finally:
            left.close()
            right.close()

    def test_unknown_canonical_type_tag_is_a_typed_error(self):
        packed = bytearray(serialize(0))
        # layout: magic(2) + version(1) + buffer count + body length + body
        assert packed[5:6] == b"i"
        packed[5] = 0x51
        with pytest.raises(ProtocolError, match="unknown type tag"):
            deserialize(bytes(packed))

    def test_batch_frame_ends_the_connection_and_the_worker_serves_on(self):
        """``batch`` is not a message kind: a v7-style ``("batch", (task,
        ...))`` envelope ends that coordinator connection without running
        any of its tasks, and the listening worker then serves the next
        coordinator's single ``task`` frame as usual."""
        from repro.workloads.synthetic import LatencyOperator

        def _task(key):
            payload = _task_payload((key, LatencyOperator(offset=1.0)))
            return ("task", "s0", key, payload)

        ready: "queue.Queue[int]" = queue.Queue()
        worker = threading.Thread(
            target=lambda: WorkerServer.listen(
                "127.0.0.1",
                0,
                worker_id="bw",
                heartbeat_interval=60.0,
                max_sessions=2,
                on_ready=lambda _host, port: ready.put(port),
            ),
            daemon=True,
        )
        worker.start()
        port = ready.get(timeout=10)
        sock = socket.create_connection(("127.0.0.1", port), timeout=10)
        try:
            assert recv_message(sock)[:2] == ("register", "bw")
            send_message(sock, ("batch", (_task("k1"), _task("k2"))))
            assert recv_message(sock) is None  # closed, nothing answered
        finally:
            sock.close()
        sock = socket.create_connection(("127.0.0.1", port), timeout=10)
        try:
            assert recv_message(sock)[:2] == ("register", "bw")
            send_message(sock, _task("k3"))
            assert _next_nonbeat(sock)[:3] == ("result", "s0", "k3")
            send_message(sock, ("shutdown",))
        finally:
            sock.close()
        worker.join(timeout=10)
        assert not worker.is_alive()

    def test_malformed_frames_end_the_session_never_the_worker(self):
        """Fuzzed inputs — a bogus ``batch`` envelope, short message tuples,
        out-of-window versions, raw garbage, truncated canonical bodies, a
        v4-stamped canonical frame, a v3 pickle frame — each close that
        coordinator session; the listening worker then serves the next
        coordinator as if nothing happened."""
        scenarios = [
            lambda s: send_message(s, ("batch", 42)),
            lambda s: send_message(s, ("task", "session-and-nothing-else")),
            lambda s: send_message(s, ("task", "s0", "k")),
            lambda s: send_message(s, ("artifact", "s0", "sig")),
            lambda s: send_message(s, ("close_session",)),
            lambda s: s.sendall(_frame_at(2, b"junk")),
            lambda s: s.sendall(b"ZZZZZZZZZZZZ"),
            lambda s: s.sendall(
                encode_frame(serialize(("task", "s0", "k", b"x" * 100))[:-3])
            ),
            lambda s: s.sendall(_frame_at(4, serialize(("task", "s0", "k", b"x")))),
            lambda s: s.sendall(
                _frame_at(3, pickle.dumps(("task", "s0", "k", b"x"), protocol=4))
            ),
        ]
        ready: "queue.Queue[int]" = queue.Queue()
        worker = threading.Thread(
            target=lambda: WorkerServer.listen(
                "127.0.0.1",
                0,
                worker_id="fuzzed",
                heartbeat_interval=60.0,
                max_sessions=len(scenarios) + 1,
                on_ready=lambda _host, port: ready.put(port),
            ),
            daemon=True,
        )
        worker.start()
        port = ready.get(timeout=10)
        for poke in scenarios:
            sock = socket.create_connection(("127.0.0.1", port), timeout=10)
            try:
                register = recv_message(sock)
                assert register[:2] == ("register", "fuzzed")  # alive pre-poke
                poke(sock)
            finally:
                sock.close()
        # after every malformed session the worker still serves cleanly
        sock = socket.create_connection(("127.0.0.1", port), timeout=10)
        try:
            register = recv_message(sock)
            assert register[:2] == ("register", "fuzzed")
            send_message(sock, ("shutdown",))
        finally:
            sock.close()
        worker.join(timeout=10)
        assert not worker.is_alive()

    def test_older_worker_is_refused_at_registration(self):
        """An older worker — a v3 pickle-framed registration, a v5 or v7
        frame, or the 3- and 5-tuple registrations of earlier revisions — is
        refused at registration, so it is never sent a task (or anything
        else): the coordinator hangs up and adopts no worker."""
        first_frames = [
            _frame_at(3, pickle.dumps(("register", "old", 4242, 60.0), protocol=4)),
            _frame_at(5, serialize(("register", "old", 4242, 60.0))),
            _frame_at(7, serialize(("register", "old", 4242, 60.0))),
            encode_frame(serialize(("register", "old", 4242))),
            encode_frame(serialize(("register", "old", 4242, 60.0, ("127.0.0.1", 4001)))),
        ]
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)
        address = listener.getsockname()[:2]
        received: "queue.Queue[list]" = queue.Queue()

        def _old_worker(frame):
            conn, _ = listener.accept()
            with conn:
                conn.sendall(frame)
                conn.settimeout(10.0)  # fail, don't hang, if never closed
                frames = []
                try:
                    while (payload := recv_frame(conn)) is not None:
                        frames.append(payload)
                except (OSError, ProtocolError):
                    pass
                received.put(frames)

        executor = DistributedExecutor(workers=[f"{address[0]}:{address[1]}"])
        try:
            for frame in first_frames:
                fake = threading.Thread(target=_old_worker, args=(frame,), daemon=True)
                fake.start()
                with pytest.raises((ExecutionError, ProtocolError)):
                    executor._connect_remote(address)
                fake.join(timeout=10)
                assert received.get(timeout=1) == []  # not a single frame
                assert executor.worker_pids() == {}
        finally:
            listener.close()

    def test_registration_fields_are_type_checked(self):
        """Registration is input from another process: exactly the 4-tuple
        ``("register", id, pid, interval)`` with a string id and an integer
        pid is adopted; a malformed interval degrades to ``None`` rather
        than being trusted."""
        assert _parse_registration(("register", "w", 42, 0.5)) == ("w", 42, 0.5)
        assert _parse_registration(("register", "w", 42, None)) == ("w", 42, None)
        assert _parse_registration(("register", "w", 42, "slow")) == ("w", 42, None)
        for bad in (
            ("register", "w", 42),
            ("register", "w", 42, 0.5, None),
            ("register", "w", 42, 0.5, ("127.0.0.1", 4001)),
            ("register", ["w"], 42, 0.5),
            ("register", "w", "42", 0.5),
            ("heartbeat", "w", 42, 0.5),
            ["register", "w", 42, 0.5],
            None,
        ):
            assert _parse_registration(bad) is None, bad

    def test_every_dispatch_is_one_task_frame_under_pipelining(self, monkeypatch):
        """With two tasks in flight per worker, every coordinator-to-worker
        frame is a single ``("task", ...)`` message: one frame per task, and
        the run still completes exactly."""
        import repro.execution.executors as executors_module
        from repro.workloads.synthetic import LatencyOperator

        original = executors_module.send_message
        sent = []

        def recording(sock, message, lock=None):
            sent.append(message[:3])
            return original(sock, message, lock)

        executor = DistributedExecutor(max_workers=1, pipeline_depth=2)
        executor.start()
        try:
            monkeypatch.setattr(executors_module, "send_message", recording)
            operator = LatencyOperator(offset=1.0)
            for index in range(4):
                executor.submit_payload(
                    f"n{index}", _task_payload((f"n{index}", operator))
                )
            keys = sorted(executor.next_completion()[0] for _ in range(4))
            assert keys == ["n0", "n1", "n2", "n3"]
            executor.finish_run()
            session = executor._default_session.session_id
            assert sorted(sent) == [("task", session, key) for key in keys], sent
        finally:
            executor.shutdown()


# ---------------------------------------------------------------------------
# Equivalence (synthetic + real workload), including worker death
# ---------------------------------------------------------------------------
class TestDistributedEquivalence:
    def test_synthetic_matrix_includes_distributed(self):
        dag = make_random_dag(11, max_width=4, max_depth=4)
        rigs, _ = assert_executors_equivalent(dag)
        assert "distributed" in rigs

    def test_kill_one_worker_mid_run_requeues_and_matches_inline(self):
        dag = make_wide_dag(branches=6, depth=2, node_seconds=0.05)
        signatures = compute_node_signatures(dag)
        plan = _all_compute_plan(dag)
        reference = _engine_for().execute(dag, plan, signatures)

        executor = DistributedExecutor(max_workers=2)
        engine = _engine_for(executor)
        executor.start()  # pre-start so a victim pid exists before execute
        try:
            victim = next(iter(executor.worker_pids().values()))
            killer = threading.Timer(0.15, lambda: os.kill(victim, signal.SIGKILL))
            killer.start()
            stats = engine.execute(dag, plan, signatures)
            killer.join()
            # the victim is gone, a survivor finished its requeued tasks
            assert len(executor.worker_pids()) == 1
            assert_equivalent_runs(reference, stats, include_times=False)
        finally:
            executor.shutdown()

    @pytest.mark.integration
    def test_census_lifecycle_on_distributed_matches_inline(self):
        reference = run_lifecycle(
            HelixSystem.opt(cost_model=SimulatedCostModel(), seed=0),
            "census",
            n_iterations=2,
            scale=0.25,
        )
        with HelixSystem.opt(cost_model=SimulatedCostModel(), seed=0) as system:
            candidate = run_lifecycle(
                system,
                "census",
                n_iterations=2,
                scale=0.25,
                executor="distributed",
                max_workers=2,
            )
            assert system.executor.name == "distributed"
        assert len(reference.iterations) == len(candidate.iterations)
        for inline_stats, dist_stats in zip(reference.iterations, candidate.iterations):
            # Canonical serialization keeps exact sizes bit-identical across
            # the distributed boundary (repro/execution/equivalence.py), so
            # storage statistics are compared with exact equality.
            assert_equivalent_runs(inline_stats, dist_stats, include_times=False)
            assert dist_stats.storage_bytes == inline_stats.storage_bytes
            assert dist_stats.node_times == pytest.approx(
                inline_stats.node_times, rel=1e-3
            )


# ---------------------------------------------------------------------------
# Failure handling
# ---------------------------------------------------------------------------
class TestWorkerFailureHandling:
    def test_task_fails_after_bounded_attempts(self):
        """A task that kills every worker it lands on must not hang the run."""
        dag = WorkflowDAG([Node.create("boom", WorkerSuicideOperator(), is_output=True)])
        executor = DistributedExecutor(max_workers=2)
        engine = _engine_for(executor)
        try:
            with pytest.raises(ExecutionError, match="boom.*dispatch attempt"):
                engine.execute(dag, _all_compute_plan(dag), compute_node_signatures(dag))
        finally:
            executor.shutdown()

    def test_start_heals_dead_workers(self):
        executor = DistributedExecutor(max_workers=2)
        try:
            executor.start()
            assert len(executor.worker_pids()) == 2
            os.kill(next(iter(executor.worker_pids().values())), signal.SIGKILL)
            deadline = time.monotonic() + 5
            while len(executor.worker_pids()) > 1 and time.monotonic() < deadline:
                time.sleep(0.02)
            assert len(executor.worker_pids()) == 1
            executor.start()  # next run tops the pool back up
            assert len(executor.worker_pids()) == 2
        finally:
            executor.shutdown()

    def test_submit_payload_without_workers_raises(self):
        executor = DistributedExecutor(max_workers=1)
        with pytest.raises(ExecutionError, match="before start"):
            executor.submit_payload("n0", b"payload")

    def test_heartbeat_timeout_must_exceed_interval(self):
        """A busy worker only beats every interval: the silence threshold is
        derived as ten missed beats (never under five seconds), so it always
        exceeds the interval."""
        derived = DistributedExecutor(max_workers=1, heartbeat_interval=2.0)
        assert derived.heartbeat_timeout == pytest.approx(20.0)

    def test_unframeable_payload_fails_task_not_dispatcher(self, monkeypatch):
        """A payload the transport cannot frame (e.g. over the frame limit)
        must fail *that task* — not kill the dispatcher thread or the worker."""
        import repro.execution.executors as executors_module
        from repro.workloads.synthetic import LatencyOperator

        original = executors_module.send_message

        def refusing(sock, message, lock=None):
            if isinstance(message, tuple) and message[0] == "task" and message[2] == "bad":
                raise ProtocolError("frame payload exceeds the frame limit")
            return original(sock, message, lock)

        executor = DistributedExecutor(max_workers=1)
        executor.start()
        try:
            monkeypatch.setattr(executors_module, "send_message", refusing)
            executor.submit_payload("bad", b"unframeable")
            key, _, error = executor.next_completion()
            assert key == "bad"
            assert isinstance(error, ExecutionError)
            assert "could not be sent" in str(error)
            # the dispatcher and worker both survived: a good task completes
            executor.submit_payload(
                "good", _task_payload(("good", LatencyOperator(offset=1.0)))
            )
            key, outcome, error = executor.next_completion()
            assert key == "good" and error is None
            assert outcome[0][0] == pytest.approx(1.0)
            executor.finish_run()
        finally:
            executor.shutdown()

    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork",
        reason="the worker only inherits the monkeypatch under fork",
    )
    def test_unframeable_reply_surfaces_as_task_error(self, monkeypatch):
        """A worker whose *reply* cannot be framed reports a typed task error
        instead of dying and burning retry attempts (workers are forked, so
        the patch applied before start() is inherited)."""
        import repro.execution.executors as executors_module
        from repro.exceptions import OperatorError
        from repro.workloads.synthetic import LatencyOperator

        original = executors_module.send_message

        def refusing(sock, message, lock=None):
            if isinstance(message, tuple) and message[0] == "result" and message[2] == "huge":
                raise ProtocolError("frame payload exceeds the frame limit")
            return original(sock, message, lock)

        monkeypatch.setattr(executors_module, "send_message", refusing)
        executor = DistributedExecutor(max_workers=1)
        executor.start()  # fork happens with the patch in place
        try:
            executor.submit_payload(
                "huge", _task_payload(("huge", LatencyOperator(offset=1.0)))
            )
            key, _, error = executor.next_completion()
            assert key == "huge"
            assert isinstance(error, OperatorError)
            assert "could not be framed" in str(error)
            assert len(executor.worker_pids()) == 1  # worker survived
            executor.finish_run()
        finally:
            executor.shutdown()


# ---------------------------------------------------------------------------
# Stage dispatch: a chain of computed nodes travels as one task
# ---------------------------------------------------------------------------
#: Operators a chain's worker ran, in order (forked workers keep their own
#: copy, so only in-process calls of ``run_serialized_task`` read it).
RAN = []


class RecordingOperator(Operator):
    """Records its tag in :data:`RAN` and returns its input plus one."""

    def __init__(self, tag):
        self.tag = tag

    def config(self):
        return {"tag": self.tag}

    def run(self, inputs, context):
        RAN.append(self.tag)
        return inputs[0] + 1.0


def _chains(dag, plan):
    """The engine's chains of ``dag`` under ``plan``, keyed by head."""
    order = _engine_for()._execution_order(dag, plan)
    _parents, children, _ancestors = ExecutionEngine._run_graph(
        dag, {name: index for index, name in enumerate(order)}
    )
    consumers = {name: len(children[name]) for name in order}
    return ExecutionEngine._find_chains(dag, plan, order, consumers)


def _chain_shapes_dag():
    """Every chain-detection case in one DAG (see ``test_chain_detection``)."""
    return WorkflowDAG([
        Node.create("a", ConstOperator(1)),
        Node.create("b", SumOperator(), ["a"]),
        Node.create("c", SumOperator(), ["b"]),  # b fans out to c, d
        Node.create("d", SumOperator(), ["b"]),
        Node.create("e", SumOperator(), ["c"]),
        Node.create("f", SumOperator(), ["d", "e"]),  # fan-in
        Node.create("g", SumOperator(), ["f"], is_output=True),  # mid-chain
        Node.create("h", SumOperator(), ["g"], is_output=True),
        Node.create("l", ConstOperator(2)),  # loaded in test_chain_detection
        Node.create("m", SumOperator(), ["l"]),
        Node.create("n", SumOperator(), ["m"], is_output=True),
        Node.create("p", ConstOperator(3)),
        Node.create("q", SumOperator(), ["p", "p"], is_output=True),
        Node.create("z", ConstOperator(4), is_output=True),
    ])


class TestStageDispatch:
    def test_chain_detection(self):
        """Links need a computed parent whose only executing consumer is a
        child with exactly that one parent: fan-out and fan-in break a
        chain, a LOAD parent or a parent listed twice heads a new one, an
        output node chains through, and a lone node is a chain of one."""
        dag = _chain_shapes_dag()
        states = {name: NodeState.COMPUTE for name in dag.node_names}
        states["l"] = NodeState.LOAD
        assert _chains(dag, ExecutionPlan(states, 0.0)) == {
            "a": ["a", "b"],
            "c": ["c", "e"],
            "d": ["d"],
            "f": ["f", "g", "h"],
            "m": ["m", "n"],
            "p": ["p"],
            "q": ["q"],
            "z": ["z"],
        }

    def test_chain_shapes_match_across_the_executor_matrix(self):
        """The same shapes, computed and then reused, give identical run
        statistics and storage on every executor."""
        assert_executors_equivalent(_chain_shapes_dag())

    def test_one_submission_per_chain(self, monkeypatch):
        """Fig 7's CPU DAG is a source, ``branches`` chains and a sink: the
        engine submits exactly one payload per chain, keyed by its head,
        and still matches the inline reference."""
        dag = make_cpu_dag(branches=4, depth=3, spin=200)
        signatures = compute_node_signatures(dag)
        plan = _all_compute_plan(dag)
        chains = _chains(dag, plan)
        assert len(chains) == 4 + 2
        reference = _engine_for().execute(dag, plan, signatures)

        executor = DistributedExecutor(max_workers=2)
        submitted = []
        original = executor.submit_payload

        def counting(key, payload):
            submitted.append(key)
            original(key, payload)

        monkeypatch.setattr(executor, "submit_payload", counting)
        try:
            stats = _engine_for(executor).execute(dag, plan, signatures)
        finally:
            executor.shutdown()
        assert sorted(submitted) == sorted(chains)
        assert_equivalent_runs(reference, stats)

    def test_worker_runs_a_chain_in_order_and_times_each_node(self):
        RAN.clear()
        reply = deserialize(
            run_serialized_task(
                _task_payload(
                    ("x", RecordingOperator("x")),
                    ("y", RecordingOperator("y")),
                    ("z", RecordingOperator("z")),
                    inputs=[1.0],
                )
            )
        )
        assert RAN == ["x", "y", "z"]
        assert [value for value, _ in reply] == [2.0, 3.0, 4.0]
        assert all(seconds >= 0.0 for _, seconds in reply)

    def test_failure_mid_chain_names_that_node_and_stops(self):
        RAN.clear()
        payload = _task_payload(
            ("x", RecordingOperator("x")),
            ("boom", FailingOperator()),
            ("z", RecordingOperator("z")),
            inputs=[1.0],
        )
        with pytest.raises(OperatorError) as caught:
            run_serialized_task(payload)
        assert caught.value.node_name == "boom"
        assert RAN == ["x"]  # the node after the failure never ran

    def test_failure_mid_chain_surfaces_from_the_engine(self):
        dag = WorkflowDAG([
            Node.create("a", ConstOperator(1)),
            Node.create("boom", FailingOperator(), ["a"]),
            Node.create("c", SumOperator(), ["boom"], is_output=True),
        ])
        plan = _all_compute_plan(dag)
        assert _chains(dag, plan) == {"a": ["a", "boom", "c"]}
        executor = DistributedExecutor(max_workers=1)
        try:
            with pytest.raises(OperatorError) as caught:
                _engine_for(executor).execute(dag, plan, compute_node_signatures(dag))
        finally:
            executor.shutdown()
        assert caught.value.node_name == "boom"
        assert "intentional failure" in str(caught.value)

    def test_killing_a_worker_mid_chain_completes_every_node_once(self):
        """A requeued chain re-runs whole on the survivor; each node still
        completes exactly once and the run matches inline."""
        dag = make_wide_dag(branches=4, depth=3, node_seconds=0.05)
        signatures = compute_node_signatures(dag)
        plan = _all_compute_plan(dag)
        assert max(len(chain) for chain in _chains(dag, plan).values()) == 3
        reference = _engine_for().execute(dag, plan, signatures)

        executor = DistributedExecutor(max_workers=2)
        engine = _engine_for(executor)
        executor.start()  # pre-start so a victim pid exists before execute
        try:
            victim = next(iter(executor.worker_pids().values()))
            killer = threading.Timer(0.15, lambda: os.kill(victim, signal.SIGKILL))
            killer.start()
            stats = engine.execute(dag, plan, signatures)
            killer.join()
            assert len(executor.worker_pids()) == 1  # the kill landed mid-run
            assert executor._results.empty()  # no duplicate completion
            assert list(stats.node_times) == list(reference.node_times)
            assert_equivalent_runs(reference, stats, include_times=False)
        finally:
            executor.shutdown()

    @pytest.mark.parametrize("seed", [3, 8])
    def test_matrix_storage_exactly_equal_on_random_dags_with_chains(self, seed):
        """The matrix harness compares storage bytes with exact equality."""
        dag = make_random_dag(seed, max_width=2, max_depth=6, edge_probability=0.1)
        chains = _chains(dag, _all_compute_plan(dag))
        assert max(len(chain) for chain in chains.values()) >= 2
        assert_executors_equivalent(dag)


# ---------------------------------------------------------------------------
# Drain and shutdown
# ---------------------------------------------------------------------------
class TestDrainAndShutdown:
    def test_finish_run_drains_without_releasing_workers(self):
        from repro.workloads.synthetic import LatencyOperator

        executor = DistributedExecutor(max_workers=2)
        try:
            executor.start()
            operator = LatencyOperator(offset=1.0, sleep_seconds=0.05)
            for index in range(4):
                executor.submit_payload(
                    f"n{index}", _task_payload((f"n{index}", operator))
                )
            keys = sorted(executor.next_completion()[0] for _ in range(4))
            executor.finish_run()
            assert keys == ["n0", "n1", "n2", "n3"]
            assert len(executor.worker_pids()) == 2  # pool survives the drain
        finally:
            executor.shutdown()

    def test_shutdown_reaps_workers_and_listener(self):
        executor = DistributedExecutor(max_workers=2)
        executor.start()
        pids = list(executor.worker_pids().values())
        processes = [h.process for h in executor._workers.values()]
        assert executor.address is not None
        executor.shutdown()
        assert executor.address is None
        for process in processes:
            assert not process.is_alive()
        del pids
        # shutdown is idempotent and start() afterwards rebuilds the pool
        executor.shutdown()
        executor.start()
        try:
            assert len(executor.worker_pids()) == 2
        finally:
            executor.shutdown()


# ---------------------------------------------------------------------------
# System-owned executors for name-configured strategies
# ---------------------------------------------------------------------------
def _pool_alive(executor) -> bool:
    """Whether an executor's worker pool is up (inline has none to lose)."""
    if executor.name == "inline":
        return True
    if executor.name == "distributed":
        return executor.address is not None
    return executor._pool is not None


class TestAutoPooling:
    def test_auto_pooled_names(self):
        """Every executor name is owned by the System that built it; a ready
        instance never is."""
        for name in EXECUTOR_NAMES:
            system = HelixSystem.opt(executor=name, max_workers=1)
            assert system.executor.name == name
            assert system._owns_executor
        instance = DistributedExecutor(max_workers=1)
        system.configure_executor(instance)
        assert system.executor is instance and not system._owns_executor

    @pytest.mark.parametrize("name", EXECUTOR_NAMES)
    def test_name_configured_pool_reused_across_iterations(self, name):
        system = HelixSystem.opt(cost_model=SimulatedCostModel(), seed=0)
        system.configure_executor(name, max_workers=2)
        seen = []
        try:
            result = run_lifecycle(
                system, "census", n_iterations=2, scale=0.25,
                on_iteration=lambda spec, stats: seen.append(
                    (system.executor, _pool_alive(system.executor))
                ),
            )
            assert len(result.iterations) == 2
            owned = system.executor
            assert owned.name == name
            assert seen == [(owned, True), (owned, True)]  # one warm pool
            if name == "distributed":
                assert len(owned.worker_pids()) == 2
        finally:
            system.close_executor()
        assert system.executor is owned
        if name != "inline":
            assert not _pool_alive(owned)

    def test_repeat_configuration_keeps_pool_warm(self):
        """Reconfiguring to the identical name + worker count is a no-op, so
        repeated run_lifecycle(..., executor=...) calls reuse the pool."""
        system = HelixSystem.opt(cost_model=SimulatedCostModel(), seed=0)
        try:
            run_lifecycle(
                system, "census", n_iterations=1, scale=0.25,
                executor="distributed", max_workers=1,
            )
            owned = system.executor
            pids = owned.worker_pids()
            run_lifecycle(
                system, "census", n_iterations=1, scale=0.25,
                executor="distributed", max_workers=1,
            )
            assert system.executor is owned  # same warm pool
            assert owned.worker_pids() == pids
            # a different worker count is a real reconfiguration
            system.configure_executor("distributed", max_workers=2)
            assert system.executor is not owned
            assert owned.address is None  # old pool shut down
        finally:
            system.close_executor()

    def test_reconfigure_closes_owned_pool(self):
        system = HelixSystem.opt(cost_model=SimulatedCostModel(), seed=0)
        system.configure_executor("distributed", max_workers=1)
        run_lifecycle(system, "census", n_iterations=1, scale=0.25)
        owned = system.executor
        assert owned.address is not None
        system.configure_executor("inline")
        assert system.executor is not owned
        assert owned.address is None  # the distributed pool was shut down

    def test_context_manager_closes_owned_pool(self):
        with HelixSystem.opt(cost_model=SimulatedCostModel(), seed=0) as system:
            system.configure_executor("distributed", max_workers=1)
            run_lifecycle(system, "census", n_iterations=1, scale=0.25)
            owned = system.executor
            assert owned.address is not None
        assert system.executor is owned
        assert owned.address is None

    def test_instance_configured_executor_stays_caller_owned(self):
        executor = DistributedExecutor(max_workers=1)
        try:
            with HelixSystem.opt(cost_model=SimulatedCostModel(), seed=0) as system:
                system.configure_executor(executor)
                run_lifecycle(system, "census", n_iterations=1, scale=0.25)
                assert system.executor is executor
            # leaving the system must not shut down the caller's pool
            assert executor.address is not None
        finally:
            executor.shutdown()


# ---------------------------------------------------------------------------
# Remote (address-configured) workers
# ---------------------------------------------------------------------------
class TestRemoteWorkers:
    def test_parse_worker_address(self):
        assert parse_worker_address("127.0.0.1:7071") == ("127.0.0.1", 7071)
        assert parse_worker_address(("host", 9)) == ("host", 9)
        assert parse_worker_address("[::1]:7071") == ("::1", 7071)
        for bad in (
            "no-port", "host:", ":7071", "host:notaport", "host:0",
            "host:70000", "::1", "[]:7071", "2001:db8::1:7071",
        ):
            with pytest.raises(ExecutionError):
                parse_worker_address(bad)

    def test_workers_spec_validation(self):
        with pytest.raises(ExecutionError, match="at least one"):
            DistributedExecutor(workers=[])
        with pytest.raises(ExecutionError, match="duplicate"):
            DistributedExecutor(workers=["h:1", "h:1"])
        with pytest.raises(ExecutionError, match="conflicts"):
            DistributedExecutor(workers=["h:1"], max_workers=3)
        # matching max_workers is accepted, and the address count wins anyway
        executor = DistributedExecutor(workers=["h:1", "h:2"], max_workers=2)
        assert executor.max_workers == 2
        assert executor.uses_artifact_refs  # remote workers default to the fetch lane
        from repro.execution.executors import create_executor

        with pytest.raises(ExecutionError, match="only valid"):
            create_executor("thread", workers=["h:1"])
        with pytest.raises(ExecutionError, match="unknown executor"):
            create_executor(executor)  # names only: an instance is already built

    def test_configure_executor_rejects_workers_for_other_names(self):
        system = HelixSystem.opt(cost_model=SimulatedCostModel(), seed=0)
        with pytest.raises(ExecutionError, match="only valid"):
            system.configure_executor("thread", workers=["h:1"])

    def test_unreachable_address_fails_fast(self, monkeypatch):
        # nothing listens on the reserved discard port on loopback
        monkeypatch.setattr(executors_module, "_START_TIMEOUT", 0.6)
        monkeypatch.setattr(executors_module, "_CONNECT_TIMEOUT", 0.3)
        executor = DistributedExecutor(workers=["127.0.0.1:9"])
        with pytest.raises(ExecutionError, match="could not connect"):
            executor.start()
        executor.shutdown()

    def test_remote_matrix_equivalence_column(self):
        """The equivalence matrix passes with an address-configured column.

        The remote executor defaults to the artifact FETCH lane, so
        iteration 1 of the rig (COMPUTE nodes whose parents are store
        resident) also exercises ArtifactRef shipping end to end.
        """
        processes, addresses = _start_listening_workers(2)
        executor = DistributedExecutor(workers=addresses)
        try:
            dag = make_random_dag(11, max_width=4, max_depth=4)
            rigs, _ = assert_executors_equivalent(
                dag, executors=("inline", ("distributed-remote", executor))
            )
            assert set(rigs) == {"inline", "distributed-remote"}
            assert executor.uses_artifact_refs
        finally:
            executor.shutdown()
            _reap(processes)

    def test_kill_remote_worker_mid_run_requeues_and_matches_inline(self):
        dag = make_wide_dag(branches=6, depth=2, node_seconds=0.05)
        signatures = compute_node_signatures(dag)
        plan = _all_compute_plan(dag)
        reference = _engine_for().execute(dag, plan, signatures)

        processes, addresses = _start_listening_workers(2)
        executor = DistributedExecutor(workers=addresses)
        engine = _engine_for(executor)
        executor.start()  # pre-start so a victim exists before execute
        try:
            victim = processes[0]
            killer = threading.Timer(0.15, victim.kill)
            killer.start()
            stats = engine.execute(dag, plan, signatures)
            killer.join()
            assert len(executor.worker_pids()) == 1
            assert_equivalent_runs(reference, stats, include_times=False)
        finally:
            executor.shutdown()
            _reap(processes)

    def test_worker_entrypoint_serves_coordinator(self):
        """`python -m repro.execution.worker` announces its port and serves
        one coordinator session, then exits (--max-sessions 1)."""
        import re
        import subprocess
        import sys
        from pathlib import Path

        import repro

        src_dir = str(Path(repro.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src_dir, env.get("PYTHONPATH")) if p
        )
        process = subprocess.Popen(
            [sys.executable, "-m", "repro.execution.worker",
             "--port", "0", "--worker-id", "ci-smoke", "--max-sessions", "1"],
            stdout=subprocess.PIPE,
            text=True,
            env=env,
        )
        try:
            line = process.stdout.readline()
            match = re.match(r"worker ci-smoke listening on ([\d.]+):(\d+)", line)
            assert match, f"unexpected readiness line: {line!r}"
            address = f"{match.group(1)}:{match.group(2)}"
            executor = DistributedExecutor(workers=[address])
            executor.start()
            from repro.workloads.synthetic import LatencyOperator

            executor.submit_payload(
                "n0", _task_payload(("n0", LatencyOperator(offset=3.0)))
            )
            key, outcome, error = executor.next_completion()
            assert (key, error) == ("n0", None)
            assert outcome[0][0] == pytest.approx(3.0)
            executor.finish_run()
            executor.shutdown()
            assert process.wait(timeout=10) == 0  # one session served, clean exit
        finally:
            if process.poll() is None:
                process.kill()
                process.wait(timeout=5)


# ---------------------------------------------------------------------------
# Pipelined dispatch
# ---------------------------------------------------------------------------
class TestPipelinedDispatch:
    def test_pipeline_depth_validated(self):
        with pytest.raises(ExecutionError, match="pipeline_depth"):
            DistributedExecutor(max_workers=1, pipeline_depth=0)
        assert DistributedExecutor(max_workers=1, pipeline_depth=1).pipeline_depth == 1

    def test_tasks_stack_up_to_depth_on_one_worker(self):
        """With one worker and depth 2, a second task is dispatched onto
        the worker's connection while the first executes."""
        from repro.workloads.synthetic import LatencyOperator

        executor = DistributedExecutor(max_workers=1, pipeline_depth=2)
        try:
            executor.start()
            operator = LatencyOperator(offset=1.0, sleep_seconds=0.3)
            for index in range(3):
                executor.submit_payload(
                    f"n{index}", _task_payload((f"n{index}", operator))
                )
            deadline = time.monotonic() + 5
            peak = 0
            while time.monotonic() < deadline:
                with executor._lock:
                    loads = [len(h.inflight) for h in executor._workers.values()]
                peak = max(peak, max(loads, default=0))
                if peak >= 2:
                    break
                time.sleep(0.01)
            assert peak == 2  # never above depth, and the window does fill
            keys = sorted(executor.next_completion()[0] for _ in range(3))
            assert keys == ["n0", "n1", "n2"]
            executor.finish_run()
        finally:
            executor.shutdown()

    def test_kill_worker_with_pipelined_tasks_requeues_each_exactly_once(self):
        """A dead worker orphans its executing task *and* its queued
        pipelined task; both must complete exactly once on the survivor."""
        from repro.workloads.synthetic import LatencyOperator

        executor = DistributedExecutor(max_workers=2, pipeline_depth=2)
        try:
            executor.start()
            for index in range(4):
                operator = LatencyOperator(offset=float(index), sleep_seconds=0.4)
                executor.submit_payload(
                    f"n{index}", _task_payload((f"n{index}", operator))
                )
            # wait until some worker holds a full pipeline window (one task
            # executing + one queued on its connection), then kill it
            deadline = time.monotonic() + 5
            victim_pid = None
            while time.monotonic() < deadline:
                with executor._lock:
                    for handle in executor._workers.values():
                        if handle.alive and len(handle.inflight) == 2:
                            victim_pid = handle.pid
                            break
                if victim_pid is not None:
                    break
                time.sleep(0.01)
            assert victim_pid is not None, "pipeline window never filled"
            os.kill(victim_pid, signal.SIGKILL)

            completions = [executor.next_completion() for _ in range(4)]
            executor.finish_run()
            assert executor._results.empty()  # no duplicate retirement
            by_key = {}
            for key, outcome, error in completions:
                assert error is None, f"task {key} failed: {error}"
                assert key not in by_key, f"task {key} completed twice"
                by_key[key] = outcome[0][0]
            # every task ran to its correct value despite the requeue
            assert by_key == {f"n{i}": pytest.approx(float(i)) for i in range(4)}
            assert len(executor.worker_pids()) == 1
        finally:
            executor.shutdown()

    def test_engine_equivalence_with_pipelined_worker_death(self):
        """Engine-level: a mid-run worker kill under pipelined dispatch
        still produces statistics identical to the inline reference."""
        dag = make_wide_dag(branches=8, depth=2, node_seconds=0.04)
        signatures = compute_node_signatures(dag)
        plan = _all_compute_plan(dag)
        reference = _engine_for().execute(dag, plan, signatures)

        executor = DistributedExecutor(max_workers=2, pipeline_depth=2)
        engine = _engine_for(executor)
        executor.start()
        try:
            victim = next(iter(executor.worker_pids().values()))
            killer = threading.Timer(0.1, lambda: os.kill(victim, signal.SIGKILL))
            killer.start()
            stats = engine.execute(dag, plan, signatures)
            killer.join()
            assert_equivalent_runs(reference, stats, include_times=False)
        finally:
            executor.shutdown()


# ---------------------------------------------------------------------------
# Artifact FETCH lane (store access for workers without the coordinator's fs)
# ---------------------------------------------------------------------------
class TestArtifactFetchLane:
    def test_artifact_ref_round_trips(self):
        ref = ArtifactRef("sig-1")
        assert deserialize(serialize(ref)) == ref
        assert ref != ArtifactRef("sig-2")
        assert repr(ref) == "ArtifactRef('sig-1')"

    def test_ref_without_resolver_fails_typed(self):
        from repro.exceptions import OperatorError
        from repro.workloads.synthetic import LatencyOperator

        payload = _task_payload(
            ("n0", LatencyOperator(offset=1.0)), inputs=[ArtifactRef("sig")]
        )
        with pytest.raises(OperatorError, match="no fetch lane"):
            run_serialized_task(payload)

    def test_fetched_input_feeds_the_operator(self):
        """A store-resident input shipped as a ref is fetched, deserialized
        and fed to the operator exactly like an inline value."""
        from repro.workloads.synthetic import LatencyOperator

        store = InMemoryStore()
        store.put("parent", "sig-parent", 21.0)
        executor = DistributedExecutor(max_workers=1, fetch_inputs=True)
        assert executor.uses_artifact_refs
        executor.bind_store(store)
        try:
            executor.start()
            executor.submit_payload(
                "child",
                _task_payload(
                    ("child", LatencyOperator(offset=1.0)), inputs=[ArtifactRef("sig-parent")]
                ),
            )
            key, outcome, error = executor.next_completion()
            assert (key, error) == ("child", None)
            assert outcome[0][0] == pytest.approx(22.0)  # offset + fetched 21.0
            executor.finish_run()
        finally:
            executor.shutdown()

    def test_missing_artifact_fails_task_not_worker(self):
        from repro.exceptions import OperatorError
        from repro.workloads.synthetic import LatencyOperator

        executor = DistributedExecutor(max_workers=1, fetch_inputs=True)
        executor.bind_store(InMemoryStore())
        try:
            executor.start()
            executor.submit_payload(
                "bad",
                _task_payload(
                    ("bad", LatencyOperator(offset=1.0)), inputs=[ArtifactRef("nope")]
                ),
            )
            key, _, error = executor.next_completion()
            assert key == "bad"
            assert isinstance(error, OperatorError)
            assert "no stored artifact" in str(error)
            # the worker survived the failed fetch and still serves tasks
            executor.submit_payload(
                "good", _task_payload(("good", LatencyOperator(offset=2.0)))
            )
            key, outcome, error = executor.next_completion()
            assert (key, error) == ("good", None)
            assert outcome[0][0] == pytest.approx(2.0)
            executor.finish_run()
        finally:
            executor.shutdown()

    def test_engine_equivalence_with_fetch_lane_local_workers(self):
        """The full engine lifecycle (iteration 1 computes over
        store-resident parents, which ship as refs) matches inline."""
        executor = DistributedExecutor(max_workers=2, fetch_inputs=True)
        try:
            dag = make_random_dag(10, max_width=4, max_depth=4)
            rigs, _ = assert_executors_equivalent(
                dag, executors=("inline", ("distributed-fetch", executor))
            )
            assert set(rigs) == {"inline", "distributed-fetch"}
        finally:
            executor.shutdown()


# ---------------------------------------------------------------------------
# Artifact plane: worker cache tier, then one coordinator fetch
# ---------------------------------------------------------------------------
def _scripted_worker(worker_id="p0", fetch_timeout=5.0):
    """A real WorkerServer served over a scripted coordinator TCP socket.

    Returns ``(server, coordinator_sock, thread)``; the caller speaks the
    coordinator side of the protocol frame by frame.
    """
    listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    listener.bind(("127.0.0.1", 0))
    listener.listen(1)
    coordinator = socket.create_connection(listener.getsockname())
    worker_side, _ = listener.accept()
    listener.close()
    server = WorkerServer(
        worker_id=worker_id,
        heartbeat_interval=60.0,
        fetch_timeout=fetch_timeout,
    )
    thread = threading.Thread(
        target=lambda: server._serve_connection(worker_side), daemon=True
    )
    thread.start()
    return server, coordinator, thread


def _next_nonbeat(coordinator):
    while True:
        frame = recv_frame(coordinator)
        assert frame is not None, "worker closed the connection early"
        message = deserialize(frame)
        if message[0] != "heartbeat":
            return message


class TestArtifactPlane:
    def test_cache_miss_fetches_from_coordinator_then_hits_cache(self):
        """A miss in the worker's cache tier costs exactly one coordinator
        round trip: the first frame after the task is the ``fetch`` itself.
        A second task needing the same signature resolves from the cache
        and sends no fetch at all."""
        from repro.workloads.synthetic import LatencyOperator

        server, coordinator, thread = _scripted_worker("pf")

        def _send_task(key):
            payload = _task_payload(
                (key, LatencyOperator(offset=1.0)), inputs=[ArtifactRef("sigF")]
            )
            send_frame(coordinator, serialize(("task", "s1", key, payload)))

        try:
            assert _next_nonbeat(coordinator)[0] == "register"
            _send_task("k1")
            assert _next_nonbeat(coordinator) == ("fetch", "pf", "s1", "sigF")
            send_frame(coordinator, serialize(("artifact", "s1", "sigF", serialize(20.0))))
            result = _next_nonbeat(coordinator)
            assert result[:3] == ("result", "s1", "k1")
            assert deserialize(result[3])[0][0] == pytest.approx(21.0)

            _send_task("k2")
            result = _next_nonbeat(coordinator)  # no fetch in between
            assert result[:3] == ("result", "s1", "k2")
            assert deserialize(result[3])[0][0] == pytest.approx(21.0)
            stats = server.cache.stats()
            assert stats["coordinator_fetches"] == 1
            assert stats["cache_hits"] == 1
        finally:
            try:
                send_frame(coordinator, serialize(("shutdown",)))
            except OSError:
                pass
            coordinator.close()
            thread.join(timeout=5)

    def test_v4_coordinator_gets_no_artifact_plane_frames(self):
        """A v4-stamped frame is refused, not negotiated down to: the
        worker ends that session at once — no fetch, no result — so a v4
        coordinator never sees an artifact-plane frame."""
        from repro.workloads.synthetic import LatencyOperator

        server, coordinator, thread = _scripted_worker("pv4")
        try:
            assert _next_nonbeat(coordinator)[0] == "register"
            payload = _task_payload(
                ("k", LatencyOperator(offset=1.0)), inputs=[ArtifactRef("sigV")]
            )
            coordinator.sendall(_frame_at(4, serialize(("task", "s1", "k", payload))))
            coordinator.settimeout(10.0)  # fail, don't hang, if never closed
            frames = []
            while (frame := recv_frame(coordinator)) is not None:
                frames.append(deserialize(frame))
            assert [m for m in frames if m[0] != "heartbeat"] == []
            thread.join(timeout=5)
            assert not thread.is_alive()
        finally:
            coordinator.close()

    def test_equivalence_exact_storage_across_all_fetch_paths(self):
        """Acceptance: run statistics AND persisted storage (artifact
        sizes + content digests) are exactly equal whichever way the bytes
        traveled — streamed by a coordinator fetch, or resolved from a warm
        shared cache tier (the same fleet re-run, its workers already
        holding every artifact)."""
        fleet = DistributedExecutor(max_workers=2, fetch_inputs=True)
        try:
            dag = make_random_dag(10, max_width=4, max_depth=4)
            rigs, _ = assert_executors_equivalent(
                dag,
                executors=(
                    "inline",
                    ("distributed-fetch", fleet),
                    ("distributed-warm", fleet),
                ),
            )
            assert set(rigs) == {"inline", "distributed-fetch", "distributed-warm"}
        finally:
            fleet.shutdown()

    def test_heartbeat_is_exactly_the_stats_3_tuple(self):
        """A heartbeat's counters reach the plane stats; a bare 2-tuple beat
        or non-dict counters are a protocol violation (the receive loop
        then ends that worker's connection)."""
        executor = DistributedExecutor(max_workers=1)
        handle = _make_handle("w-beat")
        try:
            executor._handle_worker_message(handle, ("heartbeat", "w-beat", {"cache_hits": 2}))
            assert executor.artifact_plane_stats()["workers"]["w-beat"] == {"cache_hits": 2}
            for bad in (("heartbeat", "w-beat"), ("heartbeat", "w-beat", [2])):
                with pytest.raises((ValueError, ProtocolError)):
                    executor._handle_worker_message(handle, bad)
        finally:
            handle.sock.close()


def _make_handle(worker_id):
    from repro.execution.executors import _WorkerHandle

    handle = _WorkerHandle(worker_id)
    handle.sock = socket.socket()  # never written: send_message is stubbed
    return handle


# ---------------------------------------------------------------------------
# Review-fix regressions
# ---------------------------------------------------------------------------
class TestReviewRegressions:
    def test_recv_frame_reports_mid_frame_progress(self):
        """Chunked arrival of one frame fires on_progress per chunk, so the
        coordinator can count an in-flight large transfer as liveness."""
        left, right = socket.socketpair()
        frame = encode_frame(b"x" * 100)
        ticks = []
        try:
            received = {}

            def _recv():
                received["payload"] = recv_frame(right, on_progress=lambda: ticks.append(1))

            reader = threading.Thread(target=_recv)
            reader.start()
            left.sendall(frame[:20])
            time.sleep(0.05)
            left.sendall(frame[20:])
            reader.join(timeout=5)
            assert received["payload"] == b"x" * 100
            assert len(ticks) >= 2  # header chunk + at least one payload chunk
        finally:
            left.close()
            right.close()

    def test_run_lifecycle_rejects_workers_without_executor(self):
        system = HelixSystem.opt(cost_model=SimulatedCostModel(), seed=0)
        with pytest.raises(ExecutionError, match="requires executor"):
            run_lifecycle(system, "census", n_iterations=1, workers=["127.0.0.1:7071"])

    def test_load_serialized_forwards_stored_bytes(self, tmp_path):
        from pathlib import Path

        from repro.storage.store import DiskStore

        value = {"weights": list(range(32))}
        memory = InMemoryStore()
        memory.put("node", "sig", value)
        blob = memory.load_serialized("sig")
        assert blob is memory._blobs["sig"]  # no re-serialization pass
        assert deserialize(blob) == value
        assert memory.load_serialized("unknown") is None

        disk = DiskStore(Path(tmp_path))
        disk.put("node", "sig", value)
        assert deserialize(disk.load_serialized("sig")) == value
        assert disk.load_serialized("unknown") is None

    def test_system_annotations_resolve_at_runtime(self):
        """`from __future__ import annotations` hides a missing typing
        import until get_type_hints runs (Sphinx/pydantic/dataclasses)."""
        import typing

        from repro.systems.base import System

        hints = typing.get_type_hints(System.configure_executor)
        assert "workers" in hints

    def test_failed_strict_start_stays_strict_on_retry(self, monkeypatch):
        """A first start that failed must not downgrade a retry to the
        best-effort (warn-and-proceed) healing semantics."""
        monkeypatch.setattr(executors_module, "_START_TIMEOUT", 0.4)
        monkeypatch.setattr(executors_module, "_CONNECT_TIMEOUT", 0.2)
        executor = DistributedExecutor(workers=["127.0.0.1:9"])
        with pytest.raises(ExecutionError, match="could not connect"):
            executor.start()
        with pytest.raises(ExecutionError, match="could not connect"):
            executor.start()  # still strict: raises, does not warn
        executor.shutdown()

    def test_worker_death_error_names_worker_and_attempts(self, monkeypatch):
        """A task whose worker dies with no retry budget left fails naming
        the task, its dispatch attempts and the worker that held it."""
        dag = WorkflowDAG([Node.create("boom", WorkerSuicideOperator(), is_output=True)])
        monkeypatch.setattr(executors_module, "_MAX_TASK_ATTEMPTS", 1)
        executor = DistributedExecutor(max_workers=1)
        engine = _engine_for(executor)
        try:
            with pytest.raises(
                ExecutionError,
                match=r"task 'boom' failed after 1 dispatch attempt\(s\): worker 'w\d+' died holding it",
            ):
                engine.execute(dag, _all_compute_plan(dag), compute_node_signatures(dag))
        finally:
            executor.shutdown()

    def test_interrupt_reports_error_then_kills_the_worker_loop(self):
        """A KeyboardInterrupt raised during task execution must be reported
        back as a task error AND still tear the worker loop down — the old
        ``BaseException``-and-continue handler pickled a Ctrl-C into a mere
        task error, leaving behind a worker that refused to die."""

        # a real TCP pair: the worker loop sets TCP_NODELAY, which an
        # AF_UNIX socketpair would reject
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)
        coordinator = socket.create_connection(listener.getsockname())
        worker_side, _ = listener.accept()
        listener.close()
        server = WorkerServer(worker_id="t0", heartbeat_interval=60.0)
        raised = {}

        def _serve():
            try:
                server._serve_connection(worker_side)
            except BaseException as exc:  # noqa: BLE001 - captured for assertion
                raised["exc"] = exc

        thread = threading.Thread(target=_serve, daemon=True)
        thread.start()
        try:
            register = deserialize(recv_frame(coordinator))
            assert register[0] == "register" and register[1] == "t0"
            payload = _task_payload(("boom", InterruptOperator()))
            send_frame(coordinator, serialize(("task", "s0", "boom", payload)))
            frames = []
            while True:
                frame = recv_frame(coordinator)
                if frame is None:
                    break  # the dying worker loop closed its end
                message = deserialize(frame)
                if message[0] != "heartbeat":
                    frames.append(message)
            thread.join(timeout=5)
            assert not thread.is_alive()
            # the failure was reported best-effort before the loop died...
            assert [m[0] for m in frames] == ["error"], frames
            _, session, key, error = frames[0]
            assert (session, key) == ("s0", "boom")
            assert type(error) is KeyboardInterrupt  # the interrupt keeps its class
            # ...and the interrupt still propagated out of the serve loop
            assert isinstance(raised.get("exc"), KeyboardInterrupt)
        finally:
            coordinator.close()

    def test_close_session_keeps_artifact_cache_but_drops_session_state(self):
        """``close_session`` releases the session's lane and pending requests,
        but the **content-addressed artifact tier survives** — it is keyed
        on canonical signatures (entries can never go stale) and bounded by
        its own LRU budget, and keeping it warm across run sessions is what
        lets the next ``repro serve`` run reuse this one's artifacts.
        Observable on the wire: a re-fetch after the close produces **no**
        ``fetch`` frame at all — the task resolves straight from
        the surviving cache."""
        from repro.workloads.synthetic import LatencyOperator

        server, coordinator, thread = _scripted_worker("t1")

        def _send_task(key, session="s1"):
            payload = _task_payload(
                (key, LatencyOperator(offset=1.0)), inputs=[ArtifactRef("sigA")]
            )
            send_frame(coordinator, serialize(("task", session, key, payload)))

        def _serve_fetch(session="s1"):
            fetch = _next_nonbeat(coordinator)
            assert fetch[:1] + fetch[2:] == ("fetch", session, "sigA"), fetch
            send_frame(
                coordinator,
                serialize(("artifact", session, "sigA", serialize(21.0))),
            )

        try:
            assert _next_nonbeat(coordinator)[0] == "register"
            # first task populates the artifact tier via a fetch round trip
            _send_task("k1")
            _serve_fetch()
            assert _next_nonbeat(coordinator)[0] == "result"
            # second task is served from the cache: no fetch frame appears
            _send_task("k2")
            assert _next_nonbeat(coordinator)[0] == "result"
            # after close_session the cache survives: still no fetch frame,
            # even from a *different* session (content addressing makes the
            # entry shareable across runs)
            # (close_session also flushes one final stats-carrying beat,
            # which _next_nonbeat skips)
            send_frame(coordinator, serialize(("close_session", "s1")))
            _send_task("k3", session="s2")
            assert _next_nonbeat(coordinator)[0] == "result"
            send_frame(coordinator, serialize(("shutdown",)))
            thread.join(timeout=5)
            assert not thread.is_alive()
            # the cross-session resolve above is visible in the tier's stats
            stats = server.cache.stats()
            assert stats["cross_session_hits"] >= 1
            assert stats["coordinator_fetches"] == 1
        finally:
            coordinator.close()

    def test_closing_a_session_notifies_connected_workers(self):
        """``DistributedSession.shutdown`` must broadcast the session's
        ``close_session`` frame to every connected worker — the coordinator
        half of the worker-side state release above."""
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)
        host, port = listener.getsockname()[:2]
        worker_sock = {}

        def _fake_worker():
            conn, _ = listener.accept()
            # announce a slow heartbeat so silence never kills this worker
            send_frame(conn, serialize(("register", "fake", 4242, 60.0)))
            worker_sock["conn"] = conn

        acceptor = threading.Thread(target=_fake_worker, daemon=True)
        acceptor.start()
        executor = DistributedExecutor(workers=[f"{host}:{port}"])
        try:
            executor.start()
            acceptor.join(timeout=5)
            session = executor.session()
            session.start()
            session_id = session.session_id
            session.shutdown()
            worker_sock["conn"].settimeout(10.0)  # fail, don't hang, if absent
            message = deserialize(recv_frame(worker_sock["conn"]))
            assert message == ("close_session", session_id)
        finally:
            executor.shutdown()
            listener.close()
            if "conn" in worker_sock:
                worker_sock["conn"].close()

    def test_session_submit_before_start_raises_typed(self):
        """LOAD submission on an unstarted session raises the executor
        contract's typed error — not a stripped-under-``python -O`` assert."""
        fleet = DistributedExecutor(max_workers=1)
        session = fleet.session()
        with pytest.raises(ExecutionError, match="before start"):
            session.submit("k", lambda: 1)

    def test_slow_beating_remote_worker_widens_silence_threshold(self):
        """A worker announcing a slower heartbeat interval than the
        coordinator assumed must not be declared dead between healthy
        beats: its handle gets a widened per-worker silence threshold."""
        ctx = multiprocessing.get_context()
        port_queue = ctx.Queue()
        process = ctx.Process(
            target=_listen_worker_main, args=(port_queue, None, 3.0), daemon=True
        )
        process.start()
        address = f"127.0.0.1:{port_queue.get(timeout=10)}"
        executor = DistributedExecutor(workers=[address])  # assumes 0.5s beats
        try:
            executor.start()
            with executor._lock:
                handle = next(iter(executor._workers.values()))
                assert handle.silence_timeout == pytest.approx(30.0)  # 10 * 3.0
        finally:
            executor.shutdown()
            _reap([process])


# ---------------------------------------------------------------------------
# Re-dial backoff for address-configured workers
# ---------------------------------------------------------------------------
def _await_worker_count(executor, count, timeout=5.0):
    deadline = time.monotonic() + timeout
    while len(executor.worker_pids()) != count and time.monotonic() < deadline:
        time.sleep(0.02)
    assert len(executor.worker_pids()) == count


def _await_backoff_expiry(executor, address, timeout=5.0):
    """Wait until ``address``'s armed re-dial backoff window has passed."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < min(executor._remote_retry_at.get(address, 0.0), deadline):
        time.sleep(0.01)
    assert time.monotonic() >= executor._remote_retry_at.get(address, 0.0)


class TestRedialBackoff:
    def test_redial_backoff_validated(self):
        assert executors_module._REDIAL_BACKOFF == pytest.approx(0.25)

    def test_recently_failed_address_not_reprobed_within_backoff(self, monkeypatch):
        """A dead address costs one failed dial, then is skipped until its
        backoff expires — an auto-pooled lifecycle calling start() every
        iteration must not pay a connect probe per iteration."""
        processes, addresses = _start_listening_workers(2)
        monkeypatch.setattr(executors_module, "_CONNECT_TIMEOUT", 0.5)
        monkeypatch.setattr(executors_module, "_REDIAL_BACKOFF", 30.0)
        executor = DistributedExecutor(workers=addresses)
        victim_address = parse_worker_address(addresses[1])
        try:
            executor.start()
            processes[1].kill()
            _await_worker_count(executor, 1)
            with pytest.warns(RuntimeWarning, match="unreachable"):
                executor.start()  # one failed dial arms the backoff
            assert executor._remote_dial_failures[victim_address] == 1
            executor.start()  # within the backoff window: skipped, no re-probe
            assert executor._remote_dial_failures[victim_address] == 1
        finally:
            executor.shutdown()
            _reap(processes)

    def test_restarted_worker_is_reconnected_and_backoff_resets(self, monkeypatch):
        """A worker that restarts on its old port between iterations is
        picked up by the next healing pass once the (here shortened)
        backoff expires, and its failure counter resets — the old hardcoded
        5s floor made every rolling restart cost a long stall."""
        processes, addresses = _start_listening_workers(2)
        monkeypatch.setattr(executors_module, "_CONNECT_TIMEOUT", 0.5)
        monkeypatch.setattr(executors_module, "_REDIAL_BACKOFF", 0.05)
        executor = DistributedExecutor(workers=addresses)
        victim_address = parse_worker_address(addresses[1])
        try:
            executor.start()
            processes[1].kill()
            processes[1].join(timeout=2.0)
            _await_worker_count(executor, 1)
            # two healing passes while the worker is down: failures accumulate
            # (exponential growth is over the *count*, reset on success below)
            with pytest.warns(RuntimeWarning, match="unreachable"):
                executor.start()
            _await_backoff_expiry(executor, victim_address)
            with pytest.warns(RuntimeWarning, match="unreachable"):
                executor.start()
            assert executor._remote_dial_failures[victim_address] >= 2
            # restart the worker on ITS OLD PORT, as a rolling restart would
            ctx = multiprocessing.get_context()
            port_queue = ctx.Queue()
            replacement = ctx.Process(
                target=_listen_worker_main,
                args=(port_queue, None, 0.5, victim_address[1]),
                daemon=True,
            )
            replacement.start()
            processes.append(replacement)
            assert port_queue.get(timeout=10) == victim_address[1]
            _await_backoff_expiry(executor, victim_address)
            executor.start()  # healing dial succeeds: pool back to strength
            assert victim_address not in executor._remote_dial_failures
            assert len(executor.worker_pids()) == 2
        finally:
            executor.shutdown()
            _reap(processes)

    def test_dial_whose_worker_is_gone_by_the_end_of_the_pass_keeps_backing_off(
        self, monkeypatch
    ):
        """A worker that accepts the dial and registers but is no longer
        registered when the healing pass ends (a crash loop) counts as a
        failed dial: its counter grows instead of resetting."""
        processes, addresses = _start_listening_workers(2)
        monkeypatch.setattr(executors_module, "_CONNECT_TIMEOUT", 0.5)
        monkeypatch.setattr(executors_module, "_REDIAL_BACKOFF", 1.0)
        executor = DistributedExecutor(workers=addresses)
        victim_address = parse_worker_address(addresses[1])
        try:
            executor.start()
            processes[1].kill()
            _await_worker_count(executor, 1)
            executor._remote_dial_failures[victim_address] = 2
            # the dial "succeeds" but leaves no registered worker behind
            monkeypatch.setattr(executor, "_connect_remote", lambda address: None)
            with pytest.warns(RuntimeWarning, match="did not stay registered"):
                executor.start()
            assert executor._remote_dial_failures[victim_address] == 3
            # third consecutive failure: 1s * 2**2 backoff armed
            assert executor._remote_retry_at[victim_address] > time.monotonic() + 3.0
        finally:
            executor.shutdown()
            _reap(processes)


# ---------------------------------------------------------------------------
# Worker-side artifact cache tier: bounds, dedup, pinning
# ---------------------------------------------------------------------------
class TestArtifactCacheTier:
    def test_byte_budget_evicts_least_recently_used(self):
        cache = _ArtifactCache(max_entries=10, max_bytes=100)
        cache.put("a", "A", b"a" * 60)
        cache.put("b", "B", b"b" * 30)
        assert (len(cache), cache.total_bytes) == (2, 90)
        hit, value = cache.get("a")  # refresh a: b becomes the LRU entry
        assert hit and value == "A"
        cache.put("c", "C", b"c" * 30)  # 120 bytes > 100: evict b, keep the fresh a
        assert cache.get("b") == (False, None)
        assert cache.get("a") == (True, "A")
        assert cache.total_bytes == 90

    def test_entry_cap_still_applies_to_small_artifacts(self):
        cache = _ArtifactCache(max_entries=3, max_bytes=1 << 30)
        for index in range(5):
            cache.put(f"s{index}", index, b"x")
        assert len(cache) == 3
        assert cache.get("s0") == (False, None)
        assert cache.get("s4") == (True, 4)

    def test_oversized_artifact_keeps_serving_its_task(self):
        cache = _ArtifactCache(max_entries=4, max_bytes=100)
        cache.put("huge", "H", b"h" * 1000)  # above the whole budget: floor of one
        assert cache.get("huge") == (True, "H")
        assert (len(cache), cache.total_bytes) == (1, 1000)
        cache.put("next", "N", b"n" * 10)  # the oversized entry goes on the next insert
        assert cache.get("huge") == (False, None)
        assert (len(cache), cache.total_bytes) == (1, 10)

    def test_reinserting_a_signature_is_a_dedup_hit_not_a_recharge(self):
        """The signature is the content address: a second ``put`` of the
        same signature keeps the first entry and charges nothing — the
        byte accounting must show exactly one copy (the dedup the
        artifact-plane contract promises for concurrent sessions)."""
        cache = _ArtifactCache(max_entries=4, max_bytes=100)
        blob = serialize({"shared": 1})
        cache.put("a", {"shared": 1}, blob, session="s1")
        cache.put("a", {"shared": 1}, blob, session="s2")
        assert (len(cache), cache.total_bytes) == (1, len(blob))
        assert cache.stats()["dedup_hits"] == 1
        assert cache.stats()["inserts"] == 1

    def test_two_sessions_share_one_cached_blob(self):
        """A hit from a session other than the inserting one counts as a
        cross-session hit — the wire-observable reuse signal ``repro
        serve`` aggregates — and serves the same object, not a copy."""
        cache = _ArtifactCache()
        value = {"payload": list(range(8))}
        cache.put("sig", value, serialize(value), session="run-a")
        hit_a, got_a = cache.get("sig", session="run-a")
        hit_b, got_b = cache.get("sig", session="run-b")
        assert hit_a and hit_b and got_a is value and got_b is value
        stats = cache.stats()
        assert stats["cache_hits"] == 2
        assert stats["cross_session_hits"] == 1
        assert stats["cache_entries"] == 1
        assert stats["cache_bytes"] == cache.total_bytes

    def test_eviction_skips_pinned_inflight_inputs(self):
        """Eviction pressure from one session must not pull an artifact out
        from under another session's running task: pinned entries are
        skipped even when they are the LRU victim, and unpinning makes
        them evictable again."""
        cache = _ArtifactCache(max_entries=10, max_bytes=100)
        cache.put("inflight", "I", b"i" * 60)
        cache.pin("inflight")
        cache.put("b", "B", b"b" * 30)
        cache.put("c", "C", b"c" * 30)  # over budget: LRU is the pinned entry
        assert cache.get("inflight") == (True, "I")  # survived eviction
        assert cache.get("b") == (False, None)  # next-oldest evicted instead
        cache.unpin("inflight")
        cache.get("c")  # refresh c so the unpinned entry is the LRU victim
        cache.put("d", "D", b"d" * 30)
        assert cache.get("inflight") == (False, None)


# ---------------------------------------------------------------------------
# Fetch timeout and reply framing, end to end
# ---------------------------------------------------------------------------
class TestFetchTimeoutAndReplyFraming:
    def test_fetch_timeout_validated(self):
        with pytest.raises(ExecutionError, match="fetch_timeout"):
            DistributedExecutor(max_workers=1, fetch_timeout=0.0)
        with pytest.raises(ExecutionError, match="fetch_timeout"):
            WorkerServer(fetch_timeout=-1.0)

    def test_unanswered_fetch_expires_typed_and_worker_survives(self, monkeypatch):
        """A coordinator that never answers a fetch fails *that task* after
        ``fetch_timeout`` with an error naming the node and the artifact;
        the worker survives and serves the same ref once answers resume."""
        from repro.exceptions import OperatorError
        from repro.workloads.synthetic import LatencyOperator

        dropping = {"on": True}
        original = DistributedExecutor._answer_fetch

        def muted(self, worker, session_id, signature):
            if dropping["on"]:
                return  # swallow the fetch: the coordinator never answers
            return original(self, worker, session_id, signature)

        monkeypatch.setattr(DistributedExecutor, "_answer_fetch", muted)
        store = InMemoryStore()
        store.put("parent", "sig-parent", 21.0)
        executor = DistributedExecutor(
            max_workers=1, fetch_inputs=True, fetch_timeout=0.4
        )
        executor.bind_store(store)
        try:
            executor.start()
            executor.submit_payload(
                "child",
                _task_payload(
                    ("child", LatencyOperator(offset=1.0)), inputs=[ArtifactRef("sig-parent")]
                ),
            )
            key, _, error = executor.next_completion()
            assert key == "child"
            assert isinstance(error, OperatorError)
            assert "child" in str(error)
            assert "did not answer the fetch" in str(error)
            assert "0.4s" in str(error)
            # restore answers: the surviving worker resolves the same ref
            dropping["on"] = False
            executor.submit_payload(
                "child2",
                _task_payload(
                    ("child2", LatencyOperator(offset=1.0)), inputs=[ArtifactRef("sig-parent")]
                ),
            )
            key, outcome, error = executor.next_completion()
            assert (key, error) == ("child2", None)
            assert outcome[0][0] == pytest.approx(22.0)
            assert len(executor.worker_pids()) == 1
            executor.finish_run()
        finally:
            executor.shutdown()

    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork",
        reason="the worker only inherits the monkeypatch under fork",
    )
    def test_engine_surfaces_unframeable_reply_and_worker_survives(self, monkeypatch):
        """Engine-level: a result reply the worker cannot frame surfaces
        from ``engine.execute`` as a typed error naming the node, and the
        same worker then completes a follow-up run."""
        import repro.execution.executors as executors_module
        from repro.exceptions import OperatorError
        from repro.workloads.synthetic import LatencyOperator

        original = executors_module.send_message

        def refusing(sock, message, lock=None):
            if isinstance(message, tuple) and message[0] == "result" and message[2] == "big":
                raise ProtocolError("frame payload exceeds the frame limit")
            return original(sock, message, lock)

        monkeypatch.setattr(executors_module, "send_message", refusing)
        executor = DistributedExecutor(max_workers=1)
        executor.start()  # fork happens with the refusing transport in place
        engine = _engine_for(executor)
        try:
            dag = WorkflowDAG([Node.create("big", LatencyOperator(offset=1.0), is_output=True)])
            with pytest.raises(OperatorError, match="could not be framed") as excinfo:
                engine.execute(dag, _all_compute_plan(dag), compute_node_signatures(dag))
            assert "big" in str(excinfo.value)
            assert len(executor.worker_pids()) == 1  # worker survived
            good = WorkflowDAG([Node.create("ok", LatencyOperator(offset=2.0), is_output=True)])
            stats = engine.execute(
                good, _all_compute_plan(good), compute_node_signatures(good)
            )
            assert "ok" in stats.node_times  # the run completed on the survivor
        finally:
            executor.shutdown()


# ---------------------------------------------------------------------------
# Session multiplexing (protocol v3): concurrent runs on one shared fleet
# ---------------------------------------------------------------------------
class TestSessionMultiplexing:
    def test_session_ids_and_closed_session_refuses_start(self):
        fleet = DistributedExecutor(max_workers=1)
        try:
            first = fleet.session()
            second = fleet.session()
            assert first.session_id == "s1"
            assert second.session_id == "s2"
            assert first.fleet is fleet
            first.start()
            first.shutdown()
            with pytest.raises(ExecutionError, match="closed"):
                first.start()
            first.shutdown()  # idempotent
            second.shutdown()
            assert len(fleet.worker_pids()) == 1  # sessions never reap workers
        finally:
            fleet.shutdown()

    def test_concurrent_session_runs_match_inline(self):
        """Two engines run full plans concurrently, each on its own session
        of one shared 2-worker fleet, and each matches its inline reference."""
        fleet = DistributedExecutor(max_workers=2)
        dags = {
            "random": make_random_dag(10, max_width=4, max_depth=4),
            "wide": make_wide_dag(branches=5, depth=2, node_seconds=0.03),
        }
        references = {
            label: _engine_for().execute(
                dag, _all_compute_plan(dag), compute_node_signatures(dag)
            )
            for label, dag in dags.items()
        }
        results, errors = {}, {}

        def _run(label, dag):
            session = fleet.session()
            try:
                results[label] = _engine_for(session).execute(
                    dag, _all_compute_plan(dag), compute_node_signatures(dag)
                )
            except BaseException as exc:  # noqa: BLE001 - surfaced below
                errors[label] = exc
            finally:
                session.shutdown(cancel=True)

        threads = [
            threading.Thread(target=_run, args=item) for item in dags.items()
        ]
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
            assert not errors, errors
            for label in dags:
                assert_equivalent_runs(
                    references[label], results[label], include_times=False
                )
            assert len(fleet.worker_pids()) == 2  # one fleet served both runs
        finally:
            fleet.shutdown()

    def test_fetches_answered_from_each_sessions_own_store(self):
        """Two sessions ship *different* artifact signatures backed by
        different bound stores; each fetch must resolve from the store of
        the session that shipped the ref.  (Signatures are content
        addresses: distinct values always carry distinct recursive node
        signatures, which is exactly what lets the worker's artifact tier
        span sessions — the same-signature case is the *sharing* test
        below, not a store-routing one.)"""
        from repro.workloads.synthetic import LatencyOperator

        fleet = DistributedExecutor(max_workers=1, fetch_inputs=True)
        try:
            sessions = []
            for value, signature in ((10.0, "sig-a"), (20.0, "sig-b")):
                session = fleet.session()
                store = InMemoryStore()
                store.put("parent", signature, value)
                session.bind_store(store)
                session.start()
                sessions.append((value, signature, session))
            for value, signature, session in sessions:  # A fully first, then B
                session.submit_payload(
                    "child",
                    _task_payload(
                        ("child", LatencyOperator(offset=1.0)), inputs=[ArtifactRef(signature)]
                    ),
                )
                key, outcome, error = session.next_completion()
                assert (key, error) == ("child", None)
                assert outcome[0][0] == pytest.approx(value + 1.0)
                session.finish_run()
            for _, _, session in sessions:
                session.shutdown()
        finally:
            fleet.shutdown()

    def test_sessions_share_one_cached_artifact_per_signature(self):
        """Two sessions resolving the *same* signature on one worker hit a
        single cached blob: the first resolve fetches from the
        coordinator, the second is a cross-session cache hit — no second
        fetch reaches the coordinator, and the fleet's plane stats expose
        the reuse (the counter ``repro serve`` reports)."""
        from repro.workloads.synthetic import LatencyOperator

        fleet = DistributedExecutor(max_workers=1, fetch_inputs=True)
        shared_value = 21.0
        try:
            fetches = []
            original = DistributedExecutor._answer_fetch

            def counting(self, worker, session_id, signature):
                fetches.append(signature)
                original(self, worker, session_id, signature)

            DistributedExecutor._answer_fetch = counting
            try:
                for _ in range(2):
                    session = fleet.session()
                    store = InMemoryStore()
                    store.put("parent", "sig-shared", shared_value)
                    session.bind_store(store)
                    session.start()
                    session.submit_payload(
                        "child",
                        _task_payload(
                            ("child", LatencyOperator(offset=1.0)),
                            inputs=[ArtifactRef("sig-shared")]
                        ),
                    )
                    key, outcome, error = session.next_completion()
                    assert (key, error) == ("child", None)
                    session.finish_run()
                    session.shutdown()
            finally:
                DistributedExecutor._answer_fetch = original
            assert fetches == ["sig-shared"]  # exactly one coordinator fetch
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline:  # stats ride the heartbeat
                plane = fleet.artifact_plane_stats()
                if plane.get("cross_session_hits", 0) >= 1:
                    break
                time.sleep(0.05)
            assert plane.get("cross_session_hits", 0) >= 1, plane
            assert plane["fetches_served"] == 1
            assert plane["fetch_bytes_served"] == len(serialize(shared_value))
        finally:
            fleet.shutdown()

    def test_one_sessions_backlog_does_not_starve_another(self):
        """Round-robin dispatch across sessions: a single-task session
        completes while a backlogged session still has queued work, instead
        of waiting behind the whole backlog."""
        from repro.workloads.synthetic import LatencyOperator

        fleet = DistributedExecutor(max_workers=1, pipeline_depth=1)
        order = []
        try:
            busy = fleet.session()
            light = fleet.session()
            busy.start()
            light.start()
            slow = LatencyOperator(offset=1.0, sleep_seconds=0.15)
            for index in range(4):
                busy.submit_payload(
                    f"a{index}", _task_payload((f"a{index}", slow))
                )
            light.submit_payload(
                "b0", _task_payload(("b0", LatencyOperator(offset=2.0)))
            )

            def _collect(session, count):
                for _ in range(count):
                    key, _, error = session.next_completion()
                    assert error is None
                    order.append(key)

            busy_thread = threading.Thread(target=_collect, args=(busy, 4))
            light_thread = threading.Thread(target=_collect, args=(light, 1))
            busy_thread.start()
            light_thread.start()
            busy_thread.join(timeout=30)
            light_thread.join(timeout=30)
            busy.shutdown()
            light.shutdown()
            assert order.index("b0") < order.index("a3"), order
        finally:
            fleet.shutdown()
