"""Helix-as-a-service: the ``repro serve`` daemon and ``repro submit`` client.

Pins down the serving layer built on protocol v3 session multiplexing:

* **Equivalence** — two runs submitted concurrently to one daemon execute
  on a shared 2-worker fleet at the same time (``peak_active == 2``) and
  each produces stats identical (modulo timing/memory) to an inline run of
  the same spec, checked through the equivalence-harness payloads.
* **Scheduling** — admission is FIFO; ``max_concurrent_runs`` bounds how
  many runs execute at once, and queued submissions report their position.
* **Admission** — malformed specs (unknown workload, bad policy, wrong
  frame) are refused with a typed message at submit time, client- and
  daemon-side, without disturbing the fleet.
* **CLI** — ``repro submit --verify-inline --json`` round-trips against an
  in-process daemon.
"""

from __future__ import annotations

import json
import socket
import threading
import time

import pytest

from repro.exceptions import ExecutionError
from repro.service import (
    ServeDaemon,
    ServiceClient,
    assert_payloads_equivalent,
    inline_reference,
    submit_run,
    validate_spec,
)
from repro.service.cli import submit_main
from repro.storage.serialization import recv_message, send_message

CENSUS_SPEC = {
    "workload": "census",
    "iterations": 2,
    "scale": 0.25,
    "seed": 7,
    "policy": "opt",
    "cost_model": "simulated",
}


# ---------------------------------------------------------------------------
# Spec validation (admission-time refusal)
# ---------------------------------------------------------------------------
class TestSpecValidation:
    def test_normalizes_and_fills_defaults(self):
        spec = validate_spec({"workload": "census"})
        assert spec == {
            "workload": "census",
            "iterations": 0,
            "scale": 1.0,
            "seed": 7,
            "policy": "opt",
            "cost_model": "simulated",
            "tenant": "default",
            "priority": 0,
        }

    def test_tenant_and_priority_are_validated(self):
        spec = validate_spec(
            {"workload": "census", "tenant": "team-a", "priority": 7}
        )
        assert spec["tenant"] == "team-a"
        assert spec["priority"] == 7

    @pytest.mark.parametrize(
        ("bad", "match"),
        [
            ("not-a-dict", "must be a dict"),
            ({}, "workload name"),
            ({"workload": 7}, "workload name"),
            ({"workload": "nope"}, "unknown workload"),
            ({"workload": "census", "typo": 1}, "unknown field"),
            ({"workload": "census", "iterations": "many"}, "non-numeric"),
            ({"workload": "census", "iterations": -1}, "iterations"),
            ({"workload": "census", "scale": 0}, "scale"),
            ({"workload": "census", "policy": "maybe"}, "unknown policy"),
            ({"workload": "census", "cost_model": "guess"}, "unknown cost_model"),
            ({"workload": "census", "tenant": ""}, "tenant"),
            ({"workload": "census", "tenant": 7}, "tenant"),
            ({"workload": "census", "tenant": "bad tenant!"}, "tenant"),
            ({"workload": "census", "tenant": "x" * 65}, "tenant"),
            ({"workload": "census", "priority": "urgent"}, "non-numeric priority"),
            ({"workload": "census", "priority": -1}, "priority must be within"),
            ({"workload": "census", "priority": 10}, "priority must be within"),
        ],
    )
    def test_malformed_specs_fail_typed(self, bad, match):
        with pytest.raises(ExecutionError, match=match):
            validate_spec(bad)


# ---------------------------------------------------------------------------
# Serving runs on a shared fleet
# ---------------------------------------------------------------------------
class TestServeDaemon:
    def test_concurrent_runs_share_the_fleet_and_match_inline(self):
        """The acceptance criterion: two concurrent submissions execute on
        one 2-worker fleet simultaneously and each matches its inline
        reference through the equivalence payloads."""
        spec_a = dict(CENSUS_SPEC)
        spec_b = dict(CENSUS_SPEC, seed=11)
        with ServeDaemon(max_workers=2, max_concurrent_runs=2) as daemon:
            client = ServiceClient(daemon.address)
            handle_a = client.submit(spec_a)
            handle_b = client.submit(spec_b)
            progress = []
            payload_a = handle_a.result(
                on_event=lambda kind, info: progress.append(info["iteration"])
            )
            payload_b = handle_b.result()
            stats = daemon.stats()
            assert len(daemon.worker_pids()) == 2  # one fleet served both
        assert stats["peak_active"] == 2  # the runs truly overlapped
        assert sorted(stats["completed"]) == ["run-1", "run-2"]
        assert stats["failed"] == []
        assert progress == [0, 1]  # streamed per-iteration progress
        assert_payloads_equivalent(payload_a, inline_reference(spec_a))
        assert_payloads_equivalent(payload_b, inline_reference(spec_b))
        # different seeds are genuinely different runs — the harness agrees
        with pytest.raises(AssertionError):
            assert_payloads_equivalent(payload_a, payload_b)

    def test_admission_is_fifo_and_concurrency_is_bounded(self):
        spec = dict(CENSUS_SPEC, iterations=1)
        with ServeDaemon(max_workers=1, max_concurrent_runs=1) as daemon:
            client = ServiceClient(daemon.address)
            handles = [client.submit(dict(spec, seed=seed)) for seed in (1, 2, 3)]
            # the daemon reported each submission's queue position at admission
            assert [h.queue_position for h in handles] == [0, 1, 2]
            for handle in handles:
                handle.result()
            stats = daemon.stats()
        assert stats["peak_active"] == 1  # never more than the knob allows
        assert stats["completed"] == ["run-1", "run-2", "run-3"]  # FIFO

    def test_failed_run_reports_typed_and_daemon_survives(self):
        """A run that fails mid-execution reports ('failed', ...) to its
        submitter; the daemon and fleet keep serving later submissions."""
        with ServeDaemon(max_workers=1, max_concurrent_runs=1) as daemon:
            client = ServiceClient(daemon.address)
            # scale small enough that the census workload cannot stratify
            # is hard to provoke; instead fail validation server-side by
            # bypassing the client's local validate with a raw frame
            sock = socket.create_connection(daemon.address, timeout=5)
            try:
                send_message(sock, ("submit", {"workload": "nope"}))
                reply = recv_message(sock)
            finally:
                sock.close()
            assert reply[0] == "failed"
            assert "unknown workload" in reply[2]
            # the fleet is untouched: a good run still completes
            payload = client.submit(dict(CENSUS_SPEC, iterations=1)).result()
            assert payload["summary"]["iterations"] == 1

    def test_non_submit_frame_is_refused(self):
        with ServeDaemon(max_workers=1) as daemon:
            sock = socket.create_connection(daemon.address, timeout=5)
            try:
                send_message(sock, ("heartbeat", "w0"))
                reply = recv_message(sock)
            finally:
                sock.close()
        assert reply[0] == "failed"
        assert "submit" in reply[2]

    def test_client_rejects_bad_spec_without_connecting(self):
        client = ServiceClient(("127.0.0.1", 1))  # nothing listens there
        with pytest.raises(ExecutionError, match="unknown workload"):
            client.submit({"workload": "nope"})

    def test_max_concurrent_runs_validated(self):
        with pytest.raises(ExecutionError, match="max_concurrent_runs"):
            ServeDaemon(max_workers=1, max_concurrent_runs=0)

    def test_overlapping_identical_runs_reuse_artifacts(self):
        """Same-seed runs produce identical signatures, so later runs
        resolve artifacts from the fleet's shared content-addressed tier
        (or a peer worker) instead of pulling every byte through the
        coordinator again — wire-observable in the ``artifact_plane``
        counters, which must also survive stop().  The first two runs
        overlap (their fetches may race); the third starts against warm
        worker caches, so at least one peer fetch or cross-session hit is
        guaranteed."""
        with ServeDaemon(max_workers=2, max_concurrent_runs=2) as daemon:
            client = ServiceClient(daemon.address)
            handle_a = client.submit(dict(CENSUS_SPEC))
            handle_b = client.submit(dict(CENSUS_SPEC))  # same seed: same sigs
            handle_a.result()
            handle_b.result()
            client.submit(dict(CENSUS_SPEC)).result()  # warm-tier run
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline:  # worker stats ride heartbeats
                plane = daemon.stats()["artifact_plane"]
                reuse = plane.get("peer_fetches", 0) + plane.get(
                    "cross_session_hits", 0
                )
                if reuse >= 1:
                    break
                time.sleep(0.05)
            assert reuse >= 1, plane
        # the stop() snapshot keeps the counters readable after the fleet
        # (and its stats-carrying heartbeats) are gone
        frozen = daemon.stats()["artifact_plane"]
        assert frozen.get("peer_fetches", 0) + frozen.get("cross_session_hits", 0) >= 1
        assert "locates_served" in frozen and "fetch_bytes_served" in frozen

    def test_peer_fetch_off_routes_all_bytes_through_coordinator(self):
        """The ``peer_fetch=False`` knob fully disables the plane: locates
        are never answered with peers and workers never dial each other,
        yet runs still complete and match inline."""
        spec = dict(CENSUS_SPEC, iterations=1)
        with ServeDaemon(
            max_workers=1, max_concurrent_runs=1, peer_fetch=False
        ) as daemon:
            payload = submit_run(daemon.address, spec)
            plane = daemon.stats()["artifact_plane"]
        assert payload["summary"]["iterations"] == 1
        assert plane["locates_served"] == 0
        assert plane["locates_with_peers"] == 0
        assert_payloads_equivalent(payload, inline_reference(spec))

    def test_submit_run_convenience(self):
        with ServeDaemon(max_workers=1) as daemon:
            events = []
            payload = submit_run(
                daemon.address,
                dict(CENSUS_SPEC, iterations=1),
                on_event=lambda kind, info: events.append(kind),
            )
        assert payload["summary"]["workload"] == "census"
        assert events == ["progress"]


# ---------------------------------------------------------------------------
# Shutdown semantics (review-fix regressions)
# ---------------------------------------------------------------------------
class _GatedDaemon(ServeDaemon):
    """A daemon whose runs block on a gate, so a test can pin one 'active'
    while others sit queued — without racing against real run durations."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.gate = threading.Event()
        self.executed = []

    def _execute(self, record):
        self.executed.append(record.run_id)
        if not self.gate.wait(timeout=20):
            raise ExecutionError("test gate never opened")
        return {"ok": record.run_id}


class TestStopSemantics:
    def test_stop_fails_queued_runs_without_executing_them(self):
        """stop() lets the active run finish but fails the queued backlog
        without running it — and the stats stay consistent: failed runs are
        counted, nothing stays 'queued' forever."""
        daemon = _GatedDaemon(max_workers=1, max_concurrent_runs=1)
        daemon.start()
        try:
            client = ServiceClient(daemon.address)
            handle_a = client.submit(dict(CENSUS_SPEC, iterations=1))
            handle_b = client.submit(dict(CENSUS_SPEC, iterations=1, seed=11))
            deadline = time.monotonic() + 10
            while not daemon.executed and time.monotonic() < deadline:
                time.sleep(0.01)
            assert daemon.executed == ["run-1"]  # run-2 queued behind it

            stopper = threading.Thread(target=daemon.stop)
            stopper.start()
            while not daemon._stopping.is_set():
                time.sleep(0.01)
            daemon.gate.set()  # now let the active run finish
            stopper.join(timeout=30)
            assert not stopper.is_alive()

            assert handle_a.result() == {"ok": "run-1"}
            with pytest.raises(ExecutionError, match="before the run started"):
                handle_b.result()
            assert daemon.executed == ["run-1"]  # run-2 never executed
            stats = daemon.stats()
            assert stats["queued"] == 0 and stats["active"] == 0
            assert stats["completed"] == ["run-1"]
            assert stats["failed"] == ["run-2"]
        finally:
            daemon.gate.set()
            daemon.stop()

    def test_submission_racing_with_stop_is_refused(self):
        """An admission that catches the daemon mid-stop gets a terminal
        'failed' frame instead of being queued behind the final drain and
        leaving its client blocked forever."""
        daemon = ServeDaemon(max_workers=1)
        daemon._stopping.set()  # mid-stop, admission-side view
        # a real TCP pair: admission sets TCP_NODELAY, which an AF_UNIX
        # socketpair would reject
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)
        client_sock = socket.create_connection(listener.getsockname())
        server_side, _ = listener.accept()
        listener.close()
        try:
            send_message(client_sock, ("submit", dict(CENSUS_SPEC)))
            daemon._handle_submission(server_side)
            client_sock.settimeout(5.0)
            reply = recv_message(client_sock)
            assert reply[0] == "failed"
            assert "stopping" in reply[2]
            assert daemon._scheduler.qsize() == 0  # nothing stranded for a drain
            assert daemon.stats()["queued"] == 0
        finally:
            client_sock.close()


# ---------------------------------------------------------------------------
# Service-layer bugfix regressions
# ---------------------------------------------------------------------------
class _NoWatcherDaemon(_GatedDaemon):
    """Gated daemon with the disconnect watcher disabled, so a dead
    client survives in the queue until the dequeue-time liveness check —
    the path a client racing the runner handoff takes."""

    def _watch_queued_client(self, record):
        pass


class TestBugfixes:
    def test_dead_client_run_is_not_executed(self):
        """A queued run whose submitter vanished must not occupy a runner
        slot and the fleet: the dequeue-time EOF peek fails it unrun."""
        daemon = _NoWatcherDaemon(max_workers=1, max_concurrent_runs=1)
        daemon.start()
        try:
            client = ServiceClient(daemon.address)
            running = client.submit(dict(CENSUS_SPEC, iterations=1))
            deadline = time.monotonic() + 10
            while not daemon.executed and time.monotonic() < deadline:
                time.sleep(0.01)
            assert daemon.executed == ["run-1"]
            dead = client.submit(dict(CENSUS_SPEC, iterations=1, seed=11))
            dead.close()  # the submitter hangs up while run-2 is queued
            daemon.gate.set()
            running.result()
            deadline = time.monotonic() + 10
            while "run-2" not in daemon.stats()["failed"]:
                assert time.monotonic() < deadline, daemon.stats()
                time.sleep(0.01)
            stats = daemon.stats()
            assert daemon.executed == ["run-1"]  # run-2 never executed
            assert stats["failed"] == ["run-2"]
            assert stats["queued"] == 0 and stats["active"] == 0
        finally:
            daemon.gate.set()
            daemon.stop()

    def test_stop_warns_on_runner_still_mid_run(self):
        """stop() must not silently proceed past a runner that outlived
        the join timeout: it warns naming the thread, re-joins after the
        fleet drain, and warns again if the thread truly leaked."""
        daemon = _GatedDaemon(max_workers=1, max_concurrent_runs=1)
        daemon.start()
        try:
            client = ServiceClient(daemon.address)
            handle = client.submit(dict(CENSUS_SPEC, iterations=1))
            deadline = time.monotonic() + 10
            while not daemon.executed and time.monotonic() < deadline:
                time.sleep(0.01)
            assert daemon.executed == ["run-1"]
            with pytest.warns(RuntimeWarning, match="repro-serve-run-0"):
                daemon.stop(join_timeout=0.2)  # the gated run is still live
        finally:
            daemon.gate.set()
        assert handle.result() == {"ok": "run-1"}  # the run still finished

    @pytest.mark.parametrize(
        "reply",
        [
            ("accepted",),                 # truncated tuple
            ("accepted", "run-1"),         # missing admission info
            ("failed",),                   # truncated refusal
            "accepted",                    # not a tuple at all
            ("accepted", "run-1", "soon"), # junk position payload
            ("accepted", "run-1", 3),      # bare count, not an admission dict
        ],
    )
    def test_malformed_admission_reply_raises_typed(self, reply):
        """A daemon (or impostor) sending a malformed admission tuple
        must surface as ExecutionError, not bare IndexError/TypeError."""
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)

        def _fake_daemon():
            conn, _ = listener.accept()
            recv_message(conn)  # the submit frame
            send_message(conn, reply)
            conn.close()

        server = threading.Thread(target=_fake_daemon, daemon=True)
        server.start()
        try:
            client = ServiceClient(listener.getsockname(), connect_timeout=5)
            with pytest.raises(ExecutionError, match="admission reply"):
                client.submit(dict(CENSUS_SPEC))
        finally:
            server.join(timeout=5)
            listener.close()

    def test_queue_position_reports_queued_and_active_split(self):
        """Client and daemon agree on the semantics: queue_position is the
        admitted-but-unfinished count, with the queued/active split (and
        the policy position) reported alongside."""
        daemon = _GatedDaemon(max_workers=1, max_concurrent_runs=1)
        daemon.start()
        try:
            client = ServiceClient(daemon.address)
            first = client.submit(dict(CENSUS_SPEC, iterations=1))
            deadline = time.monotonic() + 10
            while not daemon.executed and time.monotonic() < deadline:
                time.sleep(0.01)
            second = client.submit(dict(CENSUS_SPEC, iterations=1, seed=11))
            assert first.queue_position == 0
            # run-1 is executing, nothing else queued: the split is exact
            assert second.queued_ahead == 0
            assert second.active_at_admission == 1
            assert second.queue_position == 1
            assert second.position == 0  # no *queued* run starts first
            assert second.scheduler == "fifo"
            daemon.gate.set()
            first.result()
            second.result()
        finally:
            daemon.gate.set()
            daemon.stop()

    def test_abandoned_event_stream_releases_the_socket(self):
        """Breaking out of events() mid-stream must close the connection
        promptly (try/finally in the generator), not at interpreter GC."""
        with ServeDaemon(max_workers=1) as daemon:
            client = ServiceClient(daemon.address)
            handle = client.submit(dict(CENSUS_SPEC, iterations=2))
            for _kind, _info in handle.events():
                break  # walk away after the first progress event
            assert handle._sock is None  # released immediately
            with pytest.raises(ExecutionError, match="abandoned"):
                handle.result()
            # the daemon finishes the orphaned run and keeps serving
            payload = client.submit(dict(CENSUS_SPEC, iterations=1)).result()
            assert payload["summary"]["iterations"] == 1
            deadline = time.monotonic() + 10
            while len(daemon.stats()["completed"]) < 2:
                assert time.monotonic() < deadline, daemon.stats()
                time.sleep(0.01)

    def test_run_handle_is_a_context_manager(self):
        with ServeDaemon(max_workers=1) as daemon:
            client = ServiceClient(daemon.address)
            with client.submit(dict(CENSUS_SPEC, iterations=1)) as handle:
                payload = handle.result()
            assert handle._sock is None
            assert payload["summary"]["iterations"] == 1


# ---------------------------------------------------------------------------
# Command line
# ---------------------------------------------------------------------------
class TestSubmitCli:
    def test_submit_verify_inline_and_json(self, tmp_path, capsys):
        out = tmp_path / "run.json"
        with ServeDaemon(max_workers=2) as daemon:
            host, port = daemon.address
            rc = submit_main(
                [
                    "--address", f"{host}:{port}",
                    "--workload", "census",
                    "--iterations", "2",
                    "--scale", "0.25",
                    "--verify-inline",
                    "--json", str(out),
                ]
            )
        assert rc == 0
        printed = capsys.readouterr().out
        assert "submitted run-1" in printed
        assert "equivalent to the inline reference" in printed
        payload = json.loads(out.read_text())
        assert payload["summary"]["system"] == "helix-opt"
        assert payload["summary"]["iterations"] == 2
        assert len(payload["iterations"]) == 2
        assert payload["iteration_types"] == ["DPR", "PPR"]
