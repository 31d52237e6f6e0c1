"""Client API for the ``repro serve`` daemon: submit runs, stream progress.

The client side of the service wire protocol (see
:mod:`repro.service.daemon`): open a TCP connection to the daemon, ship a
``("submit", spec)`` frame, then read ``accepted`` / ``progress`` /
``done``-or-``failed`` frames back.  Each submission uses its own
connection, so a caller can hold several :class:`RunHandle` objects open at
once — submit first, collect later — which is exactly how concurrent runs
are exercised against a shared fleet.

``inline_reference`` runs the same spec in-process on the inline executor
and returns the same payload shape, so a served run can be checked for
equivalence ("identical modulo timing/memory") with
:func:`assert_payloads_equivalent`.
"""

from __future__ import annotations

import socket
from typing import Any, Callable, Dict, Optional, Tuple, Union

from ..exceptions import ExecutionError, ProtocolError
from ..storage.serialization import recv_message, send_message
from .daemon import parse_service_address, run_spec, validate_spec

__all__ = [
    "RunHandle",
    "ServiceClient",
    "submit_run",
    "inline_reference",
    "assert_payloads_equivalent",
]

#: Frame types a submission connection may receive, in protocol order.
_EVENT_TYPES = ("accepted", "progress", "done", "failed")


class RunHandle:
    """One submitted run: its id, admission info, event stream and result.

    Obtained from :meth:`ServiceClient.submit`.  The handle owns the
    submission's connection; iterate :meth:`events` (or just call
    :meth:`result`, which drains them for you) to follow the run to its
    terminal frame.  Usable as a context manager — leaving the ``with``
    block closes the connection even if the event stream was abandoned
    mid-run.
    """

    def __init__(self, sock: socket.socket, run_id: str, admission: Dict[str, Any]):
        self._sock: Optional[socket.socket] = sock
        self.run_id = run_id
        #: The daemon's admission report, verbatim (tenant, priority,
        #: scheduler, queued/active split, policy position).
        self.admission = admission
        #: Tenant and effective priority the daemon admitted the run under.
        self.tenant: str = admission.get("tenant", "default")
        self.priority: int = int(admission.get("priority", 0))
        #: The daemon's scheduler policy name (``"fifo"`` / ``"fair"``).
        self.scheduler: str = admission.get("scheduler", "fifo")
        #: Submissions sitting in the admission queue at admission time.
        self.queued_ahead: int = int(admission.get("queued", 0))
        #: Runs already executing at admission time.
        self.active_at_admission: int = int(admission.get("active", 0))
        #: Queued runs the scheduler guarantees to start before this one
        #: (an estimate under the fair policy; equals ``queued_ahead``
        #: under fifo modulo a concurrent dequeue).
        self.position: int = int(admission.get("position", self.queued_ahead))
        self._payload: Optional[Dict[str, Any]] = None
        self._error: Optional[str] = None
        self._done = False

    @property
    def queue_position(self) -> int:
        """Admitted-but-unfinished runs ahead at admission time.

        Both the runs still queued *and* those already executing — the
        run starts after (at most) this many admitted runs finish.  See
        :attr:`queued_ahead` / :attr:`active_at_admission` for the split
        and :attr:`position` for the scheduler-policy view.
        """
        return self.queued_ahead + self.active_at_admission

    def events(self):
        """Yield ``("progress", info)`` events until the terminal frame.

        The terminal frame itself is not yielded; it is captured so
        :meth:`result` can return the payload (or raise).  The connection
        is closed once the stream ends — including when the caller breaks
        out (or the generator is otherwise closed) mid-stream, in which
        case the run keeps executing on the daemon but this handle's
        socket is released immediately rather than at GC time.
        """
        try:
            while not self._done:
                if self._sock is None:
                    self._finish(error="event stream abandoned before the run finished")
                    return
                try:
                    message = recv_message(self._sock)
                except (OSError, ProtocolError) as exc:
                    self._finish(error=f"connection to the service lost: {exc}")
                    return
                if message is None:
                    self._finish(error="service closed the connection before the run finished")
                    return
                kind = message[0]
                if kind == "progress":
                    yield ("progress", message[2])
                elif kind == "done":
                    self._finish(payload=message[2])
                elif kind == "failed":
                    self._finish(error=str(message[2]))
                else:  # pragma: no cover - daemon never sends anything else
                    self._finish(error=f"unexpected frame from the service: {message[0]!r}")
        finally:
            if not self._done:
                self.close()  # abandoned mid-stream: release the socket now

    def result(self, on_event: Optional[Callable[[str, Any], None]] = None) -> Dict[str, Any]:
        """Block until the run finishes and return its payload.

        ``on_event`` receives each ``(kind, info)`` progress event while
        waiting.  Raises :class:`ExecutionError` if the daemon reported the
        run as failed (the message carries the daemon-side error).
        """
        for kind, info in self.events():
            if on_event is not None:
                on_event(kind, info)
        if self._error is not None:
            raise ExecutionError(
                f"served run {self.run_id or '(rejected)'} failed: {self._error}"
            )
        assert self._payload is not None
        return self._payload

    def _finish(self, payload: Optional[Dict[str, Any]] = None, error: Optional[str] = None) -> None:
        self._done = True
        self._payload = payload
        self._error = error
        self.close()

    def close(self) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None

    def __enter__(self) -> "RunHandle":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class ServiceClient:
    """Submit workflow runs to a ``repro serve`` daemon.

    Parameters
    ----------
    address:
        The daemon's listening address, as ``"host:port"`` or a
        ``(host, port)`` tuple.
    connect_timeout:
        Seconds to wait for the TCP connect and the admission reply.
    """

    def __init__(
        self,
        address: Union[str, Tuple[str, int]],
        connect_timeout: float = 10.0,
    ) -> None:
        self.address = parse_service_address(address)
        self.connect_timeout = connect_timeout

    def submit(self, spec: Dict[str, Any]) -> RunHandle:
        """Submit one run spec; returns once the daemon admits (or rejects) it.

        The spec is validated locally first so obvious mistakes fail with
        the same typed error the daemon would give, without a round trip.
        Raises :class:`ExecutionError` if the daemon rejects the submission.
        """
        spec = validate_spec(spec)
        sock = socket.create_connection(self.address, timeout=self.connect_timeout)
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            send_message(sock, ("submit", spec))
            reply = recv_message(sock)
        except BaseException:
            sock.close()
            raise
        try:
            run_id, admission = self._parse_admission(reply)
        except ExecutionError:
            sock.close()
            raise
        sock.settimeout(None)  # the run itself may take arbitrarily long
        return RunHandle(sock, run_id=run_id, admission=admission)

    @staticmethod
    def _parse_admission(reply: Any) -> Tuple[str, Dict[str, Any]]:
        """Validate the admission frame's shape before indexing into it.

        A malformed or truncated tuple raises the same typed
        :class:`ExecutionError` every other protocol failure gets, never a
        bare ``IndexError``/``TypeError``.
        """
        if reply is None:
            raise ExecutionError("service closed the connection during admission")
        if not isinstance(reply, tuple) or not reply:
            raise ExecutionError(
                f"malformed admission reply from the service: {reply!r}"
            )
        if reply[0] == "failed":
            if len(reply) != 3:
                raise ExecutionError(
                    f"malformed admission reply from the service: {reply!r}"
                )
            raise ExecutionError(f"service rejected the submission: {reply[2]}")
        if (
            reply[0] != "accepted"
            or len(reply) != 3
            or not isinstance(reply[1], str)
            or not isinstance(reply[2], dict)
        ):
            raise ExecutionError(f"unexpected admission reply: {reply!r}")
        admission = reply[2]
        try:
            for key in ("queued", "active", "position", "priority"):
                if key in admission:
                    admission[key] = int(admission[key])
        except (TypeError, ValueError):
            raise ExecutionError(
                f"malformed admission reply from the service: {reply!r}"
            ) from None
        return reply[1], admission


def submit_run(
    address: Union[str, Tuple[str, int]],
    spec: Dict[str, Any],
    on_event: Optional[Callable[[str, Any], None]] = None,
) -> Dict[str, Any]:
    """One-shot convenience: submit ``spec`` and block for its payload."""
    return ServiceClient(address).submit(spec).result(on_event=on_event)


def inline_reference(spec: Dict[str, Any]) -> Dict[str, Any]:
    """Run ``spec`` in-process on the inline executor; same payload shape.

    This is the ground truth a served run is compared against: same
    workload, plan, seed and policy, no workers involved.
    """
    return run_spec(validate_spec(spec), executor="inline")


def assert_payloads_equivalent(
    served: Dict[str, Any], reference: Dict[str, Any]
) -> None:
    """Assert a served payload matches a reference payload for the same spec.

    Compares the canonical per-iteration views (stripped of times — the
    run-dependent part — but *including* exact storage byte counts, which
    canonical serialization keeps deterministic across the service's
    worker processes) plus the iteration-type sequence.  Raises
    :class:`AssertionError` naming the first divergent iteration and key,
    in the spirit of the equivalence harness.
    """
    assert served["iteration_types"] == reference["iteration_types"], (
        f"iteration plans diverge: {served['iteration_types']} != "
        f"{reference['iteration_types']}"
    )
    left, right = served["iterations"], reference["iterations"]
    assert len(left) == len(right), (
        f"iteration counts diverge: served {len(left)} != reference {len(right)}"
    )
    for index, (lhs, rhs) in enumerate(zip(left, right)):
        keys = set(lhs) | set(rhs)
        for key in sorted(keys):
            assert lhs.get(key) == rhs.get(key), (
                f"iteration {index} diverges on {key!r}:\n"
                f"  served:    {lhs.get(key)!r}\n"
                f"  reference: {rhs.get(key)!r}"
            )
