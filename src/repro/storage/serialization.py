"""Serialization helpers for the materialization store and executor transport.

Artifacts are serialized with the **canonical binary encoding** of
:mod:`repro.storage.canonical`: deterministic (sorted dict keys, explicit
type tags, minimal varints, per-payload string/class intern tables, packed
homogeneous sequences), versioned (a ``b"HC"`` magic + format version byte,
refused on mismatch), and zero-copy capable (NumPy buffers ship as
out-of-band ``memoryview`` segments).  Deterministic bytes make serialized
artifact *sizes* — and content digests — bit-identical across processes,
which is what lets the executor-equivalence harness compare storage
statistics with exact equality across the inline/thread/process/distributed
strategies.  Values outside
the canonical type set fall back to an embedded pickle (protocol 5), so
:func:`serialize`/:func:`deserialize` accept everything pickle does;
:func:`deserialize` additionally accepts legacy plain-pickle payloads
(pre-canonical stores and protocol-v3 peers).  The module also provides
:func:`estimate_size_bytes`, a cheap size estimate used when a value is
cached in memory but has not (yet) been serialized.

Wire format
-----------
The distributed executor ships these same serialized payloads between the
coordinator and its workers over TCP, delimited by **length-prefixed
frames**.  A frame is a fixed 8-byte header followed by the payload::

    +-------+---------+------------------+----------------+
    | magic | version | payload length   | payload bytes  |
    | 2B    | 2B (BE) | 4B (BE, unsigned)| length bytes   |
    +-------+---------+------------------+----------------+

``magic`` is :data:`FRAME_MAGIC` (``b"HX"``) and ``version`` is the
protocol revision the *sender* speaks, between
:data:`MIN_PROTOCOL_VERSION` and :data:`PROTOCOL_VERSION` for a frame this
process will accept.  Versions outside that window fail fast with a
:class:`~repro.exceptions.ProtocolError` on the *first* frame instead of
misinterpreting the peer's payloads.  :func:`recv_frame` distinguishes a
clean end-of-stream at a frame boundary (returns ``None`` — the peer
closed) from a connection lost mid-frame (raises :class:`ProtocolError`).

Message transport (:func:`send_message` / :func:`recv_message`) layers
value encoding over frames with **negotiated fallback**: a version-4+
frame carries the canonical encoding and is sent as a gather-write
(``socket.sendmsg``) of the header plus :func:`~repro.storage.canonical.
encode_segments` — large NumPy buffers go from the array's memory to the
socket without ever being copied into one contiguous payload — while a
version-3 frame carries a plain pickle for legacy peers.  Each side tracks
the newest version its peer has demonstrably sent and answers at
``min(PROTOCOL_VERSION, peer_version)``, so a v5 coordinator talks v3 to a
v3 worker fleet and never sends artifact-plane tuples to a v4 one.  (Note
the transport downgrade does not extend to
*artifact payloads* generated by a v4 store — mixed-revision fleets should
still run one library revision end to end.)

Protocol version history
------------------------
* **1** — registration/heartbeat/task/ack/result/error/shutdown message
  tuples (the PR 4 local-TCP transport).
* **2** — adds the artifact lane for workers without access to the
  coordinator's store: a COMPUTE payload may carry :class:`ArtifactRef`
  placeholders instead of inline input values, and workers resolve them with
  ``("fetch", worker_id, signature)`` requests answered by
  ``("artifact", signature, payload_bytes | None)`` frames served from the
  coordinator's materialization store.
* **3** — session multiplexing: every task-related message is tagged with
  the id of the coordinator run session it belongs to, so one worker
  connection can interleave tasks from several concurrent runs.  The
  message tuples become ``("task", session, key, payload)``,
  ``("ack", worker_id, session, key)``, ``("result", session, key,
  reply)``, ``("error", session, key, exc)``, ``("fetch", worker_id,
  session, signature)`` and ``("artifact", session, signature,
  payload_bytes | None)``; a drained session is retired with
  ``("close_session", session)``, on which the worker releases that
  session's task lane, fetched-value cache and pending fetch slots (a
  long-lived connection outlives many sessions, so per-session state must
  die with its session).  Registration, heartbeat and shutdown are
  unchanged (they are connection-level, not session-level).
* **4** — canonical zero-copy payloads and frame batching: frame payloads
  are the canonical encoding (``b"HC"`` prefix) instead of plain pickle,
  sent as scattered segments so out-of-band buffers are never copied, and
  a new ``("batch", (message, ...))`` envelope coalesces several small
  messages — pipelined task dispatches and their acks — into one frame on
  the coordinator/worker hot path.  v3 peers are still accepted
  (``MIN_PROTOCOL_VERSION``): their frames decode as pickle, replies to
  them are framed as v3 pickle, and batch envelopes are never sent to
  them.
* **5** — the content-addressed artifact plane: artifacts are addressed by
  their canonical signature and may be served worker-to-worker instead of
  streaming every byte through the coordinator.  A worker's registration
  grows a fifth field, ``("register", worker_id, pid, heartbeat_interval,
  (peer_host, peer_port) | None)``, announcing the address of its
  peer-artifact listener.  Before falling back to the coordinator-streamed
  FETCH lane, a v5 worker asks ``("locate", worker_id, session,
  signature)`` and the coordinator answers ``("located", session,
  signature, ((host, port), ...))`` with the peer workers known to hold
  the blob; the requester dials a listed peer and performs a direct
  ``("peer_fetch", signature)`` → ``("peer_artifact", signature,
  payload_bytes | None)`` exchange on the peer's artifact listener.  A
  worker that caches a blob obtained from a peer announces it with
  ``("cached", worker_id, signature)`` so the coordinator's location index
  learns new holders, and v5 heartbeats may carry a stats snapshot as a
  third field, ``("heartbeat", worker_id, {counter: value, ...})``.
  Payload encoding is unchanged from v4 (canonical segments); v4 and v3
  peers never send the new tuples and are answered exactly as before, so
  mixed fleets interoperate per connection at ``min(own, peer)``.
"""

from __future__ import annotations

import pickle
import socket
import struct
from typing import Any, Callable, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..exceptions import ProtocolError
from .canonical import decode as _canonical_decode
from .canonical import encode_segments as _canonical_segments
from .canonical import is_canonical as _is_canonical

__all__ = [
    "serialize",
    "deserialize",
    "serialize_segments",
    "serialized_size",
    "estimate_size_bytes",
    "ArtifactRef",
    "FRAME_MAGIC",
    "PROTOCOL_VERSION",
    "MIN_PROTOCOL_VERSION",
    "MAX_FRAME_BYTES",
    "encode_frame",
    "decode_frame",
    "send_frame",
    "recv_frame",
    "message_segments",
    "send_message",
    "recv_message",
]

#: Pickle protocol for legacy (v3) frames and the canonical fallback path.
_PROTOCOL = 4

#: Two-byte frame marker ("HeliX") guarding against non-frame traffic.
FRAME_MAGIC = b"HX"

#: Version of the coordinator/worker wire protocol this process speaks.
#: Bump on any change to the frame layout *or* to the message tuples
#: exchanged inside frames.  (5 = content-addressed artifact plane:
#: locate/located lanes, peer-fetch transfers, cached announcements; see
#: the version history in the module docstring.)
PROTOCOL_VERSION = 5

#: Oldest peer protocol version still accepted (negotiated fallback):
#: version-3 frames carry plain-pickle payloads and no batch envelopes;
#: version-4 peers additionally never see the v5 artifact-plane tuples.
MIN_PROTOCOL_VERSION = 3

#: Upper bound on a single frame's payload (1 GiB).  A length above this is
#: treated as a corrupt header rather than an allocation request.
MAX_FRAME_BYTES = 1 << 30

_FRAME_HEADER = struct.Struct(">2sHI")

#: Gather-write batching cap: ``sendmsg`` is subject to the platform's
#: ``IOV_MAX``; batching segments well below it keeps one syscall per
#: typical frame without risking EINVAL on payloads with many buffers.
_MAX_SENDMSG_SEGMENTS = 64


def serialize(value: Any) -> bytes:
    """Serialize a value to its packed canonical bytes.

    The result is deterministic for the canonical type set (see
    :mod:`repro.storage.canonical`): same value, same bytes, in every
    process.  Values outside the set ride an embedded pickle fallback.
    """
    return b"".join(serialize_segments(value))


def serialize_segments(value: Any) -> List[Union[bytes, memoryview]]:
    """Serialize a value as zero-copy segments (``b"".join`` = :func:`serialize`).

    NumPy-backed buffers are returned as read-only memoryviews into the
    value's own memory; callers that gather-write them (``sendmsg``) never
    copy the array data at all.
    """
    return _canonical_segments(value)


def deserialize(payload: Union[bytes, bytearray, memoryview]) -> Any:
    """Inverse of :func:`serialize`.

    Accepts both the canonical encoding (``b"HC"`` prefix) and legacy
    plain-pickle payloads — artifacts written by pre-canonical revisions
    and frames from protocol-v3 peers decode transparently.
    """
    if _is_canonical(payload):
        return _canonical_decode(payload)
    return pickle.loads(payload)


def serialized_size(value: Any) -> int:
    """Exact serialized size of a value in bytes (requires a full pickle pass)."""
    return len(serialize(value))


def estimate_size_bytes(value: Any) -> int:
    """Cheap size estimate without a full serialization pass.

    Objects exposing ``estimated_size_bytes()`` (data collections, prediction
    results) are asked directly; NumPy arrays report their buffer size;
    everything else falls back to an exact pickle size, which is fine because
    such values (scalars, small models) are small.
    """
    estimator = getattr(value, "estimated_size_bytes", None)
    if callable(estimator):
        return int(estimator())
    if isinstance(value, np.ndarray):
        return int(value.nbytes) + 128
    if isinstance(value, (int, float, bool)) or value is None:
        return 32
    if isinstance(value, str):
        return 49 + len(value)
    if isinstance(value, (list, tuple, set, frozenset)):
        return 64 + sum(estimate_size_bytes(v) for v in value)
    if isinstance(value, dict):
        return 64 + sum(
            estimate_size_bytes(k) + estimate_size_bytes(v) for k, v in value.items()
        )
    try:
        return serialized_size(value)
    except Exception:  # pragma: no cover - unpicklable exotic values
        return 256


class ArtifactRef:
    """Placeholder for a task input that lives in the coordinator's store.

    When a COMPUTE payload is shipped to a worker that cannot share the
    coordinator's filesystem, inputs whose value is already materialized are
    replaced by an ``ArtifactRef`` carrying only the artifact's signature.
    The worker resolves the reference over its coordinator connection with a
    ``("fetch", worker_id, session, signature)`` message, answered by an
    ``("artifact", session, signature, bytes)`` frame — the LOAD lane
    introduced in protocol version 2 (session-tagged since version 3).
    Refs are picklable and compare by signature, so payloads containing
    them round-trip like any other serialized task.
    """

    __slots__ = ("signature",)

    def __init__(self, signature: str):
        self.signature = signature

    def __repr__(self) -> str:
        return f"ArtifactRef({self.signature!r})"

    def __eq__(self, other: Any) -> bool:
        return isinstance(other, ArtifactRef) and other.signature == self.signature

    def __hash__(self) -> int:
        return hash((ArtifactRef, self.signature))

    def __getstate__(self) -> str:
        return self.signature

    def __setstate__(self, state: str) -> None:
        self.signature = state


# ---------------------------------------------------------------------------
# Framed wire format (distributed executor transport)
# ---------------------------------------------------------------------------
def encode_frame(payload: bytes, version: int = PROTOCOL_VERSION) -> bytes:
    """Wrap ``payload`` in a length-prefixed frame.

    Parameters
    ----------
    payload:
        Raw bytes to frame (typically a :func:`serialize` result).
    version:
        Protocol version stamped into the header.  Only tests should pass a
        non-default value (to exercise the mismatch path).

    Raises
    ------
    ProtocolError
        If ``payload`` exceeds :data:`MAX_FRAME_BYTES`.
    """
    if len(payload) > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame payload of {len(payload)} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte frame limit"
        )
    return _FRAME_HEADER.pack(FRAME_MAGIC, version, len(payload)) + payload


def decode_frame(frame: bytes) -> bytes:
    """Inverse of :func:`encode_frame` for a complete in-memory frame.

    Returns the payload bytes.  Raises :class:`ProtocolError` on a bad magic
    prefix, a protocol-version mismatch, a corrupt length, or trailing bytes.
    """
    if len(frame) < _FRAME_HEADER.size:
        raise ProtocolError(
            f"truncated frame: {len(frame)} bytes is shorter than the "
            f"{_FRAME_HEADER.size}-byte header"
        )
    _version, length = _check_header(frame[: _FRAME_HEADER.size])
    payload = frame[_FRAME_HEADER.size :]
    if len(payload) != length:
        raise ProtocolError(
            f"frame declares a {length}-byte payload but carries {len(payload)} bytes"
        )
    return payload


def send_frame(
    sock: socket.socket, payload: bytes, version: int = PROTOCOL_VERSION
) -> None:
    """Send one frame over a connected socket (blocking ``sendall``)."""
    sock.sendall(encode_frame(payload, version=version))


def recv_frame(
    sock: socket.socket, on_progress: Optional[Callable[[], None]] = None
) -> Optional[bytes]:
    """Receive one complete frame from a connected socket.

    Parameters
    ----------
    sock:
        The connected socket to read from.
    on_progress:
        Invoked after every chunk of bytes received, including chunks in
        the *middle* of a large frame.  The distributed coordinator uses it
        to refresh a worker's liveness while a multi-second result transfer
        is still in flight (the worker's heartbeats queue behind the
        transfer on its send lock, so frame progress is the liveness
        signal).

    Returns
    -------
    The payload bytes, or ``None`` when the peer closed the connection
    cleanly at a frame boundary (end of stream).

    Raises
    ------
    ProtocolError
        On a bad magic prefix, a protocol-version mismatch, a corrupt
        length, or a connection lost in the middle of a frame.
    """
    header = _recv_exact(sock, _FRAME_HEADER.size, eof_ok=True, on_progress=on_progress)
    if header is None:
        return None
    _version, length = _check_header(header)
    if length == 0:
        return b""
    return _recv_exact(sock, length, eof_ok=False, on_progress=on_progress)


def _check_header(header: bytes) -> Tuple[int, int]:
    """Validate a frame header; return ``(peer_version, payload_length)``.

    Peer versions inside ``[MIN_PROTOCOL_VERSION, PROTOCOL_VERSION]`` are
    accepted (negotiated fallback); anything else is a hard mismatch.
    """
    magic, version, length = _FRAME_HEADER.unpack(header)
    if magic != FRAME_MAGIC:
        raise ProtocolError(
            f"bad frame magic {magic!r} (expected {FRAME_MAGIC!r}); the peer "
            f"is not speaking the executor wire protocol"
        )
    if not MIN_PROTOCOL_VERSION <= version <= PROTOCOL_VERSION:
        raise ProtocolError(
            f"protocol version mismatch: peer speaks version {version}, "
            f"this process accepts versions {MIN_PROTOCOL_VERSION}"
            f"-{PROTOCOL_VERSION}; upgrade the older side (a newer "
            f"coordinator downgrades to an older worker automatically, "
            f"not the reverse)"
        )
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame declares a {length}-byte payload, above the "
            f"{MAX_FRAME_BYTES}-byte limit (corrupt header?)"
        )
    return version, length


# ---------------------------------------------------------------------------
# Message transport: framed values with zero-copy send + version negotiation
# ---------------------------------------------------------------------------
def message_segments(
    message: Any, version: int = PROTOCOL_VERSION
) -> List[Union[bytes, memoryview]]:
    """Frame ``message`` as ``[header, *payload_segments]`` for gather-write.

    ``version`` selects the payload encoding: 4+ = canonical segments
    (large buffers stay as memoryviews into the message's own values —
    zero-copy), 3 = one plain-pickle payload for a legacy peer.  Joining
    the segments yields exactly the bytes :func:`send_frame` would send for
    ``serialize(message)`` (v4+) or the pickle (v3).

    Raises :class:`ProtocolError` when the payload exceeds
    :data:`MAX_FRAME_BYTES` or ``version`` is outside the supported window.
    """
    if not MIN_PROTOCOL_VERSION <= version <= PROTOCOL_VERSION:
        raise ProtocolError(
            f"cannot send a version-{version} frame; this process speaks "
            f"versions {MIN_PROTOCOL_VERSION}-{PROTOCOL_VERSION}"
        )
    if version >= 4:
        segments = serialize_segments(message)
    else:
        segments = [pickle.dumps(message, protocol=_PROTOCOL)]
    total = sum(len(segment) for segment in segments)
    if total > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame payload of {total} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte frame limit"
        )
    return [_FRAME_HEADER.pack(FRAME_MAGIC, version, total), *segments]


def send_message(
    sock: socket.socket,
    message: Any,
    lock: Optional[Any] = None,
    version: int = PROTOCOL_VERSION,
) -> None:
    """Send one framed message, gather-writing its segments (zero-copy).

    The header, canonical body and every out-of-band buffer go to the
    socket via ``sendmsg`` without being joined into one contiguous bytes
    object, so a task payload or artifact blob backed by NumPy memory is
    never copied on the way out.  ``lock`` (optional) serializes whole
    frames against other senders on the same socket.
    """
    segments = message_segments(message, version=version)
    if lock is None:
        _send_segments(sock, segments)
    else:
        with lock:
            _send_segments(sock, segments)


def recv_message(
    sock: socket.socket, on_progress: Optional[Callable[[], None]] = None
) -> Optional[Tuple[Any, int]]:
    """Receive one framed message; ``(message, peer_version)`` or ``None``.

    ``None`` means the peer closed cleanly at a frame boundary.  The peer
    version lets connection handlers answer a v3 peer at v3
    (:func:`send_message`'s ``version``).  Payload decoding is
    version-agnostic (:func:`deserialize` sniffs the canonical magic), so a
    v3 pickle and a v4 canonical payload both decode here.
    """
    header = _recv_exact(sock, _FRAME_HEADER.size, eof_ok=True, on_progress=on_progress)
    if header is None:
        return None
    version, length = _check_header(header)
    payload = b""
    if length:
        payload = _recv_exact(sock, length, eof_ok=False, on_progress=on_progress)
    return deserialize(payload), version


def _send_segments(
    sock: socket.socket, segments: Sequence[Union[bytes, memoryview]]
) -> None:
    """``sendall`` for a list of byte segments via ``sendmsg`` gather-writes."""
    views: List[memoryview] = []
    for segment in segments:
        view = segment if isinstance(segment, memoryview) else memoryview(segment)
        if view.ndim != 1 or view.format != "B":
            view = view.cast("B")
        if len(view):
            views.append(view)
    if not views:
        return
    if not hasattr(sock, "sendmsg"):  # pragma: no cover - non-POSIX fallback
        sock.sendall(b"".join(views))
        return
    while views:
        sent = sock.sendmsg(views[:_MAX_SENDMSG_SEGMENTS])
        while views and sent >= len(views[0]):
            sent -= len(views[0])
            views.pop(0)
        if sent and views:
            views[0] = views[0][sent:]


def _recv_exact(
    sock: socket.socket,
    n: int,
    eof_ok: bool,
    on_progress: Optional[Callable[[], None]] = None,
) -> Optional[bytes]:
    """Read exactly ``n`` bytes; ``None`` on immediate EOF when ``eof_ok``."""
    chunks = []
    remaining = n
    while remaining:
        try:
            chunk = sock.recv(min(remaining, 1 << 20))
        except OSError as exc:
            raise ProtocolError(f"connection lost while reading a frame: {exc}") from exc
        if not chunk:
            if eof_ok and remaining == n:
                return None
            raise ProtocolError(
                f"connection closed mid-frame ({n - remaining} of {n} bytes read)"
            )
        chunks.append(chunk)
        remaining -= len(chunk)
        if on_progress is not None:
            on_progress()
    return b"".join(chunks)
