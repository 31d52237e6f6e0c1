"""Serialization helpers for the materialization store and executor transport.

Artifacts are serialized with the **canonical binary encoding** of
:mod:`repro.storage.canonical`: deterministic (sorted dict keys, explicit
type tags, minimal varints, per-payload string/class intern tables, packed
homogeneous sequences), versioned (a ``b"HC"`` magic + format version byte,
refused on mismatch), and zero-copy capable (NumPy buffers ship as
out-of-band ``memoryview`` segments).  Deterministic bytes make serialized
artifact *sizes* — and content digests — bit-identical across processes,
which is what lets the executor-equivalence harness compare storage
statistics with exact equality across the inline/thread/distributed
strategies.  Module-level classes and functions are encodable by
reference (their ``module.qualname``), exceptions by their class reference
and args; a value outside the canonical type set — a lambda, closure or
bound method, say — raises ``TypeError`` from :func:`serialize`.  The
module also provides
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

``magic`` is :data:`FRAME_MAGIC` (``b"HX"``) and ``version`` is
:data:`PROTOCOL_VERSION`, the one wire protocol revision this process
speaks.  There is no negotiation: a peer at any other version fails with a
:class:`~repro.exceptions.ProtocolError` on its *first* frame instead of
having its payloads misinterpreted, so both sides of a connection run the
same library revision.  :func:`recv_frame` distinguishes a clean
end-of-stream at a frame boundary (returns ``None`` — the peer closed) from
a connection lost mid-frame (raises :class:`ProtocolError`).

Message transport (:func:`send_message` / :func:`recv_message`) layers
value encoding over frames: every payload is the canonical encoding, sent
as a gather-write (``socket.sendmsg``) of the header plus
:func:`~repro.storage.canonical.encode_segments` — large NumPy buffers go
from the array's memory to the socket without ever being copied into one
contiguous payload.  A payload without the canonical ``b"HC"`` magic (a
raw pickle, say) is refused with a :class:`ProtocolError`, never unpickled,
and decoding imports no module outside this package that the process has
not already imported (see the resolution rule in
:mod:`repro.storage.canonical`).  The message tuples each protocol version
introduced are listed in ``docs/architecture.md``.
"""

from __future__ import annotations

import socket
import struct
from typing import Any, Callable, List, Optional, Sequence, Union

import numpy as np

from ..exceptions import ProtocolError
from .canonical import decode as _canonical_decode
from .canonical import encode_segments as _canonical_segments

__all__ = [
    "serialize",
    "deserialize",
    "serialize_segments",
    "serialized_size",
    "estimate_size_bytes",
    "ArtifactRef",
    "FRAME_MAGIC",
    "PROTOCOL_VERSION",
    "MAX_FRAME_BYTES",
    "encode_frame",
    "decode_frame",
    "send_frame",
    "recv_frame",
    "message_segments",
    "send_message",
    "recv_message",
]

#: Two-byte frame marker ("HeliX") guarding against non-frame traffic.
FRAME_MAGIC = b"HX"

#: Version of the coordinator/worker wire protocol this process speaks —
#: and the only one it accepts.  Bump on any change to the frame layout
#: *or* to the message tuples exchanged inside frames (history in
#: ``docs/architecture.md``).
PROTOCOL_VERSION = 8

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
    process.  A value outside the set raises ``TypeError`` (``ValueError``
    for a cyclic one).
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

    Only the canonical encoding is accepted: a payload without the
    ``b"HC"`` magic (e.g. a raw pickle) — or a truncated or otherwise
    malformed one — raises :class:`~repro.exceptions.ProtocolError`.
    """
    return _canonical_decode(payload)


def serialized_size(value: Any) -> int:
    """Exact serialized size of a value in bytes (requires a full encode pass)."""
    return len(serialize(value))


def estimate_size_bytes(value: Any) -> int:
    """Cheap size estimate without a full serialization pass.

    Objects exposing ``estimated_size_bytes()`` (data collections, prediction
    results) are asked directly; NumPy arrays report their buffer size;
    everything else falls back to its exact serialized size
    (:func:`serialized_size`), which is fine because such values (scalars,
    small models) are small.
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
    except Exception:  # pragma: no cover - unserializable exotic values
        return 256


class ArtifactRef:
    """Placeholder for a task input that lives in the coordinator's store.

    When a COMPUTE payload is shipped to a worker that cannot share the
    coordinator's filesystem, inputs whose value is already materialized are
    replaced by an ``ArtifactRef`` carrying only the artifact's signature.
    The worker resolves the reference over its coordinator connection with a
    ``("fetch", worker_id, session, signature)`` message, answered by an
    ``("artifact", session, signature, bytes)`` frame — the LOAD lane.
    Refs are encodable and compare by signature, so payloads containing
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
def encode_frame(payload: bytes) -> bytes:
    """Wrap ``payload`` (typically a :func:`serialize` result) in a frame.

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
    return _FRAME_HEADER.pack(FRAME_MAGIC, PROTOCOL_VERSION, len(payload)) + payload


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
    length = _check_header(frame[: _FRAME_HEADER.size])
    payload = frame[_FRAME_HEADER.size :]
    if len(payload) != length:
        raise ProtocolError(
            f"frame declares a {length}-byte payload but carries {len(payload)} bytes"
        )
    return payload


def send_frame(sock: socket.socket, payload: bytes) -> None:
    """Send one frame over a connected socket (blocking ``sendall``)."""
    sock.sendall(encode_frame(payload))


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
    length = _check_header(header)
    if length == 0:
        return b""
    return _recv_exact(sock, length, eof_ok=False, on_progress=on_progress)


def _check_header(header: bytes) -> int:
    """Validate a frame header; return the payload length.

    Any version other than :data:`PROTOCOL_VERSION` is a hard mismatch.
    """
    magic, version, length = _FRAME_HEADER.unpack(header)
    if magic != FRAME_MAGIC:
        raise ProtocolError(
            f"bad frame magic {magic!r} (expected {FRAME_MAGIC!r}); the peer "
            f"is not speaking the executor wire protocol"
        )
    if version != PROTOCOL_VERSION:
        raise ProtocolError(
            f"protocol version mismatch: peer speaks version {version}, "
            f"this process speaks version {PROTOCOL_VERSION}; run the same "
            f"library revision on both sides"
        )
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame declares a {length}-byte payload, above the "
            f"{MAX_FRAME_BYTES}-byte limit (corrupt header?)"
        )
    return length


# ---------------------------------------------------------------------------
# Message transport: framed canonical values with zero-copy send
# ---------------------------------------------------------------------------
def message_segments(message: Any) -> List[Union[bytes, memoryview]]:
    """Frame ``message`` as ``[header, *payload_segments]`` for gather-write.

    The payload segments are the canonical encoding, large buffers staying
    as memoryviews into the message's own values (zero-copy).  Joining the
    segments yields exactly the bytes :func:`send_frame` would send for
    ``serialize(message)``.

    Raises :class:`ProtocolError` when the payload exceeds
    :data:`MAX_FRAME_BYTES`.
    """
    segments = serialize_segments(message)
    total = sum(len(segment) for segment in segments)
    if total > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame payload of {total} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte frame limit"
        )
    return [_FRAME_HEADER.pack(FRAME_MAGIC, PROTOCOL_VERSION, total), *segments]


def send_message(
    sock: socket.socket,
    message: Any,
    lock: Optional[Any] = None,
) -> None:
    """Send one framed message, gather-writing its segments (zero-copy).

    The header, canonical body and every out-of-band buffer go to the
    socket via ``sendmsg`` without being joined into one contiguous bytes
    object, so a task payload or artifact blob backed by NumPy memory is
    never copied on the way out.  ``lock`` (optional) serializes whole
    frames against other senders on the same socket.
    """
    segments = message_segments(message)
    if lock is None:
        _send_segments(sock, segments)
    else:
        with lock:
            _send_segments(sock, segments)


def recv_message(
    sock: socket.socket, on_progress: Optional[Callable[[], None]] = None
) -> Optional[Any]:
    """Receive one framed message; ``None`` when the peer closed cleanly.

    ``on_progress`` fires per received chunk, mid-frame included (see
    :func:`recv_frame`).  A frame at another protocol version, or whose
    payload is not canonical-encoded, raises :class:`ProtocolError`.
    """
    payload = recv_frame(sock, on_progress=on_progress)
    return None if payload is None else deserialize(payload)


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
