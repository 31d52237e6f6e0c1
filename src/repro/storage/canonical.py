"""Canonical binary serialization: deterministic, versioned, zero-copy capable.

This module is the value-encoding layer underneath
:func:`repro.storage.serialization.serialize`.  Its contract is *canonical
form*: for every value built from the covered types, ``encode(x)`` yields the
same bytes in every process and on every Python version of the CI matrix —
dict entries are written in a sorted key order (insertion order never leaks
into the bytes), sets are sorted by their encoded elements, integers use a
minimal zigzag varint, floats are raw IEEE-754 bits, and NumPy arrays are a
dtype descriptor plus their contiguous buffer.  Deterministic bytes are what
let the executor-equivalence harness compare serialized store sizes with
*exact equality* across the inline/thread/process/distributed strategies
(pickle's memo-dependent output made sizes drift across a process boundary),
and they are the precondition for content-addressed artifact storage
(signature-as-address only works when the same value always has the same
bytes).

Covered types (explicit tags)
-----------------------------
``None``, ``bool``, ``int`` (arbitrary precision), ``float``, ``complex``,
``str``, ``bytes``/``bytearray``, ``list``/``tuple``, ``set``/``frozenset``
(element-sorted), ``dict`` (key-sorted), :class:`enum.Enum` members (by
class + name), NumPy arrays (dtype descriptor + shape + order + raw buffer)
and NumPy scalars, dataclass instances (their declared fields), two
generic object forms — classes with a ``__getstate__``/``__setstate__`` pair
(data collections, feature vectors,
:class:`~repro.storage.serialization.ArtifactRef`) and plain classes whose
state is just ``__dict__``/``__slots__`` (fitted models) — and two forms
that travel *by reference*: a module-level class, function or builtin is
its ``(module, qualname)``, and an exception is its class reference plus
the args and state its ``__reduce__`` rebuilds it from.  There is no
fallback: any other value — a lambda, closure or bound method, a custom
``__reduce__`` (rngs, ``functools.partial``), a builtin-container
subclass, an object-dtype array — raises ``TypeError``, a cyclic one
``ValueError``.

Format version 6
----------------
The format is built around what the workflow artifacts actually are: tens
of thousands of small objects (records, semantic units, examples, feature
vectors) that repeat a few hundred distinct strings and a handful of
classes.  Three mechanisms keep such payloads small and fast:

* **Per-payload intern table.**  Every ``str`` is written in full the first
  time it occurs and as a varint reference afterwards: a string slot is one
  varint whose low bit is the define/ref tag — ``len << 1`` followed by the
  UTF-8 bytes defines the next string id, ``id << 1 | 1`` refers back to
  one.  Object layouts (class + sorted attribute names), enum members,
  state-object classes, references and dict *shapes* (the sorted key tuple
  of a str-keyed dict) are interned the same way in their own tables: a slot is
  the varint id, and an id equal to the table's current size *defines* the
  next entry, its definition following inline.  Ids number first
  occurrences in traversal order, and the tables live for exactly one
  ``encode`` call — so the bytes remain a pure function of the value (no
  table state survives between payloads, and entries are keyed by value,
  never by object identity).  Per payload, not per process: a table shared
  across calls would make a value's bytes depend on what was encoded
  before it, and a decoder could no longer read a payload on its own.
* **Per-class compiled codecs.**  The first time ``encode`` meets a class it
  classifies it once — dataclass, enum, ``__getstate__``/``__setstate__``
  pair, plain ``__dict__``/``__slots__`` object, exception, reference, or
  refused — and caches an encode closure in a module-level dict keyed by
  the class.  The closure carries the sorted field or slot order and the
  prebuilt definition bytes of the class's layout, so an instance costs
  one attribute fetch and its values.  Only the per-instance
  facts are still checked per instance: a dataclass carrying attributes
  beyond its declared fields, or a ``__dict__`` object's current attribute
  set.  Decoding mirrors it: a layout definition resolves its class once per
  payload and fetches a cached constructor keyed by ``(class, names)``.
* **Packed homogeneous sequences.**  A non-empty list or tuple whose
  elements are all exactly ``float`` is one big-endian float64 segment; one
  whose elements are all exactly ``int`` and fit in 64 bits is one
  big-endian segment of the narrowest signed width (1, 2, 4 or 8 bytes)
  that holds them; one whose elements are all exactly ``str`` is the
  definitions of the strings it introduces (their code-point lengths as
  one packed int segment, then their UTF-8 as one run) followed by an
  array of intern ids, whose width is implied by the table size after
  those definitions (a long run of one repeated string costs one byte per
  item).  ``bool`` is not ``int`` here,
  so mixed sequences take the generic per-element form and nothing is
  coerced.  A dict whose keys are all exactly ``str`` is its shape slot —
  keys in UTF-8 byte order, which is code point order, so no sub-encoding —
  followed by its values as one tuple in key order, which packs like any
  other (a feature vector's floats are one segment).  Other dicts and sets
  sort by each element's standalone encoding, computed in a scratch
  encoder whose intern table is its own.

The data collections themselves are not a mechanism of this module: a
:class:`~repro.core.data.DataCollection` of records, semantic units or
examples states itself as columns through its ``__getstate__``/
``__setstate__`` pair (one tuple per attribute, and its dicts as interned
key shapes plus one flat values tuple, and a column of dense feature
vectors as one 2-D float64 array), so the packed sequences and out-of-band
buffers below carry a whole collection in a handful of segments.

Out-of-band buffers (zero-copy)
-------------------------------
:func:`encode_segments` returns the encoding as a list of byte segments:
a fixed prefix, the tag body, and one segment per *out-of-band buffer* —
the raw memory of every NumPy array (and any inline ``bytes`` blob) at or
above :data:`OOB_MIN_BYTES`.  Array segments are read-only ``memoryview``\\s
into the array's own buffer, so the transport can gather-write them
(``socket.sendmsg``) without ever copying the payload into one big bytes
object.  ``b"".join(encode_segments(x))`` *is* ``encode(x)``: the packed
single-buffer form and the scattered zero-copy form are the same bytes,
which is what lets a length-prefixed frame carry either.  ``decode`` slices
buffers back out of the packed payload as memoryviews; arrays are copied
into fresh writable memory by default (``copy_buffers=False`` keeps them as
read-only zero-copy views for consumers that only read).

Packed layout::

    +----+---------+--------------+----------------------+-----------+------+---------+
    | HC | version | nbufs varint | buffer-length varints| body len  | body | buffers |
    +----+---------+--------------+----------------------+-----------+------+---------+

Buffer indices are assigned in traversal order, which the sorted dict and
set orders already pin down.

Decoding never executes payload bytes, and names resolve by one rule
(:meth:`_Decoder.definition`): a module already in ``sys.modules``, or a
``repro.*`` module imported on demand — any other module is refused, so a
peer cannot make a process import a module.  A payload can still name any
function of an imported module for an operator to call, so only decode
payloads from the same trust domain, like the store and the executor
transport already require.  Malformed payloads (truncated body, unknown tag
bytes, dangling intern references, out-of-range buffer indices) and
payloads of another format version raise a typed
:class:`~repro.exceptions.ProtocolError` rather than crashing the consumer.
"""

from __future__ import annotations

import ast
import dataclasses
import hashlib
import importlib
import operator
import struct
import sys
import threading
import types
from enum import Enum
from itertools import accumulate
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

import numpy as np

from ..exceptions import ProtocolError

__all__ = [
    "CANONICAL_MAGIC",
    "CANONICAL_VERSION",
    "OOB_MIN_BYTES",
    "encode",
    "encode_segments",
    "decode",
    "content_digest",
]

#: Two-byte marker opening every canonical payload; anything else is refused.
CANONICAL_MAGIC = b"HC"

#: Version byte of the canonical value encoding.  Bump on any change to the
#: tag set or their byte layouts.
CANONICAL_VERSION = 6

#: Buffers at or above this many bytes are hoisted out of the tag body into
#: the out-of-band buffer section (one segment each, shipped zero-copy).
#: The threshold is part of the canonical form — it decides byte layout —
#: so it must never depend on runtime state.
OOB_MIN_BYTES = 256

_FLOAT = struct.Struct(">d")
_COMPLEX = struct.Struct(">dd")

# Tag bytes.  Grouped by kind; values are arbitrary but frozen for the
# format version (they are the wire format).
_T_NONE = b"N"
_T_TRUE = b"T"
_T_FALSE = b"F"
_T_INT = b"i"
_T_FLOAT = b"f"
_T_COMPLEX = b"c"
_T_STR = b"s"
_T_BYTES = b"b"
_T_BYTEARRAY = b"y"
_T_LIST = b"l"
_T_TUPLE = b"t"
_T_FLOAT_LIST = b"w"
_T_FLOAT_TUPLE = b"W"
_T_INT_LIST = b"k"
_T_INT_TUPLE = b"K"
_T_STR_LIST = b"x"
_T_STR_TUPLE = b"X"
_T_SET = b"e"
_T_FROZENSET = b"z"
_T_DICT = b"d"
_T_STR_DICT = b"m"
_T_NDARRAY = b"a"
_T_NPSCALAR = b"g"
_T_ENUM = b"E"
_T_OBJECT = b"o"
_T_OBJ_STATE = b"O"
_T_REF = b"R"
_T_EXCEPTION = b"!"

_BLOB_INLINE = b"\x00"
_BLOB_OOB = b"\x01"

#: Packed-int element widths: struct code -> (lowest, highest) value held.
_INT_WIDTHS = (
    ("b", -(1 << 7), (1 << 7) - 1),
    ("h", -(1 << 15), (1 << 15) - 1),
    ("i", -(1 << 31), (1 << 31) - 1),
    ("q", -(1 << 63), (1 << 63) - 1),
)
_INT_ITEMSIZE = {ord(code): struct.calcsize(code) for code, _lo, _hi in _INT_WIDTHS}


# ---------------------------------------------------------------------------
# varints and raw strings
# ---------------------------------------------------------------------------
def _write_uvarint(out: bytearray, value: int) -> None:
    """Unsigned LEB128."""
    if value < 0x80:
        out.append(value)
        return
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return


def _uvarint_at(data: Any, pos: int) -> Tuple[int, int]:
    """Read an unsigned LEB128 at ``pos``; ``(value, next_pos)``.

    Running off the end raises ``IndexError``, which :func:`decode` reports
    as a truncated payload.
    """
    result = 0
    shift = 0
    while True:
        byte = data[pos]
        pos += 1
        result |= (byte & 0x7F) << shift
        if byte < 0x80:
            return result, pos
        shift += 7


def _raw_str(out: bytearray, text: str) -> None:
    """A length-prefixed UTF-8 string outside the intern table."""
    data = text.encode("utf-8", "surrogatepass")
    _write_uvarint(out, len(data))
    out += data


def _put_str(out: bytearray, strings: Dict[str, int], text: str) -> None:
    """A string slot: define (``len << 1`` + UTF-8) or ref (``id << 1 | 1``)."""
    index = strings.get(text)
    if index is None:
        strings[text] = len(strings)
        data = text.encode("utf-8", "surrogatepass")
        _write_uvarint(out, len(data) << 1)
        out += data
    else:
        _write_uvarint(out, (index << 1) | 1)


def _definition(cls: type, names: Tuple[str, ...] = ()) -> bytes:
    """Context-free bytes naming a class plus attribute or member names.

    Built once per class (and attribute-name tuple, or enum member) by the
    compiled codecs; the per-payload tables intern these bytes by value.
    """
    out = bytearray()
    _raw_str(out, cls.__module__)
    _raw_str(out, cls.__qualname__)
    _write_uvarint(out, len(names))
    for name in names:
        _raw_str(out, name)
    return bytes(out)


def _put_def(out: bytearray, table: Dict[bytes, int], definition: bytes) -> None:
    """A definition slot: the id, followed by the definition on first use."""
    index = table.get(definition)
    if index is None:
        index = table[definition] = len(table)
        _write_uvarint(out, index)
        out += definition
    else:
        _write_uvarint(out, index)


# ---------------------------------------------------------------------------
# encoding
# ---------------------------------------------------------------------------
class _Encoder:
    """One payload's output buffer, out-of-band buffers and intern tables."""

    __slots__ = (
        "out", "buffers", "allow_oob", "strings", "shapes", "layouts", "members", "classes",
        "refs", "stack",
    )

    #: Exact type -> encode function (:data:`_CODECS`, filled by ``compile``).
    codecs: Dict[type, Callable[["_Encoder", Any], None]]

    def __init__(self, allow_oob: bool):
        self.out = bytearray()
        self.buffers: List[Union[bytes, memoryview]] = []
        self.allow_oob = allow_oob
        self.strings: Dict[str, int] = {}
        self.shapes: Dict[Tuple[str, ...], int] = {}
        self.layouts: Dict[bytes, int] = {}
        self.members: Dict[bytes, int] = {}
        self.classes: Dict[bytes, int] = {}
        self.refs: Dict[bytes, int] = {}
        self.stack: set = set()

    def value(self, value: Any) -> None:
        kind = type(value)
        (self.codecs.get(kind) or self.compile(kind))(self, value)

    def compile(self, kind: type) -> Callable[["_Encoder", Any], None]:
        """The codec of a class not yet in :attr:`codecs` (a subclass may claim some)."""
        return _compile(kind)

    def blob(self, data: Union[bytes, memoryview], inline_only: bool = False) -> None:
        """A length-delimited byte blob, inline or hoisted out-of-band."""
        out = self.out
        if self.allow_oob and not inline_only and len(data) >= OOB_MIN_BYTES:
            out += _BLOB_OOB
            _write_uvarint(out, len(self.buffers))
            self.buffers.append(data)
        else:
            out += _BLOB_INLINE
            _write_uvarint(out, len(data))
            out += data

    def enter(self, value: Any) -> int:
        """Cycle guard for a container whose encoding recurses.

        Callers discard the marker when done, without ``try``/``finally``:
        any exception abandons the whole encoder, so a stale marker is never
        consulted.
        """
        marker = id(value)
        if marker in self.stack:
            raise ValueError(
                f"canonical encoding refuses a cyclic value: a {type(value).__name__} contains itself"
            )
        self.stack.add(marker)
        return marker

    def sort_key(self, value: Any) -> bytes:
        """``value``'s standalone encoding: a pure function of the value.

        Encoded with a scratch intern table and no out-of-band hoisting, so
        the order it induces does not depend on what the payload interned
        before; the cycle guard is shared with the outer traversal.
        """
        scratch = type(self)(allow_oob=False)
        scratch.stack = self.stack
        scratch.value(value)
        return bytes(scratch.out)


def _enc_none(enc: _Encoder, value: None) -> None:
    enc.out += _T_NONE


def _enc_bool(enc: _Encoder, value: bool) -> None:
    enc.out += _T_TRUE if value else _T_FALSE


def _enc_int(enc: _Encoder, value: int) -> None:
    out = enc.out
    out += _T_INT
    _write_uvarint(out, (value << 1) if value >= 0 else ((-value << 1) - 1))


def _enc_float(enc: _Encoder, value: float) -> None:
    out = enc.out
    out += _T_FLOAT
    out += _FLOAT.pack(value)


def _enc_complex(enc: _Encoder, value: complex) -> None:
    out = enc.out
    out += _T_COMPLEX
    out += _COMPLEX.pack(value.real, value.imag)


def _enc_str(enc: _Encoder, value: str) -> None:
    out = enc.out
    out += _T_STR
    _put_str(out, enc.strings, value)


def _enc_bytes(enc: _Encoder, value: bytes) -> None:
    enc.out += _T_BYTES
    enc.blob(value)


def _enc_bytearray(enc: _Encoder, value: bytearray) -> None:
    enc.out += _T_BYTEARRAY
    enc.blob(bytes(value))


def _int_width(values: Any) -> Optional[str]:
    """Struct code of the narrowest signed width holding every value."""
    low, high = min(values), max(values)
    for code, lowest, highest in _INT_WIDTHS:
        if lowest <= low and high <= highest:
            return code
    return None  # beyond 64 bits


def _id_code(limit: int) -> str:
    """Struct code of the narrowest unsigned width holding ids below ``limit``."""
    if limit <= 1 << 8:
        return "B"
    if limit <= 1 << 16:
        return "H"
    return "I" if limit <= 1 << 32 else "Q"


def _int_segment(values: Any) -> Optional[bytes]:
    """Width code plus big-endian ints at that width; None beyond 64 bits."""
    code = _int_width(values)
    if code is None:
        return None
    return code.encode() + struct.pack(">%d%s" % (len(values), code), *values)


def _packed(enc: _Encoder, value: Any, tags: Tuple[bytes, bytes, bytes]) -> bool:
    """Write a homogeneous float/int64/str sequence as one packed segment.

    ``tags`` are the (float, int, str) tags of the sequence's kind; callers
    only pass sequences whose first element's type is in :data:`_PACKABLE`.
    Ints carry a width code (:func:`_int_width`).  A str sequence first
    defines the strings it introduces — which take the next ids, in order of
    first occurrence — as their count, their lengths in code points (an int
    segment) and their concatenated UTF-8; then comes an array of intern ids
    whose width is implied by the table size after those definitions, which
    the decoder knows too.  Returns False (nothing written) when the types
    are mixed or an int exceeds 64 bits.
    """
    kinds = set(map(type, value))
    if len(kinds) != 1:
        return False
    kind = kinds.pop()
    count = len(value)
    out = enc.out
    if kind is float:
        out += tags[0]
        _write_uvarint(out, count)
        out += struct.pack(">%dd" % count, *value)
    elif kind is int:
        segment = _int_segment(value)
        if segment is None:
            return False
        out += tags[1]
        _write_uvarint(out, count)
        out += segment
    else:  # str
        strings = enc.strings
        # dict.fromkeys: the distinct strings in order of first occurrence.
        fresh = [text for text in dict.fromkeys(value) if text not in strings]
        out += tags[2]
        _write_uvarint(out, count)
        _write_uvarint(out, len(fresh))
        if fresh:
            strings.update(zip(fresh, range(len(strings), len(strings) + len(fresh))))
            out += _int_segment(list(map(len, fresh)))
            # Surrogates never pair up across a join under surrogatepass, so
            # the code-point lengths still cut the decoded text apart.
            data = "".join(fresh).encode("utf-8", "surrogatepass")
            _write_uvarint(out, len(data))
            out += data
        code = _id_code(len(strings))
        out += struct.pack(">%d%s" % (count, code), *map(strings.__getitem__, value))
    return True


_LIST_TAGS = (_T_FLOAT_LIST, _T_INT_LIST, _T_STR_LIST)
_TUPLE_TAGS = (_T_FLOAT_TUPLE, _T_INT_TUPLE, _T_STR_TUPLE)


def _enc_items(enc: _Encoder, items: Any) -> None:
    codecs = enc.codecs
    for item in items:
        kind = type(item)
        (codecs.get(kind) or enc.compile(kind))(enc, item)


def _enc_list(enc: _Encoder, value: list) -> None:
    out = enc.out
    if value and type(value[0]) in _PACKABLE and _packed(enc, value, _LIST_TAGS):
        return
    marker = enc.enter(value)
    out += _T_LIST
    _write_uvarint(out, len(value))
    _enc_items(enc, value)
    enc.stack.discard(marker)


def _enc_tuple(enc: _Encoder, value: tuple) -> None:
    # No cycle guard: a cycle through a tuple always passes through a
    # mutable container (list, dict, object), which is guarded.
    out = enc.out
    if value and type(value[0]) in _PACKABLE and _packed(enc, value, _TUPLE_TAGS):
        return
    out += _T_TUPLE
    _write_uvarint(out, len(value))
    _enc_items(enc, value)


def _enc_sorted(enc: _Encoder, tag: bytes, items: Any) -> None:
    """Elements in the order of their standalone encodings (sets, dict keys)."""
    keyed = sorted(((enc.sort_key(item), item) for item in items), key=_first)
    out = enc.out
    out += tag
    _write_uvarint(out, len(keyed))
    for _key, item in keyed:
        enc.value(item)


def _enc_set(enc: _Encoder, value: set) -> None:
    marker = enc.enter(value)
    _enc_sorted(enc, _T_SET, value)
    enc.stack.discard(marker)


def _enc_frozenset(enc: _Encoder, value: frozenset) -> None:
    _enc_sorted(enc, _T_FROZENSET, value)


def _enc_dict(enc: _Encoder, value: dict) -> None:
    marker = enc.enter(value)
    out = enc.out
    for key in value:
        if type(key) is not str:
            break
    else:
        # All-str keys: Python orders str by code point, which is also the
        # UTF-8 (surrogatepass) byte order — no sub-encoding needed.  The
        # sorted key tuple is the dict's interned shape; the values follow
        # as one tuple in key order (packed when homogeneous).
        keys = tuple(sorted(value))
        out += _T_STR_DICT
        shapes = enc.shapes
        index = shapes.get(keys)
        if index is None:
            index = shapes[keys] = len(shapes)
            _write_uvarint(out, index)
            _write_uvarint(out, len(keys))
            strings = enc.strings
            for key in keys:
                _put_str(out, strings, key)
        else:
            _write_uvarint(out, index)
        _enc_tuple(enc, tuple(map(value.__getitem__, keys)))
        enc.stack.discard(marker)
        return
    # Mixed keys: order by each key's standalone encoding, then write the
    # entries through this encoder (which pins buffer indices too).
    keyed = sorted(((enc.sort_key(key), key) for key in value), key=_first)
    out += _T_DICT
    _write_uvarint(out, len(keyed))
    for _sort, key in keyed:
        enc.value(key)
        enc.value(value[key])
    enc.stack.discard(marker)


def _first(pair: Tuple[bytes, Any]) -> bytes:
    return pair[0]


def _enc_ndarray(enc: _Encoder, value: np.ndarray) -> None:
    if value.dtype.hasobject:
        raise _refused(type(value), "an object-dtype array has no raw-buffer form")
    if value.flags.c_contiguous:
        array, order = value, b"C"
    elif value.flags.f_contiguous:
        array, order = value, b"F"
    else:
        # One unavoidable copy for strided views; note ascontiguousarray
        # would also promote 0-d arrays to 1-d, hence the ordering above.
        array, order = np.ascontiguousarray(value), b"C"
    out = enc.out
    out += _T_NDARRAY
    _put_str(out, enc.strings, _dtype_descr(array.dtype))
    out += order
    _write_uvarint(out, array.ndim)
    for dim in array.shape:
        _write_uvarint(out, dim)
    # reshape(-1) flattens without copying (the source is contiguous in
    # the stored order), and a 1-D memoryview casts to bytes cleanly —
    # including for 0-d arrays, which reshape to one element.
    flat = (array if order == b"C" else array.T).reshape(-1)
    view = memoryview(flat).cast("B") if array.nbytes else b""
    enc.blob(view)


def _enc_npscalar(enc: _Encoder, value: np.generic) -> None:
    out = enc.out
    out += _T_NPSCALAR
    _put_str(out, enc.strings, _dtype_descr(value.dtype))
    enc.blob(value.tobytes(), inline_only=True)


def _enc_object(enc: _Encoder, value: Any, layout: bytes, values: Any) -> None:
    """An object by layout: layout slot, then one value per attribute name."""
    marker = enc.enter(value)
    out = enc.out
    out += _T_OBJECT
    _put_def(out, enc.layouts, layout)
    codecs = enc.codecs
    for item in values:
        kind = type(item)
        (codecs.get(kind) or enc.compile(kind))(enc, item)
    enc.stack.discard(marker)


def _dtype_descr(dtype: np.dtype) -> str:
    """A stable textual dtype descriptor round-tripping through ``np.dtype``."""
    descr = np.lib.format.dtype_to_descr(dtype)
    return descr if isinstance(descr, str) else repr(descr)


#: Exact type -> encode function; per-class codecs are added by _compile.
_CODECS: Dict[type, Callable[[_Encoder, Any], None]] = {
    type(None): _enc_none,
    bool: _enc_bool,
    int: _enc_int,
    float: _enc_float,
    complex: _enc_complex,
    str: _enc_str,
    bytes: _enc_bytes,
    bytearray: _enc_bytearray,
    list: _enc_list,
    tuple: _enc_tuple,
    set: _enc_set,
    frozenset: _enc_frozenset,
    dict: _enc_dict,
}
_Encoder.codecs = _CODECS
_PACKABLE = frozenset((float, int, str))
_COMPILE_LOCK = threading.Lock()


# ---------------------------------------------------------------------------
# per-class codec compilation
# ---------------------------------------------------------------------------
#: Values that travel as their ``(module, qualname)`` reference; decode
#: accepts a reference only when it resolves to one of these.  A NumPy ufunc
#: (``numpy.log``) is one: its attribute layout has no constructor to rebuild it.
_REFERABLE = (type, types.FunctionType, types.BuiltinFunctionType, np.ufunc)

#: Classes without a canonical form, and why.
_REFUSED = (
    (types.MethodType, "a bound method; hold the function or the instance instead"),
    (types.ModuleType, "a module has no value form"),
    (type(np.ndarray.sum), "a method descriptor has no value form"),
    ((list, dict, set, bytearray), "a builtin-container subclass keeps its items outside __dict__"),
)


def _refused(cls: type, reason: str) -> TypeError:
    return TypeError(
        f"canonical encoding has no codec for {cls.__module__}.{cls.__qualname__}: {reason}"
    )


def _refuse(reason: str) -> Callable[[_Encoder, Any], None]:
    """A codec refusing every instance of its class with ``reason``."""

    def encode(enc: _Encoder, value: Any) -> None:
        raise _refused(type(value), reason)

    return encode


def _compile(cls: type) -> Callable[[_Encoder, Any], None]:
    """Classify ``cls`` once and cache its encode closure (thread-safe)."""
    with _COMPILE_LOCK:
        codec = _CODECS.get(cls)
        if codec is None:
            codec = _CODECS[cls] = _build_codec(cls)
    return codec


def _build_codec(cls: type, decodable: bool = True) -> Callable[[_Encoder, Any], None]:
    """``decodable=False`` (for bytes nothing decodes) accepts a class not importable by name."""
    if issubclass(cls, _REFERABLE):
        return _enc_reference
    for kinds, reason in _REFUSED:
        if issubclass(cls, kinds):
            return _refuse(reason)
    if issubclass(cls, np.ndarray):
        return _enc_ndarray
    if issubclass(cls, np.generic):
        return _enc_npscalar
    if decodable and not _importable(cls):
        return _refuse("the class does not resolve to itself as module.qualname")
    if issubclass(cls, BaseException):
        return _exception_codec(cls)
    if issubclass(cls, Enum):
        return _enum_codec(cls)
    if dataclasses.is_dataclass(cls):
        return _dataclass_codec(cls)
    return _object_codec(cls)


def _enc_reference(enc: _Encoder, value: Any) -> None:
    """A module-level class, function, builtin or ufunc as its reference slot."""
    if not _importable(value):
        raise TypeError(f"canonical encoding refuses {value!r}: not reachable as module.qualname")
    out = enc.out
    out += _T_REF
    _put_def(out, enc.refs, _definition(value))


def _exception_codec(cls: type) -> Callable[[_Encoder, Any], None]:
    """An exception as its class reference, then the args and state of its
    ``__reduce__`` — only when that rebuilds it from its own class."""
    definition = _definition(cls)

    def encode(enc: _Encoder, value: BaseException) -> None:
        reduced = value.__reduce__()
        if not (
            type(reduced) is tuple
            and len(reduced) in (2, 3)
            and reduced[0] is cls
            and type(reduced[1]) is tuple
        ):
            raise _refused(cls, "its __reduce__ does not rebuild it from its class")
        marker = enc.enter(value)
        out = enc.out
        out += _T_EXCEPTION
        _put_def(out, enc.refs, definition)
        enc.value(reduced[1])
        enc.value(reduced[2] if len(reduced) == 3 else None)
        enc.stack.discard(marker)

    return encode


def _enum_codec(cls: type) -> Callable[[_Encoder, Any], None]:
    members = {
        member._name_: _definition(cls, (member._name_,))
        for member in cls.__members__.values()
    }

    def encode(enc: _Encoder, value: Enum) -> None:
        out = enc.out
        out += _T_ENUM
        _put_def(out, enc.members, members[value._name_])

    return encode


def _getter(names: Tuple[str, ...]) -> Callable[[Any], Tuple[Any, ...]]:
    """Fetch ``names`` from an instance as a tuple (C-level attrgetter)."""
    if not names:
        return lambda _value: ()
    if len(names) == 1:
        single = operator.attrgetter(names[0])
        return lambda value: (single(value),)
    return operator.attrgetter(*names)


def _dataclass_codec(cls: type) -> Callable[[_Encoder, Any], None]:
    names = tuple(sorted(spec.name for spec in dataclasses.fields(cls)))
    declared = frozenset(names)
    layout = _definition(cls, names)
    fetch = _getter(names)

    def encode(enc: _Encoder, value: Any) -> None:
        extra = getattr(value, "__dict__", None)
        # Per instance: field-wise reconstruction would drop ad-hoc
        # attributes beyond the declared fields.
        if extra is not None and not declared.issuperset(extra):
            raise _refused(cls, "the instance has attributes beyond its declared fields")
        try:
            values = fetch(value)
        except AttributeError:
            raise _refused(cls, "the instance leaves a declared field unset") from None
        _enc_object(enc, value, layout, values)

    return encode


def _overrides(cls: type, name: str) -> bool:
    return getattr(cls, name, None) is not getattr(object, name, None)


def _object_codec(cls: type) -> Callable[[_Encoder, Any], None]:
    """Generic object encoding: a state pair or an attribute layout.

    Two safe shapes:

    * a ``__getstate__``/``__setstate__`` pair with no custom reduce — the
      class manages its own state contract (data collections, feature
      vectors, :class:`ArtifactRef`);
    * a plain class with no reduce customization at all, whose state is
      exactly ``__dict__`` plus set ``__slots__`` — encoded as an attribute
      layout (fitted models).

    A class customising ``__reduce__``/``__reduce_ex__``/
    ``__getnewargs__`` (rngs, ``functools.partial``) or defining half a
    state pair is refused.
    """
    for name in ("__reduce__", "__reduce_ex__", "__getnewargs__", "__getnewargs_ex__"):
        if _overrides(cls, name):
            return _refuse(f"it customises {name}")
    has_getstate = _overrides(cls, "__getstate__")
    has_setstate = _overrides(cls, "__setstate__")
    if has_getstate or has_setstate:
        if not (has_getstate and has_setstate):
            return _refuse("it defines only half of the __getstate__/__setstate__ pair")
        return _state_codec(cls)
    return _attribute_codec(cls)


def _state_codec(cls: type) -> Callable[[_Encoder, Any], None]:
    definition = _definition(cls)

    def encode(enc: _Encoder, value: Any) -> None:
        marker = enc.enter(value)
        out = enc.out
        out += _T_OBJ_STATE
        _put_def(out, enc.classes, definition)
        enc.value(value.__getstate__())
        enc.stack.discard(marker)

    return encode


def _slot_names(cls: type) -> Tuple[str, ...]:
    """Sorted attribute names of every slot in the MRO (private ones mangled)."""
    names = set()
    for klass in cls.__mro__:
        declared = vars(klass).get("__slots__", ())
        for slot in (declared,) if isinstance(declared, str) else declared:
            if slot in ("__dict__", "__weakref__"):
                continue
            if slot.startswith("__") and not slot.endswith("__"):
                slot = f"_{klass.__name__.lstrip('_')}{slot}"
            names.add(slot)
    return tuple(sorted(names))


def _attribute_codec(cls: type) -> Callable[[_Encoder, Any], None]:
    slot_names = _slot_names(cls)
    # Layout per attribute-name tuple: fixed for a fully set slotted class,
    # one per distinct attribute set for __dict__ classes.
    layouts: Dict[Tuple[str, ...], bytes] = {}
    all_slots = _getter(slot_names) if slot_names else None
    full = _definition(cls, slot_names) if slot_names else None

    def encode(enc: _Encoder, value: Any) -> None:
        instance_dict = getattr(value, "__dict__", None)
        if all_slots is not None and instance_dict is None:
            try:
                values = all_slots(value)
            except AttributeError:
                pass  # an unset slot: absent from the state
            else:
                _enc_object(enc, value, full, values)
                return
        state: Dict[str, Any] = {}
        if isinstance(instance_dict, dict):
            state.update(instance_dict)
        elif not slot_names:
            raise _refused(cls, "the instance has neither a __dict__ nor slots")
        for slot in slot_names:
            try:
                state[slot] = getattr(value, slot)
            except AttributeError:
                pass
        names = tuple(sorted(state, key=str))
        if not all(type(name) is str for name in names):  # keys planted in __dict__
            raise _refused(cls, "the instance __dict__ has a non-str key")
        layout = layouts.get(names)
        if layout is None:
            layout = layouts.setdefault(names, _definition(cls, names))
        _enc_object(enc, value, layout, [state[name] for name in names])

    return encode


def _importable(target: Any) -> bool:
    """Whether ``target`` resolves to itself as ``module.qualname`` through
    ``sys.modules`` (lambdas, closures and ``<locals>`` do not); imports nothing."""
    module = sys.modules.get(getattr(target, "__module__", None) or "")
    qualname = getattr(target, "__qualname__", None)
    return (
        module is not None
        and isinstance(qualname, str)
        and _resolve_qualname(module, qualname) is target
    )


def _resolve_qualname(module: Any, qualname: str) -> Any:
    target = module
    for part in qualname.split("."):
        target = getattr(target, part, None)
        if target is None:
            return None
    return target


def encode_segments(value: Any) -> List[Union[bytes, memoryview]]:
    """Encode ``value`` as ``[prefix, body, *buffers]`` byte segments.

    ``b"".join(segments)`` equals :func:`encode`'s packed form; buffer
    segments at index 2+ are the out-of-band buffers (NumPy array memory as
    read-only memoryviews — zero-copy — plus large ``bytes`` blobs).  The
    caller must finish sending/joining the segments before mutating any
    source array.  A value without a codec raises ``TypeError``, a cyclic
    one ``ValueError``.
    """
    encoder = _Encoder(allow_oob=True)
    encoder.value(value)
    buffers = [
        buf if isinstance(buf, memoryview) else memoryview(buf)
        for buf in encoder.buffers
    ]
    prefix = bytearray()
    prefix += CANONICAL_MAGIC
    prefix.append(CANONICAL_VERSION)
    _write_uvarint(prefix, len(buffers))
    for buf in buffers:
        _write_uvarint(prefix, len(buf))
    _write_uvarint(prefix, len(encoder.out))
    return [bytes(prefix), bytes(encoder.out), *buffers]


def encode(value: Any) -> bytes:
    """Packed canonical encoding (a single ``bytes`` object)."""
    return b"".join(encode_segments(value))


def content_digest(payload: Union[bytes, bytearray, memoryview]) -> str:
    """Hex SHA-256 of serialized payload bytes — the content-address digest.

    Because the canonical encoding is deterministic, the digest of an
    artifact's serialized bytes is a pure function of its value: every
    process that materializes the same value under the same signature
    stores and ships byte-identical blobs with the same digest.  The store
    records it per artifact and the worker-side artifact cache uses it to
    assert byte-exact dedup when the same signature arrives twice (two
    fetches of one artifact must carry the same bytes).
    """
    return hashlib.sha256(payload).hexdigest()


# ---------------------------------------------------------------------------
# decoding
# ---------------------------------------------------------------------------
class _Decoder:
    """Integer-offset reader over one payload body (a ``bytes`` copy).

    ``view``/``base`` address the same body inside the original payload, so
    blobs are sliced out of it as memoryviews (zero-copy arrays).
    """

    __slots__ = (
        "data", "pos", "view", "base", "buffers", "copy_buffers",
        "strings", "shapes", "layouts", "members", "classes", "refs",
    )

    def __init__(self, view: memoryview, start: int, end: int,
                 buffers: List[memoryview], copy_buffers: bool):
        self.data = bytes(view[start:end])
        self.pos = 0
        self.view = view
        self.base = start
        self.buffers = buffers
        self.copy_buffers = copy_buffers
        self.strings: List[str] = []
        self.shapes: List[Tuple[str, ...]] = []
        self.layouts: List[_Layout] = []
        self.members: List[Enum] = []
        self.classes: List[type] = []
        self.refs: List[Any] = []

    def value(self) -> Any:
        pos = self.pos
        self.pos = pos + 1
        return _DECODERS[self.data[pos]](self)

    def uvarint(self) -> int:
        data = self.data
        pos = self.pos
        byte = data[pos]
        if byte < 0x80:
            self.pos = pos + 1
            return byte
        second = data[pos + 1]
        if second < 0x80:
            self.pos = pos + 2
            return (byte & 0x7F) | (second << 7)
        value, self.pos = _uvarint_at(data, pos)
        return value

    def take(self, count: int) -> int:
        """Advance past ``count`` body bytes; returns their start offset."""
        start = self.pos
        end = start + count
        if end > len(self.data):
            raise ProtocolError(
                f"canonical payload truncated: needed {count} bytes at body "
                f"offset {start}, body has {len(self.data)}"
            )
        self.pos = end
        return start

    def text(self) -> str:
        """A string slot (define or ref)."""
        slot = self.uvarint()
        if slot & 1:
            try:
                return self.strings[slot >> 1]
            except IndexError:
                raise ProtocolError(
                    f"canonical payload references string {slot >> 1} before "
                    f"defining it"
                ) from None
        count = slot >> 1
        start = self.take(count)
        text = self.data[start : start + count].decode("utf-8", "surrogatepass")
        self.strings.append(text)
        return text

    def raw_text(self) -> str:
        count = self.uvarint()
        start = self.take(count)
        return self.data[start : start + count].decode("utf-8", "surrogatepass")

    def blob(self) -> memoryview:
        flag = self.data[self.pos]
        self.pos += 1
        if flag == 0:
            count = self.uvarint()
            start = self.base + self.take(count)
            return self.view[start : start + count]
        if flag == 1:
            index = self.uvarint()
            if index >= len(self.buffers):
                raise ProtocolError(
                    f"canonical payload references out-of-band buffer "
                    f"{index} but only {len(self.buffers)} are present"
                )
            return self.buffers[index]
        raise ProtocolError(
            f"canonical payload has an invalid blob flag 0x{flag:02x}"
        )

    def slot(self, table: List[Any], define: Callable[["_Decoder"], Any]) -> Any:
        """A definition slot: a known id, or the next id with its body."""
        pos = self.pos
        index = self.data[pos]
        if index < 0x80:
            self.pos = pos + 1
        else:
            index = self.uvarint()
        if index < len(table):
            return table[index]
        if index != len(table):
            raise ProtocolError(
                f"canonical payload references definition {index} of a "
                f"{len(table)}-entry table"
            )
        entry = define(self)
        table.append(entry)
        return entry

    def definition(self, kinds: Any = type) -> Tuple[Any, Tuple[str, ...]]:
        """A class (or another of ``kinds``) plus names (:func:`_definition`).

        The resolution rule of every definition slot: a module already in
        ``sys.modules`` resolves, a module of this package is imported on
        demand, and any other module is refused — a payload never makes
        this process import a module it names.
        """
        module_name = self.raw_text()
        qualname = self.raw_text()
        module = sys.modules.get(module_name)
        if module is None:
            if module_name != _PACKAGE and not module_name.startswith(_PACKAGE + "."):
                raise ProtocolError(
                    f"canonical payload references module {module_name!r}, which this "
                    f"process has not imported (only {_PACKAGE}.* is imported on demand)"
                )
            try:
                module = importlib.import_module(module_name)
            except Exception as exc:  # noqa: BLE001 - typed decode failure
                raise ProtocolError(
                    f"canonical payload references unimportable module "
                    f"{module_name!r}: {exc}"
                ) from exc
        target = _resolve_qualname(module, qualname)
        if not isinstance(target, kinds):
            raise ProtocolError(
                f"canonical payload references {module_name}:{qualname}, "
                f"which does not resolve to a {'class' if kinds is type else 'class or function'}"
            )
        return target, tuple([self.raw_text() for _ in range(self.uvarint())])


#: The package whose modules a payload may name before they are imported.
_PACKAGE = __name__.partition(".")[0]


def _define_layout(dec: _Decoder) -> "_Layout":
    return _builder(*dec.definition())


def _define_member(dec: _Decoder) -> Enum:
    cls, names = dec.definition()
    if not (issubclass(cls, Enum) and len(names) == 1):
        raise ProtocolError(
            f"canonical payload names {cls.__qualname__}{list(names)} as an enum member"
        )
    try:
        return cls[names[0]]
    except KeyError as exc:
        raise ProtocolError(
            f"canonical payload names unknown enum member "
            f"{cls.__qualname__}.{names[0]}"
        ) from exc


def _define_class(dec: _Decoder) -> type:
    return _bare(dec, type)


def _define_ref(dec: _Decoder) -> Any:
    return _bare(dec, _REFERABLE)


def _bare(dec: _Decoder, kinds: Any) -> Any:
    """A definition that carries no names: a state class or a reference."""
    target, names = dec.definition(kinds)
    if names:
        raise ProtocolError(
            f"canonical reference {target.__qualname__} carries names {list(names)}"
        )
    return target


#: A decoded layout: ``(attribute count, build(values) -> instance)``.
_Layout = Tuple[int, Callable[[List[Any]], Any]]
_BUILDERS: Dict[Tuple[type, Tuple[str, ...]], _Layout] = {}


def _builder(cls: type, names: Tuple[str, ...]) -> _Layout:
    """Cached constructor: a bare instance with ``names`` set to the values."""
    key = (cls, names)
    layout = _BUILDERS.get(key)
    if layout is None:
        layout = _BUILDERS.setdefault(key, (len(names), _make_builder(cls, names)))
    return layout


def _make_builder(cls: type, names: Tuple[str, ...]) -> Callable[[List[Any]], Any]:
    new = cls.__new__
    has_dict = any("__dict__" in vars(klass) for klass in cls.__mro__)

    def descriptor(name: str) -> Any:
        for klass in cls.__mro__:
            if name in vars(klass):
                return vars(klass)[name]
        return None

    plain = has_dict and not any(
        hasattr(type(descriptor(name)), "__set__") for name in names
    )
    if plain:
        # Straight into the instance dict (also serves frozen dataclasses).
        def build(values: List[Any]) -> Any:
            instance = new(cls)
            instance.__dict__.update(zip(names, values))
            return instance
    else:
        setattr_ = object.__setattr__  # slots, frozen and slotted dataclasses

        def build(values: List[Any]) -> Any:
            instance = new(cls)
            for name, item in zip(names, values):
                setattr_(instance, name, item)
            return instance

    return build


def _d_none(dec: _Decoder) -> None:
    return None


def _d_true(dec: _Decoder) -> bool:
    return True


def _d_false(dec: _Decoder) -> bool:
    return False


def _d_int(dec: _Decoder) -> int:
    raw = dec.uvarint()
    return (raw >> 1) if not raw & 1 else -((raw + 1) >> 1)


def _d_float(dec: _Decoder) -> float:
    pos = dec.pos
    dec.pos = pos + 8
    return _FLOAT.unpack_from(dec.data, pos)[0]


def _d_complex(dec: _Decoder) -> complex:
    pos = dec.pos
    dec.pos = pos + 16
    real, imag = _COMPLEX.unpack_from(dec.data, pos)
    return complex(real, imag)


def _d_bytes(dec: _Decoder) -> bytes:
    return bytes(dec.blob())


def _d_bytearray(dec: _Decoder) -> bytearray:
    return bytearray(dec.blob())


def _d_list(dec: _Decoder) -> list:
    value = dec.value
    return [value() for _ in range(dec.uvarint())]


def _d_tuple(dec: _Decoder) -> tuple:
    value = dec.value
    return tuple([value() for _ in range(dec.uvarint())])


def _packed_floats(dec: _Decoder) -> Tuple[float, ...]:
    count = dec.uvarint()
    return struct.unpack_from(">%dd" % count, dec.data, dec.take(8 * count))


def _int_segment_at(dec: _Decoder, count: int) -> Tuple[int, ...]:
    """``count`` ints written by :func:`_int_segment`."""
    code = dec.data[dec.take(1)]
    width = _INT_ITEMSIZE.get(code)
    if width is None:
        raise ProtocolError(f"canonical packed ints have an invalid width code 0x{code:02x}")
    return struct.unpack_from(">%d%s" % (count, chr(code)), dec.data, dec.take(width * count))


def _packed_ints(dec: _Decoder) -> Tuple[int, ...]:
    return _int_segment_at(dec, dec.uvarint())


def _packed_strs(dec: _Decoder) -> Any:
    """A packed str sequence: the strings it introduces, then its id array.

    An id past the table raises ``IndexError`` while the result is
    consumed, which :func:`decode` reports as a malformed payload.
    """
    strings = dec.strings
    count = dec.uvarint()
    fresh = dec.uvarint()
    if fresh:
        lengths = _int_segment_at(dec, fresh)
        ends = list(accumulate(lengths))
        size = dec.uvarint()
        start = dec.take(size)
        text = dec.data[start : start + size].decode("utf-8", "surrogatepass")
        if min(lengths) < 0 or ends[-1] != len(text):
            raise ProtocolError(
                f"canonical packed strings of {ends[-1]} code points carry {len(text)}"
            )
        strings.extend(map(text.__getitem__, map(slice, [0, *ends[:-1]], ends)))
    code = _id_code(len(strings))
    ids = struct.unpack_from(
        ">%d%s" % (count, code), dec.data, dec.take(struct.calcsize(code) * count)
    )
    return map(strings.__getitem__, ids)


def _d_float_list(dec: _Decoder) -> list:
    return list(_packed_floats(dec))


def _d_float_tuple(dec: _Decoder) -> tuple:
    return _packed_floats(dec)


def _d_int_list(dec: _Decoder) -> list:
    return list(_packed_ints(dec))


def _d_int_tuple(dec: _Decoder) -> tuple:
    return _packed_ints(dec)


def _d_str_list(dec: _Decoder) -> list:
    return list(_packed_strs(dec))


def _d_str_tuple(dec: _Decoder) -> tuple:
    return tuple(_packed_strs(dec))


def _d_set(dec: _Decoder) -> set:
    value = dec.value
    return {value() for _ in range(dec.uvarint())}


def _d_frozenset(dec: _Decoder) -> frozenset:
    value = dec.value
    return frozenset([value() for _ in range(dec.uvarint())])


def _d_dict(dec: _Decoder) -> dict:
    value = dec.value
    # Dict comprehensions evaluate the key before the value (3.8+).
    return {value(): value() for _ in range(dec.uvarint())}


def _define_shape(dec: _Decoder) -> Tuple[str, ...]:
    text = dec.text
    return tuple([text() for _ in range(dec.uvarint())])


def _d_str_dict(dec: _Decoder) -> dict:
    keys = dec.slot(dec.shapes, _define_shape)
    values = dec.value()
    if type(values) is not tuple or len(values) != len(keys):
        raise ProtocolError(
            f"canonical dict of {len(keys)} keys carries a value of type "
            f"{type(values).__name__} instead of its value tuple"
        )
    return dict(zip(keys, values))


def _d_ndarray(dec: _Decoder) -> np.ndarray:
    dtype = _dtype(dec.text())
    order = dec.data[dec.take(1)]
    if order not in b"CF":
        raise ProtocolError(
            f"canonical ndarray has invalid order byte {bytes([order])!r}"
        )
    shape = tuple(dec.uvarint() for _ in range(dec.uvarint()))
    data = dec.blob()
    count = 1
    for dim in shape:
        count *= dim
    if dtype.itemsize and len(data) != count * dtype.itemsize:
        raise ProtocolError(
            f"canonical ndarray of shape {shape} dtype {dtype} expects "
            f"{count * dtype.itemsize} buffer bytes, got {len(data)}"
        )
    flat = np.frombuffer(data, dtype=dtype)
    if order == ord("C"):
        array = flat.reshape(shape)
    else:
        array = flat.reshape(tuple(reversed(shape))).T
    if dec.copy_buffers:
        # order="K" keeps the C/F memory layout, so a decoded value
        # re-encodes to the same bytes (round-trip stability).
        return array.copy(order="K")
    return array  # zero-copy read-only view into the payload


def _d_npscalar(dec: _Decoder) -> np.generic:
    dtype = _dtype(dec.text())
    return np.frombuffer(dec.blob(), dtype=dtype)[0]


def _dtype(descr: str) -> np.dtype:
    try:
        if descr.startswith("["):
            # Structured dtype descriptor stored as its list repr;
            # literal_eval only admits constants/lists/tuples.
            return np.dtype(ast.literal_eval(descr))
        return np.dtype(descr)
    except Exception as exc:  # noqa: BLE001 - typed decode failure
        raise ProtocolError(
            f"canonical payload carries invalid dtype descriptor {descr!r}"
        ) from exc


def _d_enum(dec: _Decoder) -> Enum:
    return dec.slot(dec.members, _define_member)


def _d_object(dec: _Decoder) -> Any:
    count, build = dec.slot(dec.layouts, _define_layout)
    value = dec.value
    return build([value() for _ in range(count)])


def _d_obj_state(dec: _Decoder) -> Any:
    cls = dec.slot(dec.classes, _define_class)
    state = dec.value()
    instance = cls.__new__(cls)
    try:
        instance.__setstate__(state)
    except (TypeError, ValueError, KeyError) as exc:  # a state the class refuses
        raise ProtocolError(
            f"canonical payload carries an invalid {cls.__qualname__} state: {exc!r}"
        ) from exc
    return instance


def _d_ref(dec: _Decoder) -> Any:
    return dec.slot(dec.refs, _define_ref)


def _d_exception(dec: _Decoder) -> BaseException:
    cls = dec.slot(dec.refs, _define_ref)
    if not (isinstance(cls, type) and issubclass(cls, BaseException)):
        raise ProtocolError(f"canonical exception names {cls.__qualname__}, not an exception class")
    args = dec.value()
    state = dec.value()
    if type(args) is not tuple or not (state is None or type(state) is dict):
        raise ProtocolError(f"canonical {cls.__qualname__} carries invalid args or state")
    try:
        error = cls(*args)
        if state is not None:
            error.__setstate__(state)
    except Exception as exc:  # noqa: BLE001 - typed decode failure
        raise ProtocolError(
            f"canonical payload carries {cls.__qualname__} args it refuses: {exc!r}"
        ) from exc
    return error


def _d_unknown(dec: _Decoder) -> Any:
    tag = dec.data[dec.pos - 1]
    raise ProtocolError(
        f"canonical payload has unknown type tag 0x{tag:02x} "
        f"(version skew or corruption)"
    )


_DECODERS: List[Callable[[_Decoder], Any]] = [_d_unknown] * 256
for _tag, _decoder in (
    (_T_NONE, _d_none),
    (_T_TRUE, _d_true),
    (_T_FALSE, _d_false),
    (_T_INT, _d_int),
    (_T_FLOAT, _d_float),
    (_T_COMPLEX, _d_complex),
    (_T_STR, _Decoder.text),
    (_T_BYTES, _d_bytes),
    (_T_BYTEARRAY, _d_bytearray),
    (_T_LIST, _d_list),
    (_T_TUPLE, _d_tuple),
    (_T_FLOAT_LIST, _d_float_list),
    (_T_FLOAT_TUPLE, _d_float_tuple),
    (_T_INT_LIST, _d_int_list),
    (_T_INT_TUPLE, _d_int_tuple),
    (_T_STR_LIST, _d_str_list),
    (_T_STR_TUPLE, _d_str_tuple),
    (_T_SET, _d_set),
    (_T_FROZENSET, _d_frozenset),
    (_T_DICT, _d_dict),
    (_T_STR_DICT, _d_str_dict),
    (_T_NDARRAY, _d_ndarray),
    (_T_NPSCALAR, _d_npscalar),
    (_T_ENUM, _d_enum),
    (_T_OBJECT, _d_object),
    (_T_OBJ_STATE, _d_obj_state),
    (_T_REF, _d_ref),
    (_T_EXCEPTION, _d_exception),
):
    _DECODERS[_tag[0]] = _decoder
del _tag, _decoder


def decode(
    payload: Union[bytes, bytearray, memoryview], copy_buffers: bool = True
) -> Any:
    """Inverse of :func:`encode` (accepts the packed single-buffer form).

    ``copy_buffers=False`` reconstructs NumPy arrays as read-only zero-copy
    views into ``payload`` — the caller must keep the payload alive and must
    not need to mutate the arrays.  The default copies array data into
    fresh writable memory, preserving each array's C/F layout so re-encoding
    a decoded value reproduces the original bytes.

    Raises :class:`~repro.exceptions.ProtocolError` on truncated payloads,
    unknown type tags, dangling intern references, invalid buffer
    references, or a bad magic/version prefix.
    """
    view = memoryview(payload)
    if view.ndim != 1 or view.format != "B":
        view = view.cast("B")
    if len(view) < 3:
        raise ProtocolError(
            f"canonical payload of {len(view)} bytes is shorter than the "
            f"magic + version prefix"
        )
    if bytes(view[:2]) != CANONICAL_MAGIC:
        raise ProtocolError(
            f"bad canonical magic {bytes(view[:2])!r} (expected "
            f"{CANONICAL_MAGIC!r})"
        )
    if view[2] != CANONICAL_VERSION:
        raise ProtocolError(
            f"canonical encoding version mismatch: payload is version "
            f"{view[2]}, this process decodes version {CANONICAL_VERSION}"
        )
    try:
        buffer_count, pos = _uvarint_at(view, 3)
        lengths = []
        for _ in range(buffer_count):
            length, pos = _uvarint_at(view, pos)
            lengths.append(length)
        body_len, body_start = _uvarint_at(view, pos)
        body_end = body_start + body_len
        expected = body_end + sum(lengths)
        if expected != len(view):
            raise ProtocolError(
                f"canonical payload declares {expected} bytes but carries "
                f"{len(view)}"
            )
        buffers: List[memoryview] = []
        offset = body_end
        for length in lengths:
            buffers.append(view[offset : offset + length])
            offset += length
        decoder = _Decoder(view, body_start, body_end, buffers, copy_buffers)
        value = decoder.value()
    except (IndexError, struct.error) as exc:
        raise ProtocolError(f"canonical payload truncated or malformed: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ProtocolError(f"canonical payload carries invalid UTF-8: {exc}") from exc
    if decoder.pos != len(decoder.data):
        raise ProtocolError(
            f"canonical payload has {len(decoder.data) - decoder.pos} trailing "
            f"body bytes after the value"
        )
    return value
