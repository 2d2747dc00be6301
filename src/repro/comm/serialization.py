"""Payload size accounting and canonical content digests for messages.

The simulated cluster charges ``latency + bytes / bandwidth`` per message,
and reports also tally real-backend traffic, so both need a consistent
"bytes on the wire" estimate. We count array/str/bytes payload plus a
small fixed envelope per message rather than pickling (which would be
slow and allocation-heavy on hot paths).

:func:`content_digest` is the end-to-end integrity primitive: a canonical
digest of a message payload that is identical across interpreter
processes (never Python ``hash()``, which is salted by ``PYTHONHASHSEED``),
across the processes backend's pickle round-trip, and across dict
insertion orders. Senders stamp it on :class:`TaskAssign`/:class:`TaskResult`
hops and receivers recompute it, so an in-transit mutation is detected at
receive rather than silently merged into the DP table.
"""

from __future__ import annotations

import hashlib
import struct
from numbers import Number
from typing import Any

import numpy as np

from repro.comm.messages import BlockRef, Message

#: Fixed per-message envelope (headers, task id, epoch) in bytes.
MESSAGE_ENVELOPE_BYTES = 64

#: Hex digest length of :func:`content_digest` (blake2b, 16-byte digest).
CONTENT_DIGEST_BYTES = 16


def _hash_into(h: Any, obj: Any) -> None:
    """Feed a canonical, type-tagged encoding of ``obj`` into hasher ``h``.

    Every branch starts with a one-byte type tag and length-prefixes
    variable-size data, so distinct structures can never collide by
    concatenation ambiguity.
    """
    if obj is None:
        h.update(b"N")
    elif isinstance(obj, np.ndarray):
        if obj.dtype.hasobject:
            # Its buffer holds pointers, not content.
            raise TypeError(f"cannot digest an array of dtype {obj.dtype}")
        h.update(b"A")
        descr = obj.dtype.str.encode()
        h.update(struct.pack("<I", len(descr)))
        h.update(descr)
        h.update(struct.pack("<I", obj.ndim))
        for dim in obj.shape:
            h.update(struct.pack("<q", dim))
        # The C-order bytes through the buffer protocol: an already
        # contiguous array is hashed in place, not copied.
        h.update(np.ascontiguousarray(obj))
    elif isinstance(obj, bool):  # before Number: bool subclasses int
        h.update(b"b1" if obj else b"b0")
    elif isinstance(obj, (bytes, bytearray, memoryview)):
        raw = bytes(obj)
        h.update(b"B" + struct.pack("<Q", len(raw)))
        h.update(raw)
    elif isinstance(obj, str):
        raw = obj.encode()
        h.update(b"S" + struct.pack("<Q", len(raw)))
        h.update(raw)
    elif isinstance(obj, (int, np.integer)):
        raw = repr(int(obj)).encode()
        h.update(b"I" + struct.pack("<I", len(raw)))
        h.update(raw)
    elif isinstance(obj, (float, np.floating)):
        h.update(b"F" + struct.pack("<d", float(obj)))
    elif isinstance(obj, (complex, Number, np.generic)):
        raw = repr(obj).encode()
        h.update(b"C" + struct.pack("<I", len(raw)))
        h.update(raw)
    elif isinstance(obj, dict):
        # Canonical order: sort entries by the digest of the *key*, so
        # insertion order (and any hash-seed-dependent iteration order)
        # cannot leak into the digest.
        entries = sorted(
            ((content_digest(k), k, v) for k, v in obj.items()),
            key=lambda e: e[0],
        )
        h.update(b"D" + struct.pack("<Q", len(entries)))
        for _, k, v in entries:
            _hash_into(h, k)
            _hash_into(h, v)
    elif isinstance(obj, (list, tuple)):
        h.update(b"L" + struct.pack("<Q", len(obj)))
        for v in obj:
            _hash_into(h, v)
    elif isinstance(obj, (set, frozenset)):
        digests = sorted(content_digest(v) for v in obj)
        h.update(b"T" + struct.pack("<Q", len(digests)))
        for d in digests:
            h.update(d.encode())
    else:
        raise TypeError(f"cannot digest payload of type {type(obj).__name__}")


def content_digest(obj: Any) -> str:
    """Canonical hex digest of a message payload.

    Independent of ``PYTHONHASHSEED``, dict ordering, and pickling; equal
    digests mean equal content for all types :func:`payload_nbytes`
    accepts (arrays compare by dtype, shape, and C-order bytes).
    """
    h = hashlib.blake2b(digest_size=CONTENT_DIGEST_BYTES)
    _hash_into(h, obj)
    return h.hexdigest()


def payload_nbytes(obj: Any) -> int:
    """Recursively estimate the wire size of a message payload."""
    if obj is None:
        return 0
    if isinstance(obj, np.ndarray):
        return int(obj.nbytes)
    if isinstance(obj, BlockRef):
        # A ref stands for the block it points at: the bytes still move
        # end to end (through the segment instead of the pipe), so byte
        # counters stay identical whether the shm plane is on or off.
        return int(obj.nbytes)
    if isinstance(obj, (bytes, bytearray, memoryview)):
        return len(obj)
    if isinstance(obj, str):
        return len(obj.encode())
    if isinstance(obj, (bool, Number, np.generic)):
        return 8
    if isinstance(obj, dict):
        return sum(payload_nbytes(k) + payload_nbytes(v) for k, v in obj.items())
    if isinstance(obj, (list, tuple, set, frozenset)):
        return sum(payload_nbytes(v) for v in obj)
    raise TypeError(f"cannot size payload of type {type(obj).__name__}")


def message_nbytes(msg: Message) -> int:
    """Wire size of a protocol message: ONE envelope plus the payload of
    every element it carries (none for a signal) — the α-amortization
    batching exists for: n messages collapse to one, their β·size payload
    cost is unchanged, and a wave of one costs what its lone element does.
    """
    return MESSAGE_ENVELOPE_BYTES + sum(payload_nbytes(e.payload) for e in msg.elements)

