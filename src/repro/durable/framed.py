"""The one crash-tolerant framed append log (:class:`FramedLog`).

Both durable logs — the run-level commit journal
(:mod:`repro.durable.journal`, ``*.walj``) and the serve daemon's
submission log (:mod:`repro.serve.wal`, ``*.srvj``) — are this file
format under different magics and record vocabularies. Everything
format- and I/O-shaped lives here, once; ``docs/fault_tolerance.md``
§journal is the prose description. In short::

    MAGIC                 per log, versioned by its last byte
    record*               <u32 payload_len> <u32 crc32(payload)> <payload>

(little-endian header; the payload is a pickled dict with a ``"type"``
key). A torn or corrupt tail ends :func:`scan_frames` with a diagnostic,
never an exception; a failed append is truncated back out before
:class:`~repro.utils.errors.JournalIOError` is raised; compaction is an
atomic tmp + fsync + ``os.replace`` rewrite. Every append — one record
or a group of records that land together — is one write and one flush
and, with ``fsync=True``, one fsync (survives OS crashes, not just
process death); creation and every rewrite then fsync the parent
directory too, so the file's name is as durable as its bytes.

Not thread-safe: one writer at a time (the commit journal has exactly
one by design; the submission log serializes through its own lock).
"""

from __future__ import annotations

import io
import os
import pickle
import struct
import zlib
from contextlib import suppress
from dataclasses import dataclass
from typing import Any, Dict, Iterator, Optional, Tuple

from repro.utils.errors import JournalError, JournalIOError

#: ``<payload_len> <crc32>`` little-endian frame header.
HEADER = struct.Struct("<II")

#: Sanity cap on a single record (1 GiB) — a larger length header is
#: corruption, not data.
MAX_RECORD = 1 << 30


def encode(record: Dict[str, Any]) -> bytes:
    """One framed record: header + pickled ``record``."""
    payload = pickle.dumps(record, protocol=pickle.HIGHEST_PROTOCOL)
    return HEADER.pack(len(payload), zlib.crc32(payload)) + payload


class FramedLog:
    """Append side of one framed log file.

    ``noun`` names the log in diagnostics ("journal", "serve journal").
    ``io_policy`` is an :class:`~repro.cluster.faults.IoPolicy` or None:
    consulted before every frame write / fsync / rewrite tmp-file write,
    raising the injected OSError exactly where a real one would surface.
    """

    def __init__(
        self,
        path: str,
        fh: io.BufferedWriter,
        magic: bytes,
        *,
        fsync: bool = True,
        io_policy: Optional[Any] = None,
        noun: str = "journal",
        good_offset: Optional[int] = None,
    ) -> None:
        self.path = path
        self.magic = magic
        self.fsync = fsync
        self.io_policy = io_policy
        self.noun = noun
        self._fh: Optional[io.BufferedWriter] = fh
        #: Set by :meth:`close` / :meth:`abandon`. A missing handle on a
        #: log nobody closed means a repair or rewrite could not reopen
        #: it — a resource failure the caller may retry or degrade on,
        #: not misuse.
        self._closed = False
        #: File offset after the last fully-written frame: the repair
        #: point a failed write truncates back to.
        self._good_offset = len(magic) if good_offset is None else good_offset
        #: Frame writes and rewrites that failed on this handle.
        self.write_errors = 0

    @classmethod
    def create(cls, path: str, magic: bytes, **kwargs: Any) -> "FramedLog":
        """Start a fresh log (truncates any existing file at ``path``)."""
        fh = open(path, "wb")
        fh.write(magic)
        fh.flush()
        log = cls(path, fh, magic, **kwargs)
        log._sync_dir()
        return log

    @classmethod
    def open_resume(
        cls, path: str, magic: bytes, valid_bytes: int, **kwargs: Any
    ) -> "FramedLog":
        """Reopen a scanned log for append-after-recovery.

        Truncates the file to the scanned valid prefix (dropping any torn
        tail) so the next frame starts on a clean boundary.
        """
        with open(path, "rb+") as trunc:
            trunc.truncate(valid_bytes)
        return cls(path, open(path, "ab"), magic, good_offset=valid_bytes, **kwargs)

    # -- append ------------------------------------------------------------

    def _repair(self) -> None:
        """Truncate back to the last good frame boundary and reopen.

        The handle is replaced because a buffered writer's state is
        unknowable after a failed flush. Every step is best-effort: if
        even the truncate fails, the torn bytes stay on disk — but the
        CRC/length framing already makes :func:`scan_frames` discard
        them, so recovery still proceeds from the same good prefix.
        """
        fh, self._fh = self._fh, None
        with suppress(OSError):
            if fh is not None:
                fh.close()
        with suppress(OSError):
            os.truncate(self.path, self._good_offset)
        with suppress(OSError):  # else the next append raises op="open"
            self._fh = open(self.path, "ab")

    def _io_error(self, op: str, exc: OSError) -> JournalIOError:
        self.write_errors += 1
        return JournalIOError(
            f"{self.noun} {op} failed on {self.path!r}: {exc}",
            op=op, errno=exc.errno, path=self.path,
        )

    def _check_open(self) -> None:
        if self._closed:
            raise JournalError(f"{self.noun} {self.path!r} is closed")

    def _sync(self, fh: io.BufferedWriter) -> None:
        if self.fsync:
            if self.io_policy:
                self.io_policy.check("fsync")
            os.fsync(fh.fileno())

    def _sync_dir(self) -> None:
        """Make the log's directory entry durable (``fsync=True`` only): a
        created file or a rename is not on disk until its parent
        directory is, so an OS crash could otherwise bring back the
        pre-compaction file without the records appended after it."""
        if not self.fsync:
            return
        fd = os.open(os.path.dirname(os.path.abspath(self.path)), os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)

    def append(self, raw: bytes) -> None:
        """Write framed bytes — one record, or a group of whole records —
        through to the file (one flush, then one fsync when enabled); on
        failure repair back to the last good frame, then raise
        ``JournalIOError``."""
        self._check_open()
        fh = self._fh
        if fh is None:
            # The handle died in a previous repair; surface it as the
            # retryable I/O error so the caller's degrade ladder or shed
            # path (not a crash) decides what happens next.
            self.write_errors += 1
            raise JournalIOError(
                f"{self.noun} {self.path!r} has no usable file handle",
                op="open", path=self.path,
            )
        fault = self.io_policy.fault("write") if self.io_policy else None
        try:
            if fault is not None:
                if fault.kind == "partial":
                    # Land a prefix of the frame, then fail: the canonical
                    # torn-record generator the CRC scan must reject.
                    fh.write(raw[: fault.cut(len(raw))])
                    fh.flush()
                raise fault.to_oserror()
            fh.write(raw)
            fh.flush()
        except OSError as exc:
            self._repair()
            raise self._io_error("write", exc) from exc
        try:
            self._sync(fh)
        except OSError as exc:
            # The bytes reached the page cache but durability is refused;
            # truncate the frame back out so a retry rewrites it whole
            # rather than appending a duplicate.
            self._repair()
            raise self._io_error("fsync", exc) from exc
        self._good_offset += len(raw)

    # -- atomic rewrite ------------------------------------------------------

    def rewrite(self, frames: bytes, op: str) -> None:
        """Atomically replace the log's contents with ``magic + frames``.

        Temp file, fsync, ``os.replace``: a crash anywhere during the
        rewrite leaves either the old log or the new one — never a half
        state — because ``os.replace`` is atomic on POSIX. ``op`` names
        the operation in the ``JournalIOError`` raised when the tmp-file
        write fails, in which case the original log is untouched and
        still appendable.
        """
        self._check_open()
        tmp = self.path + ".compact.tmp"
        try:
            with open(tmp, "wb") as out:
                if self.io_policy:
                    self.io_policy.check("write")
                out.write(self.magic)
                out.write(frames)
                out.flush()
                self._sync(out)
        except OSError as exc:
            with suppress(OSError):
                os.unlink(tmp)
            raise self._io_error(op, exc) from exc
        if self._fh is not None:
            self._fh.close()
            self._fh = None
        os.replace(tmp, self.path)
        self._good_offset = len(self.magic) + len(frames)
        try:
            self._fh = open(self.path, "ab")
        except OSError as exc:
            raise self._io_error("open", exc) from exc
        try:
            self._sync_dir()
        except OSError as exc:
            # The rename stands and the handle is open; only its
            # durability is refused, so the caller may retry the rewrite.
            raise self._io_error(op, exc) from exc

    # -- teardown ------------------------------------------------------------

    def close(self) -> None:
        self._closed = True
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def abandon(self) -> None:
        """Drop the handle *without* closing it — the in-process stand-in
        for the owner dying mid-stream (a real SIGKILL needs no help)."""
        self._closed = True
        self._fh = None


@dataclass
class FrameTail:
    """Where a scan of a framed log stopped, and why — the base of both
    logs' scan results, filled in by :func:`scan_frames`."""

    path: str
    #: Offset of the first byte past the last intact frame.
    valid_bytes: int = 0
    #: True when the file ends in a torn/corrupt frame (now discarded).
    truncated: bool = False
    #: Human-readable account of the torn tail, if any.
    diagnostic: str = ""


def scan_frames(
    tail: FrameTail, magic: bytes, noun: str = "journal"
) -> Iterator[Tuple[int, bytes, Dict[str, Any]]]:
    """Iterate the valid prefix of the framed log at ``tail.path``.

    Yields ``(offset, raw, record)`` per intact frame — ``offset`` of the
    frame's first byte, ``raw`` the framed bytes, ``record`` the decoded
    dict. Iteration ends at clean EOF or at the first bad frame (short
    header, implausible length, short payload, CRC mismatch, undecodable
    payload), leaving ``tail`` describing where and why it stopped.
    Raises :class:`JournalError` only when the file is missing or its
    magic is wrong.
    """

    def torn(diagnostic: str) -> None:
        tail.truncated = True
        tail.diagnostic = diagnostic

    try:
        fh = open(tail.path, "rb")
    except OSError as exc:
        raise JournalError(f"cannot open {noun} {tail.path!r}: {exc}") from exc
    with fh:
        found = fh.read(len(magic))
        if found != magic:
            raise JournalError(
                f"{tail.path!r} is not a repro {noun} (bad magic {found[:12]!r})"
            )
        offset = tail.valid_bytes = len(magic)
        while True:
            header = fh.read(HEADER.size)
            if not header:
                return  # clean EOF on a frame boundary
            if len(header) < HEADER.size:
                return torn(
                    f"torn frame header at offset {offset} "
                    f"({len(header)} of {HEADER.size} bytes)"
                )
            length, crc = HEADER.unpack(header)
            if length > MAX_RECORD:
                return torn(
                    f"implausible record length {length} at offset {offset} "
                    "(corrupt header)"
                )
            payload = fh.read(length)
            if len(payload) < length:
                return torn(
                    f"torn record at offset {offset}: header promises "
                    f"{length} bytes, file holds {len(payload)}"
                )
            actual = zlib.crc32(payload)
            if actual != crc:
                return torn(
                    f"CRC mismatch at offset {offset} "
                    f"(expected {crc:#010x}, got {actual:#010x})"
                )
            try:
                record = pickle.loads(payload)
                record["type"]  # noqa: B018 — a frame without its tag is corrupt
            except Exception as exc:  # corrupt-but-CRC-colliding payload
                return torn(f"undecodable record at offset {offset}: {exc}")
            raw = header + payload
            tail.valid_bytes = offset + len(raw)
            yield offset, raw, record
            offset = tail.valid_bytes
