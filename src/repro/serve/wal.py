"""The serve daemon's submission write-ahead log (``*.srvj``).

The daemon journals every accepted job *before* acknowledging the
submission, then journals its start and its terminal outcome. After a
``kill -9`` of the daemon, ``repro serve --resume`` scans this log and
reconstructs the job table: finished jobs become history, accepted-but
-unfinished jobs are re-queued, and started jobs whose per-run commit
journal survived resume mid-run through :mod:`repro.durable`.

The file is a :class:`~repro.durable.framed.FramedLog` — the same
crash-tolerant framing, truncate-repair and atomic rewrite as the
run-level commit journal, described once in that module and in
``docs/fault_tolerance.md`` §journal — under its own magic. This module
owns the record vocabulary (``submit`` / ``start`` / ``finish``) and the
compaction policy. Payloads are plain JSON-safe dicts (a
:class:`~repro.serve.job.JobSpec` round-trips through ``to_dict``), so
the log never couples to runtime object layouts.

Unlike the commit journal, this log *is* thread-safe: submissions land
from the IPC thread while finishes land from per-job runner threads, so
every append happens under one lock (which also makes the log a
linearization of the daemon's admission order).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.check.lock_lint import make_lock
from repro.durable.framed import FramedLog, FrameTail, encode, scan_frames
from repro.serve.job import TERMINAL_STATES, JobSpec
from repro.utils.errors import JournalError

#: File magic of the serve submission log, versioned independently of
#: the run-level commit journal.
MAGIC = b"REPRO-SRVJ\x01\n"

_NOUN = "serve journal"


def _submit_record(job_id: str, spec: JobSpec) -> Dict[str, Any]:
    return {"type": "submit", "job_id": job_id, "spec": spec.to_dict()}


def _start_record(job_id: str, journal_path: Optional[str]) -> Dict[str, Any]:
    return {"type": "start", "job_id": job_id, "journal": journal_path}


def _finish_record(
    job_id: str, status: str, detail: str, reason: str
) -> Dict[str, Any]:
    return {"type": "finish", "job_id": job_id,
            "status": status, "detail": detail, "reason": reason}


class ServeJournal:
    """Append side of the submission log (the daemon's end)."""

    def __init__(self, log: FramedLog) -> None:
        #: The framed file underneath (I/O, fault injection, repair);
        #: every call into it happens under :attr:`_lock`.
        self.log = log
        self.path = log.path
        self._lock = make_lock("serve.wal")
        self.records_written = 0
        self.compactions = 0

    @classmethod
    def create(
        cls, path: str, *, fsync: bool = True, io_policy: Optional[Any] = None
    ) -> "ServeJournal":
        """Start a fresh submission log (truncates an existing file)."""
        return cls(FramedLog.create(
            path, MAGIC, fsync=fsync, io_policy=io_policy, noun=_NOUN
        ))

    @classmethod
    def open_resume(
        cls, scan: "ServeScan", *, fsync: bool = True, io_policy: Optional[Any] = None
    ) -> "ServeJournal":
        """Reopen a scanned log for append, truncating any torn tail."""
        return cls(FramedLog.open_resume(
            scan.path, MAGIC, scan.valid_bytes,
            fsync=fsync, io_policy=io_policy, noun=_NOUN,
        ))

    @property
    def write_errors(self) -> int:
        return self.log.write_errors

    def _write(self, record: Dict[str, Any]) -> None:
        with self._lock:
            self.log.append(encode(record))
            self.records_written += 1

    # -- record writers --------------------------------------------------

    def submit(self, job_id: str, spec: JobSpec) -> None:
        """Journal an accepted submission (write-ahead of the ack)."""
        self._write(_submit_record(job_id, spec))

    def start(self, job_id: str, journal_path: Optional[str] = None) -> None:
        """Journal a job leaving the queue; ``journal_path`` names its
        per-run commit journal so resume can find it."""
        self._write(_start_record(job_id, journal_path))

    def finish(
        self, job_id: str, status: str, detail: str = "", reason: str = ""
    ) -> None:
        """Journal a terminal outcome (done/aborted/error/cancelled).

        ``reason`` is the machine-readable attribution string (e.g.
        ``resource-exhausted:disk:journal-write``) carried alongside the
        human-facing ``detail``.
        """
        if status not in TERMINAL_STATES:
            raise JournalError(f"finish with non-terminal status {status!r}")
        self._write(_finish_record(job_id, status, detail, reason))

    # -- compaction ------------------------------------------------------

    def compact(self, entries, keep_history: int = 64) -> int:
        """Rewrite the log as one record run per surviving job.

        A long-lived daemon appends forever; compaction atomically
        rewrites the file (:meth:`FramedLog.rewrite`) to hold only
        unfinished jobs plus the ``keep_history`` most recent finished
        ones. A failed compaction leaves the old log intact.

        ``entries`` is the current job history in submission order
        (:class:`ServeEntry` values, e.g. from a fresh scan or the
        daemon's record table) — or a nullary callable returning it,
        invoked *under the WAL lock* so the snapshot cannot miss a
        concurrently-appended record. Returns the entries dropped.
        """
        with self._lock:
            entries = list(entries() if callable(entries) else entries)
            finished = [e for e in entries if e.finished]
            drop = (
                {e.job_id for e in finished[:-keep_history]}
                if keep_history >= 0 and len(finished) > keep_history
                else set()
            )
            kept = [e for e in entries if e.job_id not in drop]
            frames = bytearray()
            for e in kept:
                frames += encode(_submit_record(e.job_id, e.spec))
                if e.status != "submitted":
                    frames += encode(_start_record(e.job_id, e.run_journal))
                if e.finished:
                    frames += encode(
                        _finish_record(e.job_id, e.status, e.detail, e.reason)
                    )
            self.log.rewrite(bytes(frames), op="compact")
            self.compactions += 1
            return len(entries) - len(kept)

    def close(self) -> None:
        with self._lock:
            self.log.close()

    def abandon(self) -> None:
        """Drop the file handle *without* flushing buffered bytes — the
        in-process stand-in for the daemon dying mid-write (the chaos
        tier's kill switch; a real SIGKILL needs no help)."""
        with self._lock:
            self.log.abandon()

    def __enter__(self) -> "ServeJournal":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


@dataclass
class ServeEntry:
    """One job's recovered history from the submission log."""

    job_id: str
    spec: JobSpec
    #: ``submitted`` | ``started`` | a terminal job state.
    status: str = "submitted"
    detail: str = ""
    #: Per-run commit journal path recorded at start, if any.
    run_journal: Optional[str] = None
    #: Machine-readable terminal attribution (``resource-exhausted:...``).
    reason: str = ""

    @property
    def finished(self) -> bool:
        return self.status in TERMINAL_STATES


@dataclass
class ServeScan(FrameTail):
    """The decoded valid prefix of one submission log."""

    entries: Dict[str, ServeEntry] = field(default_factory=dict)
    #: Job ids in submission order.
    order: List[str] = field(default_factory=list)

    def pending(self) -> Tuple[ServeEntry, ...]:
        """Accepted jobs with no terminal record, in submission order —
        exactly what ``--resume`` must run (or re-run)."""
        return tuple(
            self.entries[job_id]
            for job_id in self.order
            if not self.entries[job_id].finished
        )

    @property
    def max_job_number(self) -> int:
        """Largest numeric suffix among recovered ids (counter priming)."""
        best = 0
        for job_id in self.order:
            tail = job_id.rsplit("-", 1)[-1]
            if tail.isdigit():
                best = max(best, int(tail))
        return best


def scan_serve_journal(path: str) -> ServeScan:
    """Decode the valid prefix of a submission log.

    Raises :class:`JournalError` only for a missing file or bad magic;
    torn or corrupt tails terminate the scan cleanly with a diagnostic
    and the intact prefix is recovered. Records for unknown job ids (a
    ``start`` whose ``submit`` fell in the torn tail cannot happen —
    appends are ordered — but a corrupt scan could surface one) are
    dropped, not fatal.
    """
    scan = ServeScan(path=path)
    for _offset, _raw, record in scan_frames(scan, MAGIC, _NOUN):
        kind = record["type"]
        if kind == "submit":
            job_id = record["job_id"]
            scan.entries[job_id] = ServeEntry(job_id, JobSpec.from_dict(record["spec"]))
            scan.order.append(job_id)
        elif kind == "start":
            entry = scan.entries.get(record["job_id"])
            if entry is not None:
                entry.status = "started"
                entry.run_journal = record.get("journal")
        elif kind == "finish":
            entry = scan.entries.get(record["job_id"])
            if entry is not None:
                entry.status = record["status"]
                entry.detail = record.get("detail", "")
                entry.reason = record.get("reason", "")
    return scan
