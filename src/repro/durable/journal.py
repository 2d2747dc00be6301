"""The write-ahead commit journal (``*.walj``).

A journal is an append-only file the master writes through on every
sub-task commit, making the run recoverable after a ``kill -9`` of the
master at *any* point: ``repro resume <journal>`` reconstructs the
committed DP table region, the computable frontier, and the retry
budgets, then continues the run to an oracle-identical result.

The file is a :class:`~repro.durable.framed.FramedLog` (magic
``b"REPRO-WALJ\\x01\\n"``, then length+CRC framed pickled dicts — frame
format, torn-tail scan, truncate-repair and the atomic rewrite are
described there, once). This module owns only the record vocabulary:

- ``begin``      — the problem instance and the full :class:`RunConfig`
  (both pickled), written once at journal creation;
- ``commit``     — one committed sub-task: ``(task, epoch, outputs)``
  plus, when the run's integrity mode is on, the canonical content
  digest of the outputs. Commits that finished together are appended as
  one group (:meth:`CommitJournal.commit_group`): one write, one fsync;
- ``invalidate`` — taint recompute revoked a set of previously committed
  sub-tasks (an audit convicted a block; its committed dependent closure
  is invalidated and recomputed). A resume after a crash mid-recompute
  must not resurrect the tainted commits, so the revocation is journaled
  before the recompute frontier is offered;
- ``checkpoint`` — a compacted snapshot: the committed DP state arrays,
  the committed task set, the per-task attempt counts, the rolling run
  digest (an order-independent XOR-fold over per-commit content digests,
  :func:`repro.integrity.fold_commit`) and the per-task digests the fold
  is made of. Writing a checkpoint *compacts the file in place* (the
  framed log's atomic rewrite), so the journal stays bounded by one
  checkpoint plus one checkpoint-interval of commits;
- ``end``        — the run finished; resume is a no-op replay. Carries
  the final rolling run digest for ``repro resume --check-oracle``.

Torn tails are expected, not exceptional: :func:`scan_journal` stops at
the first bad frame, reports it as a diagnostic, and recovery proceeds
from the valid prefix — the last checkpoint plus every intact commit
after it. A journal is only *unusable*
(:class:`~repro.utils.errors.JournalError`) when the magic or the begin
record itself is gone.

The **kill switch** (``kill_after`` / ``kill_torn``) is the chaos hook:
after writing the Nth commit the journal raises
:class:`~repro.utils.errors.MasterCrash` — optionally after appending a
deliberately torn frame — which kills the master at a commit boundary
exactly as ``kill -9`` would, deterministically and seedably. A group
that the Nth commit falls inside is cut after it, so the crash lands
between two records of one group, before any of the group is merged.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.comm.messages import TaskId
from repro.durable.framed import HEADER, FramedLog, FrameTail, encode, scan_frames
from repro.utils.errors import JournalError, MasterCrash

#: File magic, versioned: bump the byte on incompatible format changes.
MAGIC = b"REPRO-WALJ\x01\n"

#: One element of :meth:`CommitJournal.commit_group`:
#: ``(task, epoch, outputs, digest)``.
CommitRecord = Tuple[TaskId, int, Optional[Dict[str, Any]], Optional[str]]


def snapshot_state(state: Dict[str, Any]) -> Dict[str, Any]:
    """A copy of the DP state for :meth:`CommitJournal.checkpoint` to
    write while the run keeps merging into the original — the arrays, or
    whatever store the problem keeps instead (``retain="boundary"``)."""
    return copy.deepcopy(state)


class CommitJournal:
    """Append-side of the write-ahead journal (the master's end).

    Create with :meth:`create` for a fresh run or :meth:`open_resume` to
    continue after recovery (truncates any torn tail, primes the commit
    counter). Not thread-safe by design: only the master scheduling
    thread commits, which is also what makes the journal a linearization
    of the run's commit order.
    """

    def __init__(
        self,
        log: FramedLog,
        *,
        checkpoint_interval: int = 32,
        kill_after: Optional[int] = None,
        kill_torn: bool = False,
        begin_raw: Optional[bytes] = None,
    ) -> None:
        #: The framed file underneath: all I/O, fault injection and
        #: repair happen there.
        self.log = log
        self.path = log.path
        self.checkpoint_interval = max(1, int(checkpoint_interval))
        self.kill_after = kill_after
        self.kill_torn = kill_torn
        #: Commit records written by *this* handle (kill-switch counter).
        self.commits_written = 0
        #: Commits since the last checkpoint (drives ``should_checkpoint``).
        self.commits_since_checkpoint = 0
        #: Bytes of the begin record (re-written verbatim on compaction).
        self._begin_raw = begin_raw
        self.checkpoints_written = 0

    # -- constructors --------------------------------------------------------

    @classmethod
    def create(
        cls,
        path: str,
        *,
        fsync: bool = True,
        checkpoint_interval: int = 32,
        kill_after: Optional[int] = None,
        kill_torn: bool = False,
        io_policy: Optional[Any] = None,
    ) -> "CommitJournal":
        """Start a fresh journal (truncates any existing file at ``path``)."""
        return cls(
            FramedLog.create(path, MAGIC, fsync=fsync, io_policy=io_policy),
            checkpoint_interval=checkpoint_interval,
            kill_after=kill_after,
            kill_torn=kill_torn,
        )

    @classmethod
    def open_resume(
        cls,
        scan: "JournalScan",
        *,
        fsync: bool = True,
        checkpoint_interval: int = 32,
        io_policy: Optional[Any] = None,
    ) -> "CommitJournal":
        """Reopen a scanned journal for append-after-recovery (the torn
        tail, if any, is truncated away; the kill switch stays off)."""
        return cls(
            FramedLog.open_resume(
                scan.path, MAGIC, scan.valid_bytes, fsync=fsync, io_policy=io_policy
            ),
            checkpoint_interval=checkpoint_interval,
            begin_raw=scan.begin_raw,
        )

    @property
    def write_errors(self) -> int:
        """Record writes that failed (transient or fatal) on this handle."""
        return self.log.write_errors

    # -- record writers -------------------------------------------------------

    def begin(self, problem: Any, config: Any) -> None:
        """Write the begin record: the problem and config, pickled."""
        raw = encode({"type": "begin", "problem": problem, "config": config})
        self._begin_raw = raw
        self.log.append(raw)

    def commit(
        self,
        task_id: TaskId,
        epoch: int,
        outputs: Optional[Dict[str, Any]],
        digest: Optional[str] = None,
    ) -> int:
        """Append one committed sub-task: a group of one
        (:meth:`commit_group`)."""
        return self.commit_group([(task_id, epoch, outputs, digest)])

    def commit_group(self, records: Sequence[CommitRecord]) -> int:
        """Append the commit records of sub-tasks that finished together —
        ``(task, epoch, outputs, digest)`` each — as ONE append: one write
        and, with ``fsync``, one fsync, write-ahead of every merge.

        Returns the framed bytes written so callers can account the
        journal's wire cost (the ``journal-write`` telemetry span). A
        crash mid-append leaves a prefix of whole records and at most one
        torn frame, which the scan drops. When the kill switch lands
        inside the group, exactly the records up to it are written
        (plus the torn frame under ``kill_torn``) before
        :class:`MasterCrash` is raised.
        """
        frames = [
            encode({
                "type": "commit", "task": task, "epoch": epoch,
                "outputs": outputs, "digest": digest,
            })
            for task, epoch, outputs, digest in records
        ]
        crash = (
            self.kill_after is not None
            and self.commits_written + len(frames) >= self.kill_after
        )
        if crash:
            del frames[max(1, self.kill_after - self.commits_written):]
        raw = b"".join(frames)
        self.log.append(raw)
        self.commits_written += len(frames)
        self.commits_since_checkpoint += len(frames)
        if crash:
            if self.kill_torn:
                # A frame header promising more bytes than follow: the
                # canonical kill-9-mid-write artifact the CRC/length scan
                # must detect and recovery must survive.
                self.log.append(HEADER.pack(0x7FFF, 0xDEADBEEF) + b"torn")
            raise MasterCrash(
                f"injected master crash after commit #{self.commits_written} "
                f"(journal {self.path!r})"
            )
        return len(raw)

    def invalidate(self, task_ids) -> None:
        """Append a taint-revocation of previously committed sub-tasks.

        Written *before* the recompute frontier is offered, so a crash
        mid-recompute recovers without the tainted commits (the scan
        subtracts them from the committed set).
        """
        self.log.append(encode({"type": "invalidate", "tasks": tuple(task_ids)}))

    def should_checkpoint(self) -> bool:
        return self.commits_since_checkpoint >= self.checkpoint_interval

    def checkpoint(
        self,
        state: Optional[Dict[str, Any]],
        committed: Dict[TaskId, int],
        attempts: Dict[TaskId, int],
        run_digest: Optional[str] = None,
        commit_digests: Optional[Dict[TaskId, Optional[str]]] = None,
    ) -> int:
        """Write a compacted checkpoint; returns its payload size in bytes.

        The file is atomically rewritten as ``magic + begin + checkpoint``
        (:meth:`FramedLog.rewrite`), discarding the per-commit records the
        checkpoint subsumes. A failed compaction leaves the original
        journal untouched and still appendable.
        """
        if self._begin_raw is None:
            raise JournalError("checkpoint before begin record")
        raw = encode({
            "type": "checkpoint",
            "state": state,
            "committed": dict(committed),
            "attempts": dict(attempts),
            "run_digest": run_digest,
            "commit_digests": dict(commit_digests) if commit_digests else {},
        })
        self.log.rewrite(self._begin_raw + raw, op="checkpoint")
        self.commits_since_checkpoint = 0
        self.checkpoints_written += 1
        return len(raw)

    def end(self, run_digest: Optional[str] = None) -> None:
        """Mark the run complete (resume becomes a pure replay)."""
        self.log.append(encode({"type": "end", "run_digest": run_digest}))

    def close(self) -> None:
        self.log.close()

    def __enter__(self) -> "CommitJournal":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


@dataclass
class JournalScan(FrameTail):
    """The decoded valid prefix of one journal file."""

    problem: Any = None
    config: Any = None
    #: task -> epoch of every committed sub-task (checkpoint + replayed).
    committed: Dict[TaskId, int] = field(default_factory=dict)
    #: task -> dispatch count at the last checkpoint (retry budgets).
    attempts: Dict[TaskId, int] = field(default_factory=dict)
    #: DP state snapshot of the last checkpoint (None when none written,
    #: or when the backend computes no cells — the simulator).
    checkpoint_state: Optional[Dict[str, Any]] = None
    #: Commit records after the last checkpoint, in journal order.
    commits_after_checkpoint: List[Tuple[TaskId, int, Optional[Dict[str, Any]]]] = (
        field(default_factory=list)
    )
    #: An ``end`` record was read: the run completed.
    ended: bool = False
    #: Raw framed bytes of the begin record (for compaction on resume).
    begin_raw: Optional[bytes] = None
    #: Rolling run digest accumulator over the recovered committed set
    #: (hex; see :func:`repro.integrity.fold_commit`). The resumed master
    #: continues folding from this value.
    run_digest: Optional[str] = None
    #: task -> content digest of its committed outputs (None entries when
    #: the crashed run's integrity mode was off).
    commit_digests: Dict[TaskId, Optional[str]] = field(default_factory=dict)
    #: Taint revocations read from the journal, in order.
    invalidations: List[Tuple[TaskId, ...]] = field(default_factory=list)

    @property
    def n_committed(self) -> int:
        return len(self.committed)


def scan_journal(path: str) -> JournalScan:
    """Decode the valid prefix of a journal.

    Raises :class:`JournalError` only when the journal is unusable
    (missing, bad magic, no intact begin record). Torn or corrupt tails
    terminate the scan cleanly with ``truncated=True`` and a diagnostic;
    everything before the bad frame is recovered.
    """
    from repro.integrity import fold_commit, run_digest_hex

    scan = JournalScan(path=path)
    fold_acc = 0
    for _offset, raw, record in scan_frames(scan, MAGIC):
        kind = record["type"]
        if kind == "begin":
            scan.problem = record["problem"]
            scan.config = record["config"]
            scan.begin_raw = raw
        elif kind == "commit":
            task, epoch = record["task"], record["epoch"]
            digest = record.get("digest")
            scan.committed[task] = epoch
            scan.commit_digests[task] = digest
            scan.commits_after_checkpoint.append((task, epoch, record["outputs"]))
            scan.attempts[task] = max(scan.attempts.get(task, 0), epoch + 1)
            fold_acc = fold_commit(fold_acc, task, digest)
        elif kind == "invalidate":
            # Taint recompute revoked these commits; subtract them
            # from the recovered set (retry budgets stay — epochs
            # must keep outpacing any pre-crash results).
            tasks = tuple(record["tasks"])
            scan.invalidations.append(tasks)
            for task in tasks:
                if task in scan.committed:
                    del scan.committed[task]
                    fold_acc = fold_commit(
                        fold_acc, task, scan.commit_digests.pop(task, None)
                    )
            scan.commits_after_checkpoint = [
                entry
                for entry in scan.commits_after_checkpoint
                if entry[0] not in tasks
            ]
        elif kind == "checkpoint":
            scan.checkpoint_state = record["state"]
            scan.committed = dict(record["committed"])
            scan.attempts = dict(record["attempts"])
            scan.commits_after_checkpoint = []
            scan.commit_digests = dict(record.get("commit_digests") or {})
            stored = record.get("run_digest")
            fold_acc = int(stored, 16) if stored else 0
        elif kind == "end":
            scan.ended = True
    scan.run_digest = run_digest_hex(fold_acc)
    if scan.begin_raw is None:
        raise JournalError(
            f"journal {path!r} has no intact begin record"
            + (f" ({scan.diagnostic})" if scan.diagnostic else "")
        )
    return scan
