"""Graceful degradation of journal I/O failures (``RunConfig.journal_degrade``).

:class:`JournalGuard` wraps a :class:`~repro.durable.journal.CommitJournal`
with the bounded retry-then-degrade ladder that turns a raw ENOSPC/EIO
into one of three *defined* outcomes instead of a stray traceback or a
torn-committed journal:

- ``abort``       — after :attr:`retries` in-place retries, raise a clean
  attributed :class:`~repro.utils.errors.ResourceExhausted` (the chaos
  campaigns, the serve daemon's per-job fault domain, and the CLI all
  already treat its parent :class:`FaultToleranceExhausted` as a clean
  abort);
- ``checkpoint``  — before aborting, compact the journal around a state
  checkpoint (the framed log's atomic rewrite frees every subsumed
  record's disk) and retry the failed record once more — the rescue for a
  journal-filled-the-disk failure where the *data* still fits;
- ``memory``      — drop durability instead of the run: close and remove
  the journal file (a half-written journal must not be resumable after
  the run stopped journaling — especially taint invalidations, which
  would otherwise never be revoked on a later resume) and continue
  in-memory-only, recording the decision as a ``resource-degrade``
  telemetry event.

Every backend gets the ladder for free because
:meth:`~repro.runtime.assembly.RunAssembly.open_journal` wraps its
journal here; the guard mirrors the :class:`CommitJournal` surface
(``commit`` / ``commit_group`` / ``invalidate`` / ``checkpoint`` / ``end`` /
``should_checkpoint`` / ``close``), so the master-side call sites are
unchanged.

The retry loop only catches :class:`~repro.utils.errors.JournalIOError`
— the framed log underneath already repaired the file back to the last
good frame boundary before raising it (``docs/fault_tolerance.md``
§journal), so a retry appends cleanly and the committed prefix is
CRC-recoverable at every point in between.
Injected :class:`~repro.utils.errors.MasterCrash` (the kill switch) and
plain :class:`JournalError` (closed handle, misuse) pass through
untouched.
"""

from __future__ import annotations

import os
from typing import Any, Callable, Dict, Optional, Sequence

from repro.comm.messages import TaskId
from repro.durable.journal import CommitJournal, CommitRecord
from repro.utils.errors import JournalIOError, ResourceExhausted

#: Maps the failing journal op to the ``resource`` field of the abort —
#: everything the journal touches is disk, but ``open`` failures are fd
#: exhaustion.
_RESOURCE_OF_OP = {"open": "fd"}


class JournalGuard:
    """Degrade-aware facade over one :class:`CommitJournal`.

    ``checkpoint_fn`` (bound post-construction via :meth:`bind_rescue`,
    because the master that owns the state snapshot is built after the
    journal) performs a full owner-side checkpoint — it is the
    ``checkpoint`` mode's rescue step. ``obs`` is the run's
    :class:`~repro.obs.EventRecorder` (or None) for ``resource-degrade``
    events; ``job_id`` attributes the abort.
    """

    def __init__(
        self,
        journal: CommitJournal,
        *,
        mode: str = "abort",
        retries: int = 2,
        job_id: Optional[str] = None,
        obs: Optional[Any] = None,
    ) -> None:
        self.journal: Optional[CommitJournal] = journal
        self.path = journal.path
        self.mode = mode
        self.retries = max(0, int(retries))
        self.job_id = job_id
        self.obs = obs
        self._checkpoint_fn: Optional[Callable[[], None]] = None
        self._in_rescue = False
        #: True once a write failure degraded this run to in-memory-only.
        self.degraded = False
        #: Failed record-write attempts absorbed by retry or rescue.
        self.errors_absorbed = 0

    # -- wiring ---------------------------------------------------------------

    def bind_rescue(self, checkpoint_fn: Callable[[], None]) -> None:
        """Attach the owner's full-checkpoint writer (``checkpoint`` mode)."""
        self._checkpoint_fn = checkpoint_fn

    @property
    def active(self) -> bool:
        """False once degraded to in-memory-only (journal gone)."""
        return self.journal is not None

    # -- the ladder -----------------------------------------------------------

    def _guarded(self, op: str, fn: Callable[[], Any], default: Any = None) -> Any:
        if self.journal is None:
            return default
        attempt = 0
        while True:
            try:
                return fn()
            except JournalIOError as exc:
                attempt += 1
                if attempt <= self.retries:
                    self.errors_absorbed += 1
                    continue
                return self._degrade(op, exc, fn, default)

    def _degrade(
        self, op: str, exc: JournalIOError, fn: Callable[[], Any], default: Any
    ) -> Any:
        if (
            self.mode == "checkpoint"
            and self._checkpoint_fn is not None
            and not self._in_rescue
            and op != "checkpoint"
        ):
            self._in_rescue = True
            try:
                self._checkpoint_fn()
                result = fn()
            except (JournalIOError, ResourceExhausted):
                pass  # rescue failed too: fall through to the abort
            else:
                self.errors_absorbed += 1
                self._note("rescue-checkpoint", op, exc)
                return result
            finally:
                self._in_rescue = False
        if self.mode == "memory":
            self._to_memory(op, exc)
            return default
        raise ResourceExhausted(
            f"journal {op} failed after {self.retries} retries "
            f"({self.mode} degrade): {exc}",
            job_id=self.job_id,
            resource=_RESOURCE_OF_OP.get(exc.op, "disk"),
            op=f"journal-{op}",
        ) from exc

    def _to_memory(self, op: str, exc: JournalIOError) -> None:
        """Drop durability: close and *remove* the journal, keep running.

        Removal matters: a journal frozen at the failure point would
        still scan as resumable, silently losing every commit (and worse,
        every taint invalidation) that happened after degradation.
        """
        journal, self.journal = self.journal, None
        self.degraded = True
        if journal is not None:
            journal.close()
            try:
                os.unlink(journal.path)
            except OSError:
                pass
        self._note("memory", op, exc)

    def _note(self, action: str, op: str, exc: JournalIOError) -> None:
        if self.obs is not None and getattr(self.obs, "enabled", False):
            self.obs.emit(
                "resource-degrade",
                scope="run",
                layer="journal",
                action=action,
                op=op,
                errno=exc.errno,
                job_id=self.job_id,
            )

    # -- CommitJournal surface ------------------------------------------------

    def begin(self, problem: Any, config: Any) -> None:
        self._guarded("begin", lambda: self.journal.begin(problem, config))

    def commit(
        self,
        task_id: TaskId,
        epoch: int,
        outputs: Optional[Dict[str, Any]],
        digest: Optional[str] = None,
    ) -> int:
        return self.commit_group([(task_id, epoch, outputs, digest)])

    def commit_group(self, records: Sequence[CommitRecord]) -> int:
        # A retry rewrites the whole group: the failed append was already
        # truncated back to the last good frame.
        return self._guarded(
            "commit", lambda: self.journal.commit_group(records), default=0
        )

    def invalidate(self, task_ids) -> None:
        self._guarded("invalidate", lambda: self.journal.invalidate(task_ids))

    def should_checkpoint(self) -> bool:
        return self.journal is not None and self.journal.should_checkpoint()

    def checkpoint(self, *args: Any, **kwargs: Any) -> int:
        return self._guarded(
            "checkpoint",
            lambda: self.journal.checkpoint(*args, **kwargs),
            default=0,
        )

    def end(self, run_digest: Optional[str] = None) -> None:
        self._guarded("end", lambda: self.journal.end(run_digest=run_digest))

    def close(self) -> None:
        if self.journal is not None:
            self.journal.close()

    # Resume/teardown introspection used by backends and tests.

    @property
    def commits_written(self) -> int:
        return self.journal.commits_written if self.journal is not None else 0

    @property
    def checkpoints_written(self) -> int:
        return self.journal.checkpoints_written if self.journal is not None else 0

    def __enter__(self) -> "JournalGuard":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    def __repr__(self) -> str:
        state = "degraded" if self.degraded else ("open" if self.active else "closed")
        return f"JournalGuard({self.path!r}, mode={self.mode}, {state})"
