"""Reconstruct and continue a run from its write-ahead commit journal.

:func:`recover` turns a journal file into a :class:`RecoveredRun`: the
problem and config pickled into the begin record, the DP state rebuilt
from the last checkpoint plus every intact commit after it, the committed
task->epoch map (the DAG frontier is derived from it — the committed set
is downward-closed because a task only ever commits after its
predecessors), and the retry budgets. :func:`resume_run` then hands that
to the normal backend machinery, which skips committed work and continues
to an oracle-identical result — the ``repro resume <journal>`` path after
a ``kill -9`` of the master.

A torn tail (crash mid-write) is not an error: the scan stops at the
first bad frame and recovery proceeds from the valid prefix, surfacing
what was dropped in :attr:`RecoveredRun.diagnostic`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Dict, Optional, Tuple

from repro.comm.messages import TaskId
from repro.durable.journal import JournalScan, scan_journal


@dataclass
class RecoveredRun:
    """Master state reconstructed from one commit journal."""

    #: The DP problem instance the crashed run was executing.
    problem: Any
    #: The crashed run's :class:`~repro.runtime.config.RunConfig`, with
    #: the chaos kill switch stripped (resume must not re-crash) and
    #: ``journal_path`` pointed back at this journal.
    config: Any
    #: The raw scan (backends reopen the journal for append from it).
    scan: JournalScan
    #: DP state with every journaled commit applied; None when the run
    #: computes no cells (simulated backend).
    state: Optional[Dict[str, Any]]
    #: task -> epoch of every committed sub-task.
    committed: Dict[TaskId, int]
    #: task -> dispatch count (retry budgets continue, not reset).
    attempts: Dict[TaskId, int]
    #: Total sub-tasks of the instance (from the rebuilt partition).
    n_tasks: int
    #: The journal holds an ``end`` record or covers every task: resume
    #: is a pure replay, no scheduling needed.
    complete: bool
    #: The journal ended in a torn/corrupt frame (now discarded).
    truncated: bool
    #: Human-readable account of the torn tail, empty when clean.
    diagnostic: str
    #: Rolling run digest recovered from the journal (hex); the resumed
    #: master continues folding from it. None for pre-digest journals.
    run_digest: Optional[str] = None

    @property
    def n_committed(self) -> int:
        return len(self.committed)

    def summary(self) -> str:
        status = "complete" if self.complete else (
            f"{self.n_committed}/{self.n_tasks} sub-tasks committed"
        )
        lines = [
            f"journal {self.scan.path}: {self.problem.name} "
            f"({self.config.backend} backend), {status}"
        ]
        if self.truncated:
            lines.append(f"  torn tail discarded: {self.diagnostic}")
        return "\n".join(lines)


def recover(path: str) -> RecoveredRun:
    """Reconstruct master state from the journal at ``path``.

    Raises :class:`~repro.utils.errors.JournalError` only for an unusable
    journal (missing, bad magic, no begin record); torn tails recover
    from the valid prefix with :attr:`RecoveredRun.truncated` set.
    """
    scan = scan_journal(path)
    problem = scan.problem
    # Strip the chaos kill switch — resuming a run whose config says
    # "crash after N commits" must not crash again — and anchor the
    # journal path at the file we just read, wherever it moved.
    config = replace(
        scan.config,
        faults=replace(scan.config.faults, kill_after=None, kill_torn=False),
        journal_path=path,
    )

    proc_size, _ = config.partitions_for(problem)
    partition = problem.build_partition(proc_size)

    state: Optional[Dict[str, Any]] = None
    if config.backend != "simulated":
        # Rebuild the committed DP region: last checkpoint's snapshot (a
        # fresh state when none was written) plus every commit after it.
        state = (
            scan.checkpoint_state
            if scan.checkpoint_state is not None
            else problem.make_state()
        )
        for task_id, _epoch, outputs in scan.commits_after_checkpoint:
            problem.apply_result(state, partition, task_id, outputs)

    complete = scan.ended or len(scan.committed) >= partition.n_blocks
    return RecoveredRun(
        problem=problem,
        config=config,
        scan=scan,
        state=state,
        committed=dict(scan.committed),
        attempts=dict(scan.attempts),
        n_tasks=partition.n_blocks,
        complete=complete,
        truncated=scan.truncated,
        diagnostic=scan.diagnostic,
        run_digest=scan.run_digest,
    )


def resume_run(
    path: str,
    backend: Optional[str] = None,
    **overrides: Any,
) -> Tuple[RecoveredRun, Any]:
    """Recover the journal at ``path`` and continue the run to completion.

    ``backend`` (and any further :class:`RunConfig` field overrides)
    replace the journaled config's values — e.g. resume a processes-backend
    run on threads. Returns ``(recovered, result)`` where ``result`` is
    the usual :class:`~repro.runtime.system.RunResult`.
    """
    from repro.runtime.system import EasyHPS

    rec = recover(path)
    config = rec.config
    if backend is not None:
        config = replace(config, backend=backend)
    if overrides:
        config = replace(config, **overrides)
    rec.config = config
    result = EasyHPS(config).run(rec.problem, resume=rec)
    return rec, result
