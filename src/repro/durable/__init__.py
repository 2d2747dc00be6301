"""Durable state: the write-ahead commit journal and crash recovery.

The master is the runtime's single point of failure — the paper's fault
tolerance (Fig 10) only survives *worker* faults. This package removes
that gap:

- :class:`~repro.durable.journal.CommitJournal` — append-only, CRC-framed,
  fsync'd journal the master writes through on every sub-task commit,
  with periodic compacted checkpoints of the committed DP table region;
- :func:`~repro.durable.recovery.recover` — reconstruct master state
  (committed blocks, computable frontier, retry budgets) from a journal,
  tolerating torn tails from a crash mid-write;
- :func:`~repro.durable.recovery.resume_run` — continue a killed run to
  an oracle-identical result (``repro resume <journal>`` on the CLI).

Enable with ``RunConfig(journal_path="run.walj")``; knobs
``checkpoint_interval`` and ``journal_fsync`` tune it. The simulator
charges each append ``ClusterSpec.journal_latency`` of master CPU, and a
chaos run arms the master kill switch with ``Faults(kill_after=N)``.
"""

from repro.durable.degrade import JournalGuard
from repro.durable.journal import MAGIC, CommitJournal, JournalScan, scan_journal
from repro.durable.recovery import RecoveredRun, recover, resume_run

__all__ = [
    "MAGIC",
    "CommitJournal",
    "JournalGuard",
    "JournalScan",
    "scan_journal",
    "RecoveredRun",
    "recover",
    "resume_run",
]
