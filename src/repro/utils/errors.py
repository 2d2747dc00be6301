"""Exception hierarchy for the EasyHPS reproduction.

All library-raised errors derive from :class:`ReproError` so callers can
catch everything the runtime may raise with a single ``except`` clause
while still being able to discriminate by subsystem.
"""


class ReproError(Exception):
    """Base class for every error raised by this library."""


class PatternError(ReproError):
    """A DAG pattern is malformed (cycle, bad vertex, inconsistent degrees)."""


class PartitionError(ReproError):
    """Task partition parameters do not fit the problem (bad block shape)."""


class SchedulerError(ReproError):
    """A scheduler was driven into an invalid state (double completion, ...)."""


class TransportError(ReproError):
    """A message transport failed or was used after closing."""


class FaultToleranceExhausted(ReproError):
    """A sub-task kept failing beyond the configured retry budget.

    ``job_id`` attributes the abort to one run when many share a process
    (the ``repro serve`` daemon): multi-job traces and ``repro stats``
    can then charge the abort to the right tenant instead of guessing
    from interleaved telemetry. ``None`` for standalone runs.
    """

    def __init__(self, message: str, *, job_id: "str | None" = None) -> None:
        super().__init__(message)
        self.job_id = job_id

    def __str__(self) -> str:
        base = super().__str__()
        if self.job_id is not None:
            return f"[job {self.job_id}] {base}"
        return base


class ResourceExhausted(FaultToleranceExhausted):
    """A machine resource (disk, shm, fds, memory) ran out and the
    configured degradation policy could not absorb it.

    Subclasses :class:`FaultToleranceExhausted` so every existing
    clean-abort path — chaos campaign classification, the serve daemon's
    per-job fault domain, the CLI exit code — treats it as an attributed
    abort rather than a crash. ``resource`` names what ran out
    (``disk``/``shm``/``fd``/``memory``), ``op`` the operation that hit
    the wall (``journal-write``, ``shm-park``, ...); :attr:`reason` is
    the machine-readable form carried through serve IPC.
    """

    def __init__(
        self,
        message: str,
        *,
        job_id: "str | None" = None,
        resource: str = "disk",
        op: str = "",
    ) -> None:
        super().__init__(message, job_id=job_id)
        self.resource = resource
        self.op = op

    @property
    def reason(self) -> str:
        """Machine-readable abort reason, e.g.
        ``resource-exhausted:disk:journal-write``."""
        parts = ["resource-exhausted", self.resource]
        if self.op:
            parts.append(self.op)
        return ":".join(parts)

    def __reduce__(self):
        # Keyword-only attributes do not survive the default Exception
        # pickling (which replays only *args); rebuild explicitly so the
        # attribution crosses process and IPC boundaries intact.
        args = self.args[0] if self.args else ""
        return (
            _rebuild_resource_exhausted,
            (args, self.job_id, self.resource, self.op),
        )


def _rebuild_resource_exhausted(message, job_id, resource, op):
    return ResourceExhausted(message, job_id=job_id, resource=resource, op=op)


class InconsistentMatrix(ReproError):
    """A finished DP matrix contradicts its own recurrence: the traceback
    or reconstruction that reads the answer off it found no case that
    produces ``cell``.

    A commit no integrity mode caught (a liar under ``integrity="digest"``
    is undetectable by design) ends here, as an attributed wrong answer.
    ``run_id`` names the run (``RunConfig.run_id``) when it has one.
    """

    def __init__(self, message: str, *, cell: tuple, run_id: "str | None" = None) -> None:
        super().__init__(message)
        self.cell = cell
        self.run_id = run_id

    def __str__(self) -> str:
        base = f"{super().__str__()} at cell {self.cell}"
        return base if self.run_id is None else f"[run {self.run_id}] {base}"


class ConfigError(ReproError, ValueError):
    """A run configuration is invalid or inconsistent.

    Also a :class:`ValueError` so call sites that historically raised bare
    ``ValueError`` for bad arguments could migrate here without breaking
    callers that catch the built-in type.
    """


class CheckError(ReproError):
    """A :mod:`repro.check` pass found violations (see the message for the
    per-diagnostic listing)."""


class ChaosError(ReproError):
    """A chaos campaign found an invariant violation (wrong answer, hang,
    or a failed trace invariant) — see the per-run listing in the message."""


class JournalError(ReproError):
    """The write-ahead commit journal is unusable (missing file, bad
    magic, no begin record) — distinct from a merely *truncated* journal,
    which recovery handles by falling back to the valid prefix."""


class JournalIOError(JournalError):
    """A journal (or serve WAL) write/fsync hit an I/O failure — ENOSPC,
    EIO, an injected partial write — *after* the file itself was valid.

    Distinct from the parent: the journal's committed prefix is still
    CRC-recoverable (the writer truncates any torn bytes back to the
    last good frame boundary before raising). Callers may retry the
    failed record or degrade per ``RunConfig.journal_degrade``.
    """

    def __init__(
        self,
        message: str,
        *,
        op: str = "write",
        errno: "int | None" = None,
        path: "str | None" = None,
    ) -> None:
        super().__init__(message)
        self.op = op
        self.errno = errno
        self.path = path


class MasterCrash(ReproError):
    """Injected master failure (chaos testing): the master \"dies\" at a
    journal commit boundary, exactly like a ``kill -9`` mid-run. Raised by
    the journal's kill switch (``Faults.kill_after`` in ``RunConfig.faults``); a
    subsequent ``repro resume`` must reconstruct the run from the journal."""


class WorkerLeakWarning(UserWarning):
    """A worker thread survived its join timeout and was abandoned.

    Raised as a *warning* (the run's result is already complete and
    correct by the time pools are torn down), but surfaced instead of
    silently discarding the join result so soak tests and telemetry can
    detect runaway threads."""
