"""Diagnostic records shared by every ``repro.check`` pass.

Each finding is a :class:`Diagnostic` with a stable machine-readable
``code`` (tests and CI assert on codes, not message text), a
human-readable message, and the subject it concerns. A pass returns a
:class:`CheckReport`, which callers either inspect or escalate to a
:class:`~repro.utils.errors.CheckError` via :meth:`CheckReport.raise_if_failed`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List, Tuple

from repro.utils.errors import CheckError

# -- pattern verifier codes ---------------------------------------------------
PATTERN_CYCLE = "pattern-cycle"
DEP_OUT_OF_BOUNDS = "dep-out-of-bounds"
VIEW_MISMATCH = "view-mismatch"
DATA_SUPERSET_VIOLATION = "data-superset-violation"
PARTITION_EDGE_LOST = "partition-edge-lost"
PARTITION_SIZE_MISMATCH = "partition-size-mismatch"
MAPPING_READS_NON_ANCESTOR = "mapping-reads-non-ancestor"
MAPPING_WRITES_OUTSIDE_BLOCK = "mapping-writes-outside-block"

# -- happens-before trace codes -----------------------------------------------
EARLY_ASSIGN = "early-assign"
EARLY_COMMIT = "early-commit"
DUPLICATE_COMMIT = "duplicate-commit"
STALE_COMMIT = "stale-commit"
LOST_UPDATE = "lost-update"
UNKNOWN_TASK = "unknown-task"
#: More worker commits than receive-side digest checks (``verified``).
COMMIT_WITHOUT_VERIFY = "commit-without-verify"

# -- lock lint codes ----------------------------------------------------------
LOCK_CYCLE = "lock-cycle"
BLOCKING_WHILE_LOCKED = "blocking-while-locked"

# -- trace-replay codes (the recorded stream and the dispatch core disagree) -----
PROTOCOL_ILLEGAL_TRANSITION = "protocol-illegal-transition"
PROTOCOL_COMMIT_WITHOUT_VERIFY = "protocol-commit-without-verify"

# -- interleaving-explorer codes ------------------------------------------------
EXPLORE_DEADLOCK = "explore-deadlock"
EXPLORE_ORACLE_MISMATCH = "explore-oracle-mismatch"

# -- AST lint codes -------------------------------------------------------------
RAW_LOCK_CONSTRUCTION = "raw-lock-construction"
UNINJECTED_CLOCK = "uninjected-clock"
SANS_IO_VIOLATION = "sans-io-violation"
CONFIG_FIELD_UNREAD = "config-field-unread"
#: A wire message kind no receive loop handles, or both do, or a receive
#: loop the lint cannot find.
PROTOCOL_UNHANDLED_MESSAGE = "protocol-unhandled-message"

SEVERITIES = ("error", "warning")


@dataclass(frozen=True)
class Diagnostic:
    """One verified finding of a check pass."""

    code: str
    message: str
    subject: str = ""
    severity: str = "error"

    def __post_init__(self) -> None:
        if self.severity not in SEVERITIES:
            raise ValueError(f"severity must be one of {SEVERITIES}, got {self.severity!r}")

    def __str__(self) -> str:
        where = f" [{self.subject}]" if self.subject else ""
        return f"{self.severity}: {self.code}{where}: {self.message}"


@dataclass
class CheckReport:
    """Accumulated findings of one or more check passes."""

    title: str = "check"
    diagnostics: List[Diagnostic] = field(default_factory=list)
    #: Number of probes actually performed (vertices / events / acquisitions),
    #: so callers can tell "clean" from "checked nothing".
    checked: int = 0

    def add(
        self, code: str, message: str, subject: str = "", severity: str = "error"
    ) -> Diagnostic:
        diag = Diagnostic(code=code, message=message, subject=subject, severity=severity)
        self.diagnostics.append(diag)
        return diag

    def extend(self, other: "CheckReport") -> None:
        self.diagnostics.extend(other.diagnostics)
        self.checked += other.checked

    def errors(self) -> Tuple[Diagnostic, ...]:
        return tuple(d for d in self.diagnostics if d.severity == "error")

    def codes(self) -> Tuple[str, ...]:
        return tuple(d.code for d in self.diagnostics)

    def has(self, code: str) -> bool:
        return any(d.code == code for d in self.diagnostics)

    @property
    def ok(self) -> bool:
        """True when no *error*-severity diagnostics were recorded."""
        return not self.errors()

    def raise_if_failed(self) -> None:
        """Escalate error diagnostics to a :class:`CheckError`."""
        errs = self.errors()
        if errs:
            listing = "\n".join(f"  - {d}" for d in errs)
            raise CheckError(
                f"{self.title}: {len(errs)} violation(s) after {self.checked} probes:\n{listing}"
            )

    def summary(self) -> str:
        status = "OK" if self.ok else f"{len(self.errors())} error(s)"
        lines = [f"{self.title}: {status} ({self.checked} probes, {len(self.diagnostics)} findings)"]
        lines.extend(f"  {d}" for d in self.diagnostics)
        return "\n".join(lines)


def merge_reports(title: str, reports: Iterable[CheckReport]) -> CheckReport:
    """Fold several pass reports into one roll-up report."""
    out = CheckReport(title=title)
    for r in reports:
        out.extend(r)
    return out
