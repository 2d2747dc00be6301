"""Schedule traces and ASCII Gantt rendering.

An observed run's profile (:meth:`repro.obs.prof.PerfProfile.gantt_rows`,
``RunReport.trace`` on any backend) says, per committed sub-task, when its
input transfer started, when compute began and ended, and when the result
landed at the master. ``render_gantt`` draws one row per node: ``-``
transfer, ``#`` compute, ``.`` idle — which makes scheduling pathologies
(the static schedulers' idle-while-ready holes) directly visible. Busy
fractions are the profile's too (``PerfProfile.busy_fraction``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.comm.messages import TaskId


@dataclass(frozen=True)
class TraceEvent:
    """One sub-task execution on one node, in simulated seconds."""

    node: int
    task_id: TaskId
    transfer_start: float
    compute_start: float
    compute_end: float
    result_at: float

    def __post_init__(self) -> None:
        if not (
            self.transfer_start <= self.compute_start <= self.compute_end <= self.result_at
        ):
            raise ValueError(f"trace event out of order: {self}")


def render_gantt(
    trace: Sequence[TraceEvent],
    width: int = 80,
    makespan: float | None = None,
) -> str:
    """One row per node; ``-`` transfer, ``#`` compute, ``.`` idle."""
    if not trace:
        return "(empty trace)"
    end = makespan if makespan is not None else max(e.result_at for e in trace)
    if end <= 0:
        raise ValueError("trace has non-positive extent")
    scale = width / end
    by_node: Dict[int, List[TraceEvent]] = {}
    for e in trace:
        by_node.setdefault(e.node, []).append(e)
    lines = []
    for node in sorted(by_node):
        row = ["."] * width
        for e in by_node[node]:
            a = min(width - 1, int(e.transfer_start * scale))
            b = min(width - 1, int(e.compute_start * scale))
            c = min(width - 1, int(e.compute_end * scale))
            for x in range(a, b):
                row[x] = "-"
            for x in range(b, c + 1):
                row[x] = "#"
        lines.append(f"node {node:2d} |{''.join(row)}|")
    lines.append(f"        0{' ' * (width - 10)}{end:.4g}s")
    return "\n".join(lines)


def critical_tail(trace: Sequence[TraceEvent], k: int = 5) -> Tuple[TraceEvent, ...]:
    """The last ``k`` finishing sub-tasks — where end-game imbalance lives."""
    return tuple(sorted(trace, key=lambda e: e.result_at)[-k:])
