"""The ``repro stats`` digest of a recorded event stream.

Answers the questions the paper's figures ask of a schedule — who was
busy, who idled, how much data crossed the wire, how often fault
tolerance fired — from a saved trace file alone, with no re-run. The
numbers come from :func:`repro.obs.prof.build_profile`'s one pass; this
module only lays them out.

A *partial* trace (a run that aborted, a journal-resumed prefix, a file
truncated mid-export) still produces a digest, annotated with what is
missing, rather than raising.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from repro.analysis.report import _human_bytes
from repro.obs.metrics import Histogram
from repro.obs.prof import PerfProfile, build_profile
from repro.obs.recorder import ObsEvent


def _percentile_line(label: str, hist: Histogram) -> str:
    s = hist.summary()
    return (
        f"  {label}: mean {s['mean']:.3g} s, p50 {s['p50']:.3g} s, "
        f"p95 {s['p95']:.3g} s, p99 {s['p99']:.3g} s ({hist.count} samples)"
    )


def format_stats(prof: PerfProfile, *, title: str = "run stats") -> str:
    """Human-readable multi-line digest (the ``repro stats`` output)."""
    rate = prof.n_committed / prof.extent if prof.extent > 0 else 0.0
    lines = [
        f"{title}: {prof.n_committed} tasks committed over {prof.extent:.6g} s "
        f"({rate:.4g} tasks/s)",
        f"  faults        : {prof.redistributes} redistributed, "
        f"{prof.stale_drops} stale dropped",
        f"  bytes on wire : {_human_bytes(prof.bytes_to_slaves)} to slaves, "
        f"{_human_bytes(prof.bytes_to_master)} to master",
    ]
    if prof.messages_sent or prof.messages_received:
        lines.append(
            f"  messages      : {prof.messages_sent} sent, "
            f"{prof.messages_received} received"
        )
    if prof.queue_wait.count:
        lines.append(_percentile_line("queue wait    ", prof.queue_wait))
    if prof.messages:
        latency = Histogram()
        for sample in prof.messages:
            latency.observe(sample.seconds)
        lines.append(_percentile_line("msg latency   ", latency))
    if prof.subtask_events:
        lines.append(f"  subtask events: {prof.subtask_events}")
    if prof.tasks_incomplete:
        lines.append(
            f"  coverage      : PARTIAL trace — {prof.tasks_incomplete} of "
            f"{prof.tasks_assigned} assigned tasks never committed"
        )
        kinds = ", ".join(f"{k}={n}" for k, n in sorted(prof.kind_counts.items()))
        lines.append(f"  event kinds   : {kinds}")
    if prof.computed:
        lines.append("  per-worker busy/idle:")
        for k in sorted(prof.computed):
            busy = prof.attribution[k]["compute"]
            idle = max(0.0, prof.extent - busy)
            frac = busy / (busy + idle) if busy + idle > 0 else 0.0
            lines.append(
                f"    node {k:2d} : busy {busy:.6g} s, idle {idle:.6g} s "
                f"({frac:.1%} busy, {prof.computed[k]} tasks)"
            )
    return "\n".join(lines)


def text_summary(
    events: Sequence[ObsEvent],
    metrics: Optional[Dict[str, object]] = None,
    *,
    title: str = "run stats",
) -> str:
    """Stats digest plus a metrics-snapshot appendix."""
    out = [format_stats(build_profile(events), title=title)]
    if metrics:
        counters = metrics.get("counters") or {}
        gauges = metrics.get("gauges") or {}
        if counters or gauges:
            out.append("  metrics:")
            for name, value in sorted({**counters, **gauges}.items()):  # type: ignore[dict-item]
                out.append(f"    {name} = {value:g}")
    return "\n".join(out)
