"""Trace export: the event stream as a Chrome/Perfetto trace file.

:func:`to_chrome_trace` / :func:`write_trace` render the stream
(:mod:`repro.obs.recorder`) as Chrome/Perfetto trace-event JSON (open
``ui.perfetto.dev`` and drop the file in). The file also embeds the raw
event list and the metrics snapshot under ``reproEvents`` /
``reproMetrics`` (Perfetto ignores unknown top-level keys), so
:func:`read_trace` round-trips losslessly — which is what ``repro
stats`` and ``repro perf`` fold (:func:`repro.obs.prof.build_profile`).

Timestamps: Chrome wants microseconds; event ``ts`` values are seconds
in the recorder's clock domain (sim-time or ``time.monotonic``), so the
exporter rebases onto the earliest timestamp in the stream.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional, Sequence, Tuple

from repro.comm.messages import TaskId
from repro.obs.recorder import ObsEvent

#: Format version stamped into exported files.
TRACE_FORMAT = "repro-obs-1"


def _pid(node: int) -> int:
    """Chrome pid for a node id: master (-1) -> 0, node k -> k + 1."""
    return node + 1


def _task_name(task_id: Optional[TaskId]) -> str:
    return "" if task_id is None else str(tuple(task_id))


def _event_args(ev: ObsEvent) -> Dict[str, object]:
    args: Dict[str, object] = {"seq": ev.seq, "scope": ev.scope}
    if ev.task_id is not None:
        args["task"] = _task_name(ev.task_id)
        args["epoch"] = ev.epoch
    if ev.data:
        args.update({k: v for k, v in ev.data.items() if k not in ("t0", "t1")})
    return args


def to_chrome_trace(
    events: Sequence[ObsEvent],
    *,
    metrics: Optional[Dict[str, object]] = None,
    meta: Optional[Dict[str, object]] = None,
) -> Dict[str, object]:
    """Render the event stream as a Chrome/Perfetto trace-event object.

    Span-carrying events (``compute``; the simulator's ``send``) become
    complete ("X") slices on their node's track; everything else becomes
    an instant ("i"). Process-name metadata labels the master and each
    node.
    """
    origin = 0.0
    starts = [ev.span()[0] if ev.span() else ev.ts for ev in events]
    if starts:
        origin = min(starts)

    def us(t: float) -> float:
        return (t - origin) * 1e6

    trace_events: List[Dict[str, object]] = []
    pids_seen: Dict[int, int] = {}
    for ev in events:
        pid = _pid(ev.node)
        tid = max(ev.worker, -1) + 1
        pids_seen.setdefault(pid, 0)
        span = ev.span()
        name = f"{ev.kind} {_task_name(ev.task_id)}".strip()
        if span is not None:
            t0, t1 = span
            trace_events.append(
                {
                    "name": name,
                    "cat": ev.scope,
                    "ph": "X",
                    "ts": us(t0),
                    "dur": max(0.0, us(t1) - us(t0)),
                    "pid": pid,
                    "tid": tid,
                    "args": _event_args(ev),
                }
            )
        else:
            trace_events.append(
                {
                    "name": name,
                    "cat": ev.scope,
                    "ph": "i",
                    "s": "t",
                    "ts": us(ev.ts),
                    "pid": pid,
                    "tid": tid,
                    "args": _event_args(ev),
                }
            )
    for pid in sorted(pids_seen):
        label = "master" if pid == 0 else f"node {pid - 1}"
        trace_events.append(
            {
                "name": "process_name",
                "ph": "M",
                "pid": pid,
                "tid": 0,
                "args": {"name": label},
            }
        )
        trace_events.append(
            {"name": "process_sort_index", "ph": "M", "pid": pid, "tid": 0,
             "args": {"sort_index": pid}}
        )

    doc: Dict[str, object] = {
        "traceEvents": trace_events,
        "displayTimeUnit": "ms",
        "otherData": dict(meta or {}, format=TRACE_FORMAT),
        "reproEvents": [event_to_json(ev) for ev in events],
    }
    if metrics is not None:
        doc["reproMetrics"] = metrics
    return doc


# -- lossless event (de)serialization ---------------------------------------------


def event_to_json(ev: ObsEvent) -> Dict[str, object]:
    out: Dict[str, object] = {
        "kind": ev.kind,
        "ts": ev.ts,
        "epoch": ev.epoch,
        "node": ev.node,
        "worker": ev.worker,
        "scope": ev.scope,
        "seq": ev.seq,
    }
    if ev.task_id is not None:
        out["task_id"] = list(ev.task_id)
    if ev.data:
        out["data"] = ev.data
    return out


def event_from_json(obj: Dict[str, object]) -> ObsEvent:
    raw_task = obj.get("task_id")
    task_id = tuple(raw_task) if raw_task is not None else None  # type: ignore[arg-type]
    data = obj.get("data")
    return ObsEvent(
        kind=str(obj["kind"]),
        ts=float(obj["ts"]),  # type: ignore[arg-type]
        task_id=task_id,
        epoch=int(obj.get("epoch", -1)),  # type: ignore[arg-type]
        node=int(obj.get("node", -1)),  # type: ignore[arg-type]
        worker=int(obj.get("worker", -1)),  # type: ignore[arg-type]
        scope=str(obj.get("scope", "task")),
        seq=int(obj.get("seq", 0)),  # type: ignore[arg-type]
        data=dict(data) if data else None,  # type: ignore[arg-type]
    )


def write_trace(
    path: str,
    events: Sequence[ObsEvent],
    *,
    metrics: Optional[Dict[str, object]] = None,
    meta: Optional[Dict[str, object]] = None,
) -> None:
    """Write a Perfetto-loadable trace file embedding the raw events."""
    doc = to_chrome_trace(events, metrics=metrics, meta=meta)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=None, separators=(",", ":"))


def read_trace(path: str) -> Tuple[Tuple[ObsEvent, ...], Optional[Dict], Dict]:
    """Load ``(events, metrics, meta)`` from a file written by
    :func:`write_trace` (exact round-trip via the embedded raw events)."""
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    raw = doc.get("reproEvents")
    if raw is None:
        raise ValueError(
            f"{path} has no embedded repro events (otherData.format should be "
            f"{TRACE_FORMAT!r}); was it written by repro's write_trace?"
        )
    events = tuple(event_from_json(o) for o in raw)
    return events, doc.get("reproMetrics"), doc.get("otherData", {})
