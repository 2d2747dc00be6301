"""The one post-hoc fold of a recorded trace, and ``repro perf``'s report.

:func:`build_profile` is the only place that walks an event stream for
reporting: ``repro stats`` (:mod:`repro.obs.stats`), ``repro perf``, the
Gantt rows behind ``RunReport.trace`` and the link-fit samples all read
the :class:`PerfProfile` its single pass returns, so they share one
extent, one node mapping and one join of send, compute and commit.

``repro perf`` answers the questions a raw event stream leaves open:

- **Where did the time go?** Per-node attribution buckets decompose the
  trace extent into compute / serialize / wire / journal / digest /
  idle, so "the run is slow" becomes "the master spent 40% of the run
  fsyncing the journal".
- **Could any schedule have been faster?** The longest
  compute-plus-transfer chain through the DP DAG (the *critical path*)
  lower-bounds every schedule's makespan; ``makespan / critical_path``
  is the scheduling inefficiency left on the table.
- **What if?** A greedy list-schedule replay of the observed per-task
  costs estimates the makespan with more workers or free communication
  — the two knobs the paper's model (Sec. 5) trades off.

Everything here is post-hoc: it consumes the same
:class:`~repro.obs.recorder.ObsEvent` stream every backend emits (real
clocks or sim-time) and performs no re-runs.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.dag.parser import critical_path
from repro.obs.metrics import Histogram
from repro.obs.recorder import ObsEvent
from repro.utils.errors import ConfigError

TaskKey = object  # block ids are tuples; keep the profiler shape-agnostic

#: Attribution bucket names, in display order. Every per-node row sums
#: to the trace extent exactly (``idle`` is the remainder), so the
#: table always accounts for 100% of each lane's wall time.
BUCKETS = ("compute", "serialize", "wire", "journal", "digest", "idle")


def _ev_float(ev: ObsEvent, key: str) -> Optional[float]:
    """``ev.data[key]`` as a float, or None when absent/malformed."""
    if ev.data is None:
        return None
    raw = ev.data.get(key)
    if raw is None:
        return None
    try:
        return float(raw)  # type: ignore[arg-type]
    except (TypeError, ValueError):
        return None


@dataclass(frozen=True)
class LinkSample:
    """One observed message: payload size and end-to-end cost seconds."""

    nbytes: int
    seconds: float


@dataclass
class TaskProfile:
    """Observed costs of one committed sub-task (its committed epoch)."""

    task_id: TaskKey
    epoch: int = 0
    #: Node that computed it; -1 when the trace holds no compute for it.
    node: int = -1
    #: Seconds the task sat dispatchable before assignment.
    queue_wait: float = 0.0
    #: Input-transfer seconds (sim: reserved link span; real backends:
    #: serialize + transport handoff of the ``BatchAssign`` envelope,
    #: attributed to its first element).
    comm_in: float = 0.0
    #: Compute span (t0, t1) and its duration in seconds.
    compute: float = 0.0
    t0: float = 0.0
    t1: float = 0.0
    #: Input payload bytes, when the trace carries them.
    nbytes_in: int = 0
    #: When its input transfer started (the ``send`` span's start, or the
    #: instant the master handed the envelope over); None when unseen.
    transfer_start: Optional[float] = None
    #: When the master committed it.
    result_at: float = 0.0

    @property
    def cost(self) -> float:
        """The task's contribution to a dependency chain."""
        return self.comm_in + self.compute


@dataclass
class PerfProfile:
    """Everything ``repro perf`` and ``repro stats`` report about one trace."""

    #: Trace extent in seconds: first to last task-scope timestamp.
    extent: float = 0.0
    #: Every commit in stream order — a task recomputed after a taint
    #: appears once per committed epoch.
    commits: List[TaskProfile] = field(default_factory=list)
    #: Committed task -> observed costs (its last committed epoch).
    tasks: Dict[TaskKey, TaskProfile] = field(default_factory=dict)
    #: node -> bucket -> seconds. Node -1 is the master lane.
    attribution: Dict[int, Dict[str, float]] = field(default_factory=dict)
    #: node -> compute spans seen on it, committed epochs or not.
    computed: Dict[int, int] = field(default_factory=dict)
    #: Queue-wait distribution across assignments (task-state time, not
    #: worker-CPU time — it overlaps other tasks' compute).
    queue_wait: Histogram = field(default_factory=Histogram)
    #: Longest compute+transfer chain through the DAG, root first.
    critical_path: List[TaskKey] = field(default_factory=list)
    critical_path_seconds: float = 0.0
    #: Protocol messages seen by instrumented endpoints.
    messages_sent: int = 0
    messages_received: int = 0
    #: Payload bytes master -> slaves / slaves -> master: message scope
    #: when channels were instrumented, else the task-scope ``send`` /
    #: ``result`` payload accounting (e.g. the simulated backend).
    bytes_to_slaves: int = 0
    bytes_to_master: int = 0
    #: Per-message latency: ``t_ser + t_wire`` of instrumented
    #: ``msg-send`` events, else the simulator's reserved ``send`` spans.
    messages: List[LinkSample] = field(default_factory=list)
    redistributes: int = 0
    stale_drops: int = 0
    subtask_events: int = 0
    #: Coverage: distinct tasks ever assigned, and how many of those
    #: never reached ``commit`` in this trace (non-zero marks a partial
    #: trace — an aborted run or a truncated export).
    tasks_assigned: int = 0
    tasks_incomplete: int = 0
    #: Raw event count per kind — the coverage footnote for partial traces.
    kind_counts: Dict[str, int] = field(default_factory=dict)

    @property
    def n_committed(self) -> int:
        return len(self.commits)

    @property
    def efficiency(self) -> float:
        """critical path / makespan — 1.0 means no schedule could have
        been faster; 0.25 means 4x of the makespan is scheduling slack.
        0.0 when the trace supports no critical path."""
        if self.extent <= 0 or self.critical_path_seconds <= 0:
            return 0.0
        return min(1.0, self.critical_path_seconds / self.extent)

    @property
    def link_samples(self) -> List[LinkSample]:
        """The latency samples a link fit can use: positive size and
        duration (the fit divides by byte spread)."""
        return [s for s in self.messages if s.nbytes > 0 and s.seconds > 0]

    def worker_nodes(self) -> List[int]:
        return sorted(k for k in self.attribution if k >= 0)

    def busy_fraction(self, makespan: float) -> Dict[int, float]:
        """Per-node fraction of ``makespan`` spent computing."""
        if makespan <= 0:
            raise ValueError("makespan must be positive")
        return {n: self.attribution[n]["compute"] / makespan for n in sorted(self.computed)}

    def gantt_rows(self) -> tuple:
        """One :class:`repro.analysis.gantt.TraceEvent` per committed
        (task, epoch) that was seen computing: crashed or timed-out epochs
        never commit and are not drawn. Timestamps are clamped into
        monotone order (a real backend's compute span is synthesized from
        the slave-reported duration, whose clock differs from the
        master's)."""
        from repro.analysis.gantt import TraceEvent

        rows = []
        for tp in self.commits:
            if tp.node < 0:
                continue
            start = tp.t0 if tp.transfer_start is None else min(tp.transfer_start, tp.t0)
            end = max(tp.t1, tp.t0)
            rows.append(
                TraceEvent(tp.node, tp.task_id, start, tp.t0, end, max(tp.result_at, end))
            )
        return tuple(rows)


def build_profile(
    events: Iterable[ObsEvent], pattern=None
) -> PerfProfile:
    """Fold a trace into a :class:`PerfProfile`, in one pass.

    ``pattern`` is the run's process-level
    :class:`~repro.dag.pattern.DAGPattern`; when given, the critical
    path is computed by joining the observed per-task costs with the
    DAG's dependency edges. Without it the profile still carries
    everything else (the CLI rebuilds the pattern from the trace's
    workload metadata when it can).

    Tolerant of partial traces: tasks without commits are dropped from
    the critical path, missing spans and malformed payload fields
    contribute zero, nothing raises.
    """
    prof = PerfProfile()
    t_min: Optional[float] = None
    t_max: Optional[float] = None
    # (task, epoch) -> in-flight profile; commit promotes into prof.tasks.
    pending: Dict[Tuple[TaskKey, int], TaskProfile] = {}
    # Master-lane cost accumulators.
    serialize = 0.0
    wire = 0.0
    journal: Dict[int, float] = {}
    digest: Dict[int, float] = {}
    compute: Dict[int, float] = {}
    # Real-backend input-transfer costs keyed by the assignment envelope's
    # identity (its first element's task and epoch).
    assign_cost: Dict[Tuple[TaskKey, int], Tuple[float, int]] = {}
    # Payload bytes [to slaves, to master] by message and by task scope.
    msg_bytes = [0, 0]
    task_bytes = [0, 0]
    sim_latency: List[LinkSample] = []
    assigned: set = set()

    for ev in events:
        prof.kind_counts[ev.kind] = prof.kind_counts.get(ev.kind, 0) + 1
        if ev.scope == "message":
            nbytes = int(_ev_float(ev, "nbytes") or 0)
            if ev.kind == "msg-send":
                prof.messages_sent += 1
                msg_bytes[0] += nbytes
                t_wire = _ev_float(ev, "t_wire")
                t_ser = _ev_float(ev, "t_ser")
                if t_wire is not None:
                    wire += t_wire
                    prof.messages.append(LinkSample(nbytes, t_wire + (t_ser or 0.0)))
                if t_ser is not None:
                    serialize += t_ser
                if (
                    ev.data is not None
                    and ev.data.get("type") == "BatchAssign"
                    and ev.task_id is not None
                ):
                    secs = (t_wire or 0.0) + (t_ser or 0.0)
                    assign_cost[(ev.task_id, ev.epoch)] = (secs, nbytes)
            elif ev.kind == "msg-recv":
                prof.messages_received += 1
                msg_bytes[1] += nbytes
                # Receive-side costs (pipe transport): the post-poll
                # pipe read is the wire copy, the unpickle is
                # serialization work. Counting both keeps the inline
                # path and the zero-copy path (whose rehydration lands
                # below as ``shm-attach``) attributed symmetrically.
                t_read = _ev_float(ev, "t_read")
                if t_read is not None:
                    wire += t_read
                t_deser = _ev_float(ev, "t_deser")
                if t_deser is not None:
                    serialize += t_deser
            elif ev.kind == "shm-attach":
                # Receive-side segment attach+copy of the zero-copy data
                # plane: rehydration work, so it lands in the serialize
                # bucket next to the pickle time it replaces.
                span = ev.span()
                if span is not None:
                    serialize += span[1] - span[0]
            continue
        if ev.scope == "subtask":
            prof.subtask_events += 1
        if ev.scope != "task":
            continue
        span = ev.span()
        lo = span[0] if span is not None else ev.ts
        hi = span[1] if span is not None else ev.ts
        t_min = lo if t_min is None or lo < t_min else t_min
        t_max = hi if t_max is None or hi > t_max else t_max
        key = (ev.task_id, ev.epoch)
        kind = ev.kind
        if kind == "queue-wait" and span is not None:
            prof.queue_wait.observe(hi - lo)
            pending.setdefault(key, TaskProfile(ev.task_id, ev.epoch)).queue_wait = hi - lo
        elif kind == "send":
            nbytes = int(_ev_float(ev, "nbytes") or 0)
            task_bytes[0] += nbytes
            tp = pending.setdefault(key, TaskProfile(ev.task_id, ev.epoch))
            tp.transfer_start = lo
            if span is not None:
                # Simulated backends record the reserved input transfer as
                # a task-scope span on the receiving node.
                tp.comm_in = hi - lo
                tp.nbytes_in = nbytes
                wire += hi - lo
                sim_latency.append(LinkSample(nbytes, hi - lo))
        elif kind == "compute":
            tp = pending.setdefault(key, TaskProfile(ev.task_id, ev.epoch))
            tp.node = ev.node
            tp.compute = hi - lo
            tp.t0, tp.t1 = lo, hi
            compute[ev.node] = compute.get(ev.node, 0.0) + (hi - lo)
            prof.computed[ev.node] = prof.computed.get(ev.node, 0) + 1
        elif kind in ("journal-write", "checkpoint") and span is not None:
            journal[ev.node] = journal.get(ev.node, 0.0) + (hi - lo)
        elif kind == "digest-compute" and span is not None:
            digest[ev.node] = digest.get(ev.node, 0.0) + (hi - lo)
        elif kind == "assign" and ev.task_id is not None:
            assigned.add(ev.task_id)
        elif kind == "result":
            task_bytes[1] += int(_ev_float(ev, "nbytes") or 0)
        elif kind == "redistribute":
            prof.redistributes += 1
        elif kind == "stale-drop":
            prof.stale_drops += 1
        elif kind == "commit" and ev.task_id is not None:
            tp = pending.pop(key, None)
            if tp is None:
                tp = TaskProfile(ev.task_id, ev.epoch)
            if tp.comm_in == 0.0:
                secs, nbytes = assign_cost.get(key, (0.0, 0))
                tp.comm_in = secs
                tp.nbytes_in = tp.nbytes_in or nbytes
            tp.result_at = ev.ts
            prof.tasks[ev.task_id] = tp
            prof.commits.append(tp)

    if t_min is not None and t_max is not None:
        prof.extent = t_max - t_min
    messaged = prof.messages_sent or prof.messages_received
    prof.bytes_to_slaves, prof.bytes_to_master = msg_bytes if messaged else task_bytes
    prof.messages = prof.messages or sim_latency
    prof.tasks_assigned = len(assigned)
    prof.tasks_incomplete = len(assigned.difference(prof.tasks))

    # -- attribution table: one row per lane, rows sum to the extent --------
    nodes = set(compute) | set(journal) | set(digest)
    if serialize or wire or journal or digest:
        nodes.add(-1)
    for node in nodes:
        row = {b: 0.0 for b in BUCKETS}
        row["compute"] = compute.get(node, 0.0)
        row["journal"] = journal.get(node, 0.0)
        row["digest"] = digest.get(node, 0.0)
        if node == -1:
            row["serialize"] = serialize
            row["wire"] = wire
        busy = sum(row[b] for b in BUCKETS if b != "idle")
        row["idle"] = max(0.0, prof.extent - busy)
        prof.attribution[node] = row

    # -- critical path: longest cost chain through the committed DAG --------
    if pattern is not None and prof.tasks:
        tasks = prof.tasks
        prof.critical_path_seconds, prof.critical_path = critical_path(
            pattern, lambda vid: tasks[vid].cost if vid in tasks else None
        )
    return prof


def replay_schedule(
    tasks: Dict[TaskKey, TaskProfile],
    pattern,
    n_workers: int,
    *,
    comm_scale: float = 1.0,
) -> float:
    """Greedy list-schedule replay of observed costs; returns makespan.

    Each task occupies one worker for ``comm_scale * comm_in + compute``
    seconds once all its DAG predecessors finished. This is the standard
    what-if estimator: ``comm_scale=0`` bounds the zero-communication
    speedup, larger ``n_workers`` bounds the more-hardware speedup. It
    ignores master-side serialization, so it is optimistic — a *bound*,
    not a prediction. Tasks past a dependency gap (a partial trace) are
    unreachable and left out of the makespan.
    """
    if n_workers < 1:
        raise ConfigError(f"replay needs >= 1 worker, got {n_workers}")
    indegree: Dict[TaskKey, int] = {}
    for vid in tasks:
        indegree[vid] = sum(1 for p in pattern.predecessors(vid) if p in tasks)
    # (ready_time, tiebreak, task)
    ready: List[Tuple[float, int, TaskKey]] = []
    tick = 0
    for vid, deg in indegree.items():
        if deg == 0:
            heapq.heappush(ready, (0.0, tick, vid))
            tick += 1
    workers = [0.0] * n_workers
    heapq.heapify(workers)
    done_at: Dict[TaskKey, float] = {}
    makespan = 0.0
    while ready:
        ready_t, _, vid = heapq.heappop(ready)
        free_t = heapq.heappop(workers)
        start = max(ready_t, free_t)
        tp = tasks[vid]
        finish = start + comm_scale * tp.comm_in + tp.compute
        heapq.heappush(workers, finish)
        done_at[vid] = finish
        makespan = max(makespan, finish)
        for succ in pattern.successors(vid):
            if succ not in indegree:
                continue
            indegree[succ] -= 1
            if indegree[succ] == 0:
                succ_ready = max(
                    (done_at[p] for p in pattern.predecessors(succ) if p in done_at),
                    default=finish,
                )
                heapq.heappush(ready, (succ_ready, tick, succ))
                tick += 1
    return makespan


def what_if(
    prof: PerfProfile, pattern, *, extra_workers: Sequence[int] = (1, 2, 4)
) -> List[Tuple[str, float]]:
    """Replay-based speedup bounds: (scenario label, estimated makespan)."""
    observed = max(1, len(prof.worker_nodes()))
    out: List[Tuple[str, float]] = [
        (f"replay @ {observed} workers (sanity)", replay_schedule(
            prof.tasks, pattern, observed
        )),
        (f"zero communication @ {observed} workers", replay_schedule(
            prof.tasks, pattern, observed, comm_scale=0.0
        )),
    ]
    for extra in extra_workers:
        n = observed + extra
        out.append(
            (f"+{extra} workers ({n} total)", replay_schedule(prof.tasks, pattern, n))
        )
    return out


def format_perf_report(
    prof: PerfProfile,
    *,
    title: str = "perf",
    pattern=None,
    extra_workers: Sequence[int] = (1, 2, 4),
) -> str:
    """The ``repro perf`` text report."""
    lines = [
        f"{title}: {prof.n_committed} committed tasks over {prof.extent:.6g} s"
    ]
    if prof.critical_path:
        lines.append(
            f"  critical path    : {prof.critical_path_seconds:.6g} s across "
            f"{len(prof.critical_path)} tasks "
            f"({prof.critical_path[0]} .. {prof.critical_path[-1]})"
        )
        lines.append(
            f"  sched efficiency : {prof.efficiency:.1%} "
            f"(critical path / makespan; 100% = no schedule is faster)"
        )
    else:
        lines.append("  critical path    : unavailable (no DAG pattern joined)")
    if prof.attribution:
        lines.append("  time attribution (per lane, buckets sum to the extent):")
        header = "    {:>8}".format("lane") + "".join(
            f" {b:>10}" for b in BUCKETS
        )
        lines.append(header)
        for node in sorted(prof.attribution):
            row = prof.attribution[node]
            label = "master" if node == -1 else f"node {node}"
            cells = "".join(f" {row[b]:10.4g}" for b in BUCKETS)
            lines.append(f"    {label:>8}{cells}")
    if prof.queue_wait.count:
        s = prof.queue_wait.summary()
        lines.append(
            f"  queue wait       : total {s['total']:.4g} s over "
            f"{prof.queue_wait.count} assignments — mean {s['mean']:.3g} s, "
            f"p50 {s['p50']:.3g} s, p95 {s['p95']:.3g} s, p99 {s['p99']:.3g} s"
        )
        lines.append(
            "                     (task-state time: overlaps other tasks' compute)"
        )
    if pattern is not None and prof.tasks:
        lines.append("  what-if replay (optimistic bounds, not predictions):")
        base = prof.extent if prof.extent > 0 else None
        for label, est in what_if(prof, pattern, extra_workers=extra_workers):
            speedup = f" ({base / est:.2f}x vs observed)" if base and est > 0 else ""
            lines.append(f"    {label}: {est:.6g} s{speedup}")
    return "\n".join(lines)
