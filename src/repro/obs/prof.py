"""Critical-path profiling and time attribution over a recorded trace.

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

from repro.obs.metrics import Histogram
from repro.obs.recorder import ObsEvent
from repro.obs.stats import _ev_float
from repro.utils.errors import ConfigError

TaskKey = object  # block ids are tuples; keep the profiler shape-agnostic

#: Attribution bucket names, in display order. Every per-node row sums
#: to the trace extent exactly (``idle`` is the remainder), so the
#: table always accounts for 100% of each lane's wall time.
BUCKETS = ("compute", "serialize", "wire", "journal", "digest", "idle")


@dataclass
class TaskProfile:
    """Observed costs of one committed sub-task (its committed epoch)."""

    task_id: TaskKey
    epoch: int = 0
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

    @property
    def cost(self) -> float:
        """The task's contribution to a dependency chain."""
        return self.comm_in + self.compute


@dataclass
class PerfProfile:
    """Everything ``repro perf`` reports about one trace."""

    #: Trace extent in seconds (same convention as ``repro stats``).
    extent: float = 0.0
    n_committed: int = 0
    #: Committed task -> observed costs.
    tasks: Dict[TaskKey, TaskProfile] = field(default_factory=dict)
    #: node -> bucket -> seconds. Node -1 is the master lane.
    attribution: Dict[int, Dict[str, float]] = field(default_factory=dict)
    #: Queue-wait distribution across assignments (task-state time, not
    #: worker-CPU time — it overlaps other tasks' compute).
    queue_wait: Histogram = field(default_factory=Histogram)
    #: Longest compute+transfer chain through the DAG, root first.
    critical_path: List[TaskKey] = field(default_factory=list)
    critical_path_seconds: float = 0.0

    @property
    def efficiency(self) -> float:
        """critical path / makespan — 1.0 means no schedule could have
        been faster; 0.25 means 4x of the makespan is scheduling slack.
        0.0 when the trace supports no critical path."""
        if self.extent <= 0 or self.critical_path_seconds <= 0:
            return 0.0
        return min(1.0, self.critical_path_seconds / self.extent)

    def worker_nodes(self) -> List[int]:
        return sorted(k for k in self.attribution if k >= 0)


def build_profile(
    events: Iterable[ObsEvent], pattern=None
) -> PerfProfile:
    """Fold a trace into a :class:`PerfProfile`.

    ``pattern`` is the run's process-level
    :class:`~repro.dag.pattern.DAGPattern`; when given, the critical
    path is computed by joining the observed per-task costs with the
    DAG's dependency edges. Without it the profile still carries
    attribution and queue-wait (the CLI rebuilds the pattern from the
    trace's workload metadata when it can).

    Tolerant of partial traces: tasks without commits are dropped from
    the critical path, missing spans contribute zero, nothing raises.
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

    for ev in events:
        if ev.scope == "message":
            if ev.kind == "msg-send":
                t_wire = _ev_float(ev, "t_wire")
                t_ser = _ev_float(ev, "t_ser")
                if t_wire is not None:
                    wire += t_wire
                if t_ser is not None:
                    serialize += t_ser
                if (
                    ev.data is not None
                    and ev.data.get("type") == "BatchAssign"
                    and ev.task_id is not None
                ):
                    nbytes = int(_ev_float(ev, "nbytes") or 0)
                    secs = (t_wire or 0.0) + (t_ser or 0.0)
                    assign_cost[(ev.task_id, ev.epoch)] = (secs, nbytes)
            elif ev.kind == "msg-recv":
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
        if ev.scope != "task":
            continue
        span = ev.span()
        lo = span[0] if span is not None else ev.ts
        hi = span[1] if span is not None else ev.ts
        t_min = lo if t_min is None or lo < t_min else t_min
        t_max = hi if t_max is None or hi > t_max else t_max
        key = (ev.task_id, ev.epoch)
        if ev.kind == "queue-wait" and span is not None:
            prof.queue_wait.observe(span[1] - span[0])
            pending.setdefault(
                key, TaskProfile(ev.task_id, ev.epoch)
            ).queue_wait = span[1] - span[0]
        elif ev.kind == "send" and span is not None:
            # Simulated backends record the reserved input transfer as a
            # task-scope span on the receiving node.
            tp = pending.setdefault(key, TaskProfile(ev.task_id, ev.epoch))
            tp.comm_in = span[1] - span[0]
            tp.nbytes_in = int(_ev_float(ev, "nbytes") or 0)
            wire += span[1] - span[0]
        elif ev.kind == "compute" and span is not None:
            tp = pending.setdefault(key, TaskProfile(ev.task_id, ev.epoch))
            tp.node = ev.node
            tp.compute = span[1] - span[0]
            tp.t0, tp.t1 = span
            compute[ev.node] = compute.get(ev.node, 0.0) + (span[1] - span[0])
        elif ev.kind == "journal-write" and span is not None:
            journal[ev.node] = journal.get(ev.node, 0.0) + (span[1] - span[0])
        elif ev.kind == "digest-compute" and span is not None:
            digest[ev.node] = digest.get(ev.node, 0.0) + (span[1] - span[0])
        elif ev.kind == "checkpoint" and span is not None:
            journal[ev.node] = journal.get(ev.node, 0.0) + (span[1] - span[0])
        elif ev.kind == "commit" and ev.task_id is not None:
            tp = pending.pop(key, None)
            if tp is None:
                tp = TaskProfile(ev.task_id, ev.epoch)
            if tp.comm_in == 0.0:
                secs, nbytes = assign_cost.get(key, (0.0, 0))
                tp.comm_in = secs
                tp.nbytes_in = tp.nbytes_in or nbytes
            prof.tasks[ev.task_id] = tp
            prof.n_committed += 1

    if t_min is not None and t_max is not None:
        prof.extent = t_max - t_min

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
        _critical_path(prof, pattern)
    return prof


def _critical_path(prof: PerfProfile, pattern) -> None:
    """Longest-chain DP over the committed tasks, in topological order."""
    cp: Dict[TaskKey, float] = {}
    parent: Dict[TaskKey, Optional[TaskKey]] = {}
    best: Optional[TaskKey] = None
    for vid in pattern.topological_order():
        tp = prof.tasks.get(vid)
        if tp is None:
            continue  # partial trace: chain restarts past the gap
        base = 0.0
        arg: Optional[TaskKey] = None
        for p in pattern.predecessors(vid):
            got = cp.get(p)
            if got is not None and got > base:
                base, arg = got, p
        cp[vid] = base + tp.cost
        parent[vid] = arg
        if best is None or cp[vid] > cp[best]:
            best = vid
    if best is None:
        return
    chain: List[TaskKey] = []
    cursor: Optional[TaskKey] = best
    while cursor is not None:
        chain.append(cursor)
        cursor = parent.get(cursor)
    chain.reverse()
    prof.critical_path = chain
    prof.critical_path_seconds = cp[best]


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
    not a prediction.
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
    scheduled = 0
    while ready:
        ready_t, _, vid = heapq.heappop(ready)
        free_t = heapq.heappop(workers)
        start = max(ready_t, free_t)
        tp = tasks[vid]
        finish = start + comm_scale * tp.comm_in + tp.compute
        heapq.heappush(workers, finish)
        done_at[vid] = finish
        makespan = max(makespan, finish)
        scheduled += 1
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
    if scheduled != len(tasks):
        # Dependency gap (partial trace): the unscheduled remainder is
        # unreachable; report what did schedule rather than hanging.
        pass
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
