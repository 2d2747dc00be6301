"""Simulated backend: the two-level EasyHPS schedule on a modeled cluster.

This backend replays the paper's experiments without Tianhe-1A: it runs
the *actual* scheduling machinery (the dispatch core's ledgers and
frontier, policy objects) against a deterministic cost model —

- a sub-task's compute time is the makespan of its thread-level DAG under
  the node's computing threads (:func:`simulate_level`), charged from the
  algorithm's ``region_flops`` and the node's contention-aware rate;
- every master<->slave message occupies both endpoints' NICs for
  ``latency + bytes/bandwidth``;
- the master serializes a per-dispatch overhead, and each node handles
  one sub-task at a time (the paper's slave loop).

Determinism: all decisions depend only on event order, which the event
queue makes reproducible. Inner makespans are memoized on (pattern,
cost-signature, threads), which collapses the many identical blocks of a
regular DP grid.

Fault injection reads ``config.faults`` (:class:`~repro.cluster.faults.Faults`),
one slice per hook: a ``task`` "crash" costs the node half the compute
time and never answers; a "hang" occupies the node for twice the timeout
(the rule's own ``duration`` is the real slave's sleep). Both are
recovered by the simulated overtime check, mirroring Fig 10. Journal
appends cost the master ``ClusterSpec.journal_latency``, beside the
cluster's other per-message overheads.

Protocol decisions are not modeled here at all: every register /
timeout / retry-budget / backoff / blacklist / lease / quarantine / taint
decision is taken by the same
:class:`~repro.runtime.dispatch.DispatchCore` the real master runs
(``docs/fault_tolerance.md`` §Dispatch core); this module keeps the
link/CPU cost model, the fault-plan lookups and the ``EventQueue``
scheduling, and performs the core's actions in sim-time.

Dispatch is one path, as on the real wire (``docs/simulator.md``
§Dispatch): an idle node is handed what the real master's
:class:`~repro.runtime.offering.Offering` step hands a slave — a *wave*
of up to ``max_batch`` ready tasks under ``batch_wave``, otherwise one —
in ONE ``BatchAssign`` envelope and ONE transfer, computes its elements
in sequence (task and worker faults apply per element, in the order of
the real slave's loop) and answers with ONE ``BatchResult`` envelope
whose elements land one by one. ``batch_wave`` decides only what it
decides on the real wire: how many elements share the α term, the
master overhead and the 2+1 messages, and whether ``batch-assemble`` is
recorded.

Chaos (:mod:`repro.chaos`) is modeled as faults on the simulated
transfers and nodes: a dropped assignment leaves the node free and the
registration to time out; a dropped result leaves the registration to
time out while the node serves on; worker faults kill or slow whole
nodes. With ``heartbeat_interval`` set, a live node's beacon renews its
leases (modeled lazily, one beacon per lease window, itself subject to
the message-fault plan), so a dead node's dispatch redistributes at
lease expiry rather than at ``task_timeout``. A parked node re-announces
idle like the real slave's resend loop, which is what the blacklist's
last-heard oracle sees. A run that can no longer finish (every node
dead) ends in a clean :class:`FaultToleranceExhausted` — the simulator
cannot hang by construction (the event queue drains), so the abort path
is the whole guarantee.

Silent data corruption is modeled as *taint*: the simulator computes no
cell values, so it tracks which commits would be wrong instead. A live
dispatch becomes tainted by an undetected message mutation (``corrupt``
with digests off, ``bitflip`` always — its digest is restamped) or by a
lying node past its ``lie_point``; a commit whose predecessor commit is
tainted inherits the taint ("garbage in"). Digests detect ``corrupt`` at
receive (assign-side rejects ride the overtime check like a drop;
result-side rejects charge the retry budget and requeue immediately).
Everything after receive is the real master's
:class:`~repro.runtime.landing.Landing` step — votes, group journal,
commits, lagged audits, taint closure — with the taint label standing in
for the content digest: a recompute from committed inputs disagrees
exactly with an own-fault taint, while inherited taint recomputes to the
same wrong values and agrees, which is why a conviction revokes the whole
committed dependent closure. A vote's replicas are real dispatches off
the ready list, and an audit or arbiter recompute occupies the master CPU
for one inner makespan.
Taint that survives to the end of the run is counted in the
``sim.undetected_corruptions`` metric — the simulator's omniscient stand-
in for a wrong answer, which chaos campaigns use to classify runs.
"""

from __future__ import annotations

import bisect
import heapq
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.algorithms.problem import DPProblem
from repro.analysis.report import RunReport
from repro.cluster.machine import NodeSpec
from repro.cluster.simcore import EventQueue
from repro.cluster.topology import ClusterSpec
from repro.comm.messages import TaskId
from repro.comm.serialization import MESSAGE_ENVELOPE_BYTES
from repro.dag.parser import DAGParser
from repro.dag.partition import Partition
from repro.dag.pattern import DAGPattern
from repro.obs import EventRecorder, MetricsRegistry, ScheduleTracer
from repro.runtime import dispatch as core_mod
from repro.runtime.assembly import RunAssembly
from repro.runtime.config import RunConfig
from repro.runtime.landing import Accepted, Landing
from repro.runtime.offering import Offering
from repro.schedulers.policy import SchedulingPolicy, make_policy
from repro.utils.errors import FaultToleranceExhausted, SchedulerError


def simulate_level(
    pattern: Union[DAGPattern, DAGParser],
    costs: Mapping[TaskId, float],
    n_workers: int,
    policy: SchedulingPolicy,
    overhead: float = 0.0,
) -> Tuple[float, float, float]:
    """Event-driven list schedule of one DAG level.

    Returns ``(makespan, busy_time, idle_while_ready)``: total schedule
    length, summed worker busy seconds, and summed worker-seconds spent
    idle while at least one ready task existed that the worker's policy
    forbade (zero under the dynamic policy by construction).

    ``pattern`` may be a :class:`DAGParser` already compiled from the
    level's pattern; it is reset and reused, which is how
    ``_SimulatedRun._inner`` pays for one compile per block shape rather
    than one per cost class. Idle workers are offered the ready list in
    worker order, one completion at a time; the policy is not asked while
    the ready list is empty. The dynamic pool answers each pick in O(1)
    (the newest ready task, :meth:`DynamicPolicy.select_index
    <repro.schedulers.policy.DynamicPolicy.select_index>`); the static and
    history-steered policies scan.

    Deliberately its own list scheduler, not a shell around
    :class:`~repro.runtime.dispatch.DispatchCore`: this level is
    fault-free and revocation-free by construction (no timeout, epoch,
    retirement or taint can occur), so a dispatch ledger would have
    nothing to decide; it runs once per distinct block cost signature
    (``_SimulatedRun._inner`` memoizes it) yet schedules 10^6
    sub-sub-tasks per ``sim-fig13`` configuration, where a registration
    per task would move ``sim.events_per_s``. The thread level's *faulted*
    path (Fig 12) is the core's — ``SlavePart._run_pool`` on the real
    backends — and is what the subtask-scope trace replay checks under
    ``verify`` (``docs/simulator.md`` §Dispatch).
    """
    parser = pattern if isinstance(pattern, DAGParser) else DAGParser(pattern)
    parser.reset()
    vids = parser.vertex_ids
    cost = [costs[vid] for vid in vids]
    complete = parser.complete_index
    select = policy.select_index
    #: The ready tasks by compiled index, and as the policy sees them.
    ready: List[int] = parser.computable_indices()
    ready_ids: List[TaskId] = [vids[i] for i in ready]
    idle: List[int] = list(range(n_workers))  # kept in worker order
    running: List[Tuple[float, int, int]] = []  # (finish, worker, index)
    now = 0.0
    busy = 0.0
    idle_while_ready = 0.0
    while True:
        # Scan order is the policy's business: LIFO over the computable
        # stack by default.
        w = 0
        while ready and w < len(idle):
            idx = select(idle[w], ready_ids)
            if idx is None:
                w += 1
                continue
            worker = idle.pop(w)
            del ready_ids[idx]
            task = ready.pop(idx)
            duration = cost[task] + overhead
            busy += duration
            heapq.heappush(running, (now + duration, worker, task))
        if not running:
            break
        finish, worker, task = heapq.heappop(running)
        if ready and idle:
            # Workers idling next to ready-but-ineligible tasks: the
            # static schedulers' pathology, accounted per interval.
            idle_while_ready += len(idle) * (finish - now)
        now = finish
        bisect.insort(idle, worker)
        fresh = complete(task)
        if fresh:
            ready.extend(fresh)
            ready_ids.extend([vids[i] for i in fresh])
    if not parser.is_done():
        raise SchedulerError(
            f"level schedule stalled with {parser.n_remaining} tasks left "
            f"(policy {policy.name!r} starved a task)"
        )
    return now, busy, idle_while_ready


@dataclass
class _Node:
    """Runtime state of one simulated computing node."""

    spec: NodeSpec
    nic_free: float = 0.0
    busy_until: float = 0.0
    parked_since: Optional[float] = None
    tasks_done: int = 0
    #: Permanently out of service (worker-death fault or blacklisted).
    dead: bool = False
    #: Per-node message counters keying the message-fault plan.
    sent_index: int = 0
    recv_index: int = 0
    beacon_index: int = 0
    #: Whether the slow-node fault was already reported for this node.
    slow_noted: bool = False


class _SimulatedRun:
    """One end-to-end simulated schedule."""

    def __init__(
        self,
        problem: DPProblem,
        config: RunConfig,
        resume=None,
        evq: Optional[EventQueue] = None,
    ) -> None:
        self.problem = problem
        self.config = config
        #: Injectable for model checking: ``repro.check.explore`` passes a
        #: :class:`~repro.cluster.simcore.ControlledEventQueue` to
        #: enumerate message-delivery orders. Every event scheduled below
        #: carries a structural label for that purpose.
        self.evq = evq if evq is not None else EventQueue()
        #: Shared run assembly; its telemetry is stamped with *sim-time*
        #: (the event queue's clock) so exported traces draw the modeled
        #: schedule.
        self.asm = RunAssembly(config, problem, resume, clock=self.evq.clock())
        self.partition: Partition = self.asm.partition
        self.thread_size = self.asm.thread_size
        self.cluster: ClusterSpec = config.cluster_spec()
        self.faults = config.faults
        #: Per-node sets of completed task ids (the input-cache model).
        self.node_done: List[set] = [set() for _ in self.cluster.compute_nodes]
        self.policy: SchedulingPolicy = self.asm.policy(self.cluster.n_compute_nodes)

        self.nodes = [_Node(spec=s) for s in self.cluster.compute_nodes]
        self.master_nic_free = 0.0
        self.master_cpu_free = 0.0

        self._inner_memo: Dict[tuple, Tuple[float, float, int]] = {}
        #: Block shape -> its thread level (:meth:`_level`).
        self._levels: Dict[tuple, Tuple[DAGParser, List[Tuple[range, range]], int]] = {}
        self.makespan = 0.0
        self.busy_thread_seconds = 0.0
        self.n_subtasks = 0
        self.messages = 0
        self.bytes_to_slaves = 0
        self.bytes_to_master = 0
        self.idle_while_ready = 0.0
        self._last_account = 0.0
        self.failure: Optional[BaseException] = None
        self.faults_injected = 0
        #: SDC model: live (bid, epoch) dispatches that would return wrong
        #: values, and commits that are wrong.
        self.integrity = config.integrity_policy
        self.live_taint: Dict[Tuple[TaskId, int], str] = {}
        self.tainted_commits: Dict[TaskId, str] = {}
        #: The telemetry stream and the happens-before log validated
        #: after the run (``verify``) — both behind the shared
        #: :class:`ScheduleTracer`.
        self.obs: Optional[EventRecorder] = self.asm.recorder
        self.metrics: Optional[MetricsRegistry] = self.asm.metrics
        self.sched = ScheduleTracer(
            clock=self.evq.clock(),
            verify=config.verify,
            obs=self.obs,
            node=-1,
            scope="task",
        )
        #: The protocol's decisions — the very state machine the real
        #: master runs, primed from the journal on resume.
        self.core = core_mod.DispatchCore.from_config(
            config,
            self.cluster.n_compute_nodes,
            pattern=self.partition.abstract,
            recording=self.sched.enabled,
            resume=resume,
        )
        self.stats = self.core.stats
        self.landing = Landing(
            self.core, self.policy, perform=self._apply,
            merge=self._merge, verdict=self._verdict, journal=self._write_ahead,
        )
        self.offering = Offering(
            self.core, self.policy, config, self.sched, pop=self._pop, push=self._requeue
        )
        if resume is not None and self.obs is not None:
            # No commit records are synthesized for the journaled prefix
            # the core was primed with: the trace replay is primed with the
            # same prefix (``journaled`` at ``sched.check``).
            self.obs.emit(
                "resume", None, node=-1, scope="task",
                n_committed=len(resume.committed),
            )
        self.ready: List[TaskId] = []
        self._make_ready(self.core.frontier())
        #: The write-ahead journal (None when journaling is off). Journal
        #: writes are charged to the master CPU in sim-time
        #: (``ClusterSpec.journal_latency``).
        self.journal = self.asm.open_journal()
        if self.journal is not None:
            # ``journal_degrade="checkpoint"`` rescue: the simulator's
            # checkpoints carry no DP state (it computes no cells), just
            # the committed set and retry budgets.
            self.journal.bind_rescue(self._checkpoint)

    # -- cost helpers ----------------------------------------------------------

    def _inner(self, bid: TaskId, node: NodeSpec) -> Tuple[float, float, int]:
        """(compute_seconds, busy_thread_seconds, n_subtasks) of one sub-task.

        Memoized per (block cost class, node spec, thread policy): two
        blocks with identical shape and per-cell cost profile schedule
        identically, which collapses a regular grid's thousands of blocks
        into a handful of thread-level simulations. A new class computes
        only its sub-block costs and the schedule; the inner DAG and its
        ranges come from :meth:`_level`.
        """
        t = node.threads
        key = (
            self.problem.block_cost_class(self.partition, bid),
            t,
            node.flops_per_second,
            node.contention,
            round(node.task_overhead, 12),
            self.config.thread_scheduler,
        )
        cached = self._inner_memo.get(key)
        if cached is not None:
            return cached
        parser, ranges, n_cols = self._level(bid)
        # Conservative model: all t threads contend while the node works.
        rate = node.flops_per_second * node.thread_efficiency(t)
        flops = self.problem.subblock_costs(self.partition, bid, ranges)
        costs = {sub: f / rate for sub, f in zip(parser.vertex_ids, flops)}
        policy = make_policy(self.config.thread_scheduler, t, n_cols)
        makespan, busy, _ = simulate_level(parser, costs, t, policy, overhead=node.task_overhead)
        result = (makespan, busy, parser.n_total)
        self._inner_memo[key] = result
        return result

    def _level(self, bid: TaskId) -> Tuple[DAGParser, List[Tuple[range, range]], int]:
        """The thread level of ``bid``'s block shape, built once per run:
        the compiled inner DAG, each sub-block's local ranges in its
        index order, and the inner grid's column count."""
        key = self.partition.inner_shape_key(bid)
        level = self._levels.get(key)
        if level is None:
            inner = self.partition.sub_partition(bid, self.thread_size)
            parser = DAGParser(inner.abstract)
            ranges = [inner.block_ranges(sub) for sub in parser.vertex_ids]
            level = self._levels[key] = (parser, ranges, inner.grid.n_block_cols)
        return level

    # -- accounting ---------------------------------------------------------------

    def _account(self) -> None:
        """Accumulate parked-while-ready time since the previous event."""
        now = self.evq.now
        dt = now - self._last_account
        if dt > 0 and self.ready:
            parked = sum(1 for n in self.nodes if n.parked_since is not None)
            self.idle_while_ready += parked * dt
        self._last_account = now

    # -- protocol events -----------------------------------------------------------

    def _note_msg_fault(
        self, kind: str, bid: TaskId, epoch: int, k: int, mtype: str
    ) -> None:
        self.faults_injected += 1
        if self.obs is not None:
            self.obs.emit(
                f"msg-{kind}", bid, epoch=epoch, node=k, scope="message",
                type=mtype, endpoint=f"node{k}",
            )

    def _retire_node(self, k: int) -> None:
        """Take node ``k`` permanently out of service (death, or a
        retirement the core decided)."""
        node = self.nodes[k]
        node.dead = True
        node.parked_since = None

    def _node_idle(self, k: int) -> None:
        self._account()
        node = self.nodes[k]
        if node.dead:
            return
        death_point = self.faults.worker.death_point(k)
        if death_point is not None and node.tasks_done >= death_point:
            # Worker-level fault: the node goes permanently silent between
            # tasks. Its live registrations (if any) time out and
            # redistribute; all nodes dead ends in a clean abort.
            self.faults_injected += 1
            self._retire_node(k)
            if self.obs is not None:
                self.obs.emit(
                    "worker-death", None, node=k, worker=k, scope="task",
                    after_tasks=death_point,
                )
            return
        self.core.heard_from(k, self.evq.now)  # the idle announcement
        wave = self.offering.offer(k)
        if not wave:
            node.parked_since = self.evq.now
            return
        node.parked_since = None
        parts, xfer_done = self._send_wave(k, wave)
        if parts:
            self._begin_wave_compute(k, parts, xfer_done)
        else:
            # Nothing arrived: the node stays free, idle again once the
            # wasted transfer slot passes.
            self.evq.at(xfer_done, lambda k=k: self._node_idle(k), label=("idle", k))

    # -- dispatch: one path, a lone assignment is a wave of one ------------------

    def _pop(self, k: int, first: bool) -> Optional[TaskId]:
        """The offering step's wait: the ready task it picks for node
        ``k``, or None — the node parks until :meth:`_wake`."""
        return self.offering.pop_from(k, self.ready)

    def _make_ready(self, tasks: Sequence[TaskId]) -> None:
        """Put ``tasks`` on the ready list, stamped for their
        ``queue-wait`` while observing."""
        self.ready.extend(tasks)
        if self.sched.observing:
            for bid in tasks:
                self.offering.note_ready(bid)

    def _arm(self, k: int, bid: TaskId, reg: core_mod.Registration) -> None:
        """Arm one dispatch's overtime (Fig 10) and lease watches."""
        epoch = reg.epoch
        self.evq.at(
            reg.deadline,
            lambda: self._timeout(bid, epoch),
            label=("timeout", bid, epoch),
        )
        if self.core.lease_duration is not None:
            self.evq.at(
                reg.lease_expires,
                lambda: self._lease_check(bid, epoch, k),
                label=("lease", bid, epoch),
            )

    def _send_wave(
        self, k: int, wave: List[Tuple[TaskId, core_mod.Registration]]
    ) -> Tuple[List[Tuple[TaskId, int]], float]:
        """Assign the offered ``wave`` in ONE modeled envelope and ONE
        input transfer; returns the (bid, epoch) elements that reach the
        node — none when the envelope is lost — and the instant the
        transfer is over.

        Per-subtask semantics are preserved exactly as in the real master:
        every element has its own epoch and timeout watch, and commits (or
        faults) individually — only the link-model α term (one envelope,
        one master dispatch overhead, 2 messages for the whole wave
        instead of 2 per task) is amortized.
        """
        node = self.nodes[k]
        now = self.evq.now
        in_bytes = MESSAGE_ENVELOPE_BYTES  # ONE envelope for the wave
        in_each: List[int] = []
        parts: List[Tuple[TaskId, int]] = []
        for bid, reg in wave:
            self._arm(k, bid, reg)
            parts.append((bid, reg.epoch))
            if self.config.data_reuse:
                nb = self.problem.cached_input_bytes(self.partition, bid, self.node_done[k])
            else:
                nb = self.problem.input_bytes(self.partition, bid)
            in_bytes += nb
            in_each.append(nb)
        # ONE dispatch overhead and ONE transfer for the whole wave.
        self.master_cpu_free = max(self.master_cpu_free, now) + self.cluster.master_overhead
        start = max(self.master_cpu_free, self.master_nic_free, node.nic_free)
        xfer = self.cluster.link.transfer_time(in_bytes)
        self.master_nic_free = start + xfer
        node.nic_free = start + xfer
        self.messages += 2  # idle signal + the assignment envelope
        self.bytes_to_slaves += in_bytes
        xfer_done = start + xfer
        if self.sched.observing:
            # The input transfer occupies [start, xfer_done) on the link —
            # recorded as reserved spans in sim-time. The envelope's own
            # bytes ride on the first element, so the spans of a wave add
            # up to what ``bytes_to_slaves`` was charged for it.
            in_each[0] += MESSAGE_ENVELOPE_BYTES
            for (bid, epoch), nb in zip(parts, in_each):
                self.sched.record(
                    "send", bid, epoch, k, node=k, ts=start,
                    t0=start, t1=xfer_done, nbytes=nb,
                )
        rule = None
        if self.faults.message:
            rule = self.faults.message.decide(
                "send", "BatchAssign", wave[0][0], node.sent_index, endpoint=k
            )
            node.sent_index += 1
        if rule is not None:
            bid0, ep0 = parts[0]
            self._note_msg_fault(rule.kind, bid0, ep0, k, "BatchAssign")
            if rule.kind == "drop":
                # The whole envelope never arrives: every registration
                # rides the overtime check to redistribution.
                return [], xfer_done
            if rule.kind == "corrupt" and self.integrity.digest_on:
                # The mutated element's digest is now stale: the slave
                # verifies per-subtask digests and rejects only that one
                # (it rides the overtime check like a drop); the rest of
                # the wave computes.
                if self.obs is not None:
                    self.obs.emit(
                        "digest-reject", bid0, epoch=ep0, node=k,
                        scope="message", hop="assign",
                    )
                parts = parts[1:]
            elif rule.kind in ("corrupt", "bitflip"):
                # Undetected input mutation of one element: ``corrupt``
                # with digests off is consumed unverified; ``bitflip``
                # restamps a self-consistent digest either way. The node
                # computes on garbage — its result will be wrong.
                self.live_taint[(bid0, ep0)] = f"assign-{rule.kind}"
            if rule.kind == "delay":
                xfer_done += rule.delay
            elif rule.kind == "duplicate":
                # The slave computes the copy too, but its second result
                # is epoch-stale; one extra message models it.
                self.messages += 1
        return parts, xfer_done

    def _begin_wave_compute(
        self, k: int, parts: List[Tuple[TaskId, int]], compute_start: float
    ) -> None:
        """Sequentially compute one assigned wave (per-subtask faults)."""
        node = self.nodes[k]
        slow = self.faults.worker.slow_factor(k)
        t = compute_start
        survivors: List[Tuple[TaskId, int]] = []
        for bid, epoch in parts:
            fault = self.faults.task.lookup(bid, epoch)
            compute, busy, nsub = self._inner(bid, node.spec)
            compute += self.cluster.slave_overhead
            if slow > 1.0:
                compute *= slow
                if not node.slow_noted:
                    node.slow_noted = True
                    self.faults_injected += 1
                    if self.obs is not None:
                        self.obs.emit(
                            "worker-slow", bid, epoch=epoch, node=k, worker=k,
                            scope="task", factor=slow,
                        )
            if fault is not None and fault.kind == "crash":
                # This element dies half-way and is skipped — the rest of
                # the wave still computes (per-subtask semantics); its
                # registration rides the overtime check.
                t += 0.5 * compute
                continue
            if fault is not None and fault.kind == "hang":
                # The element stalls past the deadline; skipped, recovered
                # by its own timeout.
                t += 2.0 * self.config.task_timeout
                continue
            if self.sched.observing:
                self.sched.record(
                    "compute", bid, epoch, k, node=k, ts=t + compute,
                    t0=t, t1=t + compute,
                )
            t += compute
            self.busy_thread_seconds += busy
            self.n_subtasks += nsub
            survivors.append((bid, epoch))
        node.busy_until = t
        if not survivors:
            self.evq.at(t, lambda k=k: self._node_idle(k), label=("idle", k))
            return
        # NIC reservation for the result transfer happens when compute
        # finishes, not now — reserving a future slot at dispatch time
        # would wrongly serialize every other node's input transfer
        # behind this wave.
        self.evq.at(
            t,
            lambda: self._wave_done(k, survivors),
            label=("wave-done", k, survivors[0][0], survivors[0][1]),
        )

    def _wave_done(self, k: int, parts: List[Tuple[TaskId, int]]) -> None:
        """The wave finished computing: ship ONE result envelope (Fig 11 g/h)."""
        self._account()
        node = self.nodes[k]
        lie_point = self.faults.worker.lie_point(k)
        if lie_point is not None and node.tasks_done >= lie_point:
            # Past its lie point the node perturbs every element it
            # returns *before* digesting, so each stays self-consistent on
            # the wire — only audit or vote can convict it.
            self.faults_injected += 1
            for bid, epoch in parts:
                self.live_taint[(bid, epoch)] = "worker-liar"
            if self.obs is not None:
                self.obs.emit(
                    "worker-liar", parts[0][0], epoch=parts[0][1], node=k,
                    worker=k, scope="task", after_tasks=lie_point,
                )
        out_bytes = MESSAGE_ENVELOPE_BYTES + sum(
            self.problem.output_bytes(self.partition, bid) for bid, _ in parts
        )
        send_start = max(self.evq.now, node.nic_free, self.master_nic_free)
        out_xfer = self.cluster.link.transfer_time(out_bytes)
        node.nic_free = send_start + out_xfer
        self.master_nic_free = send_start + out_xfer
        node.busy_until = send_start + out_xfer
        self.messages += 1  # ONE result envelope for the whole wave
        self.bytes_to_master += out_bytes
        arrive = send_start + out_xfer
        bid0, ep0 = parts[0]
        reject: Optional[Tuple[TaskId, int]] = None
        rule = None
        if self.faults.message:
            rule = self.faults.message.decide(
                "recv", "BatchResult", bid0, node.recv_index, endpoint=k
            )
            node.recv_index += 1
        if rule is not None:
            self._note_msg_fault(rule.kind, bid0, ep0, k, "BatchResult")
            if rule.kind == "drop":
                # The whole envelope is lost; every element rides the
                # overtime check while the node serves on.
                self.evq.at(arrive, lambda k=k: self._node_idle(k), label=("idle", k))
                return
            if rule.kind == "corrupt":
                if self.integrity.digest_on:
                    # The master verifies per-subtask digests on receive:
                    # the mutated element is rejected (charged to the retry
                    # budget and requeued at once — no overtime wait), the
                    # rest of the wave commits normally.
                    reject = (bid0, ep0)
                    parts = parts[1:]
                else:
                    self.live_taint[(bid0, ep0)] = "result-corrupt"
            elif rule.kind == "bitflip":
                self.live_taint[(bid0, ep0)] = "result-bitflip"
            if rule.kind == "delay":
                arrive += rule.delay
            elif rule.kind == "duplicate":
                # The second copy lands behind the first, element by
                # element, and finds every epoch already settled.
                self.messages += 1
                parts = parts * 2
        self.evq.at(
            arrive,
            lambda: self._batch_arrival(k, parts, reject),
            label=("result", k, bid0, ep0),
        )

    def _batch_arrival(
        self,
        k: int,
        parts: List[Tuple[TaskId, int]],
        reject: Optional[Tuple[TaskId, int]] = None,
    ) -> None:
        """One result envelope landed: accept its live elements, land them
        as one group, then go idle once."""
        self._account()
        self.core.heard_from(k, self.evq.now)
        if reject is not None:
            self._apply(self.core.digest_reject(reject[0], reject[1], k))
        group = []
        for i, (bid, epoch) in enumerate(parts):
            # As on the assign side, the envelope's own bytes ride on the
            # first element's span.
            if self._accept(bid, epoch, k, 0 if i else MESSAGE_ENVELOPE_BYTES):
                group.append(Accepted(bid, epoch, k, self.live_taint.pop((bid, epoch), "")))
        if group:
            self.landing.land(group)
        if self.journal is not None and self.journal.should_checkpoint():
            # Once per group, after every merge: a checkpoint between two
            # merges would compact away the rest of the group's records.
            nbytes = self._checkpoint()
            c0 = max(self.master_cpu_free, self.evq.now)
            self.master_cpu_free = c0 + self.cluster.journal_latency
            if self.obs is not None:
                self.obs.emit(
                    "checkpoint", None, node=-1, scope="task",
                    t0=c0, t1=self.master_cpu_free,
                    n_committed=len(self.core.committed), nbytes=nbytes,
                )
        self._node_idle(k)  # the node serves on (also after a stale drop)

    def _accept(self, bid: TaskId, epoch: int, k: int, envelope: int) -> bool:
        """One element of a result envelope reaches the master: stale-drop
        it, or accept it (True) and count it as done by node ``k``.
        ``envelope`` is the share of the envelope's bytes its ``result``
        span carries."""
        stale = self.core.result(bid, epoch, k)
        if stale:
            self._apply(stale)
            return False
        self.nodes[k].tasks_done += 1
        if self.sched.enabled:
            data = {}
            if self.sched.observing:
                data = dict(nbytes=self.problem.output_bytes(self.partition, bid) + envelope)
            self.sched.record("result", bid, epoch, k, node=k, **data)
        return True

    # -- performing the core's actions ------------------------------------------------

    def _apply(self, actions) -> bool:
        """Perform what a core event returned, in order, in sim-time; False
        once the run failed."""
        rewound = False
        for act in actions:
            if isinstance(act, core_mod.Record):
                self.sched.record(act.kind, act.task, act.epoch, act.worker, **act.data)
            elif isinstance(act, core_mod.Requeue):
                if act.delay > 0:
                    self.evq.at(
                        self.evq.now + act.delay,
                        lambda bid=act.task: self._requeue(bid),
                        label=("requeue", act.task),
                    )
                else:
                    self._requeue(act.task)
            elif isinstance(act, core_mod.Stale):
                if self.sched.enabled:
                    self.sched.record(
                        "stale-drop", act.task, act.epoch, act.worker, node=act.worker
                    )
            elif isinstance(act, core_mod.Retire):
                self._retire_node(act.worker)
            elif isinstance(act, core_mod.Invalidate):
                for key in act.dropped:
                    self.live_taint.pop(key, None)
                self._rewind(act)
                rewound = True
            elif isinstance(act, core_mod.Abort) and self.failure is None:
                self.failure = act.exc
        if rewound and self.ready:
            # After the conviction's retirement, so the frontier is
            # offered to the nodes that are still in service.
            self._wake()
        return self.failure is None

    def _checkpoint(self) -> int:
        return self.journal.checkpoint(
            None, self.core.committed, self.core.attempts_snapshot()
        )

    # -- landing hooks (``repro.runtime.landing``) ----------------------------------

    def _write_ahead(self, commits: Sequence[Accepted], revoked: Sequence[TaskId]) -> None:
        """Journal a landing group as one fsync'd append that occupies the
        master CPU for ``journal_latency`` sim-seconds once, as in the
        real master — or a revocation, charged the same."""
        if self.journal is None:
            return
        j0 = max(self.master_cpu_free, self.evq.now)
        self.master_cpu_free = j0 + self.cluster.journal_latency
        if revoked:
            self.journal.invalidate(revoked)
            return
        jbytes = self.journal.commit_group([(r.task, r.epoch, None, None) for r in commits])
        if self.obs is not None:
            self.obs.emit(
                "journal-write", None, node=-1, scope="task",
                t0=j0, t1=self.master_cpu_free, nbytes=jbytes, n_tasks=len(commits),
            )

    def _merge(self, res: Accepted, released: Sequence[TaskId]) -> None:
        """A result committed: keep its taint (own, or inherited from a
        tainted predecessor), cache it on its node and offer what it
        released."""
        bid, k = res.task, res.worker
        taint = res.payload
        if not taint and self.tainted_commits:
            for p in self.partition.abstract.predecessors(bid):
                if p in self.tainted_commits:
                    taint = "inherited"  # computed from wrong inputs
                    break
        if self.sched.enabled:
            # Before the successors are offered, so their assigns
            # serialize after this commit in the event log.
            self.sched.record("commit", bid, res.epoch, k)
        if k >= 0:
            self.node_done[k].add(bid)
            self.policy.completed(k, bid)
        self.makespan = max(self.makespan, self.evq.now)
        if taint:
            self.tainted_commits[bid] = taint
        self._make_ready(released)
        if self.ready:
            self._wake()

    def _verdict(self, res: Accepted, recompute: bool) -> Tuple[str, str]:
        """The taint label stands in for a digest: clean and inherited
        results agree with a recompute from committed inputs, an own-fault
        one differs from every other result. A recompute occupies the
        master CPU for one inner makespan."""
        if recompute:
            compute, _busy, _n = self._inner(res.task, self.nodes[max(res.worker, 0)].spec)
            self.master_cpu_free = max(self.master_cpu_free, self.evq.now) + compute
            return "", ""
        return res.payload, res.payload and f"{res.payload}@{res.epoch}"

    def _rewind(self, inv: core_mod.Invalidate) -> None:
        """Perform a taint invalidation the core decided (the landing step
        journaled it): withdraw what lost its inputs and offer the
        recompute frontier."""
        for v in inv.order:
            self.tainted_commits.pop(v, None)
        self.ready = [t for t in self.ready if self.core.inputs_committed(t)]
        self._make_ready(inv.frontier)

    def _timeout(self, bid: TaskId, epoch: int) -> None:
        """Overtime check (Fig 10) of one dispatch."""
        self._account()
        reg = self.core.live(bid)
        if reg is None or reg.epoch != epoch:
            return  # completed in time
        if self.nodes[reg.worker_id].parked_since is not None:
            # A parked node keeps re-announcing idle (the slave's resend
            # loop), which is what the blacklist's liveness oracle hears.
            self.core.heard_from(reg.worker_id, self.evq.now)
        self._apply(self.core.deadline(bid, epoch, self.evq.now))

    def _lease_check(self, bid: TaskId, epoch: int, k: int) -> None:
        """Lease-expiry instant of one dispatch. The slave's heartbeat
        thread beats for as long as the node lives, so a live node's
        beacon — one per lease window here, unless the message-fault plan
        drops it — renews the lease; a dead node's lets it expire."""
        self._account()
        if not self.core.is_live(bid, epoch):
            return
        node = self.nodes[k]
        if not node.dead:
            rule = None
            if self.faults.message:
                rule = self.faults.message.decide(
                    "recv", "Heartbeat", bid, node.beacon_index, endpoint=k
                )
                node.beacon_index += 1
            if rule is not None and rule.kind == "drop":
                self._note_msg_fault("drop", bid, epoch, k, "Heartbeat")
            else:
                self.core.heard_from(k, self.evq.now)
        actions = self.core.lease_expired(bid, epoch, self.evq.now)
        if actions:
            self._apply(actions)
        else:
            self.evq.at(
                self.core.live(bid).lease_expires,
                lambda: self._lease_check(bid, epoch, k),
                label=("lease", bid, epoch),
            )

    def _requeue(self, bid: TaskId) -> None:
        """Put a recovered sub-task back on offer and wake parked nodes."""
        self._make_ready((bid,))
        self._wake()

    def _wake(self) -> None:
        """Offer the ready list to every parked node."""
        for j, node in enumerate(self.nodes):
            if node.parked_since is not None:
                self._node_idle(j)

    # -- driver -------------------------------------------------------------------------

    def execute(self) -> RunReport:
        import time as _time

        wall_start = _time.perf_counter()
        for k in range(len(self.nodes)):
            self.evq.at(0.0, lambda k=k: self._node_idle(k), label=("idle", k))
        try:
            self.evq.run()
            if self.failure is None and not self.core.n_remaining:
                if self.journal is not None:
                    self.journal.end()
        finally:
            # MasterCrash (the journal kill switch) and abort paths both
            # land here; the journal file must survive for `repro resume`.
            if self.journal is not None:
                self.journal.close()
        if self.failure is not None:
            raise self.failure
        if self.core.n_remaining:
            if any(n.dead for n in self.nodes):
                # Every path forward died with the nodes; the event queue
                # drained, which is the simulator's version of "no
                # progress" — abort cleanly, never silently stall.
                raise FaultToleranceExhausted(
                    f"simulation out of workers with {self.core.n_remaining} "
                    f"sub-tasks left ({sum(1 for n in self.nodes if n.dead)} "
                    f"of {len(self.nodes)} nodes lost)"
                )
            raise SchedulerError(
                f"simulation stalled with {self.core.n_remaining} sub-tasks left"
            )
        self.sched.check(
            self.partition.abstract,
            title=f"simulated-trace({self.problem.name})",
            journaled=None if self.asm.resume is None else self.asm.resume.committed,
        )
        if self.metrics is not None:
            self.metrics.counter("sim.messages").inc(self.messages)
            self.metrics.counter("sim.bytes_to_slaves").inc(self.bytes_to_slaves)
            self.metrics.counter("sim.bytes_to_master").inc(self.bytes_to_master)
            self.metrics.counter("sim.faults_recovered").inc(self.stats.faults_recovered)
            for k, n in enumerate(self.nodes):
                self.metrics.counter("sim.tasks_completed", node=k).inc(n.tasks_done)
            self.metrics.gauge("sim.idle_while_ready").set(self.idle_while_ready)
            # Omniscient SDC verdict: taint that survived to the end is a
            # wrong answer the run never noticed. Emitted in the sim.*
            # namespace (not integrity.*) because the simulator knows it
            # even with integrity off — campaigns classify on it.
            self.metrics.counter("sim.undetected_corruptions").inc(
                len(self.tainted_commits)
            )
            if self.integrity.digest_on:
                self.stats.publish_integrity(self.metrics)
        wall = _time.perf_counter() - wall_start
        total_threads = self.cluster.total_computing_threads
        report = RunReport(
            backend="simulated",
            scheduler=self.config.scheduler,
            algorithm=self.problem.name,
            nodes=self.cluster.total_nodes,
            threads_per_node=max(s.threads for s in self.cluster.compute_nodes),
            makespan=self.makespan,
            wall_time=wall,
            n_tasks=self.partition.n_blocks,
            n_subtasks=self.n_subtasks,
            messages=self.messages,
            bytes_to_slaves=self.bytes_to_slaves,
            bytes_to_master=self.bytes_to_master,
            faults_recovered=self.stats.faults_recovered,
            tasks_per_worker={k: n.tasks_done for k, n in enumerate(self.nodes)},
            idle_while_ready=self.idle_while_ready,
            utilization=(
                self.busy_thread_seconds / (self.makespan * total_threads)
                if self.makespan > 0
                else 0.0
            ),
            total_flops=self.problem.total_flops(self.partition),
            total_cores=self.cluster.total_cores,
            blacklisted_workers=tuple(self.stats.blacklisted_workers),
            faults_injected=self.faults_injected,
            digest_rejects=self.stats.digest_rejects,
            audits_convicted=self.stats.audits_convicted,
            tainted_recomputes=self.stats.tainted_recomputes,
            quarantined_workers=tuple(self.stats.quarantined_workers),
        )
        return self.asm.finish(report)


def run_simulated(
    problem: DPProblem, config: RunConfig, resume=None
) -> Tuple[None, RunReport]:
    """Simulate ``problem`` on ``config``'s cluster; no values are computed.

    ``resume`` primes the dispatch core with a journal's committed prefix
    (no state rebuild — the simulator computes no values) and continues
    the modeled schedule from the recovered frontier.
    """
    return None, _SimulatedRun(problem, config, resume).execute()


def simulated_serial_makespan(problem: DPProblem, config: RunConfig) -> float:
    """Simulated single-thread makespan of the same instance — the paper's
    speedup baseline (sequential program, no partitioning overheads)."""
    spec = config.cluster_spec().compute_nodes[0]
    pattern = problem.pattern()
    shape = getattr(pattern, "shape", None)
    if shape is not None:
        rows, cols = range(shape[0]), range(shape[1])
        flops = problem.region_flops(rows, cols)
    else:
        n = pattern.n  # triangular / chain
        flops = problem.region_flops(range(n), range(n), diagonal=True)
    return flops / spec.flops_per_second


def experiment_series(
    problem: DPProblem,
    nodes: int,
    cores: Sequence[int],
    **config_overrides,
) -> List[Tuple[int, RunReport]]:
    """Run ``Experiment_<nodes>_<Y>`` for each Y in ``cores``; skip
    infeasible Y (fewer computing threads than nodes)."""
    out: List[Tuple[int, RunReport]] = []
    for y in cores:
        try:
            config = RunConfig.experiment(nodes, y, **config_overrides)
        except Exception:
            continue
        _, report = run_simulated(problem, config)
        out.append((y, report))
    return out


def paper_core_range(nodes: int, max_ct: int = 11) -> List[int]:
    """The paper's Y values for X nodes: Y = 2X - 1 + ct * (X - 1), ct = 1..max_ct."""
    return [2 * nodes - 1 + ct * (nodes - 1) for ct in range(1, max_ct + 1)]
