"""Service-level chaos campaigns: break the daemon, not just one run.

``repro chaos --serve`` drives an in-process :class:`~repro.serve
.daemon.ServeDaemon` through a full multi-tenant workload while
attacking it on three axes at once:

- **worker kills** — every job carries a small seeded ``worker_p_die``,
  so slaves keep dying mid-run across the whole campaign;
- **one sabotaged tenant** — that tenant's jobs (and only those) get
  liar workers and bit-flipping channels; they must end in clean,
  attributed aborts or audited-clean results, and *no other tenant's
  job may be contaminated*;
- **a daemon kill mid-campaign** — after a seeded fraction of the
  submissions, the daemon is killed ``kill -9``-style (WAL abandoned
  mid-stream) and a fresh daemon resumes from the submission log; the
  remaining trace is then submitted to the resumed daemon.

The verdict applies the serving variant of the chaos invariant to every
job: **oracle-identical or a clean recorded abort — never a hang, never
a wrong answer, never cross-tenant blast damage** — plus service-level
checks: overload shed only with structured rejections, the final drain
returns clean, and the fleet leaks no threads.
"""

from __future__ import annotations

import os
import tempfile
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.chaos.campaign import _states_equal
from repro.runtime.config import RunConfig
from repro.serve.daemon import ServeDaemon, build_problem
from repro.serve.job import JobSpec
from repro.utils.errors import ChaosError
from repro.workloads.arrivals import ArrivalEvent, make_trace

#: Terminal job states the serving invariant accepts.
_ACCEPTABLE = ("done", "aborted", "cancelled")


@dataclass(frozen=True)
class ServeCampaignSpec:
    """One seeded service-chaos campaign, fully determined by its fields."""

    n_jobs: int = 40
    seed: int = 0
    workers: int = 4
    queue_cap: int = 64
    policy: str = "fifo"
    #: Arrival-trace shape (see :data:`repro.workloads.TRACE_KINDS`).
    trace: str = "heavy-tail"
    tenants: Tuple[str, ...] = ("acme", "globex", "initech", "mallory")
    algo: str = "edit-distance"
    size_min: int = 16
    size_max: int = 48
    nodes: int = 3
    #: Baseline seeded worker-kill probability on *every* job.
    worker_p_die: float = 0.15
    #: The tenant whose jobs get liar workers + bit-flipping channels.
    sabotage_tenant: Optional[str] = "mallory"
    sabotage_p_lie: float = 0.8
    sabotage_message_p: float = 0.05
    #: Kill the daemon after this fraction of submissions (None = never).
    kill_daemon_at: Optional[float] = 0.5
    #: Per-job retry budget; small, so faulty jobs abort rather than grind.
    max_retries: int = 6
    #: Daemon-wide hard cap per job — the no-hang backstop.
    job_timeout: float = 60.0
    task_timeout: float = 2.0


@dataclass
class JobVerdict:
    """How one job fared against the serving invariant."""

    job_id: str
    tenant: str
    status: str
    detail: str
    ok: bool
    problem: str = ""


@dataclass
class ServeCampaignResult:
    spec: ServeCampaignSpec
    verdicts: List[JobVerdict] = field(default_factory=list)
    submitted: int = 0
    accepted: int = 0
    shed: int = 0
    resumed_jobs: int = 0
    drain_clean: bool = False
    fleet_leaked: int = 0
    problems: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.problems and all(v.ok for v in self.verdicts)

    def counts(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for v in self.verdicts:
            out[v.status] = out.get(v.status, 0) + 1
        return out

    def summary(self) -> str:
        counts = ", ".join(f"{k}={v}" for k, v in sorted(self.counts().items()))
        lines = [
            f"serve chaos: {self.submitted} submitted "
            f"({self.accepted} accepted, {self.shed} shed), "
            f"{self.resumed_jobs} resumed after daemon kill",
            f"  outcomes: {counts or 'none'}",
            f"  drain clean: {self.drain_clean}, fleet leaked: {self.fleet_leaked}",
        ]
        for v in self.verdicts:
            if not v.ok:
                lines.append(f"  FAIL {v.job_id} [{v.tenant}] {v.status}: {v.problem}")
        for problem in self.problems:
            lines.append(f"  FAIL {problem}")
        lines.append("VERDICT: " + ("OK" if self.ok else "FAILED"))
        return "\n".join(lines)


def _oracles_for(
    trace: Tuple[ArrivalEvent, ...]
) -> Dict[Tuple[str, int, int], Dict[str, np.ndarray]]:
    """Serial ground truth per distinct (algo, size, seed) in the trace."""
    from repro.runtime.system import EasyHPS

    oracles: Dict[Tuple[str, int, int], Dict[str, np.ndarray]] = {}
    for event in trace:
        key = (event.algo, event.size, event.seed)
        if key not in oracles:
            problem = build_problem(
                JobSpec(algo=event.algo, size=event.size, seed=event.seed)
            )
            oracles[key] = EasyHPS(RunConfig(backend="serial")).run(problem).state
    return oracles


def _make_daemon(spec: ServeCampaignSpec, tmp: str, resume: bool) -> ServeDaemon:
    return ServeDaemon(
        workers=spec.workers,
        queue_cap=spec.queue_cap,
        policy=spec.policy,
        policy_seed=spec.seed,
        wal_path=os.path.join(tmp, "serve.srvj"),
        job_journal_dir=os.path.join(tmp, "jobs"),
        resume=resume,
        keep_states=True,
        task_timeout=spec.task_timeout,
        job_timeout=spec.job_timeout,
        job_prefix="cjob",
    )


def _wait_mid_batch(daemon: ServeDaemon, timeout: float) -> None:
    """Return once some job has finished while another has not (or every
    job has, or ``timeout`` passed)."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        live = [snap["status"] in ("queued", "running") for snap in daemon.jobs()]
        if not all(live) or not live:
            return
        time.sleep(0.001)


def _spec_for(spec: ServeCampaignSpec, event: ArrivalEvent) -> JobSpec:
    sabotaged = event.tenant == spec.sabotage_tenant
    chaos: Dict[str, float] = {"seed": float(spec.seed * 7919 + event.seed)}
    if spec.worker_p_die > 0:
        chaos["worker_p_die"] = spec.worker_p_die
    if sabotaged:
        chaos["worker_p_lie"] = spec.sabotage_p_lie
        if spec.sabotage_message_p > 0:
            chaos["message_p"] = spec.sabotage_message_p
    return JobSpec(
        tenant=event.tenant,
        algo=event.algo,
        size=event.size,
        seed=event.seed,
        nodes=spec.nodes,
        max_retries=spec.max_retries,
        # Lies are semantic faults: only the audit tier can convict them.
        integrity="audit" if sabotaged else "digest",
        chaos=chaos,
    )


def run_serve_campaign(
    spec: ServeCampaignSpec,
    *,
    artifact_dir: Optional[str] = None,
    progress: Optional[Callable[[str], None]] = None,
) -> ServeCampaignResult:
    """Run one seeded service-chaos campaign; see the module docstring."""
    say = progress if progress is not None else (lambda _msg: None)
    if spec.n_jobs < 1:
        raise ChaosError(f"n_jobs must be >= 1, got {spec.n_jobs}")
    if spec.sabotage_tenant is not None and spec.sabotage_tenant not in spec.tenants:
        raise ChaosError(
            f"sabotage tenant {spec.sabotage_tenant!r} not in {spec.tenants}"
        )
    trace = make_trace(
        spec.trace, spec.n_jobs, seed=spec.seed,
        tenants=spec.tenants, algos=(spec.algo,),
        size_min=spec.size_min, size_max=spec.size_max,
    ) if spec.trace == "heavy-tail" else make_trace(
        spec.trace, spec.n_jobs, seed=spec.seed,
        tenants=spec.tenants, algos=(spec.algo,), size=spec.size_min,
    )
    say(f"trace: {spec.trace}, {len(trace)} arrivals, "
        f"{len(set(e.tenant for e in trace))} tenants")
    oracles = _oracles_for(trace)
    say(f"oracles: {len(oracles)} distinct instances solved serially")

    result = ServeCampaignResult(spec=spec)
    tmp = artifact_dir if artifact_dir is not None else tempfile.mkdtemp(
        prefix="repro-serve-chaos-"
    )
    os.makedirs(tmp, exist_ok=True)

    kill_after = (
        max(1, int(spec.n_jobs * spec.kill_daemon_at))
        if spec.kill_daemon_at is not None
        else None
    )
    daemon = _make_daemon(spec, tmp, resume=False)
    daemon.start()
    killed = False
    for i, event in enumerate(trace):
        if kill_after is not None and not killed and i == kill_after:
            # Kill mid-batch by construction, not after a fixed sleep: the
            # moment the first job of the backlog has finished while
            # others are still running or queued, so the resume sees
            # finished history, per-job commit journals and never-started
            # jobs whatever a job's duration is. (A backlog that drains
            # completely first is killed idle, as a sleep would have.)
            _wait_mid_batch(daemon, timeout=spec.job_timeout)
            say(f"killing daemon after {i} submissions")
            daemon.kill()
            killed = True
            daemon = _make_daemon(spec, tmp, resume=True)
            daemon.start()
            result.resumed_jobs = daemon.resumed_jobs
            say(f"resumed daemon recovered {daemon.resumed_jobs} jobs")
        decision = daemon.submit(_spec_for(spec, event))
        result.submitted += 1
        if decision.accepted:
            result.accepted += 1
        else:
            result.shed += 1
            if decision.reason == "accepted" or not decision.reason:
                result.problems.append(
                    f"shed submission #{i} lacks a structured reason"
                )
    budget = spec.job_timeout * 3 + 0.5 * spec.n_jobs
    if not daemon.wait_idle(budget):
        result.problems.append(
            f"daemon not idle after {budget:.0f}s — the no-hang "
            "guarantee is broken"
        )
    _judge(spec, daemon, oracles, result)
    result.drain_clean = daemon.drain(timeout=30.0)
    result.fleet_leaked = daemon.fleet.stop(timeout=1.0)
    if result.fleet_leaked:
        result.problems.append(
            f"{result.fleet_leaked} fleet worker threads leaked past drain"
        )
    say(result.summary())
    return result


def _judge(
    spec: ServeCampaignSpec,
    daemon: ServeDaemon,
    oracles: Dict[Tuple[str, int, int], Dict[str, np.ndarray]],
    result: ServeCampaignResult,
) -> None:
    """Apply the serving invariant to every job the daemon saw."""
    for snap in daemon.jobs():
        job_id = str(snap["job_id"])
        record = daemon.get(job_id)
        if record is None:
            continue
        s = record.spec
        verdict = JobVerdict(job_id, s.tenant, record.status, record.detail, ok=True)
        sabotaged = s.tenant == spec.sabotage_tenant
        if record.status not in _ACCEPTABLE:
            verdict.ok = False
            verdict.problem = (
                f"unacceptable terminal state {record.status!r} ({record.detail})"
            )
        elif record.status == "done":
            oracle = oracles.get((s.algo, s.size, s.seed))
            if oracle is not None and record.state is not None:
                diff = _states_equal(oracle, record.state)
                if diff is not None:
                    verdict.ok = False
                    verdict.problem = f"wrong answer: {diff}"
        elif record.status == "aborted":
            if not record.detail:
                verdict.ok = False
                verdict.problem = "abort without a recorded reason"
            elif f"[job {job_id}]" not in record.detail and "cancelled" not in record.detail:
                verdict.ok = False
                verdict.problem = (
                    f"abort not attributed to its job: {record.detail[:80]}"
                )
            elif not sabotaged and spec.worker_p_die == 0.0:
                # With no faults injected into this tenant, an abort means
                # the sabotage leaked across the isolation boundary.
                verdict.ok = False
                verdict.problem = (
                    "clean tenant aborted — cross-tenant contamination? "
                    f"({record.detail[:80]})"
                )
        result.verdicts.append(verdict)
