"""Deterministic fault campaigns: N seeded runs, one invariant.

A campaign replays the same DP instance under seeded fault plans across
backends and classifies every run:

- ``ok``                  — finished; state equals the serial oracle and
  the fault/recovery trace invariants hold;
- ``aborted``             — ended in a clean
  :class:`~repro.utils.errors.FaultToleranceExhausted` (the budget or
  every worker was genuinely exhausted — an *allowed* outcome);
- ``wrong-answer``        — finished with state differing from the oracle;
- ``invariant-violation`` — finished but the telemetry stream disagrees
  with the dispatch core it is replayed into
  (:func:`repro.check.trace_check.check_trace`), whose rules include the
  fault-tolerance invariants (no commit after blacklist, every fault
  re-assigned);
- ``hang``                — neither finished nor aborted within the run
  deadline;
- ``error``               — any other exception escaped the runtime.

The campaign invariant is that only the first two ever occur. Fault
plans are pure functions of the seed (:mod:`repro.cluster.faults`), so a
failing seed replays exactly.

SDC mode (``sdc=True``, ``repro chaos --sdc``) swaps the fault mix for
the *silent* tier — lying workers (``worker_p_lie``) and digest-evading
``bitflip`` message mutations — and runs under the configured integrity
mode. Classification tightens accordingly: real-backend states still
diff against the serial oracle, the simulator's omniscient
``sim.undetected_corruptions`` counter classifies taint that survived to
the end as ``wrong-answer``, and the same replay holds the run to the
integrity invariants (no dispatch after quarantine, every taint
recomputed, no commit without digest verification). Running the same
seeds with ``integrity='off'`` demonstrates the failure the defenses
exist for: the campaign reports ``wrong-answer``.
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.algorithms import make_problem
from repro.cluster.faults import DETECTABLE_MESSAGE_KINDS, MESSAGE_FAULT_KINDS, Faults
from repro.runtime.config import RunConfig
from repro.utils.errors import ChaosError, FaultToleranceExhausted

#: Backends a campaign may exercise ("serial" is the oracle, not a target).
CAMPAIGN_BACKENDS = ("simulated", "threads", "processes")


@dataclass(frozen=True)
class CampaignSpec:
    """What one chaos campaign runs."""

    backends: Tuple[str, ...] = ("simulated", "threads")
    #: Seeded runs per backend; seeds are ``first_seed .. first_seed+seeds-1``.
    seeds: int = 10
    first_seed: int = 0
    #: DP instance under test (one instance, many fault seeds).
    algo: str = "edit-distance"
    size: int = 48
    problem_seed: int = 0
    #: Fault pressure per seed.
    message_p: float = 0.12
    worker_p_die: float = 0.2
    worker_p_slow: float = 0.2
    task_fault_p: float = 0.1
    #: Cluster shape of each run.
    nodes: int = 3
    threads_per_node: int = 2
    scheduler: str = "dynamic"
    #: Wall-clock deadline per run; exceeding it classifies as ``hang``.
    run_timeout: float = 60.0
    #: Kill-master mode: crash the master (in-process ``kill -9``
    #: equivalent at a commit boundary) at a seeded point within the
    #: first ``kill_master_at`` fraction of the run's commits, then
    #: ``repro resume`` the journal and assert the resumed run matches
    #: the oracle and the resume invariants. ``None`` disables.
    kill_master_at: Optional[float] = None
    #: SDC mode: inject the *silent* corruption tier (lying workers,
    #: digest-evading bitflips) and defend with ``integrity``. The other
    #: fault knobs above still apply on top. The campaign audits at
    #: fraction 1.0: sampled auditing is a *probabilistic* defense
    #: (unsampled lies survive), but the campaign invariant is a hard
    #: oracle-identical-or-abort guarantee, which only full coverage
    #: (audit 1.0, or vote) provides.
    sdc: bool = False
    integrity: str = "audit"
    worker_p_lie: float = 0.3
    audit_fraction: float = 1.0
    vote_k: int = 2
    quarantine_threshold: int = 3
    #: Data-plane knobs under fault pressure: batched wavefront dispatch
    #: (the fault surface becomes envelopes of whole waves, not of
    #: one) and the zero-copy shm block transport (leaked segments
    #: become a campaign invariant).
    batch_wave: bool = False
    max_batch: int = 8
    shm: bool = False
    #: Resource-exhaustion mode (``repro chaos --resources``): seeded
    #: I/O faults into journal appends/fsyncs and shm allocation, a
    #: journal in a temp dir, and the degrade ladder cycled per seed.
    #: See :mod:`repro.chaos.resources` for the contract.
    resources: bool = False
    io_p_write: float = 0.08
    io_p_fsync: float = 0.04
    io_p_shm: float = 0.15

    def __post_init__(self) -> None:
        from repro.integrity import INTEGRITY_MODES

        for b in self.backends:
            if b not in CAMPAIGN_BACKENDS:
                raise ChaosError(
                    f"campaign backend must be one of {CAMPAIGN_BACKENDS}, got {b!r}"
                )
        if self.seeds < 1:
            raise ChaosError(f"seeds must be >= 1, got {self.seeds}")
        if self.kill_master_at is not None and not (0.0 < self.kill_master_at <= 1.0):
            raise ChaosError(
                f"kill_master_at must be a fraction in (0, 1], got {self.kill_master_at}"
            )
        if self.resources and self.kill_master_at is not None:
            raise ChaosError(
                "resources mode and kill-master mode are separate campaigns; "
                "run them one at a time"
            )
        if self.integrity not in INTEGRITY_MODES:
            raise ChaosError(
                f"integrity must be one of {INTEGRITY_MODES}, got {self.integrity!r}"
            )


@dataclass
class RunOutcome:
    """Classification of one seeded run."""

    backend: str
    seed: int
    status: str  # ok | aborted | wrong-answer | invariant-violation | hang | error
    detail: str = ""
    faults_injected: int = 0
    faults_recovered: int = 0
    elapsed: float = 0.0
    #: Perfetto trace written for a failing run (``artifact_dir`` set).
    trace_path: Optional[str] = None

    @property
    def acceptable(self) -> bool:
        """True for the two outcomes the campaign invariant allows."""
        return self.status in ("ok", "aborted")


@dataclass
class CampaignResult:
    """All outcomes of one campaign."""

    spec: CampaignSpec
    outcomes: Tuple[RunOutcome, ...] = ()

    @property
    def ok(self) -> bool:
        return all(o.acceptable for o in self.outcomes)

    @property
    def failures(self) -> Tuple[RunOutcome, ...]:
        return tuple(o for o in self.outcomes if not o.acceptable)

    def counts(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for o in self.outcomes:
            out[o.status] = out.get(o.status, 0) + 1
        return out

    def summary(self) -> str:
        lines = [
            f"chaos campaign: {self.spec.algo}-{self.spec.size}, "
            f"{self.spec.seeds} seeds x {list(self.spec.backends)}",
        ]
        for backend in self.spec.backends:
            runs = [o for o in self.outcomes if o.backend == backend]
            counts: Dict[str, int] = {}
            for o in runs:
                counts[o.status] = counts.get(o.status, 0) + 1
            injected = sum(o.faults_injected for o in runs)
            recovered = sum(o.faults_recovered for o in runs)
            parts = ", ".join(f"{v} {k}" for k, v in sorted(counts.items()))
            lines.append(
                f"  {backend:10s}: {parts}  "
                f"({injected} faults injected, {recovered} recovered)"
            )
        for o in self.failures:
            where = f" [trace: {o.trace_path}]" if o.trace_path else ""
            lines.append(f"  FAIL {o.backend} seed {o.seed}: {o.status} — {o.detail}{where}")
        lines.append("invariant held" if self.ok else "INVARIANT VIOLATED")
        return "\n".join(lines)

    def raise_if_failed(self) -> None:
        if not self.ok:
            raise ChaosError(self.summary())


def chaos_config(backend: str, seed: int, spec: CampaignSpec) -> RunConfig:
    """The :class:`RunConfig` of one seeded campaign run.

    Timeouts are tight (so injected faults are detected quickly) and the
    hardened recovery is on: exponential backoff, blacklisting with a
    one-survivor floor, and the stall watchdog. The simulated backend
    runs in sim-time, where the same knobs are cheap.
    """
    io = dict(io_p_write=spec.io_p_write, io_p_fsync=spec.io_p_fsync, io_p_shm=spec.io_p_shm)
    common = dict(
        nodes=spec.nodes,
        threads_per_node=spec.threads_per_node,
        backend=backend,
        scheduler=spec.scheduler,
        process_partition=(max(4, spec.size // 4), max(4, spec.size // 4)),
        thread_partition=(max(2, spec.size // 8), max(2, spec.size // 8)),
        max_retries=8,
        faults=Faults.random(
            seed,
            task_fault_p=spec.task_fault_p,
            task_kinds=("crash", "hang"),
            hang=1.5,
            message_p=spec.message_p,
            # SDC mode adds the digest-evading tier to the draw, and lies.
            message_kinds=MESSAGE_FAULT_KINDS if spec.sdc else DETECTABLE_MESSAGE_KINDS,
            worker_p_die=spec.worker_p_die,
            worker_p_slow=spec.worker_p_slow,
            worker_p_lie=spec.worker_p_lie if spec.sdc else 0.0,
            **(io if spec.resources else {}),
        ),
        blacklist_threshold=4,
        retry_backoff=0.01,
        retry_backoff_max=0.25,
        observe=True,
        batch_wave=spec.batch_wave,
        max_batch=spec.max_batch,
        shm=spec.shm,
    )
    if spec.sdc:
        common.update(
            integrity=spec.integrity,
            audit_fraction=spec.audit_fraction,
            vote_k=spec.vote_k,
            quarantine_threshold=spec.quarantine_threshold,
        )
    if backend == "simulated":
        return RunConfig(task_timeout=5.0, subtask_timeout=5.0, **common)
    return RunConfig(
        task_timeout=0.75,
        subtask_timeout=2.0,
        poll_interval=0.01,
        **common,
    )


def _oracle_state(spec: CampaignSpec) -> Optional[Dict[str, np.ndarray]]:
    """Serial-backend state of the campaign's instance (the ground truth)."""
    from repro.runtime.system import EasyHPS

    problem = _build_problem(spec)
    run = EasyHPS(RunConfig(backend="serial")).run(problem)
    return run.state


def _build_problem(spec: CampaignSpec):
    return make_problem(spec.algo, spec.size, spec.problem_seed)


def _states_equal(
    oracle: Dict[str, np.ndarray], state: Dict[str, np.ndarray]
) -> Optional[str]:
    """None when equal, else a human-readable first difference."""
    if set(oracle) != set(state):
        return f"state keys differ: {sorted(oracle)} vs {sorted(state)}"
    for key in sorted(oracle):
        if not np.array_equal(np.asarray(oracle[key]), np.asarray(state[key])):
            bad = int(np.sum(np.asarray(oracle[key]) != np.asarray(state[key])))
            return f"state[{key!r}] differs from oracle in {bad} cells"
    return None


def _execute_one(
    spec: CampaignSpec, backend: str, seed: int, oracle, artifact_dir: Optional[str]
) -> RunOutcome:
    from repro.runtime.system import EasyHPS

    config = chaos_config(backend, seed, spec)
    if backend == "processes" and spec.shm:
        # Key this run's segments by a run id so the leak check below
        # inspects exactly this run's namespace — a pid-keyed prefix
        # would collide with every other shm run this process hosts
        # (parallel campaigns, the serve daemon's concurrent jobs).
        config = replace(
            config, run_id=f"chaos-{backend}-s{seed}-p{os.getpid()}"
        )
    problem = _build_problem(spec)
    started = time.perf_counter()
    box = _run_boxed(
        spec, f"chaos-{backend}-{seed}", lambda: EasyHPS(config).run(problem)
    )
    elapsed = time.perf_counter() - started

    if not box:
        # The one outcome the design promises cannot happen. The runner
        # abandons the daemon thread and reports it.
        return RunOutcome(
            backend, seed, "hang",
            detail=f"run exceeded {spec.run_timeout}s deadline", elapsed=elapsed,
        )
    if backend == "processes" and spec.shm:
        # Segment-leak invariant: however the run settled — committed,
        # aborted mid-wave, or errored — the teardown sweep must have
        # reclaimed every block segment this master parked. (The hang
        # path above legitimately still holds segments, so it returns
        # before this check.)
        leaked = _shm_leak(config.run_id)
        if leaked:
            return RunOutcome(
                backend, seed, "invariant-violation", detail=leaked, elapsed=elapsed
            )
    exc = box.get("exc")
    if isinstance(exc, FaultToleranceExhausted):
        return RunOutcome(
            backend, seed, "aborted", detail=str(exc)[:200], elapsed=elapsed
        )
    if exc is not None:
        return RunOutcome(
            backend, seed, "error",
            detail=f"{type(exc).__name__}: {exc}"[:200], elapsed=elapsed,
        )

    run = box["run"]
    report = run.report
    outcome = RunOutcome(
        backend, seed, "ok",
        faults_injected=report.faults_injected,
        faults_recovered=report.faults_recovered,
        elapsed=elapsed,
    )
    if run.state is not None and oracle is not None:
        diff = _states_equal(oracle, run.state)
        if diff is not None:
            outcome.status, outcome.detail = "wrong-answer", diff
    if outcome.status == "ok" and backend == "simulated" and report.metrics:
        # The simulator computes no values to diff; its omniscient taint
        # counter is the wrong-answer verdict instead.
        undetected = report.metrics.get("counters", {}).get(
            "sim.undetected_corruptions", 0
        )
        if undetected:
            outcome.status = "wrong-answer"
            outcome.detail = (
                f"{int(undetected)} corrupted commits survived undetected "
                "(simulated taint)"
            )
    if outcome.status == "ok" and report.events is not None:
        from repro.check.trace_check import check_trace

        verified = (report.metrics or {}).get("counters", {}).get(
            "integrity.digests_verified"
        )
        proc_size, _ = config.partitions_for(problem)
        check = check_trace(
            report.events,
            problem.build_partition(proc_size).abstract,
            verified=None if verified is None else int(verified),
        )
        if not check.ok:
            outcome.status = "invariant-violation"
            outcome.detail = "; ".join(
                f"[{d.code}] {d.message}" for d in check.diagnostics
            )[:300]
    if not outcome.acceptable and artifact_dir and report.events is not None:
        from repro.obs import write_trace

        os.makedirs(artifact_dir, exist_ok=True)
        path = os.path.join(artifact_dir, f"chaos-{backend}-seed{seed}.trace.json")
        write_trace(
            path, report.events, metrics=report.metrics,
            meta={"backend": backend, "seed": seed, "status": outcome.status},
        )
        outcome.trace_path = path
    return outcome


def _shm_leak(run_id: str) -> Optional[str]:
    """What a settled run left in its shm namespace, as a finding (None
    when clean); leaked segments are swept so they don't poison later
    seeds."""
    from repro.comm.shm import leaked_segments, run_prefix, sweep_segments

    prefix = run_prefix(run_id)
    leaks = leaked_segments(prefix)
    if not leaks:
        return None
    sweep_segments(prefix)
    return f"{len(leaks)} shm segments leaked: {leaks[:3]}"


def _run_boxed(spec: CampaignSpec, name: str, fn: Callable[[], object]) -> Dict[str, object]:
    """Run ``fn`` on a watchdogged daemon thread; ``{"run": ...}`` or
    ``{"exc": ...}``, or ``{}`` on deadline (the ``hang`` outcome)."""
    box: Dict[str, object] = {}

    def target() -> None:
        try:
            box["run"] = fn()
        except BaseException as exc:  # classified by the caller
            box["exc"] = exc

    t = threading.Thread(target=target, daemon=True, name=name)
    t.start()
    t.join(timeout=spec.run_timeout)
    if t.is_alive():
        box.clear()
    return box


def _execute_kill_master(
    spec: CampaignSpec, backend: str, seed: int, oracle, artifact_dir: Optional[str]
) -> RunOutcome:
    """One kill-master run: crash at a seeded commit, resume, verify.

    Phase 1 journals the run with the kill switch armed at commit
    ``1 + U[0, P * n_tasks)`` (pure function of the seed) and expects a
    :class:`~repro.utils.errors.MasterCrash`. Phase 2 recovers the
    journal, resumes, and requires the resumed state to equal the serial
    oracle (real backends) and the resume invariants to hold over the
    resumed telemetry stream (all backends, including simulated where no
    state exists to diff).
    """
    import shutil
    import tempfile

    from repro.runtime.system import EasyHPS
    from repro.utils.errors import MasterCrash

    problem = _build_problem(spec)
    config = chaos_config(backend, seed, spec)
    proc_size, _ = config.partitions_for(problem)
    partition = problem.build_partition(proc_size)
    rng = np.random.default_rng([seed, spec.problem_seed, 0xD1E])
    ceiling = max(1, int(round(partition.n_blocks * spec.kill_master_at)))
    kill_after = 1 + int(rng.integers(0, ceiling))
    tmp = tempfile.mkdtemp(prefix=f"chaos-kill-{backend}-{seed}-")
    journal_path = os.path.join(tmp, "master.journal")
    config = replace(
        config,
        journal_path=journal_path,
        journal_fsync=False,
        faults=replace(config.faults, kill_after=kill_after),
        checkpoint_interval=max(2, kill_after // 2),
    )

    started = time.perf_counter()
    detail = f"killed at commit {kill_after}/{partition.n_blocks}"

    def fail(status: str, why: str, trace_events=None) -> RunOutcome:
        out = RunOutcome(
            backend, seed, status, detail=f"{detail}; {why}"[:300],
            elapsed=time.perf_counter() - started,
        )
        if artifact_dir:
            os.makedirs(artifact_dir, exist_ok=True)
            kept = os.path.join(
                artifact_dir, f"kill-{backend}-seed{seed}.journal"
            )
            if os.path.exists(journal_path):
                shutil.copyfile(journal_path, kept)
                out.detail = f"{out.detail} [journal: {kept}]"[:300]
            if trace_events is not None:
                from repro.obs import write_trace

                path = os.path.join(
                    artifact_dir, f"kill-{backend}-seed{seed}.trace.json"
                )
                write_trace(
                    path, trace_events,
                    meta={"backend": backend, "seed": seed, "status": status},
                )
                out.trace_path = path
        shutil.rmtree(tmp, ignore_errors=True)
        return out

    # Phase 1: run until the kill switch fires at the chosen commit.
    box = _run_boxed(
        spec, f"chaos-kill-{backend}-{seed}",
        lambda: EasyHPS(config).run(problem),
    )
    if not box:
        return fail("hang", f"phase 1 exceeded {spec.run_timeout}s deadline")
    exc = box.get("exc")
    if isinstance(exc, FaultToleranceExhausted):
        # Fault pressure exhausted the budget before the kill point — an
        # allowed outcome; nothing to resume.
        shutil.rmtree(tmp, ignore_errors=True)
        return RunOutcome(
            backend, seed, "aborted", detail=f"{detail}; pre-kill abort: {exc}"[:300],
            elapsed=time.perf_counter() - started,
        )
    if not isinstance(exc, MasterCrash):
        why = (
            f"{type(exc).__name__}: {exc}" if exc is not None
            else "kill switch never fired (run finished)"
        )
        return fail("error", f"phase 1: {why}")

    # Phase 2: recover the journal and resume to completion.
    from repro.durable import recover

    try:
        rec = recover(journal_path)
    except Exception as exc2:
        return fail("error", f"recover: {type(exc2).__name__}: {exc2}")
    box = _run_boxed(
        spec, f"chaos-resume-{backend}-{seed}",
        lambda: EasyHPS(rec.config).run(rec.problem, resume=rec),
    )
    if not box:
        return fail("hang", f"resume exceeded {spec.run_timeout}s deadline")
    exc = box.get("exc")
    if isinstance(exc, FaultToleranceExhausted):
        shutil.rmtree(tmp, ignore_errors=True)
        return RunOutcome(
            backend, seed, "aborted", detail=f"{detail}; resume aborted: {exc}"[:300],
            elapsed=time.perf_counter() - started,
        )
    if exc is not None:
        return fail("error", f"resume: {type(exc).__name__}: {exc}")

    run = box["run"]
    report = run.report
    if run.state is not None and oracle is not None:
        diff = _states_equal(oracle, run.state)
        if diff is not None:
            return fail("wrong-answer", diff, trace_events=report.events)
    if report.events is not None:
        from repro.check.trace_check import check_trace

        # Primed with the journal's prefix, the replay is the resume
        # invariants: a journaled task committing again is
        # ``duplicate-commit``, a frontier ahead of the journal
        # ``early-assign``, an uncovered vertex ``lost-update``.
        check = check_trace(
            report.events, partition.abstract, journaled=rec.scan.committed
        )
        if not check.ok:
            why = "; ".join(f"[{d.code}] {d.message}" for d in check.diagnostics)
            return fail("invariant-violation", why, trace_events=report.events)
    shutil.rmtree(tmp, ignore_errors=True)
    return RunOutcome(
        backend, seed, "ok", detail=detail,
        faults_injected=report.faults_injected,
        faults_recovered=report.faults_recovered,
        elapsed=time.perf_counter() - started,
    )


def run_campaign(
    spec: CampaignSpec,
    artifact_dir: Optional[str] = None,
    progress: Optional[Callable[[RunOutcome], None]] = None,
) -> CampaignResult:
    """Run the campaign; failing runs dump Perfetto traces to
    ``artifact_dir`` (when set). Raises nothing — inspect the result (or
    call :meth:`CampaignResult.raise_if_failed`)."""
    oracle = _oracle_state(spec)
    if spec.kill_master_at is not None:
        execute = _execute_kill_master
    elif spec.resources:
        from repro.chaos.resources import _execute_resource

        execute = _execute_resource
    else:
        execute = _execute_one
    outcomes: List[RunOutcome] = []
    for backend in spec.backends:
        for i in range(spec.seeds):
            outcome = execute(
                spec, backend, spec.first_seed + i, oracle, artifact_dir
            )
            outcomes.append(outcome)
            if progress is not None:
                progress(outcome)
    return CampaignResult(spec=spec, outcomes=tuple(outcomes))
