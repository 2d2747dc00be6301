"""Deterministic fault campaigns: N seeded runs, one executor, one verdict.

A campaign replays the same DP instance under seeded fault plans across
backends. Every run, whatever the mode, goes through one executor and is
classified by one verdict; a mode is only a change to the run's config
(:func:`chaos_config`):

- **plain** — task crashes and hangs, message faults, worker deaths and
  stragglers at the spec's pressure;
- **SDC** (``sdc=True``, ``repro chaos --sdc``) — adds the *silent* tier,
  lying workers (``worker_p_lie``) and digest-evading ``bitflip`` message
  mutations, under the configured integrity mode. The same seeds with
  ``integrity='off'`` show the failure the defences exist for: the
  campaign reports ``wrong-answer``;
- **kill-master** (``kill_master_at``, ``repro chaos --kill-master-at``)
  — journals the run and kills the master (the in-process ``kill -9``
  at a commit boundary) at a seeded commit. The executor's one extra
  phase recovers the journal and resumes the run to its end;
- **resources** (``resources=True``, ``repro chaos --resources``) —
  seeded host failures (ENOSPC/EIO/short writes on journal appends,
  fsync failures, shm allocation failures) into an fsynced journal and,
  on processes, the shm block store. Each seed takes the next rung of
  the journal's degrade ladder (:data:`DEGRADE_CYCLE`) and alternates
  the retry budget, so one campaign covers retry absorption and every
  rung: shm park failures fall back to inline payloads, journal write
  failures retry, checkpoint-rescue or degrade to unjournaled.

Every settled run is held to every check whose input exists, and
classified:

- ``ok``                  — finished, and every check below passed;
- ``aborted``             — ended in a clean
  :class:`~repro.utils.errors.FaultToleranceExhausted` (the budget, every
  worker, or a machine resource was genuinely exhausted — an *allowed*
  outcome);
- ``wrong-answer``        — the state differs from the serial oracle, the
  simulator's omniscient ``sim.undetected_corruptions`` counter says
  corrupted commits survived, or the answer could not be read off a
  matrix that contradicts its recurrence
  (:class:`~repro.utils.errors.InconsistentMatrix`);
- ``invariant-violation`` — the telemetry stream disagrees with the
  dispatch core it is replayed into
  (:func:`repro.check.trace_check.check_trace`, primed with the verified
  digest count and, on a resumed run, the journal's committed prefix —
  its rules carry the fault, integrity and resume invariants); a
  :class:`~repro.utils.errors.ResourceExhausted` without a job id; a
  journal left behind that does not scan (a torn tail must have been
  truncated back to the last good frame); or a ``/dev/shm`` segment a
  processes run left behind;
- ``hang``                — neither finished nor aborted within the run
  deadline;
- ``error``               — any other exception escaped the runtime.

The campaign invariant is that only the first two ever occur. Fault
plans are pure functions of the seed (:mod:`repro.cluster.faults`), so a
failing seed replays exactly; its trace and a copy of its journal go to
the campaign's ``artifact_dir``.
"""

from __future__ import annotations

import os
import shutil
import tempfile
import threading
import time
from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.algorithms import make_problem
from repro.cluster.faults import DETECTABLE_MESSAGE_KINDS, MESSAGE_FAULT_KINDS, Faults
from repro.runtime.config import RunConfig
from repro.utils.errors import (
    ChaosError,
    FaultToleranceExhausted,
    InconsistentMatrix,
    JournalError,
    ResourceExhausted,
)

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
    #: journal in a temp dir, and the degrade ladder cycled per seed
    #: (see the module docstring).
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


#: Per-seed rotation of ``journal_degrade`` in resources mode: one
#: campaign covers every rung of the degradation ladder.
DEGRADE_CYCLE = ("abort", "checkpoint", "memory")


def chaos_config(
    backend: str, seed: int, spec: CampaignSpec, workdir: Optional[str] = None
) -> RunConfig:
    """The :class:`RunConfig` of one seeded campaign run.

    Timeouts are tight (so injected faults are detected quickly) and the
    hardened recovery is on: exponential backoff, blacklisting with a
    one-survivor floor, and the stall watchdog. The simulated backend
    runs in sim-time, where the same knobs are cheap. The kill-master and
    resources modes journal into ``workdir``; without one the config is
    a plain run with the mode's fault draw.
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
        # Keys the run's shm segments to this run, so the leak check
        # inspects exactly its namespace (a pid-keyed prefix would collide
        # with every other shm run this process hosts), and attributes
        # its aborts.
        run_id=f"chaos-{backend}-s{seed}-p{os.getpid()}",
    )
    if spec.sdc:
        common.update(
            integrity=spec.integrity,
            audit_fraction=spec.audit_fraction,
            vote_k=spec.vote_k,
            quarantine_threshold=spec.quarantine_threshold,
        )
    if backend == "simulated":
        config = RunConfig(task_timeout=5.0, subtask_timeout=5.0, **common)
    else:
        config = RunConfig(task_timeout=0.75, subtask_timeout=2.0, poll_interval=0.01, **common)
    if workdir is None:
        return config
    journal_path = os.path.join(workdir, "run.journal")
    if spec.kill_master_at is not None:
        # Kill at commit 1 + U[0, P * n_blocks), a pure function of the seed.
        rng = np.random.default_rng([seed, spec.problem_seed, 0xD1E])
        ceiling = max(1, int(round(_partition(spec, config).n_blocks * spec.kill_master_at)))
        kill_after = 1 + int(rng.integers(0, ceiling))
        return replace(
            config,
            journal_path=journal_path,
            journal_fsync=False,
            faults=replace(config.faults, kill_after=kill_after),
            checkpoint_interval=max(2, kill_after // 2),
        )
    if spec.resources:
        return replace(
            config,
            journal_path=journal_path,
            journal_fsync=True,  # the fsync fault surface needs real fsyncs
            journal_degrade=DEGRADE_CYCLE[seed % len(DEGRADE_CYCLE)],
            # Alternate the retry budget so the campaign exercises both
            # retry absorption (an isolated fault never reaches the ladder)
            # and the ladder itself (every fault degrades immediately).
            journal_retries=seed % 2,
            checkpoint_interval=4,
            # Park payloads in shm so allocation faults have a surface.
            shm=config.shm or backend == "processes",
        )
    return config


def _oracle_state(spec: CampaignSpec) -> Optional[Dict[str, np.ndarray]]:
    """Serial-backend state of the campaign's instance (the ground truth)."""
    from repro.runtime.system import EasyHPS

    problem = _build_problem(spec)
    run = EasyHPS(RunConfig(backend="serial")).run(problem)
    return run.state


def _build_problem(spec: CampaignSpec):
    return make_problem(spec.algo, spec.size, spec.problem_seed)


def _partition(spec: CampaignSpec, config: RunConfig):
    """The process-level partition a campaign run dispatches."""
    problem = _build_problem(spec)
    return problem.build_partition(config.partitions_for(problem)[0])


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


def _execute(
    spec: CampaignSpec, backend: str, seed: int, oracle, artifact_dir: Optional[str]
) -> RunOutcome:
    """One seeded run in any mode: run it boxed, resume it once when the
    master was killed, judge what settled, and dump a failure's trace
    and journal."""
    from repro.durable import recover
    from repro.runtime.system import EasyHPS
    from repro.utils.errors import MasterCrash

    tmp = tempfile.mkdtemp(prefix=f"chaos-{backend}-{seed}-")
    config = chaos_config(backend, seed, spec, workdir=tmp)
    problem = _build_problem(spec)
    started = time.perf_counter()
    box = _run_boxed(
        spec, f"chaos-{backend}-{seed}", lambda: EasyHPS(config).run(problem)
    )
    journaled = None
    if config.faults.kill_after is not None and box:
        if "run" in box:
            box = {"exc": ChaosError("the kill switch never fired (run finished)")}
        elif isinstance(box["exc"], MasterCrash):
            try:
                rec = recover(config.journal_path)
            except Exception as exc:  # classified by the verdict
                box = {"exc": exc}
            else:
                journaled = rec.scan.committed
                box = _run_boxed(
                    spec, f"chaos-resume-{backend}-{seed}",
                    lambda: EasyHPS(rec.config).run(rec.problem, resume=rec),
                )
    outcome = _judge(spec, backend, seed, box, config, oracle, journaled)
    outcome.elapsed = time.perf_counter() - started
    if not outcome.acceptable and artifact_dir:
        report = box["run"].report if "run" in box else None
        _dump(artifact_dir, outcome, config.journal_path, report)
    shutil.rmtree(tmp, ignore_errors=True)
    return outcome


def _judge(
    spec: CampaignSpec,
    backend: str,
    seed: int,
    box: Dict[str, object],
    config: RunConfig,
    oracle,
    journaled,
) -> RunOutcome:
    """Hold one settled run to every check whose input exists.

    The first failed check names the status; the detail lists them all.
    ``journaled`` is the committed prefix a resumed run was recovered
    from: primed with it, the replay is the resume invariants (a
    journaled task committing again is ``duplicate-commit``, a frontier
    ahead of the journal ``early-assign``).
    """
    from repro.check.trace_check import check_trace
    from repro.durable.journal import scan_journal

    partition = _partition(spec, config)
    notes: List[str] = []
    if config.faults.kill_after is not None:
        notes.append(f"killed at commit {config.faults.kill_after}/{partition.n_blocks}")
    if spec.resources:
        notes.append(f"degrade={config.journal_degrade}")
    if not box:
        # The one outcome the design promises cannot happen. The runner
        # abandons the daemon thread (which may still hold shm segments).
        notes.append(f"run exceeded {spec.run_timeout}s deadline")
        return RunOutcome(backend, seed, "hang", detail="; ".join(notes)[:300])

    failed: List[Tuple[str, str]] = []
    exc = box.get("exc")
    outcome = RunOutcome(backend, seed, "ok" if exc is None else "aborted")
    if isinstance(exc, InconsistentMatrix):
        failed.append(("wrong-answer", str(exc)))
    elif isinstance(exc, ResourceExhausted) and not exc.job_id:
        failed.append(("invariant-violation", f"abort without attribution: {exc!r}"))
    elif isinstance(exc, FaultToleranceExhausted):
        notes.append(f"{exc.reason}: {exc}" if isinstance(exc, ResourceExhausted) else str(exc))
    elif exc is not None:
        failed.append(("error", f"{type(exc).__name__}: {exc}"))
    else:
        run = box["run"]
        report = run.report
        counters = (report.metrics or {}).get("counters", {})
        outcome.faults_injected = report.faults_injected
        outcome.faults_recovered = report.faults_recovered
        if run.state is not None and oracle is not None:
            diff = _states_equal(oracle, run.state)
            if diff is not None:
                failed.append(("wrong-answer", diff))
        undetected = counters.get("sim.undetected_corruptions", 0)
        if undetected:
            # The simulator computes no values to diff; its omniscient
            # taint counter is the wrong-answer verdict instead.
            failed.append((
                "wrong-answer",
                f"{int(undetected)} corrupted commits survived undetected (simulated taint)",
            ))
        if report.events is not None:
            verified = counters.get("integrity.digests_verified")
            check = check_trace(
                report.events,
                partition.abstract,
                verified=None if verified is None else int(verified),
                journaled=journaled,
            )
            if not check.ok:
                failed.append((
                    "invariant-violation",
                    "; ".join(f"[{d.code}] {d.message}" for d in check.diagnostics),
                ))
    if config.journal_path is not None and os.path.exists(config.journal_path):
        # Missing is fine: memory-degrade unlinks the journal.
        try:
            scan_journal(config.journal_path)
        except JournalError as scan_exc:
            failed.append(("invariant-violation", f"journal unrecoverable: {scan_exc}"))
    if backend == "processes":
        leaked = _shm_leak(config.run_id)
        if leaked:
            failed.append(("invariant-violation", leaked))
    if failed:
        outcome.status = failed[0][0]
    outcome.detail = "; ".join(notes + [why for _, why in failed])[:300]
    return outcome


def _dump(artifact_dir: str, outcome: RunOutcome, journal_path: Optional[str], report) -> None:
    """Keep a failing run's journal and Perfetto trace in ``artifact_dir``."""
    os.makedirs(artifact_dir, exist_ok=True)
    stem = os.path.join(artifact_dir, f"chaos-{outcome.backend}-seed{outcome.seed}")
    if journal_path is not None and os.path.exists(journal_path):
        shutil.copyfile(journal_path, f"{stem}.journal")
        outcome.detail = f"{outcome.detail} [journal: {stem}.journal]"
    if report is not None and report.events is not None:
        from repro.obs import write_trace

        outcome.trace_path = f"{stem}.trace.json"
        write_trace(
            outcome.trace_path, report.events, metrics=report.metrics,
            meta={"backend": outcome.backend, "seed": outcome.seed, "status": outcome.status},
        )


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
        except BaseException as exc:  # classified by the verdict
            box["exc"] = exc

    t = threading.Thread(target=target, daemon=True, name=name)
    t.start()
    t.join(timeout=spec.run_timeout)
    if t.is_alive():
        box.clear()
    return box


def run_campaign(
    spec: CampaignSpec,
    artifact_dir: Optional[str] = None,
    progress: Optional[Callable[[RunOutcome], None]] = None,
) -> CampaignResult:
    """Run the campaign; failing runs leave their trace and journal in
    ``artifact_dir`` (when set). Raises nothing — inspect the result (or
    call :meth:`CampaignResult.raise_if_failed`)."""
    oracle = _oracle_state(spec)
    outcomes: List[RunOutcome] = []
    for backend in spec.backends:
        for i in range(spec.seeds):
            outcome = _execute(spec, backend, spec.first_seed + i, oracle, artifact_dir)
            outcomes.append(outcome)
            if progress is not None:
                progress(outcome)
    return CampaignResult(spec=spec, outcomes=tuple(outcomes))
