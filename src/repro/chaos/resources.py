"""Resource-exhaustion campaigns: seeded I/O faults, graceful degradation.

The resource tier (``repro chaos --resources``) injects *host* failures
— ENOSPC/EIO/short writes on journal appends, fsync failures, shm
allocation failures, fd exhaustion — through the seeded
:class:`~repro.cluster.faults.IoFaultPlan` threaded into the commit
journal and the zero-copy block store, then asserts the degradation
contract on every seeded run:

- the run finishes **oracle-identical** (shm park failures fall back to
  inline payloads; journal write failures retry, checkpoint-rescue, or
  degrade to unjournaled per ``journal_degrade``), **or**
- it ends in a clean, *attributed*
  :class:`~repro.utils.errors.ResourceExhausted` (job id + machine
  readable ``resource-exhausted:<resource>:<op>`` reason) — never a
  hang, never a traceback, never a wrong answer;
- whatever happened, the journal file left behind is scan-recoverable
  (a torn tail from a failed append must have been truncated back to
  the last good frame), and ``/dev/shm`` holds no segment of the run.

Each seed cycles the degrade ladder (``abort`` → ``checkpoint`` →
``memory``) so one campaign exercises every rung. Fault plans are pure
functions of the seed, so a failing seed replays exactly.
"""

from __future__ import annotations

import os
import time
from typing import Optional

from repro.chaos.campaign import (
    CampaignSpec,
    RunOutcome,
    _build_problem,
    _run_boxed,
    _shm_leak,
    _states_equal,
    chaos_config,
)
from repro.cluster.faults import (
    IO_FAULT_KINDS,
    IO_FAULT_OPS,
    IoFaultPlan,
    IoFaultRule,
    IoPolicy,
)
from repro.utils.errors import (
    FaultToleranceExhausted,
    JournalError,
    ResourceExhausted,
)

__all__ = [
    "IO_FAULT_KINDS",
    "IO_FAULT_OPS",
    "IoFaultPlan",
    "IoFaultRule",
    "IoPolicy",
    "DEGRADE_CYCLE",
]

#: Per-seed rotation of ``journal_degrade`` — one campaign covers every
#: rung of the degradation ladder.
DEGRADE_CYCLE = ("abort", "checkpoint", "memory")


def _execute_resource(
    spec: CampaignSpec, backend: str, seed: int, oracle, artifact_dir: Optional[str]
) -> RunOutcome:
    """One resource-fault run: inject, run, verify the contract above."""
    import shutil
    import tempfile
    from dataclasses import replace

    from repro.runtime.system import EasyHPS

    problem = _build_problem(spec)
    config = chaos_config(backend, seed, spec)
    tmp = tempfile.mkdtemp(prefix=f"chaos-res-{backend}-{seed}-")
    journal_path = os.path.join(tmp, "run.journal")
    mode = DEGRADE_CYCLE[seed % len(DEGRADE_CYCLE)]
    updates = dict(
        journal_path=journal_path,
        journal_fsync=True,  # the fsync fault surface needs real fsyncs
        journal_degrade=mode,
        # Alternate the retry budget so the campaign exercises both
        # retry-absorption (an isolated fault never reaches the ladder)
        # and the ladder itself (every fault degrades immediately).
        journal_retries=seed % 2,
        checkpoint_interval=4,
        run_id=f"chaos-res-{backend}-s{seed}-p{os.getpid()}",
    )
    if backend == "processes":
        # Park payloads in shm so allocation faults have a surface; the
        # leak invariant below covers the fallback path too.
        updates["shm"] = True
    config = replace(config, **updates)
    detail = f"degrade={mode}"
    started = time.perf_counter()

    def finalize(outcome: RunOutcome, report=None) -> RunOutcome:
        # Post-run resource invariants, checked on *every* settled run:
        # the journal left behind must be scan-recoverable (missing is
        # fine — memory-degrade unlinks it) and /dev/shm must be clean.
        problems = []
        if os.path.exists(journal_path):
            from repro.durable.journal import scan_journal

            try:
                scan_journal(journal_path)
            except JournalError as exc:
                problems.append(f"journal unrecoverable: {exc}")
        if backend == "processes":
            leaked = _shm_leak(config.run_id)
            if leaked:
                problems.append(leaked)
        if problems and outcome.status in ("ok", "aborted"):
            outcome.status = "invariant-violation"
            outcome.detail = (f"{detail}; " + "; ".join(problems))[:300]
        if not outcome.acceptable and artifact_dir:
            os.makedirs(artifact_dir, exist_ok=True)
            if os.path.exists(journal_path):
                kept = os.path.join(
                    artifact_dir, f"res-{backend}-seed{seed}.journal"
                )
                shutil.copyfile(journal_path, kept)
                outcome.detail = f"{outcome.detail} [journal: {kept}]"[:300]
            if report is not None and report.events is not None:
                from repro.obs import write_trace

                path = os.path.join(
                    artifact_dir, f"res-{backend}-seed{seed}.trace.json"
                )
                write_trace(
                    path, report.events, metrics=report.metrics,
                    meta={"backend": backend, "seed": seed,
                          "status": outcome.status, "degrade": mode},
                )
                outcome.trace_path = path
        shutil.rmtree(tmp, ignore_errors=True)
        return outcome

    box = _run_boxed(
        spec, f"chaos-res-{backend}-{seed}",
        lambda: EasyHPS(config).run(problem),
    )
    elapsed = time.perf_counter() - started
    if not box:
        # Keep the tmp dir: the journal of a hung run is the evidence.
        return RunOutcome(
            backend, seed, "hang",
            detail=f"{detail}; exceeded {spec.run_timeout}s [journal: {journal_path}]",
            elapsed=elapsed,
        )
    exc = box.get("exc")
    if isinstance(exc, ResourceExhausted):
        # Allowed — but only when the abort is properly attributed.
        out = RunOutcome(
            backend, seed, "aborted",
            detail=f"{detail}; {exc.reason}: {exc}"[:300], elapsed=elapsed,
        )
        if not exc.job_id or not exc.reason.startswith("resource-exhausted"):
            out.status = "invariant-violation"
            out.detail = f"{detail}; abort without attribution: {exc!r}"[:300]
        return finalize(out)
    if isinstance(exc, FaultToleranceExhausted):
        return finalize(RunOutcome(
            backend, seed, "aborted", detail=f"{detail}; {exc}"[:300],
            elapsed=elapsed,
        ))
    if exc is not None:
        return finalize(RunOutcome(
            backend, seed, "error",
            detail=f"{detail}; {type(exc).__name__}: {exc}"[:300],
            elapsed=elapsed,
        ))

    run = box["run"]
    report = run.report
    degrades = (
        sum(1 for e in report.events if e.kind == "resource-degrade")
        if report.events is not None
        else 0
    )
    out = RunOutcome(
        backend, seed, "ok",
        detail=f"{detail}; {degrades} degradations absorbed",
        faults_injected=report.faults_injected,
        faults_recovered=report.faults_recovered,
        elapsed=elapsed,
    )
    if run.state is not None and oracle is not None:
        diff = _states_equal(oracle, run.state)
        if diff is not None:
            out.status, out.detail = "wrong-answer", f"{detail}; {diff}"[:300]
    return finalize(out, report=report)
