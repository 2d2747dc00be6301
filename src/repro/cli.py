"""Command-line interface: ``python -m repro <command>``.

Commands:

- ``info``      — version, pattern library, bundled algorithms, backends;
- ``run``       — execute one algorithm on a real backend and print the
                  result plus the run report;
- ``simulate``  — replay an Experiment_X_Y on the simulated cluster,
                  optionally rendering the schedule as a Gantt chart;
- ``stats``     — digest a telemetry trace file (``--trace-out``):
                  per-worker busy/idle, bytes on wire, fault counts;
- ``perf``      — profile trace files (critical path, scheduling
                  efficiency, per-lane time attribution, link-model
                  calibration, what-if replay);
- ``check``     — run the static verifier (:mod:`repro.check`) over
                  built-in patterns/algorithms, one pattern, or one
                  algorithm; ``--selftest`` proves the checkers catch
                  seeded defects. Exit code 1 on any diagnostic;
- ``chaos``     — seeded fault campaign (:mod:`repro.chaos`): N runs per
                  backend under message/worker/task faults, each
                  asserting oracle-equal-or-clean-abort plus the trace
                  invariants. Exit code 1 when the invariant breaks;
                  ``--artifact-dir`` saves failing runs' Perfetto traces.
                  ``--kill-master-at P`` switches to kill-master mode:
                  crash the journaling master at a seeded commit within
                  the first P fraction of the run, resume the journal,
                  and assert oracle-match plus the resume invariants.
                  ``--sdc`` switches to silent-data-corruption mode:
                  lying workers and digest-evading bitflips under the
                  ``--integrity`` defense (default ``audit``), asserting
                  the run still converges oracle-identical or aborts
                  cleanly — with ``--integrity off`` the same seeds
                  demonstrate the wrong answers the defenses prevent;
- ``resume``    — reconstruct master state from a write-ahead commit
                  journal (``repro run --journal run.journal``) and
                  continue the run to completion (:mod:`repro.durable`).

Exit codes: 0 success; 1 failed checks / campaign violations; 2 argparse
usage errors; **3** a run that ended in
:class:`~repro.utils.errors.FaultToleranceExhausted` (the retry budget or
every worker was exhausted — a clean, reported abort, not a traceback).
Resumed runs use the same contract: ``repro resume`` exits 0 when the
continued run completes (including a journal that was already complete)
and 3 when the continuation itself exhausts fault tolerance. A
truncated or corrupted journal tail is reported as a diagnostic and the
resume falls back to the last intact record — never a traceback.

``run`` and ``simulate`` accept ``--trace-out out.json``: the run records
the full task-lifecycle telemetry (:mod:`repro.obs`) and exports it as
Chrome/Perfetto trace-event JSON — open https://ui.perfetto.dev and drop
the file in, or feed it back to ``repro stats``.
"""

from __future__ import annotations

import argparse
import sys

from repro import EasyHPS, RunConfig, __version__
from repro.algorithms import ALGORITHMS, DPProblem, make_problem
from repro.utils.errors import ConfigError, FaultToleranceExhausted

#: Exit code of ``run``/``simulate``/``chaos`` runs that ended in a clean
#: :class:`FaultToleranceExhausted` abort (documented above).
EXIT_FAULT_EXHAUSTED = 3

#: Exit code of ``repro submit`` when the daemon shed the job (bounded
#: queue full, daemon draining, or invalid spec) — the structured
#: rejection is printed; retrying later is the client's call.
EXIT_SHED = 4


def cmd_info(_args: argparse.Namespace) -> int:
    from repro.dag.library import PATTERN_LIBRARY
    from repro.runtime.config import BACKENDS
    from repro.schedulers.policy import POLICIES

    print(f"repro {__version__} — EasyHPS reproduction (IPPS 2013)")
    print(f"  backends   : {', '.join(BACKENDS)}")
    print(f"  schedulers : {', '.join(POLICIES)}")
    print(f"  patterns   : {', '.join(sorted(PATTERN_LIBRARY))}")
    print(f"  algorithms : {', '.join(sorted(ALGORITHMS))}")
    return 0


def _build_problem(args: argparse.Namespace) -> DPProblem:
    try:
        return make_problem(args.algo, args.size, args.seed)
    except ConfigError as exc:
        raise SystemExit(str(exc)) from None


def _export_trace(report, trace_out: str | None, extra_meta: dict | None = None) -> None:
    """Write the report's telemetry to a Perfetto-loadable trace file.

    ``extra_meta`` carries the workload coordinates (size, seed,
    partition) that let ``repro perf`` rebuild the DP DAG from the trace
    file alone for critical-path analysis.
    """
    if not trace_out:
        return
    if report.events is None:
        print("no telemetry recorded; nothing written", file=sys.stderr)
        return
    from repro.obs import write_trace

    meta = {
        "backend": report.backend,
        "algorithm": report.algorithm,
        "scheduler": report.scheduler,
        "nodes": report.nodes,
    }
    if extra_meta:
        meta.update(extra_meta)
    write_trace(trace_out, report.events, metrics=report.metrics, meta=meta)
    print(f"trace written: {trace_out} ({len(report.events)} events; "
          f"open at https://ui.perfetto.dev or `repro stats {trace_out}`)")


def _workload_meta(config: RunConfig, problem: DPProblem, **coords) -> dict:
    """The workload coordinates ``repro perf`` needs to rebuild the DAG:
    ``coords`` (size, seed) plus the run's partitions."""
    proc, thread = config.partitions_for(problem)
    return dict(coords, process_partition=list(proc), thread_partition=list(thread))


def cmd_run(args: argparse.Namespace) -> int:
    problem = _build_problem(args)
    overrides = {}
    if args.integrity is not None:
        overrides["integrity"] = args.integrity
    if args.audit_fraction is not None:
        overrides["audit_fraction"] = args.audit_fraction
    config = RunConfig(
        nodes=args.nodes,
        threads_per_node=args.threads,
        backend=args.backend,
        scheduler=args.scheduler,
        verify=args.verify,
        observe=args.observe or bool(args.trace_out),
        journal_path=args.journal,
        **overrides,
    )
    if args.audit_fraction is not None and config.integrity != "audit":
        raise SystemExit("--audit-fraction requires --integrity audit")
    run = EasyHPS(config).run(problem)
    print(run.report.summary())
    print(f"result: {run.value!r}"[:500])
    if args.journal:
        print(f"journal written: {args.journal} (continue with `repro resume {args.journal}`)")
    meta = _workload_meta(config, problem, size=args.size, seed=args.seed)
    _export_trace(run.report, args.trace_out, meta)
    return 0


def cmd_resume(args: argparse.Namespace) -> int:
    """Continue a journaled run: ``repro resume run.journal``.

    Exits 0 when the continued run completes (a journal that already
    covers the whole DAG short-circuits to the recovered result) and 3
    when the continuation exhausts fault tolerance — the same contract
    as ``repro run``.
    """
    from dataclasses import replace

    from repro.durable import recover
    from repro.utils.errors import JournalError

    try:
        rec = recover(args.journal)
    except JournalError as exc:
        raise SystemExit(f"cannot resume {args.journal!r}: {exc}") from exc
    print(rec.summary())
    if rec.truncated:
        # A torn tail (master died mid-append) is expected after a hard
        # kill; the scan already fell back to the last intact record.
        print(f"note: {rec.diagnostic}", file=sys.stderr)
    overrides = {}
    if args.backend:
        overrides["backend"] = args.backend
    if args.observe or args.trace_out:
        overrides["observe"] = True
    config = replace(rec.config, **overrides) if overrides else rec.config
    run = EasyHPS(config).run(rec.problem, resume=rec)
    print(run.report.summary())
    print(f"result: {run.value!r}"[:500])
    if args.check_oracle:
        if run.state is None:
            print("oracle check skipped: backend computes no state", file=sys.stderr)
        else:
            # The oracle must reuse the journaled run's partition and
            # integrity mode: the state diff is decomposition-agnostic,
            # but the run-digest fold is over per-*block* boundary
            # digests, so a different process_partition folds different
            # payloads even for an identical final state.
            oracle = EasyHPS(
                RunConfig(
                    backend="serial",
                    process_partition=rec.config.process_partition,
                    thread_partition=rec.config.thread_partition,
                    integrity=rec.config.integrity,
                )
            ).run(rec.problem)
            import numpy as np

            mismatch = [
                key for key in sorted(oracle.state)
                if not np.array_equal(oracle.state[key], run.state[key])
            ]
            if mismatch:
                print(f"ORACLE MISMATCH in state keys {mismatch}", file=sys.stderr)
                return 1
            print("oracle check: resumed state identical to serial oracle")
            # The rolling run digest is epoch-free and order-independent,
            # so the resumed fold (journal prefix + live commits) must
            # equal a fresh serial fold of the same instance bit-for-bit.
            ours, theirs = run.report.run_digest, oracle.report.run_digest
            if ours is not None and theirs is not None:
                if ours != theirs:
                    print(
                        f"RUN DIGEST MISMATCH: resumed {ours} != oracle {theirs}",
                        file=sys.stderr,
                    )
                    return 1
                print(f"oracle check: run digest matches ({ours})")
    # The seed is not journaled; the recovered problem's size rebuilds its DAG.
    meta = _workload_meta(config, rec.problem, size=rec.problem.size)
    _export_trace(run.report, args.trace_out, meta)
    return 0


def cmd_calibrate(args: argparse.Namespace) -> int:
    """Fit the simulator's node rate to this machine's real kernels, and
    print the two measurements the default thread partition rests on: the
    cost-per-cell curve and the cost of a pool handoff."""
    from repro.algorithms.problem import MIN_REGION_EDGE
    from repro.analysis.calibration import (
        calibrate_node,
        calibration_report,
        ns_per_cell,
        pool_handoff_seconds,
        region_seconds,
    )

    problem = _build_problem(args)
    proc, thread = RunConfig(threads_per_node=1).partitions_for(problem)
    spec, samples = calibrate_node(problem, proc, thread, repeats=args.repeats)
    print(calibration_report(samples))
    print(f"calibrated NodeSpec: flops_per_second={spec.flops_per_second:.4g}")
    print("use it via RunConfig(cluster=ClusterSpec(compute_nodes=(spec, ...)))")
    for label, threads in (("whole", 1), ("half", 2), ("quarter", 4)):
        _, thread = RunConfig(threads_per_node=threads).partitions_for(problem)
        cuts = tuple(-(-edge // t) for edge, t in zip(proc, thread))
        ns = ns_per_cell(problem, proc, thread, repeats=args.repeats)
        print(
            f"{label}-block regions {thread} ({threads} thread(s) a node, "
            f"{cuts[0]} x {cuts[1]} a block): {ns:.1f} ns/cell"
        )
    one, per_region = pool_handoff_seconds(problem, proc, repeats=args.repeats)
    print(
        f"pool handoff on a {proc} block, 2 threads, pool - inline: {one * 1e3:.3f} ms "
        f"for one region, {per_region * 1e3:.3f} ms a region of a 2 x 2 cut"
    )
    edges = [e for e in (2, 4, 8, 16, 32, 64, 128, 256) if e < min(proc)] + [min(proc)]
    timed = region_seconds(problem, proc, edges, repeats=args.repeats)
    print("one region: " + ", ".join(f"{e}: {s * 1e3:.3f} ms" for e, s in timed))
    covers = next((e for e, s in timed if s >= per_region), None)
    print(
        f"a region first covers its handoff at edge {covers}"
        if covers is not None
        else f"no region of a {proc} block covers its handoff",
        f"(MIN_REGION_EDGE = {MIN_REGION_EDGE})",
    )
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    problem = _build_problem(args)
    config = RunConfig.experiment(
        args.nodes,
        args.cores,
        scheduler=args.scheduler,
        verify=args.verify,
        observe=args.observe or args.gantt or bool(args.trace_out),
    )
    run = EasyHPS(config).run(problem)
    print(run.report.summary())
    if args.gantt:
        from repro.analysis.gantt import render_gantt

        print(render_gantt(run.report.trace, width=72, makespan=run.report.makespan))
    meta = _workload_meta(config, problem, size=args.size, seed=args.seed)
    _export_trace(run.report, args.trace_out, meta)
    return 0


def _read_trace(path: str, keys: tuple) -> tuple:
    """``(events, metrics, meta, label)`` of a trace file, where ``label``
    joins its metadata values under ``keys`` ("" when it has none)."""
    from repro.obs import read_trace

    try:
        events, metrics, meta = read_trace(path)
    except (OSError, ValueError) as exc:
        raise SystemExit(f"cannot read trace {path!r}: {exc}") from exc
    label = "/".join(str(meta.get(k)) for k in keys if meta.get(k)) if meta else ""
    return events, metrics, meta, label


def cmd_stats(args: argparse.Namespace) -> int:
    """Digest a saved telemetry trace: ``repro stats trace.json``."""
    from repro.obs import text_summary

    events, metrics, _meta, label = _read_trace(args.trace, ("algorithm", "backend", "scheduler"))
    print(text_summary(events, metrics, title=label or "run stats"))
    return 0


def _pattern_from_meta(meta: dict | None):
    """Rebuild the trace's process-level DAG pattern from its workload
    metadata, or None when the trace predates the metadata (the profile
    then skips critical-path analysis instead of failing)."""
    if not meta:
        return None
    algo = meta.get("algorithm")
    size = meta.get("size")
    pp = meta.get("process_partition")
    if algo is None or size is None or pp is None:
        return None
    factory = ALGORITHMS.get(str(algo))
    if factory is None:
        return None
    try:
        problem = factory(int(size), int(meta.get("seed", 0)))
        shape = tuple(int(v) for v in pp) if isinstance(pp, (list, tuple)) else int(pp)
        return problem.build_partition(shape).abstract
    except Exception as exc:  # noqa: BLE001 - diagnostics beat a traceback here
        print(f"cannot rebuild DAG from trace metadata: {exc}", file=sys.stderr)
        return None


def cmd_perf(args: argparse.Namespace) -> int:
    """Profile traces.

    ``repro perf trace.json ...`` prints, per trace: the critical path
    and scheduling efficiency, the per-lane time-attribution table, the
    queue-wait distribution, a link-model fit vs the simulator's
    default, and what-if replay bounds.
    """
    from repro.analysis.calibration import fit_link, link_fit_report
    from repro.cluster.network import INFINIBAND_QDR
    from repro.obs.prof import build_profile, format_perf_report
    from repro.utils.errors import ConfigError

    if not args.traces:
        raise SystemExit("nothing to do: give trace files")

    for path in args.traces:
        events, _metrics, meta, label = _read_trace(path, ("algorithm", "backend"))
        pattern = _pattern_from_meta(meta)
        title = f"perf {path} [{label}]" if label else f"perf {path}"
        prof = build_profile(events, pattern)
        print(format_perf_report(prof, title=title, pattern=pattern))
        samples = prof.link_samples
        try:
            fit_link(samples)
        except ConfigError:
            pass  # too few / degenerate samples; skip the link section
        else:
            print(link_fit_report(samples, reference=INFINIBAND_QDR))
            print("  (reference = the simulator's default InfiniBand QDR link)")
        print()

    return 0


def cmd_check(args: argparse.Namespace) -> int:
    """Static verification; exit 0 iff everything checked out clean."""
    from repro.check.runner import check_algorithm, run_builtin_checks

    failed = 0
    checked = 0

    def show(name: str, report) -> None:
        nonlocal failed, checked
        checked += 1
        status = "ok" if report.ok else "FAIL"
        print(f"  {status:4s} {name}  ({report.checked} checks)")
        if not report.ok:
            failed += 1
            for d in report.diagnostics:
                print(f"       [{d.code}] {d.subject}: {d.message}"[:200])

    if args.selftest:
        from repro.check.fixtures import run_selftest

        print("checker self-test (seeded defects must be detected):")
        for name, code, detected in run_selftest():
            checked += 1
            status = "ok" if detected else "MISS"
            print(f"  {status:4s} {name}  (expects [{code}])")
            if not detected:
                failed += 1
    elif args.pattern is not None:
        from repro.dag.library import PATTERN_LIBRARY, get_pattern

        from repro.utils.errors import PatternError

        if args.pattern not in PATTERN_LIBRARY:
            raise SystemExit(
                f"unknown pattern {args.pattern!r}; library has {sorted(PATTERN_LIBRARY)}"
            )
        try:
            if args.pattern in ("triangular", "chain"):
                pattern = get_pattern(args.pattern, args.size)
            else:
                pattern = get_pattern(args.pattern, args.size, args.size)
        except PatternError as exc:
            raise SystemExit(f"cannot build pattern {args.pattern!r}: {exc}") from exc
        show(f"pattern:{args.pattern}-{args.size}", pattern.check())
    elif args.algo is not None:
        show(f"algorithm:{args.algo}", check_algorithm(_build_problem(args)))
    elif args.protocol:
        from repro.check.ast_lint import check_message_dispatch
        from repro.check.runner import conformance_cases

        try:
            cases = conformance_cases(size=args.size, seed=args.seed)
        except ConfigError as exc:
            raise SystemExit(str(exc)) from None
        show("lint:message-dispatch", check_message_dispatch())
        for name, report in cases:
            show(name, report)
    elif args.explore or args.replay is not None:
        from repro.check.explore import (
            ExploreConfig,
            check_exploration,
            replay_counterexample,
            scenario_by_name,
        )

        rows, cols = args.explore_grid
        cfg = ExploreConfig(rows=rows, cols=cols, workers=args.explore_workers)
        if args.replay is not None:
            from repro.obs.export import read_trace

            try:
                _events, _metrics, meta = read_trace(args.replay)
                scenario = scenario_by_name(cfg, str(meta["scenario"]))
                choices = [int(c) for c in meta["choices"]]
            except (OSError, ValueError, KeyError) as exc:
                raise SystemExit(
                    f"cannot replay {args.replay!r}: {exc}"
                ) from exc
            show(
                f"explore:replay:{scenario.name}",
                replay_counterexample(cfg, scenario, choices),
            )
        else:
            report, result = check_exploration(cfg, artifact_dir=args.artifact_dir)
            print(f"  exploration: {result.summary()}")
            for ce in result.violations:
                where = f" -> {ce.trace_path}" if ce.trace_path else ""
                print(f"       counterexample {ce.scenario} choices={list(ce.choices)}{where}")
            show("protocol:explore", report)
    else:  # --all-builtin (the default)
        for name, report in run_builtin_checks(algo_size=args.size, seed=args.seed):
            show(name, report)

    print(f"{checked} targets checked, {failed} failed")
    return 0 if failed == 0 else 1


def cmd_serve(args: argparse.Namespace) -> int:
    """Run the multi-tenant scheduler daemon until SIGTERM drains it."""
    import signal
    import threading

    from repro.serve.daemon import ServeDaemon
    from repro.serve.ipc import ServeServer
    from repro.serve.pressure import ResourceWatermarks

    import os as _os

    wal_dir = _os.path.dirname(args.journal) if args.journal else "."
    watermarks = ResourceWatermarks(
        min_disk_bytes=int(args.min_disk_mb * 1024 * 1024),
        min_memory_bytes=int(args.min_memory_mb * 1024 * 1024),
        max_fd_fraction=args.max_fd_fraction,
        path=wal_dir or ".",
    )
    daemon = ServeDaemon(
        workers=args.workers,
        queue_cap=args.queue_cap,
        policy=args.policy,
        policy_seed=args.policy_seed,
        wal_path=args.journal,
        job_journal_dir=args.job_journal_dir,
        resume=args.resume,
        fsync=args.fsync,
        grow_running=args.grow,
        threads_per_node=args.threads,
        task_timeout=args.task_timeout,
        job_timeout=args.job_timeout,
        keep_states=False,
        watermarks=watermarks,
        wal_compact_interval=args.wal_compact_interval,
        wal_keep_history=args.wal_keep_history,
    )
    daemon.start()
    server = ServeServer(daemon, args.socket)
    server.start()
    if daemon.resumed_jobs:
        print(f"resumed {daemon.resumed_jobs} unfinished jobs from {args.journal}")
    print(f"repro serve: listening on {args.socket} "
          f"({args.workers} workers, queue cap {args.queue_cap}, "
          f"policy {args.policy})", flush=True)

    stop = threading.Event()

    def _drain_signal(_signum: int, _frame: object) -> None:
        stop.set()

    signal.signal(signal.SIGTERM, _drain_signal)
    signal.signal(signal.SIGINT, _drain_signal)
    while not stop.wait(0.2):
        pass
    print("repro serve: draining (admission closed, finishing running jobs)",
          flush=True)
    clean = daemon.drain(timeout=args.drain_timeout)
    server.stop()
    print(f"repro serve: drained {'cleanly' if clean else 'WITH STRAGGLERS'}",
          flush=True)
    return 0 if clean else 1


def cmd_submit(args: argparse.Namespace) -> int:
    """Submit one job to a running daemon; exit 0 accepted, 4 shed."""
    import json as _json

    from repro.serve.ipc import submit_job

    spec = {
        "tenant": args.tenant,
        "algo": args.algo,
        "size": args.size,
        "seed": args.seed,
        "nodes": args.nodes,
        "scheduler": args.scheduler,
        "max_retries": args.max_retries,
    }
    if args.deadline is not None:
        spec["deadline"] = args.deadline
    if args.integrity is not None:
        spec["integrity"] = args.integrity
    decision = submit_job(args.socket, spec)
    print(_json.dumps(decision))
    return 0 if decision.get("accepted") else EXIT_SHED


def cmd_jobs(args: argparse.Namespace) -> int:
    """List a running daemon's jobs (or ``--stats`` per-tenant metrics)."""
    import json as _json

    from repro.serve.ipc import daemon_stats, list_jobs

    if args.stats:
        print(_json.dumps(daemon_stats(args.socket), indent=2, default=str))
        return 0
    jobs = list_jobs(args.socket)
    if args.json:
        print(_json.dumps(jobs, indent=2))
        return 0
    if not jobs:
        print("no jobs")
        return 0
    print(f"{'JOB':12s} {'TENANT':10s} {'ALGO':16s} {'SIZE':>5s} "
          f"{'STATUS':10s} DETAIL")
    for job in jobs:
        print(f"{job['job_id']:12s} {job['tenant']:10s} {job['algo']:16s} "
              f"{job['size']:5d} {job['status']:10s} {job['detail'][:60]}")
    return 0


def cmd_cancel(args: argparse.Namespace) -> int:
    """Cancel a queued or running job by id."""
    from repro.serve.ipc import cancel_job

    outcome = cancel_job(args.socket, args.job_id)
    print(f"{args.job_id}: {outcome}")
    return 0 if outcome in ("cancelled", "aborting") else 1


def _cmd_chaos_serve(args: argparse.Namespace) -> int:
    """Service-level campaign: ``repro chaos --serve --jobs 200``."""
    from repro.chaos.serve import ServeCampaignSpec, run_serve_campaign

    spec = ServeCampaignSpec(
        n_jobs=args.jobs,
        seed=args.first_seed,
        workers=args.serve_workers,
        policy=args.serve_policy,
        trace=args.trace,
        algo=args.algo,
        size_min=16,
        size_max=max(16, args.size),
        kill_daemon_at=args.kill_daemon_at if args.kill_daemon_at >= 0 else None,
        job_timeout=args.run_timeout,
    )
    result = run_serve_campaign(
        spec,
        artifact_dir=args.artifact_dir,
        progress=None if args.quiet else (lambda msg: print(f"  {msg}", flush=True)),
    )
    if args.quiet:
        print(result.summary())
    return 0 if result.ok else 1


def cmd_chaos(args: argparse.Namespace) -> int:
    """Seeded fault campaign: ``repro chaos --seeds 20 --backend threads``."""
    from repro.chaos import CampaignSpec, run_campaign

    if args.serve:
        return _cmd_chaos_serve(args)
    kwargs = {}
    if args.kill_master_at is not None:
        kwargs["kill_master_at"] = args.kill_master_at
        if not args.keep_pressure:
            # Kill-master mode isolates the crash/resume path by default;
            # --keep-pressure layers the usual fault plans on top.
            kwargs.update(
                message_p=0.0, worker_p_die=0.0, worker_p_slow=0.0, task_fault_p=0.0
            )
    if args.sdc:
        kwargs["sdc"] = True
        if not args.keep_pressure:
            # SDC mode isolates the silent tier by default: no deaths or
            # crashes competing for the retry budget, modest message
            # pressure so corrupt/bitflip still fire.
            kwargs.update(
                message_p=0.05, worker_p_die=0.0, worker_p_slow=0.0, task_fault_p=0.0
            )
    if args.resources:
        kwargs["resources"] = True
        kwargs.update(
            io_p_write=args.io_p_write,
            io_p_fsync=args.io_p_fsync,
            io_p_shm=args.io_p_shm,
        )
        if not args.keep_pressure:
            # Resource mode isolates the I/O fault tier by default so an
            # abort is attributable to resources, not to worker deaths
            # racing the retry budget.
            kwargs.update(
                message_p=0.0, worker_p_die=0.0, worker_p_slow=0.0, task_fault_p=0.0
            )
    if args.integrity is not None:
        if not args.sdc:
            raise SystemExit("--integrity requires --sdc")
        kwargs["integrity"] = args.integrity
    spec = CampaignSpec(
        backends=tuple(args.backend) if args.backend else ("simulated", "threads"),
        seeds=args.seeds,
        first_seed=args.first_seed,
        algo=args.algo,
        size=args.size,
        problem_seed=args.seed,
        run_timeout=args.run_timeout,
        **kwargs,
    )

    def progress(o) -> None:
        print(
            f"  {o.backend:10s} seed {o.seed:3d}: {o.status:10s} "
            f"({o.faults_injected} faults injected, {o.elapsed:.2f}s)",
            flush=True,
        )

    result = run_campaign(
        spec,
        artifact_dir=args.artifact_dir,
        progress=None if args.quiet else progress,
    )
    print(result.summary())
    return 0 if result.ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("info", help="show what this build provides").set_defaults(fn=cmd_info)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--algo", default="edit-distance", help="algorithm name (see `info`)")
        p.add_argument("--size", type=int, default=200, help="instance size")
        p.add_argument("--seed", type=int, default=0, help="instance seed")
        p.add_argument("--scheduler", default="dynamic", help="dynamic | dynamic-affinity | bcw | cw")

    def _add_obs_args(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--observe", action="store_true",
            help="record task-lifecycle telemetry (repro.obs) into the report",
        )
        p.add_argument(
            "--trace-out", metavar="PATH", default=None,
            help="write the telemetry as Perfetto trace JSON (implies --observe)",
        )

    run_p = sub.add_parser("run", help="run on a real backend")
    common(run_p)
    run_p.add_argument("--backend", default="threads", help="serial | threads | processes")
    run_p.add_argument("--nodes", type=int, default=3, help="total nodes incl. master")
    run_p.add_argument("--threads", type=int, default=2, help="computing threads per node")
    run_p.add_argument(
        "--verify", action="store_true", help="validate the schedule with the trace checker"
    )
    run_p.add_argument(
        "--journal", metavar="PATH", default=None,
        help="write-ahead commit journal; a killed run continues via `repro resume PATH`",
    )
    run_p.add_argument(
        "--integrity", default=None,
        choices=("off", "digest", "audit", "vote"),
        help="result-integrity mode (default: digest, or REPRO_INTEGRITY)",
    )
    run_p.add_argument(
        "--audit-fraction", type=float, default=None, metavar="F",
        help="with --integrity audit: fraction of commits recomputed (default 0.125)",
    )
    _add_obs_args(run_p)
    run_p.set_defaults(fn=cmd_run)

    res_p = sub.add_parser(
        "resume",
        help="continue a journaled run after a master crash (exit 0 on "
             "completion, 3 on fault-tolerance exhaustion)",
    )
    res_p.add_argument("journal", help="journal written by `repro run --journal`")
    res_p.add_argument(
        "--backend", default=None,
        help="override the journaled backend (serial | threads | processes | simulated)",
    )
    res_p.add_argument(
        "--check-oracle", action="store_true",
        help="diff the resumed state against a fresh serial run (exit 1 on mismatch)",
    )
    _add_obs_args(res_p)
    res_p.set_defaults(fn=cmd_resume)

    sim_p = sub.add_parser("simulate", help="replay Experiment_X_Y on the simulated cluster")
    common(sim_p)
    sim_p.add_argument("--nodes", type=int, default=4, help="X: total nodes")
    sim_p.add_argument("--cores", type=int, default=22, help="Y: total cores")
    sim_p.add_argument("--gantt", action="store_true", help="render the schedule")
    sim_p.add_argument(
        "--verify", action="store_true", help="validate the schedule with the trace checker"
    )
    _add_obs_args(sim_p)
    sim_p.set_defaults(fn=cmd_simulate)

    stats_p = sub.add_parser("stats", help="digest a telemetry trace file")
    stats_p.add_argument("trace", help="trace JSON written by --trace-out")
    stats_p.set_defaults(fn=cmd_stats)

    perf_p = sub.add_parser(
        "perf",
        help="profile traces (critical path, attribution, calibration)",
    )
    perf_p.add_argument(
        "traces", nargs="*",
        help="trace JSON files written by --trace-out; each gets a full profile",
    )
    perf_p.set_defaults(fn=cmd_perf)

    chk_p = sub.add_parser("check", help="statically verify patterns/partitions")
    target = chk_p.add_mutually_exclusive_group()
    target.add_argument(
        "--all-builtin",
        action="store_true",
        help="verify every built-in pattern and algorithm (the default)",
    )
    target.add_argument("--pattern", help="verify one library pattern by name")
    target.add_argument("--algo", help="verify one bundled algorithm by name")
    target.add_argument(
        "--selftest",
        action="store_true",
        help="prove the checkers catch seeded defects",
    )
    target.add_argument(
        "--protocol",
        action="store_true",
        help="lint the two receive loops and replay observed runs into the dispatch core",
    )
    target.add_argument(
        "--explore",
        action="store_true",
        help="systematically explore message-delivery orders of the simulated protocol",
    )
    chk_p.add_argument("--size", type=int, default=24, help="instance / pattern size")
    chk_p.add_argument("--seed", type=int, default=0, help="instance seed")
    chk_p.add_argument(
        "--artifact-dir",
        default=None,
        help="--explore: write violating interleavings here as replayable trace JSON",
    )
    chk_p.add_argument(
        "--replay",
        default=None,
        metavar="TRACE",
        help="--explore: re-execute one exported counterexample trace",
    )
    chk_p.add_argument(
        "--explore-grid",
        type=int,
        nargs=2,
        default=(3, 3),
        metavar=("ROWS", "COLS"),
        help="--explore: block grid of the explored wavefront (default 3 3)",
    )
    chk_p.add_argument(
        "--explore-workers",
        type=int,
        default=2,
        help="--explore: computing nodes of the explored cluster (default 2)",
    )
    chk_p.set_defaults(fn=cmd_check)

    cal_p = sub.add_parser("calibrate", help="fit the simulator to this machine")
    common(cal_p)
    cal_p.add_argument("--repeats", type=int, default=2, help="timing repeats per block")
    cal_p.set_defaults(fn=cmd_calibrate)

    chaos_p = sub.add_parser(
        "chaos", help="seeded fault campaign: oracle-or-clean-abort, never a hang"
    )
    chaos_p.add_argument("--seeds", type=int, default=10, help="seeded runs per backend")
    chaos_p.add_argument("--first-seed", type=int, default=0, help="first campaign seed")
    chaos_p.add_argument(
        "--backend",
        action="append",
        choices=("simulated", "threads", "processes"),
        help="repeatable; default: simulated + threads",
    )
    chaos_p.add_argument("--algo", default="edit-distance", help="algorithm under test")
    chaos_p.add_argument("--size", type=int, default=48, help="instance size")
    chaos_p.add_argument("--seed", type=int, default=0, help="instance seed")
    chaos_p.add_argument(
        "--run-timeout", type=float, default=60.0,
        help="per-run wall-clock deadline; exceeding it counts as a hang",
    )
    chaos_p.add_argument(
        "--kill-master-at", type=float, default=None, metavar="P",
        help="kill-master mode: crash the journaling master at a seeded "
             "commit within the first P (0<P<=1) fraction of the run, "
             "resume the journal, and assert oracle-match + resume invariants",
    )
    chaos_p.add_argument(
        "--keep-pressure", action="store_true",
        help="with --kill-master-at or --sdc: keep the usual "
             "message/worker/task fault pressure instead of isolating "
             "the mode's own fault tier",
    )
    chaos_p.add_argument(
        "--sdc", action="store_true",
        help="silent-data-corruption mode: lying workers + digest-evading "
             "bitflips, defended by --integrity; asserts "
             "oracle-identical-or-clean-abort",
    )
    chaos_p.add_argument(
        "--resources", action="store_true",
        help="resource-exhaustion mode: seeded ENOSPC/EIO/short-write/"
             "fsync faults on the journal and shm allocation failures, "
             "cycling the degrade ladder; asserts oracle-match or a clean "
             "attributed ResourceExhausted abort, a recoverable journal, "
             "and a clean /dev/shm",
    )
    chaos_p.add_argument(
        "--io-p-write", type=float, default=0.08, metavar="P",
        help="with --resources: per-append journal write-fault probability",
    )
    chaos_p.add_argument(
        "--io-p-fsync", type=float, default=0.04, metavar="P",
        help="with --resources: per-append fsync-fault probability",
    )
    chaos_p.add_argument(
        "--io-p-shm", type=float, default=0.15, metavar="P",
        help="with --resources: per-park shm allocation-fault probability",
    )
    chaos_p.add_argument(
        "--integrity", default=None,
        choices=("off", "digest", "audit", "vote"),
        help="with --sdc: integrity mode under test (default audit); "
             "'off' demonstrates the wrong answers the defenses prevent",
    )
    chaos_p.add_argument(
        "--artifact-dir", default=None,
        help="write failing runs' telemetry (and kill-mode journals) here",
    )
    chaos_p.add_argument("--quiet", action="store_true", help="suppress per-run lines")
    chaos_p.add_argument(
        "--serve", action="store_true",
        help="service-level campaign: multi-tenant jobs against an "
             "in-process serve daemon with worker kills, one sabotaged "
             "tenant, and a mid-campaign daemon kill + WAL resume",
    )
    chaos_p.add_argument("--jobs", type=int, default=40,
                         help="with --serve: jobs in the campaign trace")
    chaos_p.add_argument("--serve-workers", type=int, default=4,
                         help="with --serve: shared fleet size")
    chaos_p.add_argument("--serve-policy", default="fifo",
                         help="with --serve: queue ordering policy")
    chaos_p.add_argument("--trace", default="heavy-tail",
                         choices=("poisson-burst", "diurnal", "heavy-tail"),
                         help="with --serve: arrival-trace shape")
    chaos_p.add_argument(
        "--kill-daemon-at", type=float, default=0.5, metavar="P",
        help="with --serve: kill + resume the daemon after fraction P of "
             "submissions (negative disables)",
    )
    chaos_p.set_defaults(fn=cmd_chaos)

    def _socket_arg(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--socket", default="/tmp/repro-serve.sock",
            help="unix socket the daemon listens on",
        )

    serve_p = sub.add_parser(
        "serve", help="multi-tenant scheduler daemon over a shared worker fleet"
    )
    _socket_arg(serve_p)
    serve_p.add_argument("--workers", type=int, default=4, help="shared fleet size")
    serve_p.add_argument("--queue-cap", type=int, default=32,
                         help="bounded admission queue depth (overload sheds)")
    serve_p.add_argument("--policy", default="fifo",
                         choices=("fifo", "sjf", "hrrn", "fair", "lottery"),
                         help="queue ordering policy")
    serve_p.add_argument("--policy-seed", type=int, default=0,
                         help="seed for the lottery policy")
    serve_p.add_argument("--journal", metavar="PATH", default=None,
                         help="submission write-ahead log; enables --resume")
    serve_p.add_argument("--job-journal-dir", metavar="DIR", default=None,
                         help="per-job commit journals for mid-run resume")
    serve_p.add_argument("--resume", action="store_true",
                         help="replay the submission log after a daemon kill")
    serve_p.add_argument("--fsync", action="store_true",
                         help="fsync every journal record (OS-crash durable)")
    serve_p.add_argument("--grow", action="store_true",
                         help="attach idle workers to running jobs "
                              "(elastic membership)")
    serve_p.add_argument("--threads", type=int, default=2,
                         help="computing threads a block is shared among when "
                              "it is big enough to share (a smaller block is "
                              "computed by the fleet worker that received it)")
    serve_p.add_argument("--task-timeout", type=float, default=10.0,
                         help="per-task timeout inside each job")
    serve_p.add_argument("--job-timeout", type=float, default=None,
                         help="daemon-wide hard cap per job (clean abort past it)")
    serve_p.add_argument("--drain-timeout", type=float, default=60.0,
                         help="SIGTERM drain budget before aborting stragglers")
    serve_p.add_argument("--min-disk-mb", type=float, default=0.0,
                         help="shed admissions when free disk under the WAL "
                              "falls below this floor (0 disables)")
    serve_p.add_argument("--min-memory-mb", type=float, default=0.0,
                         help="shed admissions when available memory falls "
                              "below this floor (0 disables)")
    serve_p.add_argument("--max-fd-fraction", type=float, default=1.0,
                         help="shed admissions past this fraction of "
                              "RLIMIT_NOFILE (1.0 disables)")
    serve_p.add_argument("--wal-compact-interval", type=int, default=64,
                         help="compact the submission WAL every N finished "
                              "jobs (0 disables)")
    serve_p.add_argument("--wal-keep-history", type=int, default=64,
                         help="finished jobs kept across a WAL compaction")
    serve_p.set_defaults(fn=cmd_serve)

    submit_p = sub.add_parser("submit", help="submit one job to a running daemon")
    _socket_arg(submit_p)
    common(submit_p)
    submit_p.add_argument("--tenant", default="default", help="tenant the job bills to")
    submit_p.add_argument("--nodes", type=int, default=3,
                          help="requested cluster shape (master + nodes-1 workers)")
    submit_p.add_argument("--deadline", type=float, default=None,
                          help="seconds from start before a clean cancel")
    submit_p.add_argument("--max-retries", type=int, default=8,
                          help="per-job retry budget")
    submit_p.add_argument("--integrity", default=None,
                          choices=("off", "digest", "audit", "vote"),
                          help="integrity mode for this job")
    submit_p.set_defaults(fn=cmd_submit)

    jobs_p = sub.add_parser("jobs", help="list a running daemon's jobs")
    _socket_arg(jobs_p)
    jobs_p.add_argument("--json", action="store_true", help="machine-readable output")
    jobs_p.add_argument("--stats", action="store_true",
                        help="per-tenant wait/slowdown/shed metrics instead")
    jobs_p.set_defaults(fn=cmd_jobs)

    cancel_p = sub.add_parser("cancel", help="cancel a queued or running job")
    _socket_arg(cancel_p)
    cancel_p.add_argument("job_id", help="job id as shown by `repro jobs`")
    cancel_p.set_defaults(fn=cmd_cancel)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except FaultToleranceExhausted as exc:
        # A clean, designed abort — report it and exit with the documented
        # code instead of dumping a traceback.
        print(f"fault tolerance exhausted: {exc}", file=sys.stderr)
        return EXIT_FAULT_EXHAUSTED


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
