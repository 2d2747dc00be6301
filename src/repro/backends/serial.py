"""Serial reference backend.

Drains the process-level DAG in topological order, computing each block's
inner DAG serially too. This is the correctness oracle for the parallel
backends and the wall-time baseline for measured speedups.
"""

from __future__ import annotations

import time
from typing import Dict, Tuple

import numpy as np

from repro.algorithms.problem import DPProblem
from repro.analysis.report import RunReport
from repro.comm.serialization import (
    MESSAGE_ENVELOPE_BYTES,
    content_digest,
    payload_nbytes,
)
from repro.durable.journal import snapshot_state
from repro.integrity import fold_commit, run_digest_hex
from repro.runtime.assembly import RunAssembly
from repro.runtime.config import RunConfig


def run_serial(
    problem: DPProblem, config: RunConfig, resume=None
) -> Tuple[Dict[str, np.ndarray], RunReport]:
    """Execute ``problem`` serially under ``config``'s partition sizes.

    Journals through the same write-ahead path as the parallel backends
    when ``config.journal_path`` is set, and skips already-committed
    blocks when resuming (``resume`` is a
    :class:`~repro.durable.recovery.RecoveredRun`).
    """
    asm = RunAssembly(config, problem, resume)
    partition, thread_size = asm.partition, asm.thread_size
    state = problem.make_state() if resume is None else resume.state
    committed = dict(resume.committed) if resume is not None else {}
    # The oracle emits the same task lifecycle as the parallel backends
    # (one virtual worker, node 0) so traces are structurally comparable.
    recorder, metrics = asm.recorder, asm.metrics
    journal = asm.open_journal()
    if recorder is not None and committed:
        recorder.emit("resume", None, node=0, n_committed=len(committed))
    # The oracle folds the same rolling run digest as the parallel
    # backends (epoch-free, so the folds compare directly); resumed runs
    # continue from the journal's fold.
    digest_on = config.integrity != "off"
    digest_acc = 0
    digests: Dict = {}
    if digest_on and resume is not None:
        if resume.run_digest:
            digest_acc = int(resume.run_digest, 16)
        digests.update(resume.scan.commit_digests)
    started = time.perf_counter()
    n_subtasks = 0
    try:
        n_subtasks, digest_acc = _drain(
            problem, partition, state, committed, journal,
            recorder, metrics, thread_size, digest_on, digest_acc, digests,
        )
        if journal is not None:
            journal.end(run_digest=run_digest_hex(digest_acc) if digest_on else None)
    finally:
        if journal is not None:
            journal.close()
    elapsed = time.perf_counter() - started
    report = RunReport(
        backend="serial",
        scheduler="none",
        algorithm=problem.name,
        nodes=1,
        threads_per_node=1,
        makespan=elapsed,
        wall_time=elapsed,
        n_tasks=partition.n_blocks,
        n_subtasks=n_subtasks,
        total_flops=problem.total_flops(partition),
        run_digest=run_digest_hex(digest_acc) if digest_on else None,
    )
    return state, asm.finish(report)


def _drain(
    problem, partition, state, committed, journal,
    recorder, metrics, thread_size, digest_on, digest_acc, digests,
) -> Tuple[int, int]:
    """Topological drain of the remaining (uncommitted) blocks."""
    n_subtasks = 0
    for bid in partition.abstract.topological_order():
        if bid in committed:
            continue  # recovered from the journal; already in state
        inputs = problem.extract_inputs(state, partition, bid)
        if recorder is not None:
            recorder.emit("assign", bid, epoch=0, node=0, worker=0)
            recorder.emit(
                "send", bid, epoch=0, node=0, worker=0,
                nbytes=MESSAGE_ENVELOPE_BYTES + payload_nbytes(inputs),
            )
        evaluator = problem.evaluator(partition, bid, inputs)
        inner = partition.sub_partition(bid, thread_size)
        n_subtasks += inner.n_blocks
        t0 = recorder.clock.now() if recorder is not None else 0.0
        outputs = evaluator.run_serial(inner)
        if recorder is not None:
            t1 = recorder.clock.now()
            recorder.emit("compute", bid, epoch=0, node=0, worker=0, t0=t0, t1=t1)
            recorder.emit(
                "result", bid, epoch=0, node=0, worker=0,
                nbytes=MESSAGE_ENVELOPE_BYTES + payload_nbytes(outputs),
                elapsed=t1 - t0,
            )
            recorder.emit("commit", bid, epoch=0, node=0, worker=0)
            if metrics is not None:
                metrics.counter("serial.tasks_completed").inc()
        digest = None
        if digest_on:
            if recorder is not None:
                d0 = recorder.clock.now()
                digest = content_digest(outputs)
                d1 = recorder.clock.now()
                recorder.emit(
                    "digest-compute", bid, epoch=0, node=0, worker=0,
                    t0=d0, t1=d1, hop="commit",
                )
            else:
                digest = content_digest(outputs)
            digest_acc = fold_commit(digest_acc, bid, digest)
            digests[bid] = digest
        if journal is not None:
            if recorder is not None:
                j0 = recorder.clock.now()
                jbytes = journal.commit(bid, 0, outputs, digest=digest)
                j1 = recorder.clock.now()
                recorder.emit(
                    "journal-write", bid, epoch=0, node=0, worker=0,
                    t0=j0, t1=j1, nbytes=jbytes,
                )
            else:
                journal.commit(bid, 0, outputs, digest=digest)  # write-ahead of the merge
        problem.apply_result(state, partition, bid, outputs)
        committed[bid] = 0
        if journal is not None and journal.should_checkpoint():
            c0 = recorder.clock.now() if recorder is not None else 0.0
            nbytes = journal.checkpoint(
                snapshot_state(state), committed, {t: 1 for t in committed},
                run_digest=run_digest_hex(digest_acc) if digest_on else None,
                commit_digests=dict(digests) if digest_on else None,
            )
            if recorder is not None:
                c1 = recorder.clock.now()
                recorder.emit(
                    "checkpoint", None, node=0, t0=c0, t1=c1,
                    n_committed=len(committed), nbytes=nbytes,
                )
    return n_subtasks, digest_acc
