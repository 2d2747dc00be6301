"""EasyPDP compatibility layer — the authors' prior shared-memory runtime.

EasyPDP (Tang et al., TPDS 2012) is, by the EasyHPS paper's own framing,
exactly the thread-level half of EasyHPS running on one node: a DAG Data
Driven Model plus a dynamic thread worker pool with timeout-based thread
restart. :func:`run_easypdp` exposes that as a one-call API, implemented
by driving a single slave part over the whole (un-split) problem — no
master node, no message passing, one partition level.
"""

from __future__ import annotations

import time
from typing import Any, Optional, Tuple

from repro.algorithms.problem import DPProblem
from repro.analysis.report import RunReport
from repro.cluster.faults import FaultPlan, Faults
from repro.dag.partition import BlockShape, partition_pattern
from repro.runtime.config import RunConfig
from repro.runtime.slave import SlavePart
from repro.comm.messages import TaskAssign
from repro.comm.transport import channel_pair


def run_easypdp(
    problem: DPProblem,
    n_threads: int,
    partition_size: Optional[BlockShape] = None,
    *,
    scheduler: Optional[str] = None,
    subtask_timeout: Optional[float] = None,
    fault_plan: Optional[FaultPlan] = None,
) -> Tuple[Any, RunReport]:
    """Run one DP problem on a single shared-memory node, EasyPDP-style.

    ``partition_size`` is the (single) task partition size — EasyPDP has
    one level. The keywords left at None keep their
    :class:`~repro.runtime.config.RunConfig` defaults
    (``thread_scheduler``, ``subtask_timeout``); ``fault_plan`` is the
    thread-level slice of ``faults``.
    Returns ``(finalized_result, report)``.
    """
    overrides = dict(
        thread_scheduler=scheduler,
        subtask_timeout=subtask_timeout,
        faults=None if fault_plan is None else Faults(thread=fault_plan),
    )
    config = RunConfig(
        threads_per_node=n_threads,
        thread_partition=partition_size,
        **{k: v for k, v in overrides.items() if v is not None},
    )
    shape = getattr(problem.pattern(), "shape", None)
    whole = shape if shape is not None else (problem.pattern().n,) * 2
    # One "process-level block" covering everything; the thread level does
    # all the real partitioning — that *is* EasyPDP.
    partition = partition_pattern(problem.pattern(), whole)
    (root_bid,) = partition.block_ids()

    slave_end, _driver_end = channel_pair()
    part = SlavePart(0, slave_end, problem, partition, config)

    state = problem.make_state()
    started = time.perf_counter()
    inputs = problem.extract_inputs(state, partition, root_bid)
    outputs = part._compute(TaskAssign(task_id=root_bid, epoch=0, inputs=inputs))
    problem.apply_result(state, partition, root_bid, outputs)
    elapsed = time.perf_counter() - started

    report = RunReport(
        backend="easypdp",
        scheduler=config.thread_scheduler,
        algorithm=problem.name,
        nodes=1,
        threads_per_node=n_threads,
        makespan=elapsed,
        wall_time=elapsed,
        n_tasks=1,
        n_subtasks=part.stats.subtasks,
        thread_restarts=part.stats.thread_restarts,
        total_flops=problem.total_flops(partition),
    )
    return problem.finalize(state), report
