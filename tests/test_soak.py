"""Heavy soak tests: both fault levels at once, many workers, randomized.

Two families live here:

- ``TestCombinedFaultSoak`` (marked ``slow``, runs in the default suite):
  larger worker counts than any other test, simultaneous process-level
  and thread-level fault storms, and repeated runs checking determinism
  of the *results* (schedules may differ; answers may not).
- ``test_chaos_matrix`` (marked ``soak``, opt-in via ``-m soak``): the
  backend x fault-mix x scheduler campaign matrix. Every cell runs a
  seeded chaos campaign and asserts the campaign invariant (oracle-match
  or clean abort, never a hang or a wrong answer). The matrix is
  time-budgeted: once ``REPRO_SOAK_BUDGET`` seconds (default 300) have
  elapsed, remaining cells skip instead of overrunning CI.
"""

import os
import time

import pytest

from repro import EasyHPS, RunConfig
from repro.algorithms import EditDistance, Nussinov
from repro.chaos.campaign import CampaignSpec, run_campaign
from repro.cluster.faults import FaultPlan, Faults


@pytest.mark.slow
class TestCombinedFaultSoak:
    def test_both_levels_random_storm(self):
        problem = EditDistance.random(70, 70, seed=11)
        config = RunConfig(
            nodes=5,
            threads_per_node=2,
            backend="threads",
            process_partition=14,
            thread_partition=7,
            task_timeout=0.6,
            subtask_timeout=0.3,
            poll_interval=0.005,
            faults=Faults(
                task=FaultPlan.random(0.2, seed=1),
                thread=FaultPlan.random(0.05, seed=2),
            ),
            max_retries=5,
        )
        run = EasyHPS(config).run(problem)
        assert run.value.distance == problem.reference()
        assert run.report.faults_recovered + run.report.thread_restarts > 0

    def test_many_workers_no_faults(self):
        problem = Nussinov.random(80, seed=12)
        run = EasyHPS(RunConfig(nodes=7, threads_per_node=3, backend="threads",
                                process_partition=10, thread_partition=5,
                                poll_interval=0.005)).run(problem)
        assert run.value.score == problem.reference()
        assert sum(run.report.tasks_per_worker.values()) == run.report.n_tasks

    def test_repeated_runs_agree(self):
        problem = EditDistance.random(60, 60, seed=13)
        config = RunConfig(nodes=4, threads_per_node=2, backend="threads",
                           process_partition=15, thread_partition=5,
                           poll_interval=0.005)
        values = {EasyHPS(config).run(problem).value.distance for _ in range(3)}
        assert values == {problem.reference()}


# -- chaos campaign matrix (opt-in: -m soak) ----------------------------------------

SOAK_BUDGET = float(os.environ.get("REPRO_SOAK_BUDGET", "300"))
_SOAK_START = time.monotonic()

FAULT_MIXES = {
    "task-only": dict(task_fault_p=0.15, message_p=0.0, worker_p_die=0.0, worker_p_slow=0.0),
    "message-only": dict(task_fault_p=0.0, message_p=0.15, worker_p_die=0.0, worker_p_slow=0.0),
    "worker-only": dict(task_fault_p=0.0, message_p=0.0, worker_p_die=0.25, worker_p_slow=0.25),
    "combined": dict(task_fault_p=0.1, message_p=0.1, worker_p_die=0.2, worker_p_slow=0.2),
    # Resource tier: I/O faults into the journal (and shm, on the cells
    # that enable it) with no distributed fault pressure, asserting the
    # degradation contract (oracle-match or attributed ResourceExhausted,
    # recoverable journal, clean /dev/shm) across schedulers.
    "resources": dict(
        task_fault_p=0.0, message_p=0.0, worker_p_die=0.0, worker_p_slow=0.0,
        resources=True, io_p_write=0.1, io_p_fsync=0.05, io_p_shm=0.2,
    ),
    # Resource + distributed pressure composed: journal degradation
    # racing worker deaths and message loss must still settle cleanly.
    "resources+combined": dict(
        task_fault_p=0.05, message_p=0.05, worker_p_die=0.1, worker_p_slow=0.1,
        resources=True, io_p_write=0.06, io_p_fsync=0.03, io_p_shm=0.1,
    ),
}

#: Static policies are included on purpose: with a dead or blacklisted
#: worker, statically-bound tasks can become unservable, and the cell
#: then asserts the clean-abort path instead of the recovery path.
SOAK_SCHEDULERS = ("dynamic", "bcw")
SOAK_BACKENDS = ("simulated", "threads", "processes")


def _budget_left() -> float:
    return SOAK_BUDGET - (time.monotonic() - _SOAK_START)


@pytest.mark.soak
@pytest.mark.parametrize("batch", [False, True], ids=["batch-off", "batch-on"])
@pytest.mark.parametrize("scheduler", SOAK_SCHEDULERS)
@pytest.mark.parametrize("mix", sorted(FAULT_MIXES))
@pytest.mark.parametrize("backend", SOAK_BACKENDS)
def test_chaos_matrix(backend, mix, scheduler, batch):
    left = _budget_left()
    if left <= 0:
        pytest.skip(f"soak budget ({SOAK_BUDGET:.0f}s) exhausted")
    spec = CampaignSpec(
        backends=(backend,),
        seeds=2,
        size=40,
        scheduler=scheduler,
        run_timeout=min(60.0, max(10.0, left)),
        batch_wave=batch,
        # Batched processes cells also flip the shm plane on, so the
        # chaos surface covers BatchAssign/BatchResult envelopes carrying
        # BlockRef payloads (and the segment-leak invariant on abort).
        shm=batch and backend == "processes",
        **FAULT_MIXES[mix],
    )
    run_campaign(spec).raise_if_failed()
