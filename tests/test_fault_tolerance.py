"""Integration tests for the hierarchical fault tolerance (Figs 10 and 12).

Faults are injected deterministically; every scenario must still produce
a result identical to the serial reference, with the recovery visible in
the run report.
"""

import pytest

from repro import EasyHPS, RunConfig
from repro.algorithms import EditDistance
from repro.cluster.faults import FaultPlan, FaultRule, Faults
from repro.utils.errors import FaultToleranceExhausted


@pytest.fixture
def problem():
    return EditDistance.random(50, 50, seed=4)


def cfg(**kw):
    base = dict(
        nodes=3,
        threads_per_node=1,
        backend="threads",
        process_partition=16,
        thread_partition=8,
        task_timeout=0.4,
        poll_interval=0.005,
    )
    base.update(kw)
    return RunConfig(**base)


class TestProcessLevelRecovery:
    def test_single_crash_redistributed(self, problem):
        plan = FaultPlan([FaultRule("crash", (0, 0), 0)])
        run = EasyHPS(cfg(faults=Faults(task=plan))).run(problem)
        assert run.value.distance == problem.reference()
        assert run.report.faults_recovered >= 1

    def test_multiple_crashes(self, problem):
        plan = FaultPlan([FaultRule("crash", (0, 0), 0), FaultRule("crash", (1, 1), 0),
                          FaultRule("crash", (2, 3), 0)])
        run = EasyHPS(cfg(faults=Faults(task=plan))).run(problem)
        assert run.value.distance == problem.reference()
        assert run.report.faults_recovered >= 3

    def test_repeated_crash_until_retry_budget(self, problem):
        # Fails on attempts 0 and 1, succeeds on 2 — within max_retries=3.
        plan = FaultPlan([FaultRule("crash", (0, 0), 0), FaultRule("crash", (0, 0), 1)])
        run = EasyHPS(cfg(faults=Faults(task=plan))).run(problem)
        assert run.value.distance == problem.reference()
        assert run.report.faults_recovered >= 2

    def test_hang_produces_stale_result_that_is_dropped(self, problem):
        plan = FaultPlan([FaultRule("hang", (0, 0), 0, duration=0.9)])
        run = EasyHPS(cfg(faults=Faults(task=plan))).run(problem)
        assert run.value.distance == problem.reference()
        assert run.report.faults_recovered >= 1

    def test_exhausted_retries_abort(self, problem):
        rules = [FaultRule("crash", (0, 0), k) for k in range(10)]
        with pytest.raises(FaultToleranceExhausted):
            EasyHPS(cfg(faults=Faults(task=FaultPlan(rules)), max_retries=1)).run(problem)


class TestThreadLevelRecovery:
    def test_thread_restart_recovers(self, problem):
        tplan = FaultPlan([FaultRule("crash", (0, 0), 0)])
        run = EasyHPS(
            cfg(
                threads_per_node=2,
                faults=Faults(thread=tplan),
                subtask_timeout=0.3,
                task_timeout=30.0,
            )
        ).run(problem)
        assert run.value.distance == problem.reference()
        assert run.report.thread_restarts >= 1

    def test_both_levels_together(self, problem):
        plan = FaultPlan([FaultRule("crash", (1, 0), 0)])
        tplan = FaultPlan([FaultRule("crash", (1, 1), 0)])
        run = EasyHPS(
            cfg(
                threads_per_node=2,
                faults=Faults(task=plan, thread=tplan),
                subtask_timeout=0.3,
                task_timeout=1.5,
            )
        ).run(problem)
        assert run.value.distance == problem.reference()
        assert run.report.faults_recovered >= 1
        assert run.report.thread_restarts >= 1


class TestRandomFaultSoak:
    """Randomized crash storms: correctness must survive any fault mix."""

    @pytest.mark.parametrize("p,seed", [(0.1, 1), (0.25, 2), (0.4, 3)])
    def test_threads_backend_survives_crash_storm(self, problem, p, seed):
        plan = FaultPlan.random(p, seed=seed)
        run = EasyHPS(cfg(faults=Faults(task=plan), nodes=4)).run(problem)
        assert run.value.distance == problem.reference()

    def test_simulated_backend_survives_crash_storm(self):
        from repro.algorithms import SmithWatermanGG
        from repro.backends.simulated import run_simulated

        sw = SmithWatermanGG.random(800, seed=7)
        config = RunConfig.experiment(
            4, 16, process_partition=100, thread_partition=25,
            faults=Faults(task=FaultPlan.random(0.3, seed=9)), task_timeout=1.0,
        )
        _, rep = run_simulated(sw, config)
        assert rep.faults_recovered > 0
        assert rep.n_tasks == 64


class TestSimulatedFaults:
    def test_crash_recovery_in_simulation(self):
        from repro.algorithms import SmithWatermanGG
        from repro.backends.simulated import run_simulated

        sw = SmithWatermanGG.random(400, seed=6)
        plan = FaultPlan([FaultRule("crash", (0, 0), 0)])
        config = RunConfig.experiment(
            3, 11, process_partition=100, thread_partition=25,
            faults=Faults(task=plan), task_timeout=1.0,
        )
        _, rep = run_simulated(sw, config)
        assert rep.faults_recovered == 1

        _, clean = run_simulated(sw, RunConfig.experiment(
            3, 11, process_partition=100, thread_partition=25))
        assert rep.makespan > clean.makespan  # recovery costs time

    def test_hang_recovery_in_simulation(self):
        from repro.algorithms import SmithWatermanGG
        from repro.backends.simulated import run_simulated

        sw = SmithWatermanGG.random(400, seed=6)
        plan = FaultPlan([FaultRule("hang", (1, 1), 0)])
        config = RunConfig.experiment(
            3, 11, process_partition=100, thread_partition=25,
            faults=Faults(task=plan), task_timeout=1.0,
        )
        _, rep = run_simulated(sw, config)
        assert rep.faults_recovered == 1

    def test_simulated_retry_exhaustion(self):
        from repro.algorithms import SmithWatermanGG
        from repro.backends.simulated import run_simulated

        sw = SmithWatermanGG.random(200, seed=6)
        rules = [FaultRule("crash", (0, 0), k) for k in range(10)]
        config = RunConfig.experiment(
            3, 11, process_partition=100, thread_partition=25,
            faults=Faults(task=FaultPlan(rules)), task_timeout=0.5, max_retries=2,
        )
        with pytest.raises(FaultToleranceExhausted):
            run_simulated(sw, config)
