"""Verify-enabled integration runs (RunConfig.verify).

Every backend executes a full schedule with the happens-before trace
validator armed; any ordering violation would raise CheckError instead
of returning. Fault-injection scenarios exercise the redistribution and
stale-epoch paths under validation.
"""

import pytest

from repro import EasyHPS, RunConfig
from repro.algorithms import EditDistance, Nussinov
from repro.cluster.faults import FaultPlan, FaultRule, Faults, WorkerFaultPlan, WorkerFaultRule
from repro.utils.errors import ConfigError


@pytest.fixture
def problem():
    return EditDistance.random(40, 40, seed=6)


def cfg(**kw):
    base = dict(
        nodes=3,
        threads_per_node=2,
        backend="threads",
        process_partition=10,
        thread_partition=5,
        poll_interval=0.005,
        verify=True,
    )
    base.update(kw)
    return RunConfig(**base)


class TestVerifiedRuns:
    def test_threads_backend(self, problem):
        run = EasyHPS(cfg()).run(problem)
        assert run.value.distance == problem.reference()

    def test_threads_backend_triangular(self):
        problem = Nussinov.random(30, seed=8)
        run = EasyHPS(cfg(process_partition=8, thread_partition=4)).run(problem)
        assert run.value.score == problem.reference()

    def test_simulated_backend(self, problem):
        config = RunConfig.experiment(3, 9, verify=True)
        run = EasyHPS(config).run(problem)
        assert run.report.makespan > 0

    @pytest.mark.slow
    def test_processes_backend(self, problem):
        run = EasyHPS(cfg(backend="processes")).run(problem)
        assert run.value.distance == problem.reference()


class TestVerifiedFaultTolerance:
    def test_threads_process_crash_verifies(self, problem):
        plan = FaultPlan([FaultRule("crash", (0, 0), 0)])
        run = EasyHPS(cfg(task_timeout=0.4, faults=Faults(task=plan))).run(problem)
        assert run.value.distance == problem.reference()
        assert run.report.faults_recovered >= 1

    def test_threads_hang_stale_result_verifies(self, problem):
        plan = FaultPlan([FaultRule("hang", (0, 0), 0, duration=0.9)])
        run = EasyHPS(cfg(task_timeout=0.4, faults=Faults(task=plan))).run(problem)
        assert run.value.distance == problem.reference()

    def test_thread_level_fault_verifies(self, problem):
        plan = FaultPlan([FaultRule("crash", (1, 0), 0)])
        run = EasyHPS(
            cfg(subtask_timeout=0.3, faults=Faults(thread=plan))
        ).run(problem)
        assert run.value.distance == problem.reference()
        assert run.report.thread_restarts >= 1

    def test_simulated_crash_verifies(self, problem):
        config = RunConfig.experiment(
            3, 9, verify=True, task_timeout=5.0,
            faults=Faults(task=FaultPlan([FaultRule("crash", (0, 0), 0)])),
        )
        run = EasyHPS(config).run(problem)
        assert run.report.faults_recovered >= 1

    def test_simulated_hang_verifies(self, problem):
        config = RunConfig.experiment(
            3, 9, verify=True, task_timeout=0.001,
            faults=Faults(task=FaultPlan([FaultRule("hang", (0, 0), 0)])),
        )
        run = EasyHPS(config).run(problem)
        assert run.report.faults_recovered >= 1

    @pytest.mark.parametrize("backend", ["threads", "processes", "simulated"])
    def test_convicted_liar_taint_recompute_verifies(self, backend):
        # A taint recompute commits a block twice with an invalidation
        # between — legal, and the validator used to call it a duplicate.
        problem = EditDistance.random(24, 24, seed=0)
        liar = WorkerFaultPlan([WorkerFaultRule("liar", worker_id=1, after_tasks=1)])
        run = EasyHPS(
            cfg(
                backend=backend, process_partition=6, thread_partition=3,
                integrity="audit", audit_fraction=1.0, faults=Faults(worker=liar),
            )
        ).run(problem)
        assert run.report.tainted_recomputes >= 1
        if backend != "simulated":
            assert run.value.distance == problem.reference()


class TestConfigValidation:
    def test_verify_defaults_from_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_VERIFY", "1")
        assert RunConfig().verify is True
        monkeypatch.setenv("REPRO_VERIFY", "off")
        assert RunConfig().verify is False
        monkeypatch.delenv("REPRO_VERIFY")
        assert RunConfig().verify is False

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"faults": "nope"},
            {"faults": FaultPlan()},
            {"verify": "yes"},
            {"cluster": object()},
        ],
    )
    def test_bad_config_types_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            RunConfig(**kwargs)

    def test_bad_fault_rule_rejected(self):
        with pytest.raises(ConfigError):
            FaultRule("explode")
        with pytest.raises(ValueError):  # ConfigError subclasses ValueError
            FaultRule("crash", attempt=-1)
        with pytest.raises(ConfigError):
            FaultPlan.random(1.5)
        with pytest.raises(ConfigError):
            FaultPlan.random(True)
