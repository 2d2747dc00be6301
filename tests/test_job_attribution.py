"""Job attribution across a multi-run process (satellite coverage):
FaultToleranceExhausted carries the job id, the abort telemetry event is
stamped with it, and the shm namespace is a pure function of the run id."""

import pytest

from repro.algorithms import EditDistance
from repro.comm.shm import run_prefix
from repro.comm.transport import channel_pair
from repro.obs.recorder import EventRecorder
from repro.runtime.config import RunConfig
from repro.runtime.master import MasterPart
from repro.schedulers.policy import make_policy
from repro.utils.errors import FaultToleranceExhausted


def _master(job_id=None, obs=None):
    problem = EditDistance.random(16, 16, seed=0)
    config = RunConfig(backend="threads", nodes=2, task_timeout=1.0, run_id=job_id)
    proc_size, _ = config.partitions_for(problem)
    partition = problem.build_partition(proc_size)
    policy = make_policy("dynamic", 1, partition.grid.n_block_cols)
    master_end, slave_end = channel_pair()
    master = MasterPart(problem, partition, [master_end], policy, config, obs=obs)
    return master, slave_end


class TestExceptionAttribution:
    def test_str_prefixes_job_id(self):
        exc = FaultToleranceExhausted("retry budget exhausted", job_id="job-42")
        assert str(exc) == "[job job-42] retry budget exhausted"

    def test_str_without_job_id_is_bare(self):
        exc = FaultToleranceExhausted("retry budget exhausted")
        assert str(exc) == "retry budget exhausted"
        assert exc.job_id is None

    def test_request_abort_stamps_job_id(self):
        master, _slave_end = _master(job_id="job-7")
        assert master.request_abort("operator cancelled")
        with pytest.raises(FaultToleranceExhausted) as info:
            master.run()
        assert info.value.job_id == "job-7"
        assert "[job job-7]" in str(info.value)
        assert "operator cancelled" in str(info.value)

    def test_request_abort_after_end_is_noop(self):
        master, _slave_end = _master(job_id="job-7")
        assert master.request_abort("first")
        assert not master.request_abort("second")

    def test_standalone_master_aborts_without_job_id(self):
        master, _slave_end = _master(job_id=None)
        master.request_abort("no daemon here")
        with pytest.raises(FaultToleranceExhausted) as info:
            master.run()
        assert info.value.job_id is None
        assert str(info.value) == "no daemon here"


class TestAbortTelemetry:
    def test_abort_event_carries_job_id(self):
        rec = EventRecorder()
        master, _slave_end = _master(job_id="job-abc", obs=rec)
        master.request_abort("deadline exceeded")
        aborts = [ev for ev in rec.events() if ev.kind == "abort"]
        assert len(aborts) == 1
        assert aborts[0].data["job_id"] == "job-abc"
        assert "deadline exceeded" in aborts[0].data["reason"]
        assert aborts[0].data["exc_type"] == "FaultToleranceExhausted"


class TestShmNamespace:
    def test_prefix_is_pure_function_of_run_id(self):
        assert run_prefix("job-3") == run_prefix("job-3") == "repro-job-3"
        assert run_prefix("job-3") != run_prefix("job-4")

    def test_prefix_sanitizes_hostile_run_ids(self):
        prefix = run_prefix("../../etc/passwd job!")
        assert prefix.startswith("repro-")
        assert "/" not in prefix and " " not in prefix and "!" not in prefix

    def test_anonymous_prefix_is_fresh_per_draw(self):
        import os

        a, b = run_prefix(), run_prefix()
        assert a != b
        assert str(os.getpid()) in a
