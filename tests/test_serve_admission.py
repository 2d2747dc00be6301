"""Admission control: bounded queue, structured shedding, cancellation."""

import pytest

from repro.serve.admission import (
    SHED_DRAINING,
    SHED_QUEUE_FULL,
    AdmissionController,
)
from repro.serve.job import JobRecord, JobSpec
from repro.serve.policy import make_ordering_policy
from repro.utils.errors import ConfigError


def _record(job_id, tenant="t"):
    return JobRecord(job_id, JobSpec(tenant=tenant))


class TestBoundedQueue:
    def test_accepts_until_cap_then_sheds_with_reason(self):
        ctrl = AdmissionController(2)
        assert ctrl.admit(_record("a")).accepted
        assert ctrl.admit(_record("b")).accepted
        decision = ctrl.admit(_record("c", tenant="late"))
        assert not decision.accepted
        assert decision.reason.startswith(SHED_QUEUE_FULL)
        assert decision.job_id is None
        assert decision.queue_depth == 2
        assert ctrl.shed_by_tenant == {"late": 1}

    def test_capacity_must_be_positive(self):
        with pytest.raises(ConfigError):
            AdmissionController(0)

    def test_draining_sheds_everything(self):
        ctrl = AdmissionController(4)
        ctrl.admit(_record("a"))
        leftover = ctrl.drain()
        assert [r.job_id for r in leftover] == ["a"]
        decision = ctrl.admit(_record("b"))
        assert not decision.accepted
        assert decision.reason.startswith(SHED_DRAINING)
        assert ctrl.depth == 0


class TestQueueOps:
    def test_pop_next_respects_policy(self):
        ctrl = AdmissionController(8)
        for job_id, cost in (("a", 30.0), ("b", 5.0), ("c", 10.0)):
            rec = _record(job_id)
            rec.est_cost = cost
            ctrl.admit(rec)
        sjf = make_ordering_policy("sjf")
        popped = ctrl.pop_next(sjf, now=0.0)
        assert popped is not None and popped.job_id == "b"
        assert ctrl.depth == 2

    def test_pop_next_launchable_filter(self):
        ctrl = AdmissionController(8)
        ctrl.admit(_record("wide"))
        ctrl.admit(_record("narrow"))
        fifo = make_ordering_policy("fifo")
        popped = ctrl.pop_next(fifo, 0.0, launchable=lambda r: r.job_id == "narrow")
        assert popped is not None and popped.job_id == "narrow"
        assert ctrl.pop_next(fifo, 0.0, launchable=lambda r: False) is None
        assert ctrl.depth == 1

    def test_cancel_removes_only_queued(self):
        ctrl = AdmissionController(4)
        ctrl.admit(_record("a"))
        assert ctrl.cancel("a") is not None
        assert ctrl.cancel("a") is None
        assert ctrl.depth == 0

    def test_held_record_keeps_its_slot_but_cannot_be_popped(self):
        """The daemon holds a job until its WAL submit record is durable."""
        ctrl = AdmissionController(2)
        fifo = make_ordering_policy("fifo")
        a, b = _record("a"), _record("b")
        assert ctrl.admit(a, hold=True).accepted and ctrl.admit(b, hold=True).accepted
        assert ctrl.depth == 2 and not ctrl.admit(_record("c")).accepted
        assert ctrl.pop_next(fifo, 0.0) is None and not ctrl.wait_for_work(0.0)
        assert ctrl.publish(a) and ctrl.pop_next(fifo, 0.0) is a
        # A revoked hold frees the slot; a hold overtaken by a drain is
        # handed back to the submitter to cancel.
        assert ctrl.cancel("b") is b and not ctrl.publish(b) and ctrl.depth == 0
        d = _record("d")
        ctrl.admit(d, hold=True)
        assert ctrl.drain() == () and not ctrl.publish(d) and ctrl.depth == 0

    def test_requeue_goes_to_head(self):
        ctrl = AdmissionController(4)
        ctrl.admit(_record("a"))
        ctrl.admit(_record("b"))
        fifo = make_ordering_policy("fifo")
        popped = ctrl.pop_next(fifo, 0.0)
        assert popped.job_id == "a"
        ctrl.requeue(popped)
        assert ctrl.pop_next(fifo, 0.0).job_id == "a"

    def test_restore_bypasses_capacity(self):
        ctrl = AdmissionController(1)
        ctrl.admit(_record("a"))
        ctrl.restore(_record("recovered-1"))
        ctrl.restore(_record("recovered-2"))
        assert ctrl.depth == 3

    def test_wait_for_work_wakes_on_admit(self):
        ctrl = AdmissionController(4)
        assert not ctrl.wait_for_work(0.01)
        ctrl.admit(_record("a"))
        assert ctrl.wait_for_work(0.01)
