"""The offering step: an idle worker in, registered elements out.

A fake ``pop`` over a plain ready list drives the step against a real
:class:`DispatchCore` — no threads, no event queue — so each test reads
what the step popped, registered and recorded.
"""

from __future__ import annotations

import pytest

from repro import RunConfig
from repro.dag.library import WavefrontPattern
from repro.integrity import IntegrityPolicy
from repro.obs.clock import ManualClock
from repro.obs.recorder import EventRecorder
from repro.obs.schedule import ScheduleTracer
from repro.runtime.dispatch import DispatchCore, Requeue
from repro.runtime.offering import Offering
from repro.schedulers.policy import DynamicPolicy


class FakeShell:
    """A ready list, a pop that logs whether it may block, and a decide
    that logs how many events were recorded before and after its call."""

    def __init__(self, ready, integrity=None, n_workers=2, **config):
        self.core = DispatchCore(
            n_workers, task_timeout=10.0, max_retries=1, retry_backoff=0.0,
            retry_backoff_max=0.0, blacklist_threshold=None, lease_duration=None,
            integrity=integrity or IntegrityPolicy("digest"),
            pattern=WavefrontPattern(3, 3),
        )
        self.clock = ManualClock()
        self.obs = EventRecorder(self.clock)
        self.ready = list(ready)
        self.pops = []
        self.decisions = []
        #: Called before each pop (worker, pop count so far).
        self.before_pop = lambda worker, n: None
        self.offering = Offering(
            self.core, DynamicPolicy(n_workers), RunConfig(**config),
            ScheduleTracer(clock=self.clock, obs=self.obs),
            pop=self.pop, push=self.ready.append, decide=self.decide,
        )
        for task in self.ready:
            self.offering.note_ready(task)
        self.clock.advance(1.0)

    def pop(self, worker, first):
        self.before_pop(worker, len(self.pops))
        self.pops.append(first)
        return self.offering.pop_from(worker, self.ready)

    def decide(self, event, *args):
        before = len(self.obs.events())
        answer = event(*args)
        self.decisions.append((before, len(self.obs.events())))
        return answer

    def kinds(self):
        return [(ev.kind, ev.task_id) for ev in self.obs.events()]


FRONT = [(0, 2), (1, 1), (2, 0)]  # an anti-diagonal; LIFO takes (2, 0) first


def test_without_batch_wave_an_envelope_carries_one_task():
    shell = FakeShell(FRONT)
    offered = shell.offering.offer(0)
    assert [(t, reg.epoch, reg.worker_id) for t, reg in offered] == [((2, 0), 0, 0)]
    assert shell.pops == [True]
    assert shell.ready == FRONT[:2]
    assert "batch-assemble" not in [k for k, _ in shell.kinds()]


@pytest.mark.parametrize("max_batch", [1, 2, 8])
def test_under_batch_wave_the_cap_is_max_batch(max_batch):
    shell = FakeShell(FRONT, batch_wave=True, max_batch=max_batch)
    offered = shell.offering.offer(1)
    want = FRONT[::-1][:max_batch]
    assert [t for t, _ in offered] == want
    assert all(shell.core.is_live(t, reg.epoch) for t, reg in offered)
    # Only the first pop may block; a short ready list ends the wave with
    # one more (non-blocking) pop that finds nothing.
    assert shell.pops == [True] + [False] * (min(max_batch, len(FRONT) + 1) - 1)


def test_nothing_on_offer_is_an_empty_envelope():
    shell = FakeShell([], batch_wave=True)
    assert shell.offering.offer(0) == []
    assert shell.pops == [True] and shell.kinds() == []


def test_records_go_queue_wait_then_assign_then_batch_assemble():
    shell = FakeShell(FRONT[:2], batch_wave=True)
    shell.offering.offer(0)
    assert shell.kinds() == [
        ("queue-wait", (1, 1)), ("assign", (1, 1)),
        ("queue-wait", (0, 2)), ("assign", (0, 2)),
        ("batch-assemble", None),
    ]
    wait = shell.obs.events()[0]
    assert (wait.data["t0"], wait.data["t1"]) == (0.0, 1.0)
    assemble = shell.obs.events()[-1]
    assert (assemble.worker, assemble.data["n_tasks"]) == (0, 2)
    # One decide call registers a dispatch and writes its two records, so
    # on the master they are written under the core lock.
    assert shell.decisions == [(0, 2), (2, 4)]


def test_a_task_revoked_between_pop_and_registration_is_skipped():
    shell = FakeShell([(0, 0), (1, 0)])  # (1, 0) pops first
    shell.core.commit((0, 0), 0, 0, None)
    shell.core.taint((0, 0))
    offered = shell.offering.offer(0)
    assert [t for t, _ in offered] == [(0, 0)]
    assert shell.pops == [True, True]  # the retry still waits for a first task
    assert shell.ready == [] and shell.core.attempts((1, 0)) == 0


def test_a_worker_retired_mid_gather_gets_nothing():
    shell = FakeShell(FRONT, batch_wave=True)
    evicted = []

    def leave_on_second_pop(worker, n):
        if n == 1:
            actions = shell.core.worker_left(worker)
            evicted.extend(a.task for a in actions if isinstance(a, Requeue))

    shell.before_pop = leave_on_second_pop
    assert shell.offering.offer(0) == []
    # The first element was evicted by the retirement; the second, popped
    # after it, went back on offer.
    assert evicted == [(2, 0)] and not shell.core.is_live((2, 0))
    assert shell.ready == [(0, 2), (1, 1)]
    assert not shell.core.is_live((1, 1)) and shell.core.attempts((1, 1)) == 0
    assert "batch-assemble" not in [k for k, _ in shell.kinds()]


def test_a_vote_reoffer_is_passed_over_for_the_worker_that_voted():
    shell = FakeShell([], integrity=IntegrityPolicy("vote", vote_k=2))
    epoch = shell.core.dispatch((0, 0), 0, 0.0).epoch
    assert shell.core.result((0, 0), epoch, 0) == []
    shell.core.vote((0, 0), epoch, 0, "d", [0, 1])  # one ballot: re-offered
    shell.ready.append((0, 0))
    assert shell.offering.offer(0) == []  # worker 0 already voted on it
    assert shell.ready == [(0, 0)]
    ((task, reg),) = shell.offering.offer(1)
    assert (task, reg.epoch, reg.worker_id) == ((0, 0), 1, 1)
