"""Happens-before trace validator (repro.check.trace_check).

Doctored traces over a 2x2 wavefront: each ordering violation the
fault-tolerance machinery could produce must surface with its named
diagnostic; a faithful schedule must verify clean.
"""

from repro.check import diagnostics as D
from repro.check.fixtures import duplicate_commit_trace, early_commit_trace
from repro.check.trace_check import check_trace
from repro.dag.library import WavefrontPattern
from repro.obs.clock import ManualClock
from repro.obs.recorder import ObsEvent
from repro.obs.schedule import ScheduleTracer


def ev(kind, task, epoch, seq, worker=0):
    return ObsEvent(kind, 0.0, task, epoch, worker=worker, seq=seq)


def clean_2x2_trace():
    """A faithful serialization of a 2x2 wavefront schedule."""
    return [
        ev("assign", (0, 0), 0, 0),
        ev("commit", (0, 0), 0, 1),
        ev("assign", (0, 1), 0, 2),
        ev("assign", (1, 0), 0, 3, worker=1),
        ev("commit", (1, 0), 0, 4, worker=1),
        ev("commit", (0, 1), 0, 5),
        ev("assign", (1, 1), 0, 6),
        ev("commit", (1, 1), 0, 7),
    ]


class TestCleanTraces:
    def test_faithful_schedule_passes(self):
        report = check_trace(clean_2x2_trace(), WavefrontPattern(2, 2))
        assert report.ok, report.summary()

    def test_redistribution_with_fresh_epoch_passes(self):
        pattern = WavefrontPattern(1, 2)
        events = [
            ev("assign", (0, 0), 0, 0),
            ev("commit", (0, 0), 0, 1),
            ev("assign", (0, 1), 0, 2),
            ev("redistribute", (0, 1), 0, 3),
            ev("assign", (0, 1), 1, 4, worker=1),
            ev("commit", (0, 1), 1, 5, worker=1),
            ev("stale-drop", (0, 1), 0, 6),
        ]
        report = check_trace(events, pattern)
        assert report.ok, report.summary()


class TestViolations:
    def test_early_assign(self):
        events = [
            ev("assign", (0, 0), 0, 0),
            # (1, 1) dispatched before any dependency committed:
            ev("assign", (1, 1), 0, 1, worker=1),
        ]
        report = check_trace(events, WavefrontPattern(2, 2), require_complete=False)
        assert report.has(D.EARLY_ASSIGN), report.summary()

    def test_early_commit_fixture(self):
        report = check_trace(*early_commit_trace(), require_complete=False)
        assert report.has(D.EARLY_COMMIT), report.summary()

    def test_duplicate_commit_fixture(self):
        report = check_trace(*duplicate_commit_trace(), require_complete=False)
        assert report.has(D.DUPLICATE_COMMIT), report.summary()

    def test_stale_commit_after_redistribution(self):
        pattern = WavefrontPattern(1, 1)
        events = [
            ev("assign", (0, 0), 0, 0),
            ev("redistribute", (0, 0), 0, 1),
            ev("assign", (0, 0), 1, 2),
            # Epoch 0 was cancelled; its commit must be flagged stale:
            ev("commit", (0, 0), 0, 3),
            ev("commit", (0, 0), 1, 4),
        ]
        report = check_trace(events, pattern, require_complete=False)
        assert report.has(D.STALE_COMMIT), report.summary()

    def test_lost_update(self):
        events = [ev("assign", (0, 0), 0, 0), ev("commit", (0, 0), 0, 1)]
        report = check_trace(events, WavefrontPattern(1, 2))
        assert report.has(D.LOST_UPDATE), report.summary()

    def test_unknown_task(self):
        events = [ev("assign", (7, 7), 0, 0)]
        report = check_trace(events, WavefrontPattern(2, 2), require_complete=False)
        assert report.has(D.UNKNOWN_TASK), report.summary()


class TestRecorder:
    """A verifying tracer records into an ordinary EventRecorder."""

    def test_sequence_numbers_are_dense(self):
        sched = ScheduleTracer(verify=True)
        sched.record("assign", (0, 0), 0, worker=2)
        sched.record("commit", (0, 0), 0, worker=2)
        events = sched.trace.events()
        assert [e.seq for e in events] == [0, 1]
        assert events[0].worker == 2
        assert len(sched.trace) == 2

    def test_rejects_unknown_kind(self):
        # Only ledger kinds reach the verify trace; the rest is telemetry.
        sched = ScheduleTracer(verify=True)
        sched.record("send", (0, 0), 0, nbytes=64)
        sched.record("teleport", (0, 0), 0)
        assert len(sched.trace) == 0

    def test_events_carry_the_tracer_scope_and_clock(self):
        clock = ManualClock(2.5)
        sched = ScheduleTracer(clock=clock, verify=True, node=1, scope="subtask")
        sched.record("assign", (0, 0), 0, worker=1)
        (e,) = sched.trace.events()
        assert (e.scope, e.node, e.ts) == ("subtask", 1, 2.5)

    def test_subtask_trace_replays_at_its_own_scope(self):
        # A slave pool's trace is all subtask scope; replayed at task scope
        # every region would read lost-update.
        sched = ScheduleTracer(verify=True, node=0, scope="subtask")
        sched.record("assign", (0, 0), 0, worker=0)
        sched.record("commit", (0, 0), 0, worker=0)
        sched.check(WavefrontPattern(1, 1), title="pool")  # raises on violations
        report = check_trace(sched.trace.events(), WavefrontPattern(1, 1))
        assert report.codes() == (D.LOST_UPDATE,)
