"""Recorded streams replayed into the dispatch core (``check_trace``), and
the observed runs ``repro check --protocol`` replays."""

from dataclasses import dataclass

import pytest

from repro.check import diagnostics as D
from repro.check.runner import MIN_CONFORMANCE_SIZE, conformance_cases, conformance_configs
from repro.check.trace_check import check_trace
from repro.dag.library import WavefrontPattern
from repro.utils.errors import ConfigError


@dataclass
class Ev:
    """Duck-typed stand-in for an ObsEvent."""

    seq: int
    kind: str
    task_id: object = None
    epoch: int = 0
    worker: int = -1
    scope: str = "task"
    node: int = -1


def stream(*specs):
    return [Ev(seq=i, **spec) for i, spec in enumerate(specs)]


ONE_TASK = WavefrontPattern(1, 1)


def replay(*specs, pattern=ONE_TASK, complete=False):
    """Feed a doctored stream to the one replay, as a recorded run is."""
    return check_trace(stream(*specs), pattern, require_complete=complete)


class TestStrictConformance:
    """Streams the hand-written ``master-dispatch`` table used to walk,
    now replayed into a fresh ``DispatchCore``."""

    def test_clean_dispatch_cycle(self):
        assert replay(
            dict(kind="assign", task_id=(0, 0), worker=0),
            dict(kind="result", task_id=(0, 0), worker=0),
            dict(kind="commit", task_id=(0, 0), worker=0),
            complete=True,
        ).ok

    def test_commit_of_cancelled_epoch_flags(self):
        report = replay(
            dict(kind="assign", task_id=(0, 0), worker=0),
            dict(kind="redistribute", task_id=(0, 0)),
            dict(kind="commit", task_id=(0, 0), worker=0),
        )
        assert report.codes() == (D.STALE_COMMIT,)

    def test_reassign_after_cancel_needs_fresh_epoch(self):
        assert replay(
            dict(kind="assign", task_id=(0, 0), worker=0),
            dict(kind="redistribute", task_id=(0, 0)),
            dict(kind="assign", task_id=(0, 0), epoch=1, worker=1),
            dict(kind="commit", task_id=(0, 0), epoch=1, worker=1),
            complete=True,
        ).ok
        reused = replay(
            dict(kind="assign", task_id=(0, 0), worker=0),
            dict(kind="redistribute", task_id=(0, 0)),
            dict(kind="assign", task_id=(0, 0), epoch=0, worker=1),
        )
        assert reused.codes() == (D.PROTOCOL_ILLEGAL_TRANSITION,)

    def test_stale_drop_is_legal_everywhere_settled(self):
        assert replay(
            dict(kind="assign", task_id=(0, 0), worker=0),
            dict(kind="redistribute", task_id=(0, 0)),
            dict(kind="assign", task_id=(0, 0), epoch=1, worker=1),
            dict(kind="commit", task_id=(0, 0), epoch=1, worker=1),
            dict(kind="stale-drop", task_id=(0, 0), epoch=0, worker=0),
            complete=True,
        ).ok

    def test_dispatch_to_retired_worker_flags(self):
        report = replay(
            dict(kind="quarantine", worker=1),
            dict(kind="assign", task_id=(0, 0), worker=1),
        )
        assert report.codes() == (D.PROTOCOL_ILLEGAL_TRANSITION,)

    def test_taint_invalidate_reopens_dispatch(self):
        assert replay(
            dict(kind="assign", task_id=(0, 0), worker=0),
            dict(kind="commit", task_id=(0, 0), worker=0),
            dict(kind="taint-invalidate", task_id=(0, 0)),
            dict(kind="assign", task_id=(0, 0), epoch=1, worker=1),
            dict(kind="commit", task_id=(0, 0), epoch=1, worker=1),
            complete=True,
        ).ok

    def test_subtask_scope_events_are_out_of_scope(self):
        # Thread-level (subtask) kinds share names with the task-level
        # protocol but belong to another core (the slave pool's, replayed
        # from its own recorder): never fed to this one.
        assert replay(
            dict(kind="assign", task_id=(0, 0), worker=0),
            dict(kind="commit", task_id=(0, 0), worker=0, scope="subtask"),
            dict(kind="commit", task_id=(0, 0), worker=0),
            complete=True,
        ).ok


class TestRelaxedConformance:
    """The rules the order-insensitive walker kept for real backends;
    the one replay holds every backend to them (and to the order)."""

    def test_commit_of_redistributed_epoch_still_flags(self):
        report = replay(
            dict(kind="assign", task_id=(0, 0), worker=0),
            dict(kind="redistribute", task_id=(0, 0)),
            dict(kind="commit", task_id=(0, 0), worker=-1),
        )
        assert report.codes() == (D.STALE_COMMIT,)

    def test_never_assigned_commit_flags(self):
        # The real master's commit records carry worker -1; the old rule
        # keyed on ``worker >= 0`` and never fired there.
        report = replay(dict(kind="commit", task_id=(0, 0), worker=-1))
        assert report.codes() == (D.PROTOCOL_ILLEGAL_TRANSITION,)

    def test_double_commit_without_taint_flags(self):
        report = replay(
            dict(kind="assign", task_id=(0, 0), worker=0),
            dict(kind="commit", task_id=(0, 0), worker=0),
            dict(kind="assign", task_id=(0, 0), epoch=1, worker=1),
            dict(kind="commit", task_id=(0, 0), epoch=1, worker=1),
        )
        assert report.codes() == (D.DUPLICATE_COMMIT,)


#: Streams neither hand-written walker could judge, and the fault and
#: integrity invariants the campaigns hold every run to: (events, pattern,
#: codes the replay must report — none when the run is legal[, further
#: ``check_trace`` options]). Replayed with ``require_complete`` unless
#: the options say otherwise (a run that aborted cleanly).
REPLAY_CASES = {
    # The duplicate of an accepted result lands before its commit: the old
    # table had no state for *accepted, awaiting commit*.
    "stale-drop-while-awaiting-commit": (
        [
            dict(kind="assign", task_id=(0, 0), worker=0),
            dict(kind="result", task_id=(0, 0), worker=0),
            dict(kind="stale-drop", task_id=(0, 0), worker=0),
            dict(kind="commit", task_id=(0, 0)),
        ],
        WavefrontPattern(1, 1),
        (),
    ),
    "stale-drop-of-a-live-epoch": (
        [
            dict(kind="assign", task_id=(0, 0), worker=0),
            dict(kind="stale-drop", task_id=(0, 0), worker=0),
            dict(kind="assign", task_id=(0, 0), epoch=1, worker=1),
            dict(kind="commit", task_id=(0, 0), epoch=1),
        ],
        WavefrontPattern(1, 1),
        (D.PROTOCOL_ILLEGAL_TRANSITION,),
    ),
    "redistribute-of-a-committed-epoch": (
        [
            dict(kind="assign", task_id=(0, 0), worker=0),
            dict(kind="commit", task_id=(0, 0)),
            dict(kind="redistribute", task_id=(0, 0)),
        ],
        WavefrontPattern(1, 1),
        (D.PROTOCOL_ILLEGAL_TRANSITION,),
    ),
    # A conviction revokes the liar's block and its committed dependent;
    # both recompute at fresh epochs (check_trace used to call the
    # recommits duplicates).
    "taint-closure-recomputes": (
        [
            dict(kind="assign", task_id=(0, 0), worker=1),
            dict(kind="commit", task_id=(0, 0)),
            dict(kind="assign", task_id=(0, 1), worker=0),
            dict(kind="commit", task_id=(0, 1)),
            dict(kind="taint-invalidate", task_id=(0, 0)),
            dict(kind="taint-invalidate", task_id=(0, 1)),
            dict(kind="quarantine", worker=1),
            dict(kind="assign", task_id=(0, 0), epoch=1, worker=0),
            dict(kind="commit", task_id=(0, 0), epoch=1),
            dict(kind="assign", task_id=(0, 1), epoch=1, worker=0),
            dict(kind="commit", task_id=(0, 1), epoch=1),
        ],
        WavefrontPattern(1, 2),
        (),
    ),
    "taint-closure-member-never-recorded": (
        [
            dict(kind="assign", task_id=(0, 0), worker=1),
            dict(kind="commit", task_id=(0, 0)),
            dict(kind="assign", task_id=(0, 1), worker=0),
            dict(kind="commit", task_id=(0, 1)),
            dict(kind="taint-invalidate", task_id=(0, 0)),
            dict(kind="assign", task_id=(0, 0), epoch=1, worker=0),
            dict(kind="commit", task_id=(0, 0), epoch=1),
        ],
        WavefrontPattern(1, 2),
        # The core revoked (0, 1) too; the run shows neither that nor its
        # recompute.
        (D.PROTOCOL_ILLEGAL_TRANSITION, D.LOST_UPDATE),
    ),
    "retirement-evicts-what-the-worker-holds": (
        [
            dict(kind="assign", task_id=(0, 0), worker=1),
            dict(kind="worker-leave", worker=1),
            dict(kind="redistribute", task_id=(0, 0)),
            dict(kind="assign", task_id=(0, 0), epoch=1, worker=0),
            dict(kind="commit", task_id=(0, 0), epoch=1),
        ],
        WavefrontPattern(1, 1),
        (),
    ),
    "retirement-without-eviction": (
        [
            dict(kind="assign", task_id=(0, 0), worker=1),
            dict(kind="worker-leave", worker=1),
            dict(kind="commit", task_id=(0, 0)),  # the departed worker's result lands
        ],
        WavefrontPattern(1, 1),
        (D.STALE_COMMIT, D.PROTOCOL_ILLEGAL_TRANSITION),
    ),
    "digest-rejected-epoch-commits": (
        [
            dict(kind="assign", task_id=(0, 0), worker=0),
            dict(kind="digest-reject", task_id=(0, 0), worker=0),
            dict(kind="redistribute", task_id=(0, 0)),
            dict(kind="commit", task_id=(0, 0)),
        ],
        WavefrontPattern(1, 1),
        (D.PROTOCOL_COMMIT_WITHOUT_VERIFY,),
    ),
    # integrity="vote": the accepted result is held as a ballot while the
    # task is re-offered; the quorum then commits the first epoch.
    "vote-reoffer-of-an-accepted-epoch": (
        [
            dict(kind="assign", task_id=(0, 0), worker=0),
            dict(kind="result", task_id=(0, 0), worker=0),
            dict(kind="redistribute", task_id=(0, 0)),
            dict(kind="assign", task_id=(0, 0), epoch=1, worker=1),
            dict(kind="result", task_id=(0, 0), epoch=1, worker=1),
            dict(kind="commit", task_id=(0, 0), epoch=0),
        ],
        WavefrontPattern(1, 1),
        (),
    ),
    # A slave announcing its own departure (node >= 0) is not the
    # master's decision: results it sent first may still be accepted.
    "slave-side-announcement-is-not-a-decision": (
        [
            dict(kind="assign", task_id=(0, 0), worker=1),
            dict(kind="worker-leave", worker=1, node=1),
            dict(kind="result", task_id=(0, 0), worker=1),
            dict(kind="worker-leave", worker=1),
            dict(kind="commit", task_id=(0, 0)),
        ],
        WavefrontPattern(1, 1),
        (),
    ),
    # A result the core accepted before its worker's blacklist commits
    # after it: retirement evicts live dispatches only. (The old
    # fault-invariant pass flagged any commit later in ``seq`` than the
    # blacklist, accepted or not.)
    "result-accepted-before-blacklist-commits-after": (
        [
            dict(kind="assign", task_id=(0, 0), worker=1),
            dict(kind="result", task_id=(0, 0), worker=1),
            dict(kind="blacklist", worker=1),
            dict(kind="commit", task_id=(0, 0)),
        ],
        WavefrontPattern(1, 1),
        (),
    ),
    "result-after-blacklist": (
        [
            dict(kind="assign", task_id=(0, 0), worker=1),
            dict(kind="blacklist", worker=1),
            dict(kind="redistribute", task_id=(0, 0)),
            dict(kind="result", task_id=(0, 0), worker=1),  # evicted: stale
            dict(kind="commit", task_id=(0, 0)),
        ],
        WavefrontPattern(1, 1),
        (D.PROTOCOL_ILLEGAL_TRANSITION, D.STALE_COMMIT),
    ),
    "assign-after-quarantine": (
        [
            dict(kind="assign", task_id=(0, 0), worker=1),
            dict(kind="commit", task_id=(0, 0)),
            dict(kind="quarantine", worker=1),
            dict(kind="assign", task_id=(0, 1), worker=1),
            dict(kind="assign", task_id=(0, 1), worker=0),
            dict(kind="commit", task_id=(0, 1)),
        ],
        WavefrontPattern(1, 2),
        (D.PROTOCOL_ILLEGAL_TRANSITION,),
    ),
    "redistribute-never-reassigned": (
        [
            dict(kind="assign", task_id=(0, 0), worker=0),
            dict(kind="redistribute", task_id=(0, 0)),
        ],
        WavefrontPattern(1, 1),
        (D.LOST_UPDATE,),
    ),
    "redistribute-never-reassigned-run-aborted": (
        [
            dict(kind="assign", task_id=(0, 0), worker=0),
            dict(kind="redistribute", task_id=(0, 0)),
        ],
        WavefrontPattern(1, 1),
        (),
        dict(require_complete=False),
    ),
    "taint-never-recommitted": (
        [
            dict(kind="assign", task_id=(0, 0), worker=0),
            dict(kind="commit", task_id=(0, 0)),
            dict(kind="taint-invalidate", task_id=(0, 0)),
        ],
        WavefrontPattern(1, 1),
        (D.LOST_UPDATE,),
    ),
    "verified-below-worker-commits": (
        [
            dict(kind="assign", task_id=(0, 0), worker=0),
            dict(kind="result", task_id=(0, 0), worker=0),
            dict(kind="commit", task_id=(0, 0)),
            dict(kind="assign", task_id=(0, 1), worker=1),
            dict(kind="commit", task_id=(0, 1), worker=1),
        ],
        WavefrontPattern(1, 2),
        (D.COMMIT_WITHOUT_VERIFY,),
        dict(verified=1),
    ),
    # A recomputed taint is a second worker commit of the task, and the
    # vote's arbiter commit (worker -1) of an accepted epoch is one commit
    # however many ballots were verified.
    "verified-counts-distinct-epochs": (
        [
            dict(kind="assign", task_id=(0, 0), worker=0),
            dict(kind="commit", task_id=(0, 0), worker=0),
            dict(kind="taint-invalidate", task_id=(0, 0)),
            dict(kind="assign", task_id=(0, 0), epoch=1, worker=1),
            dict(kind="result", task_id=(0, 0), epoch=1, worker=1),
            dict(kind="redistribute", task_id=(0, 0), epoch=1),
            dict(kind="assign", task_id=(0, 0), epoch=2, worker=0),
            dict(kind="result", task_id=(0, 0), epoch=2, worker=0),
            dict(kind="commit", task_id=(0, 0), epoch=2, worker=-1),
        ],
        WavefrontPattern(1, 1),
        (),
        dict(verified=2),
    ),
    # A commit no worker delivered (never dispatched) is the replay's own
    # finding, not counted against the digest checks.
    "master-side-commit-exempt-from-verified": (
        [
            dict(kind="commit", task_id=(0, 0), worker=-1),
            dict(kind="assign", task_id=(0, 1), worker=0),
            dict(kind="commit", task_id=(0, 1), worker=0),
        ],
        WavefrontPattern(1, 2),
        (D.PROTOCOL_ILLEGAL_TRANSITION,),
        dict(verified=1),
    ),
}


@pytest.mark.parametrize("name", sorted(REPLAY_CASES))
def test_replay_stream(name):
    specs, pattern, codes, *options = REPLAY_CASES[name]
    report = check_trace(stream(*specs), pattern, **{"require_complete": True, **dict(*options)})
    assert report.codes() == codes, report.summary()


def test_resumed_stream_is_primed_with_the_journaled_prefix():
    events = stream(
        # Epochs keep counting across the crash: (0, 1) was dispatched
        # twice before it, so its first recorded epoch is 2.
        dict(kind="assign", task_id=(0, 1), epoch=2, worker=0),
        dict(kind="commit", task_id=(0, 1), epoch=2),
    )
    pattern = WavefrontPattern(1, 2)
    assert check_trace(events, pattern, journaled={(0, 0): 0}).ok
    assert check_trace(events, pattern).codes() == (
        D.EARLY_ASSIGN, D.EARLY_COMMIT, D.LOST_UPDATE,
    )


@pytest.mark.slow
class TestObservedRuns:
    def test_real_backends_conform(self):
        cases = conformance_cases(size=20, seed=0)
        assert [name.rsplit(":", 1)[1] for name, _ in cases] == [
            "simulated", "threads", "processes", "threads-faulted",
        ]
        for name, report in cases:
            assert report.ok, (name, [d.message for d in report.diagnostics])
            assert report.checked > 0

    def test_faulted_case_reaches_the_awaiting_commit_window(self):
        # The duplicated result must land as a stale-drop of the very
        # epoch that then commits, and the dropped one must time out —
        # or the faulted conformance case exercises nothing.
        from repro import EasyHPS
        from repro.algorithms.edit_distance import EditDistance

        name, config = conformance_configs(20)[-1]
        assert name == "threads-faulted"
        events = EasyHPS(config).run(EditDistance.random(20, seed=0)).report.events
        dropped = {(e.task_id, e.epoch) for e in events if e.kind == "stale-drop"}
        committed = {(e.task_id, e.epoch) for e in events if e.kind == "commit"}
        assert dropped & committed
        assert any(e.kind == "redistribute" for e in events)


def test_conformance_rejects_a_size_with_no_block_1_1():
    # The faulted run duplicates block (1, 1): on a one-block grid only
    # its drop would fire, and the case would promise what it cannot do.
    assert MIN_CONFORMANCE_SIZE == 3
    with pytest.raises(ConfigError, match="at least 3"):
        conformance_configs(MIN_CONFORMANCE_SIZE - 1)
    name, config = conformance_configs(MIN_CONFORMANCE_SIZE)[-1]
    assert name == "threads-faulted" and config.process_partition == 2
