"""The result-integrity invariants as rules of the one replay, and their
seeded defects.

Synthetic event streams exercise each rule both ways (violating and
clean) through ``check_trace``; the fixture section proves ``repro check
--selftest`` still catches every seeded defect, including the three
integrity ones.
"""

from dataclasses import dataclass

import pytest

from repro.check.diagnostics import (
    COMMIT_WITHOUT_VERIFY,
    LOST_UPDATE,
    PROTOCOL_ILLEGAL_TRANSITION,
)
from repro.check.fixtures import (
    SELFTEST,
    liar_quarantine_trace,
    run_selftest,
    taint_without_recompute_trace,
)
from repro.check.trace_check import check_trace
from repro.dag.library import WavefrontPattern


@dataclass
class Ev:
    """Minimal stand-in for an ObsEvent in synthetic streams."""

    seq: int
    kind: str
    task_id: object = None
    epoch: int = 0
    worker: int = -1


def stream(*specs):
    return [Ev(seq=i, **spec) for i, spec in enumerate(specs)]


def three_worker_commits():
    return stream(
        dict(kind="assign", task_id=(0, 0), worker=0),
        dict(kind="commit", task_id=(0, 0), worker=0),
        dict(kind="assign", task_id=(0, 1), worker=1),
        dict(kind="commit", task_id=(0, 1), worker=1),
        dict(kind="assign", task_id=(0, 2), worker=0),
        dict(kind="commit", task_id=(0, 2), worker=0),
    )


ROW3 = WavefrontPattern(1, 3)


class TestDispatchAfterQuarantine:
    def test_violation_detected(self):
        report = check_trace(*liar_quarantine_trace())
        assert report.has(PROTOCOL_ILLEGAL_TRANSITION)
        assert any("retired" in d.message for d in report.diagnostics)

    def test_clean_run_passes(self):
        events = stream(
            dict(kind="assign", task_id=(0, 0), worker=1),
            dict(kind="commit", task_id=(0, 0), worker=1),
            dict(kind="quarantine", worker=1),
            dict(kind="assign", task_id=(0, 1), worker=0),
            dict(kind="commit", task_id=(0, 1), worker=0),
        )
        report = check_trace(events, WavefrontPattern(1, 2))
        assert report.ok and report.checked > 0

    def test_assign_before_quarantine_is_legal(self):
        # The result was accepted before the quarantine: retirement
        # evicts live dispatches only, so its commit still lands.
        events = stream(
            dict(kind="assign", task_id=(0, 0), worker=1),
            dict(kind="result", task_id=(0, 0), worker=1),
            dict(kind="quarantine", worker=1),
            dict(kind="commit", task_id=(0, 0)),
        )
        assert check_trace(events, WavefrontPattern(1, 1)).ok


class TestTaintRecompute:
    def test_violation_detected(self):
        report = check_trace(*taint_without_recompute_trace())
        assert report.has(LOST_UPDATE)

    def test_recommit_satisfies_the_taint(self):
        events = stream(
            dict(kind="assign", task_id=(0, 0), worker=0),
            dict(kind="commit", task_id=(0, 0), worker=0),
            dict(kind="taint-invalidate", task_id=(0, 0)),
            dict(kind="assign", task_id=(0, 0), epoch=1, worker=1),
            dict(kind="commit", task_id=(0, 0), epoch=1, worker=1),
        )
        assert check_trace(events, WavefrontPattern(1, 1)).ok

    def test_aborted_run_waives_trailing_taints(self):
        report = check_trace(*taint_without_recompute_trace(), require_complete=False)
        assert report.ok

    def test_commit_before_the_taint_does_not_count(self):
        events = stream(
            dict(kind="assign", task_id=(0, 0), worker=0),
            dict(kind="commit", task_id=(0, 0), worker=0),
            dict(kind="assign", task_id=(0, 1), worker=0),
            dict(kind="commit", task_id=(0, 1), worker=0),
            # The conviction revokes (0, 0) and its committed successor.
            dict(kind="taint-invalidate", task_id=(0, 0)),
            dict(kind="taint-invalidate", task_id=(0, 1)),
        )
        report = check_trace(events, WavefrontPattern(1, 2))
        assert report.codes() == (LOST_UPDATE, LOST_UPDATE)


class TestCommitWithoutVerify:
    def test_violation_detected(self):
        report = check_trace(three_worker_commits(), ROW3, verified=2)
        assert report.codes() == (COMMIT_WITHOUT_VERIFY,)

    def test_matching_counts_pass(self):
        assert check_trace(three_worker_commits(), ROW3, verified=3).ok

    def test_rule_dormant_without_the_counter(self):
        assert check_trace(three_worker_commits(), ROW3).ok
        assert check_trace(three_worker_commits(), ROW3, verified=None).ok

    def test_masterside_commits_exempt(self):
        # A commit of an epoch no worker delivered is not wire traffic: the
        # replay flags it on its own grounds, never against ``verified``.
        events = stream(
            dict(kind="commit", task_id=(0, 0), worker=-1),
            dict(kind="assign", task_id=(0, 1), worker=0),
            dict(kind="commit", task_id=(0, 1), worker=0),
        )
        report = check_trace(events, WavefrontPattern(1, 2), verified=1)
        assert report.codes() == (PROTOCOL_ILLEGAL_TRANSITION,)


class TestSelftest:
    def test_all_fixtures_detected(self):
        results = run_selftest()
        assert len(results) >= 12  # issue floor; currently 18
        missed = [name for name, _, detected in results if not detected]
        assert not missed, f"selftest blind to: {missed}"

    @pytest.mark.parametrize(
        "name",
        ["liar-quarantine-dispatch", "taint-never-recomputed", "commit-without-verify"],
    )
    def test_integrity_fixture_reports_only_its_own_code(self, name):
        code, runner = SELFTEST[name]
        report = runner()
        assert report.has(code)
        assert set(report.codes()) == {code}
