"""Tests for the chaos campaign runner and the fault-trace invariants.

The invariants are rules of the one replay (``check_trace``), exercised
here on synthetic event streams (every violation class, plus the
waivers); the campaign machinery on its spec validation, config
derivation, and a small live simulated campaign.
"""

from dataclasses import dataclass

import numpy as np
import pytest

from repro.chaos.campaign import (
    CAMPAIGN_BACKENDS,
    CampaignResult,
    CampaignSpec,
    RunOutcome,
    _states_equal,
    chaos_config,
    run_campaign,
)
from repro.check.diagnostics import LOST_UPDATE, STALE_COMMIT
from repro.check.trace_check import check_trace
from repro.dag.library import WavefrontPattern
from repro.utils.errors import ChaosError, InconsistentMatrix, ResourceExhausted


@dataclass
class Ev:
    """Minimal stand-in for an ObsEvent in synthetic streams."""

    seq: int
    kind: str
    task_id: object = None
    epoch: int = -1
    worker: int = -1
    scope: str = "task"


#: The one task most streams below are about.
ONE = WavefrontPattern(1, 1)


def replay(events, pattern=ONE, aborted=False):
    """What the campaign holds a run to; an aborted run is not held to
    finishing what it started."""
    return check_trace(events, pattern, require_complete=not aborted)


class TestFaultInvariants:
    def test_clean_stream_passes(self):
        events = [
            Ev(0, "assign", (0, 0), 0, worker=1),
            Ev(1, "commit", (0, 0), 0),
            Ev(2, "assign", (1, 0), 0, worker=2),
            Ev(3, "commit", (1, 0), 0),
        ]
        report = replay(events, WavefrontPattern(2, 1))
        assert report.ok and report.checked >= 2

    def test_commit_after_blacklist_detected_via_assign_map(self):
        # Master-side commits carry worker == -1; the blacklist evicted
        # the epoch the assign record named.
        events = [
            Ev(0, "assign", (0, 0), 0, worker=1),
            Ev(1, "blacklist", worker=1),
            Ev(2, "redistribute", (0, 0), 0),
            Ev(3, "commit", (0, 0), 0, worker=-1),
        ]
        assert replay(events).codes() == (STALE_COMMIT,)

    def test_commit_after_blacklist_detected_with_stamped_worker(self):
        # Simulator-style streams stamp the worker on the commit itself.
        events = [
            Ev(0, "assign", (0, 0), 0, worker=2),
            Ev(1, "blacklist", worker=2),
            Ev(2, "redistribute", (0, 0), 0),
            Ev(3, "commit", (0, 0), 0, worker=2),
        ]
        assert replay(events).has(STALE_COMMIT)

    def test_commit_before_blacklist_is_fine(self):
        events = [
            Ev(0, "assign", (0, 0), 0, worker=1),
            Ev(1, "commit", (0, 0), 0),
            Ev(2, "blacklist", worker=1),
        ]
        assert replay(events).ok

    def test_commit_from_other_worker_after_blacklist_is_fine(self):
        events = [
            Ev(0, "assign", (0, 0), 0, worker=1),
            Ev(1, "blacklist", worker=2),
            Ev(2, "commit", (0, 0), 0),
        ]
        assert replay(events).ok

    @pytest.mark.parametrize("fault_kind", ["redistribute"])
    def test_fault_followed_by_reassign_is_fine(self, fault_kind):
        events = [
            Ev(0, "assign", (0, 0), 0, worker=1),
            Ev(1, fault_kind, (0, 0), 0),
            Ev(2, "assign", (0, 0), 1, worker=2),
            Ev(3, "commit", (0, 0), 1),
        ]
        assert replay(events).ok

    @pytest.mark.parametrize("fault_kind", ["redistribute"])
    def test_fault_without_reassign_is_a_violation(self, fault_kind):
        events = [
            Ev(0, "assign", (0, 0), 0, worker=1),
            Ev(1, fault_kind, (0, 0), 0),
        ]
        assert replay(events).codes() == (LOST_UPDATE,)

    def test_abort_waives_trailing_faults(self):
        events = [
            Ev(0, "assign", (0, 0), 0, worker=1),
            Ev(1, "redistribute", (0, 0), 0),
        ]
        assert replay(events, aborted=True).ok

    def test_earlier_assign_does_not_satisfy_reassign(self):
        # The re-assign must come *after* the fault.
        events = [
            Ev(0, "assign", (0, 0), 0, worker=1),
            Ev(5, "redistribute", (0, 0), 0),
        ]
        assert replay(events).has(LOST_UPDATE)

    def test_out_of_order_streams_are_sorted_by_seq(self):
        events = [
            Ev(3, "commit", (0, 0), 0, worker=-1),
            Ev(2, "redistribute", (0, 0), 0),
            Ev(0, "assign", (0, 0), 0, worker=1),
            Ev(1, "blacklist", worker=1),
        ]
        assert replay(events).has(STALE_COMMIT)

    def test_non_task_scope_is_ignored(self):
        events = [
            Ev(0, "blacklist", worker=1, scope="message"),
            Ev(1, "assign", (0, 0), 0, worker=1),
            Ev(2, "commit", (0, 0), 0),
        ]
        assert replay(events).ok


class TestCampaignSpec:
    def test_unknown_backend_rejected(self):
        with pytest.raises(ChaosError):
            CampaignSpec(backends=("serial",))

    def test_zero_seeds_rejected(self):
        with pytest.raises(ChaosError):
            CampaignSpec(seeds=0)

    def test_all_campaign_backends_accepted(self):
        spec = CampaignSpec(backends=CAMPAIGN_BACKENDS)
        assert spec.backends == CAMPAIGN_BACKENDS


class TestChaosConfig:
    def test_plans_are_pure_functions_of_the_seed(self):
        spec = CampaignSpec()
        a = chaos_config("threads", 7, spec)
        b = chaos_config("threads", 7, spec)
        tasks = [(i, j) for i in range(4) for j in range(4)]
        assert [a.faults.task.lookup(t, 0) for t in tasks] == [
            b.faults.task.lookup(t, 0) for t in tasks
        ]
        for w in range(4):
            assert a.faults.worker.death_point(w) == b.faults.worker.death_point(w)

    def test_simulated_gets_sim_time_timeouts(self):
        spec = CampaignSpec()
        sim = chaos_config("simulated", 0, spec)
        real = chaos_config("threads", 0, spec)
        assert sim.backend == "simulated" and real.backend == "threads"
        assert real.task_timeout < sim.task_timeout
        assert sim.observe and real.observe

    def test_recovery_knobs_are_on(self):
        cfg = chaos_config("threads", 0, CampaignSpec())
        assert cfg.blacklist_threshold is not None
        assert cfg.retry_backoff > 0


class TestResultTypes:
    def test_acceptable_statuses(self):
        assert RunOutcome("threads", 0, "ok").acceptable
        assert RunOutcome("threads", 0, "aborted").acceptable
        for status in ("wrong-answer", "invariant-violation", "hang", "error"):
            assert not RunOutcome("threads", 0, status).acceptable

    def test_result_rollup_and_raise(self):
        spec = CampaignSpec(backends=("simulated",), seeds=2)
        good = CampaignResult(
            spec=spec,
            outcomes=(RunOutcome("simulated", 0, "ok"), RunOutcome("simulated", 1, "aborted")),
        )
        assert good.ok and good.failures == ()
        assert good.counts() == {"ok": 1, "aborted": 1}
        assert "invariant held" in good.summary()
        good.raise_if_failed()

        bad = CampaignResult(
            spec=spec,
            outcomes=(RunOutcome("simulated", 0, "hang", detail="deadline"),),
        )
        assert not bad.ok and len(bad.failures) == 1
        assert "INVARIANT VIOLATED" in bad.summary()
        with pytest.raises(ChaosError):
            bad.raise_if_failed()

    def test_states_equal(self):
        a = {"m": np.arange(6).reshape(2, 3)}
        assert _states_equal(a, {"m": np.arange(6).reshape(2, 3)}) is None
        diff = _states_equal(a, {"m": np.zeros((2, 3), dtype=int)})
        assert diff is not None and "m" in diff
        assert _states_equal(a, {"other": np.zeros(2)}) is not None


class TestLiveCampaign:
    def test_small_simulated_campaign_holds_the_invariant(self):
        spec = CampaignSpec(
            backends=("simulated",), seeds=3, size=32, nodes=3, run_timeout=30.0
        )
        seen = []
        result = run_campaign(spec, progress=seen.append)
        assert len(result.outcomes) == 3 and len(seen) == 3
        assert result.ok, result.summary()
        assert set(result.counts()) <= {"ok", "aborted"}
        # Fault plans are seeded: the same campaign classifies identically.
        again = run_campaign(spec)
        assert [o.status for o in again.outcomes] == [o.status for o in result.outcomes]

    @pytest.mark.parametrize(
        "mode",
        [{}, {"kill_master_at": 0.5}, {"resources": True, "first_seed": 1}],
        ids=["plain", "kill-master", "resources"],
    )
    def test_surviving_runs_are_held_to_the_core_replay(self, monkeypatch, mode):
        from repro.check import trace_check

        real, patterns = trace_check.check_trace, []

        def spy(events, pattern, **kw):
            patterns.append(pattern)
            report = real(events, pattern, **kw)
            assert report.ok and report.checked > 0, report.summary()
            if len(patterns) == 2:  # a disagreement on the second survivor
                report.add("protocol-illegal-transition", "seeded finding")
            return report

        monkeypatch.setattr(trace_check, "check_trace", spy)
        spec = CampaignSpec(
            backends=("simulated",), seeds=3, size=32, nodes=3, run_timeout=30.0,
            task_fault_p=0.0, worker_p_die=0.0,  # every run survives
            **mode,
        )
        result = run_campaign(spec)
        # The process-level pattern: 4 x 4 blocks of the 32 x 32 instance.
        assert [p.n_vertices() for p in patterns] == [16, 16, 16]
        assert [o.status for o in result.outcomes] == ["ok", "invariant-violation", "ok"]
        assert "[protocol-illegal-transition] seeded finding" in result.outcomes[1].detail

    @pytest.mark.parametrize(
        "exc, status",
        [
            (ResourceExhausted("disk full", op="journal-write"), "invariant-violation"),
            (ResourceExhausted("disk full", job_id="j", op="journal-write"), "aborted"),
            (InconsistentMatrix("traceback stuck", cell=(3, 4)), "wrong-answer"),
        ],
        ids=["unattributed", "attributed", "inconsistent-matrix"],
    )
    def test_what_a_plain_run_raises_is_judged(self, monkeypatch, exc, status):
        from repro.runtime.system import EasyHPS

        def run(self, problem, config=None, resume=None):
            raise exc

        monkeypatch.setattr(EasyHPS, "run", run)
        monkeypatch.setattr("repro.chaos.campaign._oracle_state", lambda spec: None)
        [outcome] = run_campaign(CampaignSpec(backends=("simulated",), seeds=1)).outcomes
        assert outcome.status == status, outcome.detail

    def test_a_resumed_run_is_held_to_the_simulated_taint(self, monkeypatch):
        from repro.runtime.system import EasyHPS

        real = EasyHPS.run

        def run(self, problem, config=None, resume=None):
            result = real(self, problem, config, resume)
            if resume is not None:
                counters = result.report.metrics.setdefault("counters", {})
                counters["sim.undetected_corruptions"] = 1
            return result

        monkeypatch.setattr(EasyHPS, "run", run)
        spec = CampaignSpec(
            backends=("simulated",), seeds=1, size=32, kill_master_at=0.5,
            message_p=0.0, worker_p_die=0.0, worker_p_slow=0.0, task_fault_p=0.0,
        )
        [outcome] = run_campaign(spec).outcomes
        assert outcome.status == "wrong-answer"
        assert "1 corrupted commits survived undetected" in outcome.detail
