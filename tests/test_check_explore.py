"""The systematic interleaving explorer and its controlled scheduler."""

import pytest

from repro.check import diagnostics as D
from repro.check.explore import (
    ExploreConfig,
    Scenario,
    TargetedFaultPlan,
    TargetedFaultRule,
    check_exploration,
    default_scenarios,
    replay_counterexample,
    reorder_double_commit_model,
    run_exploration,
    scenario_by_name,
)
from repro.cluster.faults import Faults
from repro.cluster.simcore import ControlledEventQueue

#: Tiny campaign: 2x2 blocks, 2 workers — seconds, not minutes.
TINY = ExploreConfig(rows=2, cols=2, workers=2)
#: Single block, single worker: the minimal stage for the seeded defect.
ONE = ExploreConfig(rows=1, cols=1, workers=1)


def delay_scenario(cfg):
    """The tie-constructing scenario randomized chaos cannot produce:
    the first result delayed to arrive exactly at its own timeout."""
    return Scenario(
        name="delay-result-n0-i0",
        faults=Faults(
            message=TargetedFaultPlan(
                (
                    TargetedFaultRule(
                        "delay", "recv", 0, 0, delay=cfg.task_timeout - 1.0
                    ),
                )
            )
        ),
    )


class TestControlledEventQueue:
    def test_single_events_need_no_chooser(self):
        evq = ControlledEventQueue()
        seen = []
        evq.at(1.0, lambda: seen.append("a"), label=("a",))
        evq.at(2.0, lambda: seen.append("b"), label=("b",))
        evq.run()
        assert seen == ["a", "b"]

    def test_ties_routed_through_chooser(self):
        class PickLast:
            def __init__(self):
                self.tie_sets = []

            def choose(self, ties):
                self.tie_sets.append([label for _, label in ties])
                return len(ties) - 1

        chooser = PickLast()
        evq = ControlledEventQueue(chooser)
        seen = []
        for name in ("a", "b", "c"):
            evq.at(1.0, lambda n=name: seen.append(n), label=(name,))
        evq.run()
        assert len(seen) == 3
        # First decision saw the full 3-way tie; the chooser reordered it.
        assert len(chooser.tie_sets[0]) == 3
        assert seen[0] == "c"

    def test_bad_choice_index_rejected(self):
        from repro.cluster.simcore import SimulationError

        class Bad:
            def choose(self, ties):
                return 99

        evq = ControlledEventQueue(Bad())
        evq.at(1.0, lambda: None, label=("a",))
        evq.at(1.0, lambda: None, label=("b",))
        with pytest.raises(SimulationError):
            evq.run()


class TestTargetedFaultPlan:
    def test_matches_only_the_indexed_message(self):
        rule = TargetedFaultRule("drop", "send", endpoint=1, index=2)
        plan = TargetedFaultPlan((rule,))
        assert not plan.decide_all("send", "TaskAssign", None, 1, endpoint=1)
        hits = plan.decide_all("send", "TaskAssign", None, 2, endpoint=1)
        assert [r.kind for r in hits] == ["drop"]
        assert not plan.decide_all("send", "TaskAssign", None, 2, endpoint=0)
        assert not plan.decide_all("recv", "TaskResult", None, 2, endpoint=1)

    def test_truthiness_reflects_rules(self):
        assert not TargetedFaultPlan(())
        assert TargetedFaultPlan((TargetedFaultRule("drop", "send", 0, 0),))


class TestExploration:
    def test_exhaustive_tiny_campaign_is_clean(self):
        report, result = check_exploration(TINY)
        assert report.ok, [d.message for d in report.diagnostics]
        assert result.exhaustive
        assert not result.violations
        assert result.interleavings > result.scenarios > 0

    def test_fingerprint_pruning_merges_interleavings(self):
        _, result = check_exploration(TINY)
        assert result.pruned > 0

    def test_scenarios_cover_drops_deaths_and_delays(self):
        names = [s.name for s in default_scenarios(TINY)]
        assert "fault-free" in names
        assert any(n.startswith("drop-assign") for n in names)
        assert any(n.startswith("drop-result") for n in names)
        assert any(n.startswith("delay-result") for n in names)
        assert any(n.startswith("death-") for n in names)
        assert any("+" in n for n in names)  # combined drop+death

    @pytest.mark.parametrize(
        "name, reaches, in_every_order",
        [
            # Envelope faults under batched wavefront dispatch.
            ("batch-drop-result-n0-i0", {"batch-assemble", "msg-drop", "redistribute"}, True),
            # A result tied with its own lease expiry: one order expires
            # the lease and drops the result as stale, the other commits.
            ("lease-race-n0", {"lease-expired", "stale-drop"}, False),
            # A liar convicted by a full audit: its commit leaves the
            # ledger again (the path the old shadow ledger had drifted on).
            ("liar-audit", {"audit-convict", "taint-invalidate", "quarantine"}, False),
            # A corrupted result is refused by its digest check and
            # re-offered (one order merges into an explored state between
            # the corruption and its arrival, so is cut short before it).
            ("corrupt-result-n0-i0", {"msg-corrupt", "digest-reject", "redistribute"}, False),
            # A hang on a one-strike blacklist: retired, retried after backoff.
            ("hang-blacklist", {"blacklist", "backoff", "redistribute"}, True),
        ],
    )
    def test_new_scenarios_reach_the_paths_they_name(
        self, monkeypatch, name, reaches, in_every_order
    ):
        from repro.check import explore

        seen = []
        real = explore._check_interleaving

        def spy(run, *args, **kw):
            seen.append({ev.kind for ev in run.obs.events()})
            return real(run, *args, **kw)

        monkeypatch.setattr(explore, "_check_interleaving", spy)
        result = run_exploration(TINY, scenarios=[scenario_by_name(TINY, name)])
        assert not result.violations and result.exhaustive and result.interleavings >= 2
        assert any(reaches <= kinds for kinds in seen)
        assert all(reaches <= kinds for kinds in seen) == in_every_order

    @staticmethod
    def _explore_recording(monkeypatch, name):
        """Explore one default scenario on TINY; every explored run's
        task-scope events as ``(kind, worker, data)``."""
        from repro.check import explore

        seen = []
        real = explore._check_interleaving

        def spy(run, *args, **kw):
            seen.append(
                [(ev.kind, ev.worker, ev.data or {}) for ev in run.obs.events()
                 if ev.scope == "task"]
            )
            return real(run, *args, **kw)

        monkeypatch.setattr(explore, "_check_interleaving", spy)
        result = run_exploration(TINY, scenarios=[scenario_by_name(TINY, name)])
        assert not result.violations and result.exhaustive and result.interleavings >= 2
        return seen

    def test_lagged_audit_revokes_a_multi_block_closure(self, monkeypatch):
        # The audit runs AUDIT_LAG commits after the lie, so the convicted
        # block's committed dependents are revoked with it.
        seen = self._explore_recording(monkeypatch, "liar-audit-lagged")
        assert any(
            kind == "taint-invalidate" and data["n_tainted"] >= 2
            for run in seen for kind, _, data in run
        )

    def test_vote_scenario_tallies_escalates_and_arbitrates(self, monkeypatch):
        seen = self._explore_recording(monkeypatch, "liar-vote")
        kinds = {kind for run in seen for kind, _, _ in run}
        assert {"vote-cast", "vote-divergence", "quarantine"} <= kinds
        assert any(kind == "vote-cast" and worker == -1 for run in seen for kind, worker, _ in run)

    def test_kill_resume_scenario_explores_both_sides_of_the_crash(self, monkeypatch):
        from repro.check import explore

        halves = []
        real = explore._check_interleaving

        def spy(run, scenario, error, reached, *, partial=False, journaled=None):
            halves.append((journaled, len(run.core.committed), partial))
            return real(run, scenario, error, reached, partial=partial, journaled=journaled)

        monkeypatch.setattr(explore, "_check_interleaving", spy)
        result = run_exploration(
            TINY, scenarios=[scenario_by_name(TINY, "batch-kill-resume-c2")]
        )
        assert not result.violations and result.exhaustive
        killed = [h for h in halves if h[0] is None]
        resumed = [h for h in halves if h[0] is not None]
        # The switch fires on the second journal write — recorded, not yet
        # merged: the crash sits between two elements of one BatchResult.
        assert killed and all(n == 1 and partial for _, n, partial in killed)
        assert resumed and all(len(journaled) == 2 for journaled, _, _ in resumed)
        # Resumed runs finish all four blocks (unless merged into a state
        # another interleaving already explored).
        assert any(n == 4 and not partial for _, n, partial in resumed)

    def test_reach_census_is_pinned(self):
        # What the campaign reaches is measured from the explored runs; a
        # scenario edit that silently loses a ledger kind fails here.
        _, result = check_exploration(TINY)
        assert result.reached == {
            "assign", "result", "commit", "redistribute", "stale-drop",
            "lease-expired", "worker-death", "resume",
            # liar-audit and liar-audit-lagged
            "taint-invalidate", "quarantine", "audit-pass", "audit-convict",
            "vote-cast", "vote-divergence",  # liar-vote
            "digest-reject",  # corrupt-result-n0-i0
            "backoff", "blacklist",  # hang-blacklist
        }
        # Never reached, by construction: the simulator does not model a
        # worker leaving (elastic leave is a serve-fleet path only).
        never = result.summary().split("never reached ")[1]
        assert never == "worker-leave"

    def test_scenario_config_overrides_the_explorer_defaults(self):
        # ``retry_backoff`` is one of the explorer's own defaults (0.0); a
        # scenario naming it used to raise "got multiple values".
        from repro.check.explore import _make_config

        config = _make_config(TINY, Scenario("backoff", config=(("retry_backoff", 0.5),)))
        assert config.retry_backoff == 0.5
        assert config.task_timeout == TINY.task_timeout

    def test_scenario_by_name_round_trips(self):
        for s in default_scenarios(TINY):
            assert scenario_by_name(TINY, s.name).name == s.name
        with pytest.raises(KeyError):
            scenario_by_name(TINY, "no-such-scenario")


class TestSeededDefect:
    """The reordering-dependent double commit: invisible to randomized
    chaos (which cannot construct the result/timeout tie), found by the
    explorer, and replayable from the recorded choice sequence."""

    def test_defect_found_and_replayable(self, tmp_path):
        result = run_exploration(
            ONE,
            scenarios=[delay_scenario(ONE)],
            model_factory=reorder_double_commit_model,
            artifact_dir=str(tmp_path),
        )
        assert result.violations
        ce = result.violations[0]
        assert D.DUPLICATE_COMMIT in ce.codes
        assert ce.trace_path is not None

        # Replay from the recorded schedule reproduces the violation...
        replayed = replay_counterexample(
            ONE, delay_scenario(ONE), list(ce.choices),
            model_factory=reorder_double_commit_model,
        )
        assert set(replayed.codes()) == set(ce.codes)
        # ...and the fixed (stock) model is clean on the same schedule.
        fixed = replay_counterexample(ONE, delay_scenario(ONE), list(ce.choices))
        assert fixed.ok, [d.message for d in fixed.diagnostics]

    def test_counterexample_trace_round_trips(self, tmp_path):
        from repro.obs.export import read_trace

        result = run_exploration(
            ONE,
            scenarios=[delay_scenario(ONE)],
            model_factory=reorder_double_commit_model,
            artifact_dir=str(tmp_path),
        )
        _events, _metrics, meta = read_trace(result.violations[0].trace_path)
        assert meta["kind"] == "explore-counterexample"
        assert meta["scenario"] == "delay-result-n0-i0"
        assert [int(c) for c in meta["choices"]] == list(result.violations[0].choices)

    def test_stock_model_survives_the_same_scenario(self):
        result = run_exploration(ONE, scenarios=[delay_scenario(ONE)])
        assert not result.violations
        assert result.exhaustive


class TestDeterminism:
    def test_exploration_is_reproducible(self):
        a = run_exploration(TINY, scenarios=[Scenario(name="fault-free")])
        b = run_exploration(TINY, scenarios=[Scenario(name="fault-free")])
        assert a.interleavings == b.interleavings
        assert a.pruned == b.pruned
        assert not a.violations and not b.violations
