"""Crash/resume end-to-end: journaled runs continue to oracle-identical
results after a master crash at any commit (repro.durable + backends)."""

from dataclasses import replace

import numpy as np
import pytest

from repro import EasyHPS, RunConfig
from repro.algorithms import EditDistance, Nussinov
from repro.check import check_trace
from repro.cluster.faults import Faults
from repro.cluster.machine import NodeSpec
from repro.cluster.topology import ClusterSpec
from repro.durable import recover, resume_run
from repro.obs.recorder import ObsEvent
from repro.utils.errors import ConfigError, JournalError, MasterCrash


def oracle_state(problem):
    return EasyHPS(RunConfig(backend="serial")).run(problem).state


def resumed_stream_report(rec, run, journaled=None, extra=()):
    """The resume invariants: the resumed run's stream replayed into a
    dispatch core primed with the journal's committed prefix."""
    proc_size, _ = rec.config.partitions_for(rec.problem)
    pattern = rec.problem.build_partition(proc_size).abstract
    journaled = rec.scan.committed if journaled is None else journaled
    return check_trace([*run.report.events, *extra], pattern, journaled=journaled)


def assert_states_equal(expected, got):
    assert set(expected) == set(got)
    for key in expected:
        assert np.array_equal(expected[key], got[key]), key


class TestSerialResume:
    def test_crash_then_resume_matches_oracle(self, tmp_path):
        problem = EditDistance.random(40, 40, seed=1)
        path = str(tmp_path / "j")
        config = RunConfig(
            backend="serial", journal_path=path, journal_fsync=False,
            checkpoint_interval=4, faults=Faults(kill_after=6),
        )
        with pytest.raises(MasterCrash):
            EasyHPS(config).run(problem)
        rec = recover(path)
        assert 0 < rec.n_committed < rec.n_tasks and not rec.complete
        rec2, run = resume_run(path)
        assert_states_equal(oracle_state(problem), run.state)

    def test_resume_skips_journaled_blocks(self, tmp_path):
        problem = EditDistance.random(40, 40, seed=1)
        path = str(tmp_path / "j")
        config = RunConfig(
            backend="serial", journal_path=path, journal_fsync=False,
            faults=Faults(kill_after=6), observe=True,
        )
        with pytest.raises(MasterCrash):
            EasyHPS(config).run(problem)
        rec, run = resume_run(path)
        commits = [e for e in run.report.events if e.kind == "commit"]
        # journaled blocks are replayed, not re-committed live
        assert len(commits) == rec.n_tasks - 6

    def test_resume_after_torn_tail(self, tmp_path):
        problem = EditDistance.random(40, 40, seed=1)
        path = str(tmp_path / "j")
        config = RunConfig(
            backend="serial", journal_path=path, journal_fsync=False,
            faults=Faults(kill_after=5, kill_torn=True),
        )
        with pytest.raises(MasterCrash):
            EasyHPS(config).run(problem)
        rec = recover(path)
        assert rec.truncated and rec.diagnostic
        # Recovery disarms the kill switch: a resume must not crash again.
        assert (rec.config.faults.kill_after, rec.config.faults.kill_torn) == (None, False)
        _, run = resume_run(path)
        assert_states_equal(oracle_state(problem), run.state)

    def test_complete_journal_short_circuits(self, tmp_path):
        problem = Nussinov.random(48, seed=2)
        path = str(tmp_path / "j")
        config = RunConfig(backend="serial", journal_path=path, journal_fsync=False)
        expected = EasyHPS(config).run(problem)
        rec = recover(path)
        assert rec.complete
        _, run = resume_run(path)
        assert run.value.score == expected.value.score
        assert run.report.makespan == 0.0  # nothing re-ran

    def test_recover_missing_journal_raises_journal_error(self, tmp_path):
        with pytest.raises(JournalError):
            recover(str(tmp_path / "missing"))


class TestParallelResume:
    @pytest.mark.parametrize("backend", ["threads", "processes"])
    def test_crash_then_resume_matches_oracle(self, backend, tmp_path):
        problem = EditDistance.random(48, 48, seed=3)
        path = str(tmp_path / "j")
        config = RunConfig(
            backend=backend, nodes=4, journal_path=path, journal_fsync=False,
            checkpoint_interval=4, faults=Faults(kill_after=7), observe=True,
        )
        with pytest.raises(MasterCrash):
            EasyHPS(config).run(problem)
        rec, run = resume_run(path)
        assert_states_equal(oracle_state(problem), run.state)
        assert run.report.events is not None
        report = resumed_stream_report(rec, run)
        assert report.ok, report.summary()

    def test_resume_primes_epochs_past_crash(self, tmp_path):
        """Post-resume dispatch epochs continue from the journaled attempt
        counters, so any stale pre-crash result is epoch-rejected."""
        problem = EditDistance.random(40, 40, seed=3)
        path = str(tmp_path / "j")
        config = RunConfig(
            backend="threads", nodes=3, journal_path=path, journal_fsync=False,
            faults=Faults(kill_after=5), observe=True,
        )
        with pytest.raises(MasterCrash):
            EasyHPS(config).run(problem)
        scan_attempts = recover(path).attempts
        rec, run = resume_run(path)
        assigns = [
            e for e in run.report.events
            if e.kind == "assign" and e.scope == "task"
        ]
        for ev in assigns:
            floor = scan_attempts.get(ev.task_id, 0)
            assert ev.epoch >= floor, (ev.task_id, ev.epoch, floor)

    def test_verify_accepts_resumed_trace(self, tmp_path):
        """The happens-before checker must see journaled predecessors as
        committed (trace priming), not flag EARLY_ASSIGN on resume."""
        problem = EditDistance.random(40, 40, seed=4)
        path = str(tmp_path / "j")
        config = RunConfig(
            backend="threads", nodes=3, journal_path=path, journal_fsync=False,
            faults=Faults(kill_after=8), verify=True,
        )
        with pytest.raises(MasterCrash):
            EasyHPS(config).run(problem)
        _, run = resume_run(path)  # raises CheckError if priming is broken
        assert_states_equal(oracle_state(problem), run.state)

    def test_resume_journal_written_with_shm_and_batching(self, tmp_path):
        """A journal written with the zero-copy shm plane and wavefront
        batching on resumes under the same config: replayed commits skip,
        the remainder recomputes over BatchAssign envelopes carrying
        BlockRefs, and the crash leaves no orphan segments behind."""
        import os

        from repro.comm.shm import leaked_segments

        problem = EditDistance.random(48, 48, seed=5)
        path = str(tmp_path / "j")
        config = RunConfig(
            backend="processes", nodes=3, journal_path=path, journal_fsync=False,
            checkpoint_interval=4, faults=Faults(kill_after=6), observe=True,
            shm=True, batch_wave=True, max_batch=4,
        )
        with pytest.raises(MasterCrash):
            EasyHPS(config).run(problem)
        # The crashed run's teardown sweep reclaimed its segments.
        assert leaked_segments(f"repro-{os.getpid()}-") == []
        rec = recover(path)
        assert rec.config.shm and rec.config.batch_wave  # knobs journaled
        assert 0 < rec.n_committed < rec.n_tasks
        rec2, run = resume_run(path)
        assert_states_equal(oracle_state(problem), run.state)
        assert leaked_segments(f"repro-{os.getpid()}-") == []
        report = resumed_stream_report(rec2, run)
        assert report.ok, report.summary()


class TestSimulatedResume:
    def test_crash_then_resume_completes_with_invariants(self, tmp_path):
        problem = EditDistance.random(48, 48, seed=5)
        path = str(tmp_path / "j")
        config = RunConfig(
            backend="simulated", nodes=4, journal_path=path, journal_fsync=False,
            checkpoint_interval=4, faults=Faults(kill_after=9), observe=True, verify=True,
        )
        with pytest.raises(MasterCrash):
            EasyHPS(config).run(problem)
        rec = recover(path)
        assert rec.state is None  # the simulator computes no values
        rec2, run = resume_run(path)
        report = resumed_stream_report(rec2, run)
        assert report.ok, report.summary()

    def crashed_then_resumed(self, tmp_path):
        path = str(tmp_path / "j")
        config = RunConfig(
            backend="simulated", nodes=4, journal_path=path, journal_fsync=False,
            faults=Faults(kill_after=9), observe=True,
        )
        with pytest.raises(MasterCrash):
            EasyHPS(config).run(EditDistance.random(48, 48, seed=5))
        return resume_run(path)

    def test_journaled_task_committed_live_again_is_duplicate_commit(self, tmp_path):
        rec, run = self.crashed_then_resumed(tmp_path)
        task, epoch = next(iter(rec.scan.committed.items()))
        last = max(e.seq for e in run.report.events)
        again = ObsEvent("commit", 0.0, task, epoch, seq=last + 1)
        report = resumed_stream_report(rec, run, extra=[again])
        assert [d.code for d in report.diagnostics] == ["duplicate-commit"]

    def test_assign_ahead_of_an_unjournaled_predecessor_is_early_assign(self, tmp_path):
        rec, run = self.crashed_then_resumed(tmp_path)
        assigned = {e.task_id for e in run.report.events if e.kind == "assign"}
        pattern = rec.problem.build_partition(
            rec.config.partitions_for(rec.problem)[0]
        ).abstract
        # A journaled block the resumed frontier builds on, un-journaled.
        lost = next(
            t for t in rec.scan.committed
            if any(s in assigned for s in pattern.successors(t))
        )
        journaled = {t: e for t, e in rec.scan.committed.items() if t != lost}
        report = resumed_stream_report(rec, run, journaled=journaled)
        codes = {d.code for d in report.diagnostics}
        assert "early-assign" in codes and codes <= {"early-assign", "early-commit", "lost-update"}

    def test_journal_latency_charged_in_sim_time(self, tmp_path):
        problem = EditDistance.random(48, 48, seed=5)
        config = RunConfig(backend="simulated", nodes=3)

        def journaled(latency, name):
            return EasyHPS(
                replace(
                    config, journal_fsync=False, journal_path=str(tmp_path / name),
                    cluster=replace(config.cluster_spec(), journal_latency=latency),
                )
            ).run(problem).report.makespan

        base = EasyHPS(config).run(problem).report.makespan
        assert journaled(0.0, "free") == base < journaled(0.5, "slow")


class TestDurableKnobs:
    def test_knobs_validated(self):
        with pytest.raises(ConfigError):
            RunConfig(checkpoint_interval=0)
        with pytest.raises(ConfigError):
            RunConfig(lease_factor=-1.0)
        with pytest.raises(ConfigError):
            RunConfig(heartbeat_interval=0.0)
        with pytest.raises(ConfigError):
            ClusterSpec(compute_nodes=(NodeSpec(threads=1),), journal_latency=-0.1)
        with pytest.raises(ConfigError):
            RunConfig(faults=Faults(kill_after=0))
        with pytest.raises(ConfigError):
            RunConfig(journal_fsync="yes")

    def test_env_overrides(self, monkeypatch):
        # The five overrides that have a user: one of each parsed kind.
        monkeypatch.setenv("REPRO_JOURNAL_FSYNC", "0")
        monkeypatch.setenv("REPRO_BATCH_WAVE", "yes")
        monkeypatch.setenv("REPRO_INTEGRITY", "audit")
        config = RunConfig()
        assert config.journal_fsync is False
        assert config.batch_wave is True
        assert config.integrity == "audit"

    def test_env_overrides_match_existing_knob_conventions(self, monkeypatch):
        # Blank is unset; an explicit argument beats the environment.
        monkeypatch.setenv("REPRO_INTEGRITY", "  ")
        monkeypatch.setenv("REPRO_SHM", "1")
        config = RunConfig(shm=False)
        assert config.integrity == "digest"
        assert config.shm is False
        # The knobs that lost their override are plain defaults now.
        monkeypatch.setenv("REPRO_MAX_BATCH", "5")
        monkeypatch.setenv("REPRO_TASK_TIMEOUT", "12.5")
        monkeypatch.setenv("REPRO_STALL_TIMEOUT", "none")
        config = RunConfig()
        assert config.max_batch == 8
        assert config.task_timeout == 30.0
        assert config.stall_timeout is None

    def test_bad_env_value_raises_config_error(self, monkeypatch):
        # A boolean typo is an error, not False (``REPRO_VERIFY=ture`` used
        # to switch verification off silently). ``none`` is not a value
        # either: no surviving override is optional.
        for name, raw in (
            ("REPRO_VERIFY", "ture"), ("REPRO_SHM", "enabled"), ("REPRO_BATCH_WAVE", "none"),
        ):
            monkeypatch.setenv(name, raw)
            with pytest.raises(ConfigError, match=f"{name} must be a boolean"):
                RunConfig()
            monkeypatch.delenv(name)

    def test_lease_duration_none_without_heartbeat(self):
        assert RunConfig().lease_duration is None
