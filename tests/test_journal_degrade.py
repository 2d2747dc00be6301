"""Journal I/O fault injection, truncate-repair, and the degrade ladder."""

import os

import numpy as np
import pytest

from repro import RunConfig
from repro.algorithms import EditDistance
from repro.cluster.faults import Faults, IoFaultPlan, IoFaultRule, IoPolicy
from repro.durable import CommitJournal, JournalGuard, scan_journal
from repro.utils.errors import JournalIOError, MasterCrash, ResourceExhausted


def make_problem(size=24):
    return EditDistance.random(size, size, seed=0)


def make_journal(path, rules, *, fsync=False):
    policy = IoPolicy(IoFaultPlan(rules), "journal")
    journal = CommitJournal.create(
        str(path), fsync=fsync, checkpoint_interval=10_000, io_policy=policy
    )
    journal.begin(make_problem(), RunConfig(backend="serial"))
    return journal


def outputs():
    return {"cell": np.zeros((2, 2))}


class TestInjection:
    def test_write_fault_raises_journal_io_error(self, tmp_path):
        # Frame 0 is begin; frame 1 is the first commit.
        journal = make_journal(tmp_path / "j", [IoFaultRule("write", "enospc", index=1)])
        with pytest.raises(JournalIOError) as err:
            journal.commit((0, 0), 0, outputs())
        assert err.value.op == "write"
        assert err.value.errno == 28
        assert journal.write_errors == 1
        journal.close()

    def test_fsync_fault_raises_journal_io_error(self, tmp_path):
        journal = make_journal(
            tmp_path / "j", [IoFaultRule("fsync", "fsync-fail", index=1)], fsync=True
        )
        with pytest.raises(JournalIOError) as err:
            journal.commit((0, 0), 0, outputs())
        assert err.value.op == "fsync"
        journal.close()

    def test_failed_write_truncates_to_good_prefix(self, tmp_path):
        path = tmp_path / "j"
        journal = make_journal(path, [IoFaultRule("write", "partial", index=2)])
        journal.commit((0, 0), 0, outputs())
        with pytest.raises(JournalIOError):
            journal.commit((0, 1), 0, outputs())
        journal.close()
        # The torn frame was truncated away: the scan sees a clean
        # prefix, not a diagnosed tail.
        scan = scan_journal(str(path))
        assert scan.committed == {(0, 0): 0}
        assert not scan.truncated

    def test_retry_after_repair_lands_the_record(self, tmp_path):
        path = tmp_path / "j"
        journal = make_journal(path, [IoFaultRule("write", "eio", index=1)])
        with pytest.raises(JournalIOError):
            journal.commit((0, 0), 0, outputs())
        journal.commit((0, 0), 0, outputs())  # manual retry, index 2: clean
        journal.close()
        assert scan_journal(str(path)).committed == {(0, 0): 0}

    def test_checkpoint_fault_keeps_old_journal_intact(self, tmp_path):
        path = tmp_path / "j"
        # Indices: 0=begin, 1..2=commits, 3=checkpoint tmp write.
        journal = make_journal(path, [IoFaultRule("write", "enospc", index=3)])
        journal.commit((0, 0), 0, outputs())
        journal.commit((0, 1), 0, outputs())
        with pytest.raises(JournalIOError) as err:
            journal.checkpoint({"dp": np.zeros((2, 2))}, {(0, 0): 0, (0, 1): 0},
                               {(0, 0): 1, (0, 1): 1})
        assert err.value.op == "checkpoint"
        journal.close()
        assert scan_journal(str(path)).committed == {(0, 0): 0, (0, 1): 0}
        assert not list(path.parent.glob("*.tmp"))  # tmp cleaned up


class TestGuardLadder:
    def guarded(self, path, rules, mode, retries=0):
        journal = make_journal(path, rules)
        return JournalGuard(journal, mode=mode, retries=retries, job_id="job-9")

    def test_retry_absorbs_isolated_fault(self, tmp_path):
        guard = self.guarded(
            tmp_path / "j", [IoFaultRule("write", "eio", index=1)], "abort", retries=1
        )
        assert guard.commit((0, 0), 0, outputs()) > 0
        assert guard.errors_absorbed == 1
        assert not guard.degraded
        guard.close()
        assert scan_journal(str(tmp_path / "j")).committed == {(0, 0): 0}

    def test_abort_mode_raises_attributed_resource_exhausted(self, tmp_path):
        guard = self.guarded(
            tmp_path / "j", [IoFaultRule("write", "enospc", after=1)], "abort"
        )
        with pytest.raises(ResourceExhausted) as err:
            guard.commit((0, 0), 0, outputs())
        assert err.value.job_id == "job-9"
        assert err.value.reason == "resource-exhausted:disk:journal-commit"
        guard.close()

    def test_open_failure_attributes_fd_resource(self, tmp_path):
        # Persistent write faults + a repair that cannot reopen: op
        # becomes "open" and the resource is attributed to fds.
        guard = self.guarded(
            tmp_path / "j", [IoFaultRule("write", "enospc", after=1)], "abort"
        )
        with pytest.raises(ResourceExhausted):
            guard.commit((0, 0), 0, outputs())
        guard.journal.log._fh = None  # simulate the reopen having failed
        with pytest.raises(ResourceExhausted) as err:
            guard.commit((0, 1), 0, outputs())
        assert err.value.resource == "fd"
        assert err.value.reason.startswith("resource-exhausted:fd")
        guard.close()

    def test_checkpoint_mode_rescues_via_compaction(self, tmp_path):
        path = tmp_path / "j"
        # The commit at write-index 2 faults once; the rescue checkpoint
        # rewrites the file and the retried commit lands.
        guard = self.guarded(
            path, [IoFaultRule("write", "eio", index=2)], "checkpoint"
        )
        state = {"dp": np.zeros((2, 2))}
        committed = {}

        def rescue():
            guard.checkpoint(state, dict(committed), {t: 1 for t in committed})

        guard.bind_rescue(rescue)
        guard.commit((0, 0), 0, outputs())
        committed[(0, 0)] = 0
        guard.commit((0, 1), 0, outputs())  # faults, rescued, retried
        committed[(0, 1)] = 0
        guard.close()
        scan = scan_journal(str(path))
        assert scan.committed == {(0, 0): 0, (0, 1): 0}
        assert guard.errors_absorbed >= 1
        assert not guard.degraded

    def test_checkpoint_mode_without_rescue_aborts(self, tmp_path):
        guard = self.guarded(
            tmp_path / "j", [IoFaultRule("write", "enospc", after=1)], "checkpoint"
        )
        with pytest.raises(ResourceExhausted):
            guard.commit((0, 0), 0, outputs())
        guard.close()

    def test_memory_mode_unlinks_and_continues(self, tmp_path):
        path = tmp_path / "j"
        guard = self.guarded(
            path, [IoFaultRule("write", "enospc", after=1)], "memory"
        )
        assert guard.commit((0, 0), 0, outputs()) == 0  # degraded: no bytes
        assert guard.degraded
        assert guard.journal is None
        # The stale journal is gone: a resume cannot silently lose the
        # commits that only ever existed in memory.
        assert not os.path.exists(path)
        # The whole surface stays callable after degradation.
        assert guard.commit((0, 1), 0, outputs()) == 0
        guard.invalidate([(0, 0)])
        assert not guard.should_checkpoint()
        guard.end()
        guard.close()

    def test_master_crash_passes_through_untouched(self, tmp_path):
        journal = CommitJournal.create(
            str(tmp_path / "j"), fsync=False, kill_after=1
        )
        journal.begin(make_problem(), RunConfig(backend="serial"))
        guard = JournalGuard(journal, mode="memory", retries=3, job_id="j")
        with pytest.raises(MasterCrash):
            guard.commit((0, 0), 0, outputs())
        guard.close()

    def test_degrade_emits_obs_event(self, tmp_path):
        from repro.obs import EventRecorder

        rec = EventRecorder()
        journal = make_journal(
            tmp_path / "j", [IoFaultRule("write", "enospc", after=1)]
        )
        guard = JournalGuard(
            journal, mode="memory", retries=0, job_id="job-3", obs=rec
        )
        guard.commit((0, 0), 0, outputs())
        events = [e for e in rec.events() if e.kind == "resource-degrade"]
        assert len(events) == 1
        assert events[0].data["layer"] == "journal"
        assert events[0].data["action"] == "memory"
        assert events[0].data["job_id"] == "job-3"
        guard.close()


class TestConfigSurface:
    def test_config_validates_degrade_knobs(self):
        from repro.utils.errors import ConfigError

        with pytest.raises(ConfigError):
            RunConfig(journal_degrade="yolo")
        with pytest.raises(ConfigError):
            RunConfig(journal_retries=-1)
        cfg = RunConfig(
            journal_degrade="checkpoint",
            faults=Faults(io=IoFaultPlan.random(p_write=0.1, seed=0)),
        )
        assert bool(cfg.faults.io)

    def test_open_journal_wraps_in_guard(self, tmp_path):
        from repro.runtime.assembly import RunAssembly

        cfg = RunConfig(
            backend="serial",
            journal_path=str(tmp_path / "j"),
            journal_fsync=False,
            journal_degrade="memory",
            run_id="run-1",
        )
        guard = RunAssembly(cfg, make_problem()).open_journal()
        assert isinstance(guard, JournalGuard)
        assert guard.job_id == "run-1"
        guard.close()

    def test_end_to_end_memory_degrade_still_correct(self, tmp_path):
        from repro.runtime.system import EasyHPS

        problem = make_problem(16)
        plan = IoFaultPlan([IoFaultRule("write", "enospc", after=3)])
        cfg = RunConfig(
            backend="threads",
            nodes=3,
            process_partition=4,
            thread_partition=2,
            journal_path=str(tmp_path / "j"),
            journal_fsync=False,
            journal_degrade="memory",
            faults=Faults(io=plan),
        )
        run = EasyHPS(cfg).run(problem)
        assert run.value.distance == problem.reference()
        assert run.report.faults_recovered == 0
