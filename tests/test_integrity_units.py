"""Unit tests for the integrity policy, taint recompute frontiers in the
dispatch core, and taint-revocation records in the durable journal."""

import numpy as np
import pytest

from repro import RunConfig
from repro.algorithms import EditDistance
from repro.comm.serialization import content_digest
from repro.dag.library import WavefrontPattern
from repro.dag.parser import DAGParser
from repro.durable import CommitJournal, scan_journal
from repro.integrity import IntegrityPolicy, fold_commit, run_digest_hex
from repro.utils.errors import ConfigError, SchedulerError
from tests.test_dispatch_core import bare_core


class TestIntegrityPolicy:
    def test_mode_properties(self):
        assert not IntegrityPolicy(mode="off").digest_on
        assert IntegrityPolicy(mode="digest").digest_on
        assert IntegrityPolicy(mode="audit").audit_on
        assert IntegrityPolicy(mode="vote").vote_on
        assert IntegrityPolicy(mode="vote").digest_on

    def test_from_config_resolves_knobs(self):
        cfg = RunConfig(
            integrity="audit", audit_fraction=0.5, vote_k=3, quarantine_threshold=4
        )
        policy = cfg.integrity_policy
        assert policy.mode == "audit"
        assert policy.audit_fraction == 0.5
        assert policy.vote_k == 3
        assert policy.quarantine_threshold == 4

    def test_config_rejects_bad_knobs(self):
        with pytest.raises(ConfigError):
            RunConfig(integrity="paranoid")
        with pytest.raises(ConfigError):
            RunConfig(audit_fraction=1.5)
        with pytest.raises(ConfigError):
            RunConfig(vote_k=1)
        with pytest.raises(ConfigError):
            RunConfig(quarantine_threshold=0)

    def test_should_audit_is_deterministic_and_seedless(self):
        policy = IntegrityPolicy(mode="audit", audit_fraction=0.5)
        tasks = [(i, j) for i in range(20) for j in range(20)]
        first = [policy.should_audit(t) for t in tasks]
        assert first == [policy.should_audit(t) for t in tasks]
        hit = sum(first)
        assert 0 < hit < len(tasks)  # a genuine sample, not all-or-nothing

    def test_should_audit_extremes(self):
        tasks = [(i, 0) for i in range(50)]
        full = IntegrityPolicy(mode="audit", audit_fraction=1.0)
        never = IntegrityPolicy(mode="audit", audit_fraction=0.0)
        off = IntegrityPolicy(mode="digest", audit_fraction=1.0)
        assert all(full.should_audit(t) for t in tasks)
        assert not any(never.should_audit(t) for t in tasks)
        assert not any(off.should_audit(t) for t in tasks)


class TestCoreTaint:
    """Taint recompute frontiers: the dispatch core's, after a full drain."""

    def drained_core(self):
        pattern = WavefrontPattern(3, 3)
        core = bare_core(1, task_timeout=1.0, max_retries=0, pattern=pattern)
        for vid in DAGParser(pattern).run_all():
            core.commit(vid, 0, 0)
        return core

    def test_taint_single_sink_restores_computability(self):
        core = self.drained_core()
        assert not core.n_remaining
        (inv,) = core.taint((2, 2))
        assert inv.frontier == ((2, 2),)
        assert core.frontier() == [(2, 2)]
        assert core.n_remaining == 1
        assert core.commit((2, 2), 1, 0) == ([], False)
        assert not core.n_remaining

    def test_taint_closure_recomputes_in_dependency_order(self):
        core = self.drained_core()
        # Closure of (1, 1): itself plus all committed successors.
        closure = {(1, 1), (1, 2), (2, 1), (2, 2)}
        (inv,) = core.taint((1, 1))
        assert set(inv.order) == closure
        assert inv.frontier == ((1, 1),)  # only the root is computable again
        # Recommitting the root releases the rest, exactly as a fresh parse.
        order, ready = [], list(inv.frontier)
        while ready:
            order.append(ready.pop(0))
            ready += core.commit(order[-1], 1, 0)[0]
        assert order[0] == (1, 1)
        assert set(order) == closure
        assert not core.n_remaining

    def test_taint_rejects_uncommitted_root(self):
        core = bare_core(1, task_timeout=1.0, max_retries=0, pattern=WavefrontPattern(3, 3))
        with pytest.raises(SchedulerError):
            core.taint((0, 0))


class TestJournalInvalidate:
    def open_journal(self, tmp_path):
        path = str(tmp_path / "journal")
        journal = CommitJournal.create(path, fsync=False, checkpoint_interval=10_000)
        journal.begin(EditDistance.random(8, 8, seed=0), RunConfig(backend="serial"))
        return path, journal

    def commit(self, journal, task, fill):
        outputs = {"block": np.full((2, 2), float(fill))}
        journal.commit(task, 0, outputs, digest=content_digest(outputs))
        return content_digest(outputs)

    def test_invalidate_record_revokes_commits_and_digest(self, tmp_path):
        path, journal = self.open_journal(tmp_path)
        d00 = self.commit(journal, (0, 0), 1)
        self.commit(journal, (0, 1), 2)
        journal.invalidate([(0, 1)])
        journal.close()

        scan = scan_journal(path)
        assert scan.committed == {(0, 0): 0}
        assert scan.invalidations == [((0, 1),)]
        assert scan.run_digest == run_digest_hex(fold_commit(0, (0, 0), d00))

    def test_recommit_after_invalidate_restores_the_fold(self, tmp_path):
        path, journal = self.open_journal(tmp_path)
        self.commit(journal, (0, 0), 1)
        tainted = self.commit(journal, (0, 1), 99)  # the lied value
        journal.invalidate([(0, 1)])
        honest = self.commit(journal, (0, 1), 2)  # the recompute
        journal.close()

        scan = scan_journal(path)
        assert scan.committed == {(0, 0): 0, (0, 1): 0}
        assert tainted != honest
        assert scan.commit_digests[(0, 1)] == honest
        # The fold holds exactly the surviving commits.
        acc = 0
        for task, digest in scan.commit_digests.items():
            acc = fold_commit(acc, task, digest)
        assert scan.run_digest == run_digest_hex(acc)

    def test_checkpoint_round_trips_run_digest(self, tmp_path):
        path, journal = self.open_journal(tmp_path)
        d = self.commit(journal, (0, 0), 1)
        acc = fold_commit(0, (0, 0), d)
        journal.checkpoint(
            {"dp": np.zeros((2, 2))},
            {(0, 0): 0},
            {(0, 0): 1},
            run_digest=run_digest_hex(acc),
            commit_digests={(0, 0): d},
        )
        journal.close()

        scan = scan_journal(path)
        assert scan.run_digest == run_digest_hex(acc)
        assert scan.commit_digests == {(0, 0): d}

    def test_invalidate_after_checkpoint_unfolds_from_the_stored_acc(self, tmp_path):
        path, journal = self.open_journal(tmp_path)
        d00 = self.commit(journal, (0, 0), 1)
        d01 = self.commit(journal, (0, 1), 2)
        acc = fold_commit(fold_commit(0, (0, 0), d00), (0, 1), d01)
        journal.checkpoint(
            None,
            {(0, 0): 0, (0, 1): 0},
            {},
            run_digest=run_digest_hex(acc),
            commit_digests={(0, 0): d00, (0, 1): d01},
        )
        journal.invalidate([(0, 1)])
        journal.close()

        scan = scan_journal(path)
        assert scan.committed == {(0, 0): 0}
        assert scan.run_digest == run_digest_hex(fold_commit(0, (0, 0), d00))
