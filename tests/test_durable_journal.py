"""Unit and fuzz tests for the write-ahead commit journal (repro.durable)."""

import os
import random

import numpy as np
import pytest

from repro import RunConfig
from repro.algorithms import EditDistance
from repro.cluster.faults import Faults
from repro.durable import MAGIC, CommitJournal, scan_journal
from repro.durable.framed import HEADER
from repro.utils.errors import MasterCrash


def make_problem(size=24):
    return EditDistance.random(size, size, seed=0)


def write_journal(path, commits, *, checkpoint_at=None, end=False, config=None):
    """A journal with ``commits`` (task, epoch) records, optional checkpoint."""
    problem = make_problem()
    journal = CommitJournal.create(path, fsync=False, checkpoint_interval=10_000)
    journal.begin(problem, config or RunConfig(backend="serial"))
    committed = {}
    for i, (task, epoch) in enumerate(commits):
        journal.commit(task, epoch, {"cell": np.zeros((2, 2))})
        committed[task] = epoch
        if checkpoint_at is not None and i + 1 == checkpoint_at:
            journal.checkpoint(
                {"dp": np.arange(4.0).reshape(2, 2)},
                committed,
                {t: e + 1 for t, e in committed.items()},
            )
    if end:
        journal.end()
    journal.close()
    return problem


class TestRoundTrip:
    def test_scan_recovers_commits_in_order(self, tmp_path):
        path = str(tmp_path / "j")
        commits = [((0, 0), 0), ((0, 1), 0), ((1, 0), 2)]
        write_journal(path, commits)
        scan = scan_journal(path)
        assert scan.committed == {(0, 0): 0, (0, 1): 0, (1, 0): 2}
        # attempts outpace the highest journaled epoch per task.
        assert scan.attempts[(1, 0)] == 3
        assert not scan.ended and not scan.truncated
        assert scan.n_committed == 3

    def test_begin_carries_problem_and_config(self, tmp_path):
        path = str(tmp_path / "j")
        problem = write_journal(path, [((0, 0), 0)])
        scan = scan_journal(path)
        assert scan.config.backend == "serial"
        assert scan.problem.name == problem.name
        assert scan.problem.reference() == problem.reference()

    def test_end_marks_complete(self, tmp_path):
        path = str(tmp_path / "j")
        write_journal(path, [((0, 0), 0)], end=True)
        assert scan_journal(path).ended

    def test_commit_outputs_preserved(self, tmp_path):
        path = str(tmp_path / "j")
        write_journal(path, [((0, 0), 0)])
        scan = scan_journal(path)
        (task, epoch, outputs), = scan.commits_after_checkpoint
        assert task == (0, 0) and epoch == 0
        assert np.array_equal(outputs["cell"], np.zeros((2, 2)))


class TestCheckpoint:
    def test_checkpoint_compacts_file(self, tmp_path):
        path = str(tmp_path / "j")
        commits = [((0, i), 0) for i in range(6)]
        write_journal(path, commits, checkpoint_at=6)
        plain = str(tmp_path / "plain")
        write_journal(plain, commits)
        scan = scan_journal(path)
        assert scan.committed == {(0, i): 0 for i in range(6)}
        assert scan.commits_after_checkpoint == []  # compacted away
        assert np.array_equal(scan.checkpoint_state["dp"], np.arange(4.0).reshape(2, 2))
        assert scan.attempts == {(0, i): 1 for i in range(6)}

    def test_commits_after_checkpoint_replay_on_top(self, tmp_path):
        path = str(tmp_path / "j")
        commits = [((0, i), 0) for i in range(5)]
        write_journal(path, commits, checkpoint_at=3)
        scan = scan_journal(path)
        assert scan.n_committed == 5
        assert [t for t, _, _ in scan.commits_after_checkpoint] == [(0, 3), (0, 4)]

    def test_should_checkpoint_cadence(self, tmp_path):
        journal = CommitJournal.create(
            str(tmp_path / "j"), fsync=False, checkpoint_interval=3
        )
        journal.begin(make_problem(), RunConfig(backend="serial"))
        for i in range(3):
            assert not journal.should_checkpoint()
            journal.commit((0, i), 0, None)
        assert journal.should_checkpoint()
        journal.checkpoint(None, {(0, i): 0 for i in range(3)}, {})
        assert not journal.should_checkpoint()
        journal.close()


class TestKillSwitch:
    def test_kill_after_raises_master_crash(self, tmp_path):
        path = str(tmp_path / "j")
        journal = CommitJournal.create(path, fsync=False, kill_after=2)
        journal.begin(make_problem(), RunConfig(backend="serial"))
        journal.commit((0, 0), 0, None)
        with pytest.raises(MasterCrash):
            journal.commit((0, 1), 0, None)
        # The crashing commit was journaled before the "kill" — exactly
        # like a real kill -9 after the fsync'd append.
        assert scan_journal(path).committed == {(0, 0): 0, (0, 1): 0}

    def test_kill_torn_leaves_detectable_garbage(self, tmp_path):
        path = str(tmp_path / "j")
        journal = CommitJournal.create(path, fsync=False, kill_after=1, kill_torn=True)
        journal.begin(make_problem(), RunConfig(backend="serial"))
        with pytest.raises(MasterCrash):
            journal.commit((0, 0), 0, None)
        scan = scan_journal(path)
        assert scan.truncated and scan.diagnostic
        assert scan.committed == {(0, 0): 0}


class TestTornTails:
    def test_truncated_tail_falls_back(self, tmp_path):
        path = str(tmp_path / "j")
        write_journal(path, [((0, 0), 0), ((0, 1), 0)])
        size = os.path.getsize(path)
        with open(path, "r+b") as fh:
            fh.truncate(size - 3)  # tear the final record
        scan = scan_journal(path)
        assert scan.truncated and "torn" in scan.diagnostic.lower() or scan.diagnostic
        assert scan.committed == {(0, 0): 0}

    def test_corrupt_crc_detected(self, tmp_path):
        path = str(tmp_path / "j")
        write_journal(path, [((0, 0), 0), ((0, 1), 0)])
        size = os.path.getsize(path)
        with open(path, "r+b") as fh:
            fh.seek(size - 1)
            last = fh.read(1)
            fh.seek(size - 1)
            fh.write(bytes([last[0] ^ 0xFF]))
        scan = scan_journal(path)
        assert scan.truncated
        assert scan.committed == {(0, 0): 0}

    def test_open_resume_truncates_tail_and_appends(self, tmp_path):
        path = str(tmp_path / "j")
        write_journal(path, [((0, 0), 0), ((0, 1), 0)])
        with open(path, "ab") as fh:
            fh.write(b"\x07garbage-torn-tail")
        scan = scan_journal(path)
        assert scan.truncated
        journal = CommitJournal.open_resume(scan, fsync=False, checkpoint_interval=32)
        journal.commit((1, 0), 1, None)
        journal.end()
        journal.close()
        rescan = scan_journal(path)
        assert not rescan.truncated and rescan.ended
        assert rescan.committed == {(0, 0): 0, (0, 1): 0, (1, 0): 1}

    def test_fuzz_truncation_never_tracebacks(self, tmp_path):
        """Any prefix of a valid journal scans cleanly (past the begin
        record) — committed is always a prefix of the full commit list."""
        path = str(tmp_path / "full")
        commits = [((i // 4, i % 4), i % 3) for i in range(16)]
        # Measure the header (magic + begin) so the fuzz stays in the
        # region where torn-tail fallback — not JournalError — is the
        # contract.
        header_probe = str(tmp_path / "probe")
        journal = CommitJournal.create(header_probe, fsync=False)
        journal.begin(make_problem(), RunConfig(backend="serial"))
        journal.close()
        header = os.path.getsize(header_probe)
        write_journal(path, commits, checkpoint_at=8)
        full = open(path, "rb").read()
        rng = random.Random(1234)
        for _ in range(40):
            cut = rng.randrange(header, len(full) + 1)
            trial = str(tmp_path / "trial")
            with open(trial, "wb") as fh:
                fh.write(full[:cut])
            scan = scan_journal(trial)  # must never raise
            seen = list(scan.committed)
            expect = [t for t, _ in commits[: len(seen)]]
            assert seen == expect, f"cut={cut}: {seen} != prefix {expect}"
            assert scan.truncated or cut == len(full)

    def test_fuzz_corruption_never_tracebacks(self, tmp_path):
        """Flipping any byte past the begin record yields a truncated
        scan with a diagnostic, never an exception."""
        path = str(tmp_path / "full")
        commits = [((i, 0), 0) for i in range(12)]
        header_probe = str(tmp_path / "probe")
        journal = CommitJournal.create(header_probe, fsync=False)
        journal.begin(make_problem(), RunConfig(backend="serial"))
        journal.close()
        header = os.path.getsize(header_probe)
        write_journal(path, commits)
        full = bytearray(open(path, "rb").read())
        rng = random.Random(99)
        for _ in range(40):
            pos = rng.randrange(header, len(full))
            trial = str(tmp_path / "trial")
            corrupted = bytearray(full)
            corrupted[pos] ^= rng.randrange(1, 256)
            with open(trial, "wb") as fh:
                fh.write(corrupted)
            scan = scan_journal(trial)  # must never raise
            if scan.truncated:
                assert scan.diagnostic
            # committed stays a prefix even when the flip survives CRC
            # framing (pickle payloads of different content still decode
            # to commits only if CRC matched — i.e. never here).
            seen = list(scan.committed)
            assert seen == [t for t, _ in commits[: len(seen)]]

    def test_scan_is_magic_checked_not_extension_checked(self, tmp_path):
        path = str(tmp_path / "weird.name")
        write_journal(path, [((0, 0), 0)])
        raw = open(path, "rb").read()
        assert raw.startswith(MAGIC)


GROUP = [((0, 1), 0), ((1, 0), 0), ((1, 1), 2)]


def group_records():
    """``GROUP`` as ``commit_group`` records."""
    return [(task, epoch, {"cell": np.full((2, 2), i)}, None)
            for i, (task, epoch) in enumerate(GROUP)]


def begun(path, **options):
    """A fresh journal with its begin record written."""
    journal = CommitJournal.create(path, fsync=False, **options)
    journal.begin(make_problem(), RunConfig(backend="serial"))
    return journal


class TestGroupCommit:
    def test_group_is_one_append_and_one_fsync(self, tmp_path, monkeypatch):
        path = str(tmp_path / "j")
        journal = CommitJournal.create(path, fsync=True)
        journal.begin(make_problem(), RunConfig(backend="serial"))
        appends = []
        real_append = journal.log.append
        monkeypatch.setattr(
            journal.log, "append", lambda raw: appends.append(raw) or real_append(raw)
        )
        synced = []
        real_fsync = os.fsync
        monkeypatch.setattr(os, "fsync", lambda fd: synced.append(fd) or real_fsync(fd))
        nbytes = journal.commit_group(group_records())
        journal.close()
        assert len(appends) == 1 and len(synced) == 1
        assert nbytes == len(appends[0])
        assert journal.commits_written == journal.commits_since_checkpoint == 3
        scan = scan_journal(path)
        assert scan.committed == dict(GROUP)
        assert [t for t, _, _ in scan.commits_after_checkpoint] == [t for t, _ in GROUP]

    def test_commit_is_a_group_of_one(self, tmp_path):
        one, grouped = str(tmp_path / "one"), str(tmp_path / "grouped")
        for path, write in (
            (one, lambda j: j.commit((0, 0), 1, {"cell": np.ones(2)}, "ab")),
            (grouped, lambda j: j.commit_group([((0, 0), 1, {"cell": np.ones(2)}, "ab")])),
        ):
            journal = begun(path)
            write(journal)
            journal.close()
        assert open(one, "rb").read() == open(grouped, "rb").read()

    def test_torn_group_recovers_a_prefix_of_whole_records(self, tmp_path):
        """A group cut at any byte offset scans to the records wholly
        before the cut — never a partial one, never an exception."""
        path = str(tmp_path / "full")
        journal = begun(path)
        header = os.path.getsize(path)
        journal.commit_group(group_records())
        journal.close()
        full = open(path, "rb").read()
        ends, offset = [], header  # where each whole record ends
        while offset < len(full):
            length, _crc = HEADER.unpack_from(full, offset)
            offset += HEADER.size + length
            ends.append(offset)
        assert len(ends) == 3 and ends[-1] == len(full)
        trial = str(tmp_path / "trial")
        for cut in range(header, len(full) + 1):
            with open(trial, "wb") as fh:
                fh.write(full[:cut])
            scan = scan_journal(trial)  # must never raise
            whole = sum(1 for end in ends if end <= cut)
            assert list(scan.committed) == [t for t, _ in GROUP[:whole]], cut
            assert scan.truncated == (cut not in (header, *ends)), cut

    @pytest.mark.parametrize("kill_after", [1, 2, 3])
    @pytest.mark.parametrize("torn", [False, True])
    def test_kill_switch_inside_a_group(self, tmp_path, kill_after, torn):
        path = str(tmp_path / "j")
        journal = begun(path, kill_after=kill_after + 1, kill_torn=torn)
        journal.commit((0, 0), 0, None)
        with pytest.raises(MasterCrash):
            journal.commit_group(group_records())
        journal.close()
        scan = scan_journal(path)
        # Exactly N records durable: the one before, then the group cut
        # right after the Nth commit (plus the torn frame when asked).
        assert list(scan.committed) == [(0, 0)] + [t for t, _ in GROUP[:kill_after]]
        assert scan.truncated == torn

    def test_master_crashes_before_merging_any_of_the_group(self, tmp_path):
        from repro.comm.transport import channel_pair
        from repro.runtime.assembly import RunAssembly
        from repro.runtime.landing import Accepted

        problem = make_problem(16)
        config = RunConfig(
            backend="threads", nodes=3, journal_path=str(tmp_path / "j"),
            journal_fsync=False, faults=Faults(kill_after=2),
        )
        master = RunAssembly(config, problem).master(
            [channel_pair()[0] for _ in range(config.n_slaves)]
        )
        master.state = problem.make_state()
        # (0, 0) lands alone first (its outputs the master's own
        # recompute); the kill switch then fires on the second record of
        # the group it released.
        first = Accepted((0, 0), 0, 0, None)
        assert master.landing.land([first._replace(payload=master._verdict(first, True)[0])])
        before = {k: v.copy() for k, v in master.state.items()}
        group = [Accepted(task, 0, 0, None) for task in [(0, 1), (1, 0)]]
        try:
            with pytest.raises(MasterCrash):
                master.landing.land(group)
        finally:
            master.journal.close()
        assert master.core.committed == {(0, 0): 0}
        assert all(np.array_equal(before[k], master.state[k]) for k in before)
        assert scan_journal(str(tmp_path / "j")).committed == {(0, 0): 0, (0, 1): 0}

    def test_failed_group_append_is_retried_whole(self, tmp_path):
        from repro.cluster.faults import IoFaultPlan, IoFaultRule, IoPolicy
        from repro.durable.degrade import JournalGuard

        path = str(tmp_path / "j")
        journal = CommitJournal.create(
            path, fsync=False,
            io_policy=IoPolicy(IoFaultPlan([IoFaultRule("write", "partial", index=1)]), "j"),
        )
        guard = JournalGuard(journal, retries=1)
        guard.begin(make_problem(), RunConfig(backend="serial"))
        guard.commit_group(group_records())
        guard.close()
        assert guard.errors_absorbed == 1
        scan = scan_journal(path)
        assert scan.committed == dict(GROUP) and not scan.truncated

    def test_batched_threads_run_fsyncs_once_a_wave(self, tmp_path, monkeypatch):
        """A journaled, fsync'd 16 x 16 run (64 blocks) on threads under
        ``batch_wave``: one fsync a commit would be 64 + begin + two
        checkpoints + end = 68; one a wave stays far below."""
        from repro import EasyHPS

        calls = []
        real = os.fsync
        monkeypatch.setattr(os, "fsync", lambda fd: calls.append(fd) or real(fd))
        problem = make_problem(16)
        config = RunConfig(
            backend="threads", nodes=3, threads_per_node=2, batch_wave=True,
            journal_path=str(tmp_path / "j"), journal_fsync=True,
        )
        run = EasyHPS(config).run(problem)
        assert run.value.distance == problem.reference()
        assert run.report.n_tasks == 64
        assert len(calls) < 40, len(calls)
