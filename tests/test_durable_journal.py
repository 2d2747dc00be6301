"""Unit and fuzz tests for the write-ahead commit journal (repro.durable)."""

import os
import random

import numpy as np
import pytest

from repro import RunConfig
from repro.algorithms import EditDistance
from repro.durable import MAGIC, CommitJournal, scan_journal
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
