"""The one framed log under both durable logs (repro.durable.framed).

Three tiers: on-disk compatibility of the commit journal (``.walj``) and
the serve submission log (``.srvj``) against hand-packed golden bytes;
every torn-tail / repair case once against :class:`FramedLog`, over both
magics; and the legacy-config recovery contract.
"""

import os
import pickle
import struct
import zlib

import pytest

from repro import EasyHPS, RunConfig
from repro.algorithms import EditDistance
from repro.cluster.faults import (
    FaultPlan,
    Faults,
    IoFaultPlan,
    IoFaultRule,
    IoPolicy,
    MessageFaultPlan,
    WorkerFaultPlan,
)
from repro.durable import CommitJournal, recover, scan_journal
from repro.durable.framed import FramedLog, FrameTail, encode, scan_frames
from repro.durable.journal import MAGIC as WALJ_MAGIC
from repro.serve.job import JobSpec
from repro.serve.wal import MAGIC as SRVJ_MAGIC
from repro.serve.wal import ServeJournal, scan_serve_journal
from repro.utils.errors import JournalError, JournalIOError

BOTH_MAGICS = pytest.mark.parametrize(
    "magic", [WALJ_MAGIC, SRVJ_MAGIC], ids=["walj", "srvj"]
)


def pack(record):
    """The frame format, spelled out independently of the package."""
    payload = pickle.dumps(record, protocol=pickle.HIGHEST_PROTOCOL)
    return struct.pack("<II", len(payload), zlib.crc32(payload)) + payload


# -- (a) on-disk compatibility ---------------------------------------------------


class TestGoldenBytes:
    def test_magics_are_the_released_ones(self):
        assert WALJ_MAGIC == b"REPRO-WALJ\x01\n"
        assert SRVJ_MAGIC == b"REPRO-SRVJ\x01\n"

    def test_encode_is_the_hand_packed_frame(self):
        record = {"type": "commit", "task": (3, 4), "outputs": {"cell": [1.5]}}
        assert encode(record) == pack(record)

    def walj_records(self):
        return [
            {"type": "begin", "problem": "P", "config": {"nodes": 3}},
            {"type": "commit", "task": (0, 0), "epoch": 0,
             "outputs": {"cell": [1, 2]}, "digest": "aa"},
            {"type": "commit", "task": (0, 1), "epoch": 1,
             "outputs": None, "digest": None},
            {"type": "invalidate", "tasks": ((0, 1),)},
            {"type": "end", "run_digest": "ff"},
        ]

    def test_walj_writer_emits_the_golden_bytes(self, tmp_path):
        path = str(tmp_path / "run.walj")
        journal = CommitJournal.create(path, fsync=False)
        journal.begin("P", {"nodes": 3})
        assert journal.commit((0, 0), 0, {"cell": [1, 2]}, digest="aa") == len(
            pack(self.walj_records()[1])
        )
        journal.commit((0, 1), 1, None)
        journal.invalidate([(0, 1)])
        journal.end(run_digest="ff")
        journal.close()
        golden = WALJ_MAGIC + b"".join(map(pack, self.walj_records()))
        assert open(path, "rb").read() == golden

    def test_golden_walj_scans_to_the_expected_state(self, tmp_path):
        path = str(tmp_path / "run.walj")
        golden = WALJ_MAGIC + b"".join(map(pack, self.walj_records()))
        with open(path, "wb") as fh:
            fh.write(golden)
        scan = scan_journal(path)
        assert (scan.problem, scan.config) == ("P", {"nodes": 3})
        assert scan.committed == {(0, 0): 0}
        assert scan.attempts == {(0, 0): 1, (0, 1): 2}
        assert scan.commit_digests == {(0, 0): "aa"}
        assert scan.commits_after_checkpoint == [((0, 0), 0, {"cell": [1, 2]})]
        assert scan.invalidations == [((0, 1),)]
        assert scan.begin_raw == pack(self.walj_records()[0])
        assert scan.ended and not scan.truncated and scan.diagnostic == ""
        assert scan.valid_bytes == len(golden)

    def test_checkpoint_rewrites_to_magic_begin_checkpoint(self, tmp_path):
        path = str(tmp_path / "run.walj")
        journal = CommitJournal.create(path, fsync=False)
        journal.begin("P", {"nodes": 3})
        journal.commit((0, 0), 0, {"cell": [1, 2]})
        journal.checkpoint(
            {"dp": [0, 1]}, {(0, 0): 0}, {(0, 0): 1},
            run_digest="0f", commit_digests={(0, 0): "aa"},
        )
        tail = {"type": "commit", "task": (1, 0), "epoch": 0,
                "outputs": None, "digest": None}
        journal.commit((1, 0), 0, None)
        journal.close()
        checkpoint = {
            "type": "checkpoint", "state": {"dp": [0, 1]},
            "committed": {(0, 0): 0}, "attempts": {(0, 0): 1},
            "run_digest": "0f", "commit_digests": {(0, 0): "aa"},
        }
        golden = WALJ_MAGIC + pack(self.walj_records()[0]) + pack(checkpoint) + pack(tail)
        assert open(path, "rb").read() == golden
        scan = scan_journal(path)
        assert scan.checkpoint_state == {"dp": [0, 1]}
        assert scan.committed == {(0, 0): 0, (1, 0): 0}
        assert scan.commits_after_checkpoint == [((1, 0), 0, None)]

    def srvj_records(self, spec):
        return [
            {"type": "submit", "job_id": "job-1", "spec": spec.to_dict()},
            {"type": "start", "job_id": "job-1", "journal": "/j/job-1.walj"},
            {"type": "submit", "job_id": "job-2", "spec": spec.to_dict()},
            {"type": "finish", "job_id": "job-1", "status": "aborted",
             "detail": "why", "reason": "resource-exhausted:disk"},
        ]

    def test_srvj_writer_emits_the_golden_bytes(self, tmp_path):
        spec = JobSpec(tenant="t", algo="lcs", size=16, seed=3)
        path = str(tmp_path / "serve.srvj")
        wal = ServeJournal.create(path, fsync=False)
        wal.submit("job-1", spec)
        wal.start("job-1", "/j/job-1.walj")
        wal.submit("job-2", spec)
        wal.finish("job-1", "aborted", "why", "resource-exhausted:disk")
        wal.close()
        golden = SRVJ_MAGIC + b"".join(map(pack, self.srvj_records(spec)))
        assert open(path, "rb").read() == golden
        assert wal.records_written == 4

    def test_golden_srvj_scans_to_the_expected_table(self, tmp_path):
        spec = JobSpec(tenant="t", algo="lcs", size=16, seed=3)
        path = str(tmp_path / "serve.srvj")
        golden = SRVJ_MAGIC + b"".join(map(pack, self.srvj_records(spec)))
        with open(path, "wb") as fh:
            fh.write(golden)
        scan = scan_serve_journal(path)
        assert scan.order == ["job-1", "job-2"]
        first = scan.entries["job-1"]
        assert (first.status, first.detail, first.reason, first.run_journal) == (
            "aborted", "why", "resource-exhausted:disk", "/j/job-1.walj"
        )
        assert scan.entries["job-2"].status == "submitted"
        assert scan.entries["job-2"].spec == spec
        assert not scan.truncated and scan.valid_bytes == len(golden)

    def test_compaction_rewrites_one_record_run_per_job(self, tmp_path):
        spec = JobSpec(tenant="t", algo="lcs", size=16, seed=3)
        path = str(tmp_path / "serve.srvj")
        with open(path, "wb") as fh:
            fh.write(SRVJ_MAGIC + b"".join(map(pack, self.srvj_records(spec))))
        scan = scan_serve_journal(path)
        wal = ServeJournal.open_resume(scan, fsync=False)
        assert wal.compact(scan.entries.values(), keep_history=8) == 0
        wal.close()
        submit1, start1, submit2, finish1 = self.srvj_records(spec)
        golden = SRVJ_MAGIC + b"".join(map(pack, [submit1, start1, finish1, submit2]))
        assert open(path, "rb").read() == golden


class TestLegacyBeginRecord:
    def test_config_pickled_with_the_removed_fields_still_recovers(self, tmp_path):
        """Journals written before ``speculative_quantile``,
        ``bcw_block_cols``, ``speculative_factor``, ``trace`` and
        ``speculate`` left RunConfig carry them in the pickled begin
        record; recovery must shrug the extra attributes off and resume
        oracle-identical."""
        path = str(tmp_path / "old.walj")
        problem = EditDistance.random(24, 24, seed=0)
        config = RunConfig(backend="serial", journal_path=path)
        object.__setattr__(config, "speculative_quantile", 0.95)
        object.__setattr__(config, "bcw_block_cols", 1)
        object.__setattr__(config, "speculative_factor", 2.0)
        object.__setattr__(config, "trace", True)
        object.__setattr__(config, "speculate", True)
        journal = CommitJournal.create(path, fsync=False)
        journal.begin(problem, config)
        journal.close()
        assert b"speculative_quantile" in open(path, "rb").read()
        rec = recover(path)
        assert rec.config.journal_path == path and rec.n_committed == 0
        assert not hasattr(rec.config, "bcw_block_cols")
        assert not hasattr(rec.config, "speculative_factor")
        assert not hasattr(rec.config, "trace")
        assert not hasattr(rec.config, "speculate")
        result = EasyHPS(rec.config).run(rec.problem, resume=rec)
        assert result.value.distance == problem.reference()

    def test_config_pickled_with_the_nine_fault_fields_recovers(self, tmp_path):
        """Journals written before ``faults`` replaced the five fault
        plans, ``hang_duration``, the kill switch and ``journal_latency``
        carry those fields and no ``faults``. Such a config reads as "no
        faults": the armed kill switch it names does not fire again, and
        the run resumes to the oracle's answer."""
        path = str(tmp_path / "old.walj")
        problem = EditDistance.random(24, 24, seed=0)
        config = RunConfig(
            backend="threads", nodes=3, process_partition=6,
            journal_path=path, journal_fsync=False,
        )
        object.__delattr__(config, "faults")
        legacy = {
            "fault_plan": FaultPlan(), "thread_fault_plan": FaultPlan(),
            "message_fault_plan": MessageFaultPlan(), "worker_fault_plan": WorkerFaultPlan(),
            "io_fault_plan": IoFaultPlan(), "hang_duration": 1.0,
            "journal_kill_after": 3, "journal_kill_torn": True, "journal_latency": 0.0005,
        }
        for name, value in legacy.items():
            object.__setattr__(config, name, value)
        journal = CommitJournal.create(path, fsync=False)
        journal.begin(problem, config)
        journal.close()
        pickled = vars(scan_journal(path).config)
        assert pickled["journal_kill_after"] == 3 and "faults" not in pickled
        rec = recover(path)
        assert rec.config.faults == Faults()
        assert all(not hasattr(rec.config, name) for name in legacy)
        result = EasyHPS(rec.config).run(rec.problem, resume=rec)
        assert result.value.distance == problem.reference()
        assert recover(path).n_committed == rec.n_tasks == 16


# -- (b) every torn-tail and repair case, once, over both magics ----------------


def write_log(path, magic, records=3, **options):
    log = FramedLog.create(str(path), magic, fsync=False, **options)
    for i in range(records):
        log.append(encode({"type": "rec", "i": i}))
    return log


def scan(path, magic):
    tail = FrameTail(str(path))
    frames = list(scan_frames(tail, magic))
    return tail, frames


@BOTH_MAGICS
class TestTornTails:
    def test_clean_log_yields_offsets_raw_and_records(self, tmp_path, magic):
        write_log(tmp_path / "l", magic).close()
        tail, frames = scan(tmp_path / "l", magic)
        assert [rec["i"] for _, _, rec in frames] == [0, 1, 2]
        assert frames[0][0] == len(magic)
        assert all(raw == encode(rec) for _, raw, rec in frames)
        assert [off for off, _, _ in frames][1] == len(magic) + len(frames[0][1])
        assert not tail.truncated and tail.diagnostic == ""
        assert tail.valid_bytes == os.path.getsize(tmp_path / "l")

    def torn(self, tmp_path, magic, garbage):
        path = tmp_path / "l"
        write_log(path, magic).close()
        good = os.path.getsize(path)
        with open(path, "ab") as fh:
            fh.write(garbage)
        tail, frames = scan(path, magic)
        assert len(frames) == 3 and tail.truncated
        assert tail.valid_bytes == good
        assert str(good) in tail.diagnostic  # names the offending offset
        return tail.diagnostic

    def test_torn_header(self, tmp_path, magic):
        assert "torn frame header" in self.torn(tmp_path, magic, b"\x07\x00\x00")

    def test_short_payload(self, tmp_path, magic):
        frame = encode({"type": "rec", "i": 3})
        assert "torn record" in self.torn(tmp_path, magic, frame[:-2])

    def test_crc_mismatch(self, tmp_path, magic):
        frame = bytearray(encode({"type": "rec", "i": 3}))
        frame[-1] ^= 0xFF
        assert "CRC mismatch" in self.torn(tmp_path, magic, bytes(frame))

    @pytest.mark.parametrize(
        "payload",
        [b"not a pickle", pickle.dumps({"no": "type key"}), pickle.dumps(7)],
        ids=["garbage", "untagged-dict", "not-a-dict"],
    )
    def test_undecodable_payload_with_a_valid_crc(self, tmp_path, magic, payload):
        frame = struct.pack("<II", len(payload), zlib.crc32(payload)) + payload
        assert "undecodable" in self.torn(tmp_path, magic, frame)

    def test_implausible_length(self, tmp_path, magic):
        header = struct.pack("<II", (1 << 30) + 1, 0)
        assert "implausible" in self.torn(tmp_path, magic, header + b"x" * 64)

    def test_open_resume_truncates_the_tail_and_appends_cleanly(self, tmp_path, magic):
        path = tmp_path / "l"
        write_log(path, magic).close()
        with open(path, "ab") as fh:
            fh.write(b"\x07garbage-torn-tail")
        tail, _ = scan(path, magic)
        log = FramedLog.open_resume(str(path), magic, tail.valid_bytes, fsync=False)
        log.append(encode({"type": "rec", "i": 3}))
        log.close()
        tail, frames = scan(path, magic)
        assert [rec["i"] for _, _, rec in frames] == [0, 1, 2, 3]
        assert not tail.truncated

    def test_the_other_logs_magic_is_rejected(self, tmp_path, magic):
        write_log(tmp_path / "l", magic).close()
        other = SRVJ_MAGIC if magic == WALJ_MAGIC else WALJ_MAGIC
        with pytest.raises(JournalError, match="bad magic"):
            scan(tmp_path / "l", other)


@pytest.mark.parametrize(
    "scanner",
    [scan_journal, scan_serve_journal, lambda path: scan(path, WALJ_MAGIC)],
    ids=["scan_journal", "scan_serve_journal", "scan_frames"],
)
class TestUnusable:
    """The only two ways a log is unusable rather than torn."""

    def test_bad_magic_raises(self, tmp_path, scanner):
        path = str(tmp_path / "not-a-journal")
        with open(path, "wb") as fh:
            fh.write(b"something else entirely")
        with pytest.raises(JournalError, match="bad magic"):
            scanner(path)

    def test_missing_file_raises(self, tmp_path, scanner):
        with pytest.raises(JournalError, match="cannot open"):
            scanner(str(tmp_path / "absent"))


def faulty(*rules):
    return IoPolicy(IoFaultPlan(list(rules)), "log")


@BOTH_MAGICS
class TestWriteRepair:
    @pytest.mark.parametrize("kind", ["partial", "enospc", "eio"])
    def test_failed_write_is_truncated_out_and_retry_lands(self, tmp_path, magic, kind):
        path = tmp_path / "l"
        log = write_log(
            path, magic, records=2, io_policy=faulty(IoFaultRule("write", kind, index=2))
        )
        good = os.path.getsize(path)
        with pytest.raises(JournalIOError) as err:
            log.append(encode({"type": "rec", "i": 2}))
        assert err.value.op == "write" and err.value.path == str(path)
        assert log.write_errors == 1
        # Repaired before raising: no torn middle, ever.
        assert os.path.getsize(path) == good
        log.append(encode({"type": "rec", "i": 2}))
        log.close()
        tail, frames = scan(path, magic)
        assert [rec["i"] for _, _, rec in frames] == [0, 1, 2] and not tail.truncated

    def test_refused_fsync_is_truncated_out_too(self, tmp_path, magic):
        path = tmp_path / "l"
        log = FramedLog.create(
            str(path), magic, fsync=True,
            io_policy=faulty(IoFaultRule("fsync", "fsync-fail", index=1)),
        )
        log.append(encode({"type": "rec", "i": 0}))
        good = os.path.getsize(path)
        with pytest.raises(JournalIOError) as err:
            log.append(encode({"type": "rec", "i": 1}))
        assert err.value.op == "fsync"
        assert os.path.getsize(path) == good
        log.close()

    def test_lost_handle_is_retryable_but_closed_is_misuse(self, tmp_path, magic):
        log = write_log(tmp_path / "l", magic)
        log._fh.close()
        log._fh = None  # a repair whose reopen hit EMFILE leaves this
        with pytest.raises(JournalIOError) as err:
            log.append(encode({"type": "rec", "i": 3}))
        assert err.value.op == "open" and log.write_errors == 1
        # A rewrite does not need the old handle and restores a new one.
        log.rewrite(encode({"type": "rec", "i": 9}), op="compact")
        log.append(encode({"type": "rec", "i": 10}))
        log.close()
        for call in (
            lambda: log.append(b""),
            lambda: log.rewrite(b"", op="compact"),
        ):
            with pytest.raises(JournalError) as closed:
                call()
            assert not isinstance(closed.value, JournalIOError)
        _, frames = scan(tmp_path / "l", magic)
        assert [rec["i"] for _, _, rec in frames] == [9, 10]

    def test_failed_rewrite_leaves_the_old_log_appendable(self, tmp_path, magic):
        path = tmp_path / "l"
        log = write_log(
            path, magic, io_policy=faulty(IoFaultRule("write", "enospc", index=3))
        )
        with pytest.raises(JournalIOError) as err:
            log.rewrite(encode({"type": "rec", "i": 9}), op="checkpoint")
        assert err.value.op == "checkpoint" and err.value.errno == 28
        assert not list(tmp_path.glob("*.tmp"))
        log.append(encode({"type": "rec", "i": 3}))
        log.close()
        _, frames = scan(path, magic)
        assert [rec["i"] for _, _, rec in frames] == [0, 1, 2, 3]

    def test_abandon_closes_without_touching_the_file(self, tmp_path, magic):
        log = write_log(tmp_path / "l", magic)
        size = os.path.getsize(tmp_path / "l")
        log.abandon()
        with pytest.raises(JournalError):
            log.append(encode({"type": "rec", "i": 3}))
        assert os.path.getsize(tmp_path / "l") == size


class TestDirectorySync:
    """With ``fsync=True`` a created log and a compaction's rename are
    made durable by an fsync of the parent directory; without it, not."""

    @staticmethod
    def count_syncs(monkeypatch):
        import stat

        synced = []
        real = os.fsync

        def spy(fd):
            synced.append("dir" if stat.S_ISDIR(os.fstat(fd).st_mode) else "file")
            return real(fd)

        monkeypatch.setattr(os, "fsync", spy)
        return synced

    @BOTH_MAGICS
    def test_create_and_rewrite_sync_the_directory(self, tmp_path, magic, monkeypatch):
        synced = self.count_syncs(monkeypatch)
        log = FramedLog.create(str(tmp_path / "l"), magic, fsync=True)
        assert synced == ["dir"]
        log.append(encode({"type": "rec", "i": 0}))
        assert synced == ["dir", "file"]
        log.rewrite(encode({"type": "rec", "i": 1}), op="compact")
        # The tmp file's bytes, then the rename's directory entry.
        assert synced == ["dir", "file", "file", "dir"]
        log.close()
        _, frames = scan(tmp_path / "l", magic)
        assert [rec["i"] for _, _, rec in frames] == [1]

    def test_no_fsync_syncs_nothing(self, tmp_path, monkeypatch):
        synced = self.count_syncs(monkeypatch)
        log = write_log(tmp_path / "l", WALJ_MAGIC)
        log.rewrite(encode({"type": "rec", "i": 9}), op="compact")
        log.close()
        assert synced == []

    def test_journal_checkpoint_and_serve_wal_sync_the_directory(self, tmp_path, monkeypatch):
        synced = self.count_syncs(monkeypatch)
        journal = CommitJournal.create(str(tmp_path / "j.walj"), fsync=True)
        journal.begin(EditDistance.random(8, 8, seed=0), RunConfig(backend="serial"))
        journal.checkpoint(None, {}, {})
        journal.close()
        assert synced.count("dir") == 2  # create + the compaction's rename
        wal = ServeJournal.create(str(tmp_path / "d.srvj"), fsync=True)
        wal.close()
        assert synced.count("dir") == 3
