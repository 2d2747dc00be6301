"""The serve submission WAL: round-trips, torn tails, resume semantics."""

import os

import pytest

from repro.serve.job import JobSpec
from repro.serve.wal import MAGIC, ServeJournal, scan_serve_journal
from repro.utils.errors import JournalError


def _spec(tenant="t", seed=0):
    return JobSpec(tenant=tenant, algo="lcs", size=16, seed=seed)


class TestRoundTrip:
    def test_submit_start_finish_history(self, tmp_path):
        path = str(tmp_path / "serve.srvj")
        wal = ServeJournal.create(path, fsync=False)
        wal.submit("job-1", _spec("a"))
        wal.submit("job-2", _spec("b", seed=1))
        wal.start("job-1", "/tmp/job-1.walj")
        wal.finish("job-1", "done", "digest abc")
        wal.close()

        scan = scan_serve_journal(path)
        assert scan.order == ["job-1", "job-2"]
        assert not scan.truncated
        assert scan.entries["job-1"].status == "done"
        assert scan.entries["job-1"].detail == "digest abc"
        assert scan.entries["job-1"].run_journal == "/tmp/job-1.walj"
        assert scan.entries["job-2"].status == "submitted"
        pending = scan.pending()
        assert [e.job_id for e in pending] == ["job-2"]
        assert pending[0].spec == _spec("b", seed=1)
        assert scan.max_job_number == 2

    def test_finish_requires_terminal_status(self, tmp_path):
        wal = ServeJournal.create(str(tmp_path / "x.srvj"))
        with pytest.raises(JournalError):
            wal.finish("job-1", "running")
        wal.close()

    def test_spec_chaos_profile_round_trips(self, tmp_path):
        path = str(tmp_path / "serve.srvj")
        spec = JobSpec(tenant="evil", algo="lcs", size=16,
                       integrity="audit", chaos={"worker_p_lie": 0.8, "seed": 5})
        with ServeJournal.create(path, fsync=False) as wal:
            wal.submit("job-1", spec)
        recovered = scan_serve_journal(path).entries["job-1"].spec
        assert dict(recovered.chaos) == {"worker_p_lie": 0.8, "seed": 5}
        assert recovered.integrity == "audit"


class TestTornTails:
    def test_torn_tail_recovers_prefix(self, tmp_path):
        path = str(tmp_path / "serve.srvj")
        with ServeJournal.create(path, fsync=False) as wal:
            wal.submit("job-1", _spec())
            wal.submit("job-2", _spec(seed=1))
        intact = os.path.getsize(path)
        with open(path, "ab") as fh:
            fh.write(b"\x99\x00\x00\x00\xde\xad\xbe\xeftorn")
        scan = scan_serve_journal(path)
        assert scan.truncated
        assert scan.valid_bytes == intact
        assert scan.order == ["job-1", "job-2"]

    def test_open_resume_truncates_torn_tail(self, tmp_path):
        path = str(tmp_path / "serve.srvj")
        with ServeJournal.create(path, fsync=False) as wal:
            wal.submit("job-1", _spec())
        with open(path, "ab") as fh:
            fh.write(b"\x07\x00\x00\x00garbage-without-crc")
        scan = scan_serve_journal(path)
        wal = ServeJournal.open_resume(scan, fsync=False)
        wal.finish("job-1", "done")
        wal.close()
        rescan = scan_serve_journal(path)
        assert not rescan.truncated
        assert rescan.entries["job-1"].status == "done"

    def test_abandon_mimics_kill(self, tmp_path):
        """abandon() drops the handle without an end record — the file
        must still scan cleanly up to the last flushed record."""
        path = str(tmp_path / "serve.srvj")
        wal = ServeJournal.create(path, fsync=False)
        wal.submit("job-1", _spec())
        wal.start("job-1")
        wal.abandon()
        with pytest.raises(JournalError):
            wal.submit("job-2", _spec())
        scan = scan_serve_journal(path)
        assert scan.entries["job-1"].status == "started"
        assert [e.job_id for e in scan.pending()] == ["job-1"]

    def test_magic_distinct_from_commit_journal(self):
        from repro.durable.journal import MAGIC as RUN_MAGIC

        assert MAGIC != RUN_MAGIC
