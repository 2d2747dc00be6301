"""ServeJournal compaction, I/O fault injection, and daemon WAL bounds."""

import os
import time

import pytest

from repro.cluster.faults import IoFaultPlan, IoFaultRule, IoPolicy
from repro.serve import JobSpec, ServeDaemon
from repro.serve.wal import ServeJournal, scan_serve_journal
from repro.utils.errors import JournalIOError


def _spec(tenant="t", seed=0):
    return JobSpec(tenant=tenant, algo="lcs", size=16, seed=seed)


def _filled_wal(path, n_finished, n_pending=1):
    wal = ServeJournal.create(str(path), fsync=False)
    for i in range(n_finished):
        wal.submit(f"job-{i}", _spec(seed=i))
        wal.start(f"job-{i}", f"/tmp/job-{i}.walj")
        wal.finish(f"job-{i}", "done", f"digest {i}", "")
    for i in range(n_finished, n_finished + n_pending):
        wal.submit(f"job-{i}", _spec(seed=i))
    return wal


class TestCompaction:
    def test_compact_bounds_history_keeps_pending(self, tmp_path):
        path = tmp_path / "serve.srvj"
        wal = _filled_wal(path, n_finished=10, n_pending=2)
        before = os.path.getsize(path)
        dropped = wal.compact(scan_serve_journal(str(path)).entries.values(),
                              keep_history=3)
        wal.close()
        assert dropped == 7
        assert os.path.getsize(path) < before
        scan = scan_serve_journal(str(path))
        # The 3 newest finished jobs survive with outcomes intact; every
        # pending job survives regardless of the history bound.
        assert scan.order == ["job-7", "job-8", "job-9", "job-10", "job-11"]
        assert scan.entries["job-9"].status == "done"
        assert scan.entries["job-9"].detail == "digest 9"
        assert scan.entries["job-9"].run_journal == "/tmp/job-9.walj"
        assert [e.job_id for e in scan.pending()] == ["job-10", "job-11"]

    def test_compacted_log_accepts_further_appends(self, tmp_path):
        path = tmp_path / "serve.srvj"
        wal = _filled_wal(path, n_finished=5)
        wal.compact(scan_serve_journal(str(path)).entries.values(), keep_history=1)
        wal.finish("job-5", "done", "after compact", "")
        wal.close()
        scan = scan_serve_journal(str(path))
        assert not scan.truncated
        assert scan.entries["job-5"].status == "done"
        assert scan.entries["job-5"].detail == "after compact"

    def test_reason_round_trips_through_compaction(self, tmp_path):
        path = tmp_path / "serve.srvj"
        wal = ServeJournal.create(str(path), fsync=False)
        wal.submit("job-1", _spec())
        wal.finish("job-1", "aborted", "disk full",
                   "resource-exhausted:disk:journal-write")
        wal.compact(scan_serve_journal(str(path)).entries.values())
        wal.close()
        entry = scan_serve_journal(str(path)).entries["job-1"]
        assert entry.reason == "resource-exhausted:disk:journal-write"

    def test_callable_entries_snapshot_under_lock(self, tmp_path):
        path = tmp_path / "serve.srvj"
        wal = _filled_wal(path, n_finished=2)
        wal.compact(lambda: scan_serve_journal(str(path)).entries.values(),
                    keep_history=1)
        wal.close()
        assert scan_serve_journal(str(path)).order == ["job-1", "job-2"]

    def test_failed_compaction_leaves_old_log_intact(self, tmp_path):
        path = tmp_path / "serve.srvj"
        wal = _filled_wal(path, n_finished=3)
        # Every WAL append so far consumed write indices 0..8; the
        # compaction's tmp write is the next one.
        wal.log.io_policy = IoPolicy(
            IoFaultPlan([IoFaultRule("write", "enospc", after=0)]), "serve-wal"
        )
        with pytest.raises(JournalIOError) as err:
            wal.compact(scan_serve_journal(str(path)).entries.values())
        assert err.value.op == "compact"
        wal.log.io_policy = None
        wal.close()
        assert not list(tmp_path.glob("*.tmp"))
        scan = scan_serve_journal(str(path))
        assert not scan.truncated and len(scan.order) == 4


class TestWalFaults:
    def test_write_fault_repairs_to_good_prefix(self, tmp_path):
        path = tmp_path / "serve.srvj"
        policy = IoPolicy(
            IoFaultPlan([IoFaultRule("write", "partial", index=1)]), "serve-wal"
        )
        wal = ServeJournal.create(str(path), fsync=False, io_policy=policy)
        wal.submit("job-1", _spec())
        with pytest.raises(JournalIOError):
            wal.submit("job-2", _spec(seed=1))
        assert wal.write_errors == 1
        wal.submit("job-3", _spec(seed=2))  # index 2: clean again
        wal.close()
        scan = scan_serve_journal(str(path))
        assert not scan.truncated  # torn frame truncated away by repair
        assert scan.order == ["job-1", "job-3"]

    def test_fsync_fault_surfaces_with_op(self, tmp_path):
        policy = IoPolicy(
            IoFaultPlan([IoFaultRule("fsync", "fsync-fail", index=0)]), "serve-wal"
        )
        wal = ServeJournal.create(
            str(tmp_path / "s.srvj"), fsync=True, io_policy=policy
        )
        with pytest.raises(JournalIOError) as err:
            wal.submit("job-1", _spec())
        assert err.value.op == "fsync"
        wal.close()


class TestDaemonIntegration:
    def test_auto_compaction_bounds_a_long_lived_wal(self, tmp_path):
        daemon = ServeDaemon(
            workers=2, queue_cap=32, task_timeout=5.0,
            wal_path=str(tmp_path / "serve.srvj"),
            wal_compact_interval=4, wal_keep_history=2,
        )
        daemon.start()
        try:
            for i in range(8):
                decision = daemon.submit(
                    JobSpec(algo="lcs", size=16, seed=i, nodes=2)
                )
                assert decision.accepted
            assert daemon.wait_idle(60.0)
        finally:
            daemon.drain(20.0)
        assert daemon._wal.compactions >= 1
        scan = scan_serve_journal(str(tmp_path / "serve.srvj"))
        assert not scan.truncated
        # Bounded: far fewer than the 8 submitted jobs remain, and the
        # survivors all carry their terminal outcome.
        assert len(scan.order) <= 2 + 4  # keep_history + one interval
        assert all(scan.entries[j].finished for j in scan.order)

    def test_wal_submit_failure_sheds_instead_of_acking(self, tmp_path):
        daemon = ServeDaemon(
            workers=1, queue_cap=8,
            wal_path=str(tmp_path / "serve.srvj"),
            io_fault_plan=IoFaultPlan([IoFaultRule("write", "enospc", after=0)]),
        )
        daemon.start()
        # Hold the only worker so the scheduler cannot pop the job in the
        # window between admission and the failing WAL write.
        held = daemon.fleet.acquire(1, timeout=5.0)
        try:
            decision = daemon.submit(JobSpec(algo="lcs", size=16, nodes=2))
            assert not decision.accepted
            assert decision.reason.startswith("resource-pressure:wal-write")
            stats = daemon.tenant_stats()
            assert stats["counters"]["serve.resource_sheds{tenant=default}"] == 1
            # The revoked record is terminal, never silently queued.
            records = daemon.jobs()
            assert all(r["status"] == "cancelled" for r in records)
        finally:
            daemon.fleet.unreserve(held)
            daemon.drain(10.0)

    def test_failed_submission_write_is_cancelled_even_with_the_scheduler_free(
        self, tmp_path
    ):
        """The submitter is parked *inside* the failing WAL write with an
        idle worker and a free scheduler loop. Were the job already
        poppable (it used to be, from admission on), the scheduler would
        launch it and the revoke would find nothing to cancel: the job ran
        un-journaled and ended done/aborted while the caller was told it
        was shed. Held until its submission record is durable, it can
        only end ``cancelled``."""
        daemon = ServeDaemon(workers=1, queue_cap=8, wal_path=str(tmp_path / "serve.srvj"))

        class ParkedWrite(IoPolicy):
            def fault(self, op):
                rule = super().fault(op)
                if rule is not None:
                    deadline = time.monotonic() + 0.5
                    while time.monotonic() < deadline and all(
                        job["status"] == "queued" for job in daemon.jobs()
                    ):
                        time.sleep(0.005)
                return rule

        daemon.start()
        try:
            daemon._wal.log.io_policy = ParkedWrite(
                IoFaultPlan([IoFaultRule("write", "enospc", index=0)]), "serve-wal"
            )
            decision = daemon.submit(JobSpec(algo="lcs", size=16, nodes=2))
            assert not decision.accepted
            assert decision.reason.startswith("resource-pressure:wal-write")
            assert daemon.wait_idle(30.0)
            (record,) = daemon.jobs()
            assert record["status"] == "cancelled"
            assert record["reason"] == "resource-pressure:wal-write"
            assert daemon.admission.depth == 0
        finally:
            daemon.drain(10.0)

    def test_lost_wal_handle_sheds_like_any_other_write_failure(self, tmp_path):
        """After a repair that could not reopen the file (fd exhaustion)
        the WAL has no handle; that is a resource failure to shed on, not
        a generic error that leaves the job admitted but un-journaled."""
        daemon = ServeDaemon(
            workers=1, queue_cap=8, wal_path=str(tmp_path / "serve.srvj")
        )
        daemon.start()
        held = daemon.fleet.acquire(1, timeout=5.0)
        try:
            daemon._wal.log._fh.close()
            daemon._wal.log._fh = None
            decision = daemon.submit(JobSpec(algo="lcs", size=16, nodes=2))
            assert not decision.accepted
            assert decision.reason.startswith("resource-pressure:wal-write")
            (record,) = daemon.jobs()
            assert record["status"] == "cancelled"
            assert record["reason"] == "resource-pressure:wal-write"
            assert daemon.admission.depth == 0
        finally:
            daemon.fleet.unreserve(held)
            daemon.drain(10.0)

    def test_closed_wal_is_the_tolerated_drain_race_not_a_shed(self, tmp_path):
        """A finish landing after the WAL was closed (kill/drain race) is
        swallowed — resume reruns the job — and is not mistaken for the
        retryable lost-handle case."""
        path = tmp_path / "serve.srvj"
        daemon = ServeDaemon(workers=1, queue_cap=8, wal_path=str(path))
        daemon.start()
        held = daemon.fleet.acquire(1, timeout=5.0)
        try:
            decision = daemon.submit(JobSpec(algo="lcs", size=16, nodes=2))
            assert decision.accepted
            daemon._wal.close()
            assert daemon.cancel(decision.job_id) == "cancelled"
            assert daemon.get(decision.job_id).status == "cancelled"
            assert daemon._wal.write_errors == 0
        finally:
            daemon.fleet.unreserve(held)
            daemon.drain(10.0)
        # The log never saw the finish: a resumed daemon would rerun it.
        scan = scan_serve_journal(str(path))
        assert [e.job_id for e in scan.pending()] == [decision.job_id]
