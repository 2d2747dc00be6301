"""The serve daemon end to end: multi-tenant correctness, job-level
fault isolation, deadlines, cancellation, kill -9 + resume, drain."""

import time

import numpy as np
import pytest

from repro import EasyHPS, RunConfig
from repro.serve import JobSpec, ServeDaemon, build_problem
from repro.serve.admission import SHED_INVALID


def _daemon(tmp_path=None, **kwargs):
    kwargs.setdefault("workers", 3)
    kwargs.setdefault("queue_cap", 32)
    kwargs.setdefault("task_timeout", 5.0)
    kwargs.setdefault("keep_states", True)
    if tmp_path is not None:
        kwargs.setdefault("wal_path", str(tmp_path / "serve.srvj"))
        kwargs.setdefault("job_journal_dir", str(tmp_path / "jobs"))
    return ServeDaemon(**kwargs)


def _oracle(spec):
    problem = build_problem(spec)
    return EasyHPS(RunConfig(backend="serial")).run(problem).state


def _assert_oracle_identical(record, spec):
    oracle = _oracle(spec)
    assert record.state is not None
    for key in oracle:
        assert np.array_equal(oracle[key], record.state[key])


class TestMultiTenant:
    def test_concurrent_jobs_all_oracle_identical(self):
        daemon = _daemon()
        daemon.start()
        try:
            specs = [
                JobSpec(tenant=f"t{i % 3}", algo="lcs", size=24, seed=i, nodes=2)
                for i in range(6)
            ]
            ids = []
            for spec in specs:
                decision = daemon.submit(spec)
                assert decision.accepted
                ids.append(decision.job_id)
            assert daemon.wait_idle(60.0)
            for job_id, spec in zip(ids, specs):
                record = daemon.get(job_id)
                assert record.status == "done", record.detail
                _assert_oracle_identical(record, spec)
            counters = daemon.tenant_stats()["counters"]
            assert counters["serve.jobs_submitted{tenant=t0}"] == 2
            assert counters["serve.jobs_done{tenant=t1}"] == 2
        finally:
            assert daemon.drain(20.0)

    def test_overload_sheds_structured_never_hangs(self):
        daemon = _daemon(workers=1, queue_cap=2)
        daemon.start()
        try:
            decisions = [
                daemon.submit(JobSpec(algo="lcs", size=24, seed=i, nodes=2))
                for i in range(10)
            ]
            shed = [d for d in decisions if not d.accepted]
            assert shed, "queue cap 2 with 10 instant submissions must shed"
            for d in shed:
                assert d.reason and not d.accepted and d.job_id is None
            assert daemon.wait_idle(60.0)
        finally:
            daemon.drain(20.0)

    def test_invalid_spec_is_structured_rejection(self):
        daemon = _daemon()
        daemon.start()
        try:
            decision = daemon.submit_dict({"algo": "no-such-dp", "size": 16})
            assert not decision.accepted
            assert decision.reason.startswith(SHED_INVALID)
            decision = daemon.submit_dict({"algo": "lcs", "size": -3})
            assert not decision.accepted
            assert decision.reason.startswith(SHED_INVALID)
            decision = daemon.submit_dict({"frobnicate": True})
            assert not decision.accepted
            assert decision.reason.startswith(SHED_INVALID)
        finally:
            daemon.drain(5.0)


class TestFaultIsolation:
    def test_poisoned_tenant_aborts_alone(self):
        """One tenant's lying workers exhaust its retry budget; its abort
        is attributed to its job id and neighbors finish untouched."""
        daemon = _daemon()
        daemon.start()
        try:
            good = [
                JobSpec(tenant="good", algo="lcs", size=24, seed=i, nodes=2)
                for i in range(3)
            ]
            evil = JobSpec(
                tenant="evil", algo="lcs", size=24, seed=9, nodes=2,
                integrity="audit", max_retries=2,
                chaos={"worker_p_lie": 1.0, "seed": 5},
            )
            good_ids = [daemon.submit(spec).job_id for spec in good]
            evil_id = daemon.submit(evil).job_id
            assert daemon.wait_idle(90.0)
            evil_record = daemon.get(evil_id)
            assert evil_record.status == "aborted", evil_record.detail
            assert f"[job {evil_id}]" in evil_record.detail
            for job_id, spec in zip(good_ids, good):
                record = daemon.get(job_id)
                assert record.status == "done", record.detail
                _assert_oracle_identical(record, spec)
        finally:
            daemon.drain(20.0)

    def test_deadline_cancels_cleanly_and_attributed(self):
        daemon = _daemon(poll_interval=0.01)
        daemon.start()
        try:
            # The watchdog looks every 5 polls (50 ms), so the abort lands
            # 50-100 ms in: the job must run several times that long
            # (~0.8 s here) whatever the kernels cost.
            spec = JobSpec(algo="edit-distance", size=2000, seed=0, nodes=2,
                           deadline=0.05)
            job_id = daemon.submit(spec).job_id
            assert daemon.wait_idle(60.0)
            record = daemon.get(job_id)
            assert record.status == "aborted"
            assert "deadline" in record.detail
            assert f"[job {job_id}]" in record.detail
        finally:
            daemon.drain(20.0)

    def test_cancel_queued_and_running(self):
        daemon = _daemon(workers=1)
        daemon.start()
        try:
            first = daemon.submit(
                JobSpec(algo="edit-distance", size=64, seed=1, nodes=2)
            ).job_id
            backlog = [
                daemon.submit(JobSpec(algo="lcs", size=24, seed=i, nodes=2)).job_id
                for i in range(2, 5)
            ]
            outcome = daemon.cancel(backlog[-1], reason="user asked")
            assert outcome == "cancelled"
            record = daemon.get(backlog[-1])
            assert record.status == "cancelled"
            assert "user asked" in record.detail
            daemon.cancel(first, reason="changed my mind")
            assert daemon.wait_idle(60.0)
            first_record = daemon.get(first)
            # Either the cancel landed mid-run (aborted) or the job beat
            # the cancel (done) — both clean, never a hang.
            assert first_record.status in ("aborted", "done", "cancelled")
            assert daemon.cancel("job-nope") == "unknown"
        finally:
            daemon.drain(20.0)


class TestKillResume:
    def test_kill_resume_completes_all_acknowledged_jobs(self, tmp_path):
        # One worker serves the six jobs in turn, and the kill lands the
        # moment one is running with another still queued: mid-batch by
        # construction, however fast a job is (a fixed 0.2 s wait used to
        # stand here, and passed only while six jobs took longer than that).
        daemon = _daemon(tmp_path, workers=1)
        daemon.start()
        specs = {}
        for i in range(6):
            spec = JobSpec(tenant="a", algo="lcs", size=24, seed=i, nodes=2)
            decision = daemon.submit(spec)
            specs[decision.job_id] = spec
        deadline = time.monotonic() + 30.0
        while True:
            statuses = {daemon.get(job_id).status for job_id in specs}
            if {"running", "queued"} <= statuses:
                break
            assert time.monotonic() < deadline, f"never mid-batch: {statuses}"
            time.sleep(0.001)
        daemon.kill()

        resumed = _daemon(tmp_path, workers=2, resume=True)
        resumed.start()
        try:
            assert resumed.resumed_jobs > 0
            assert resumed.wait_idle(90.0)
            for job_id, spec in specs.items():
                record = resumed.get(job_id)
                assert record is not None, f"{job_id} lost across the kill"
                if record.state is not None:
                    assert record.status == "done", record.detail
                    _assert_oracle_identical(record, spec)
                else:
                    # Finished before the kill: history carried via WAL.
                    assert record.status == "done"
        finally:
            assert resumed.drain(20.0)

    def test_resume_on_missing_wal_starts_fresh(self, tmp_path):
        daemon = _daemon(tmp_path, resume=True)
        daemon.start()
        try:
            assert daemon.resumed_jobs == 0
            assert daemon.submit(
                JobSpec(algo="lcs", size=16, seed=0, nodes=2)
            ).accepted
            assert daemon.wait_idle(30.0)
        finally:
            daemon.drain(10.0)


class TestDrain:
    def test_drain_cancels_queued_finishes_running(self):
        daemon = _daemon(workers=1)
        daemon.start()
        running = daemon.submit(
            JobSpec(algo="edit-distance", size=48, seed=0, nodes=2)
        ).job_id
        queued = [
            daemon.submit(JobSpec(algo="lcs", size=24, seed=i, nodes=2)).job_id
            for i in range(1, 4)
        ]
        assert daemon.drain(60.0)
        record = daemon.get(running)
        assert record.status in ("done", "cancelled")
        drained = [daemon.get(j) for j in queued]
        cancelled = [r for r in drained if r.status == "cancelled"]
        assert cancelled, "drain must cancel still-queued jobs with a reason"
        for r in cancelled:
            assert "drained" in r.detail
        after = daemon.submit(JobSpec(algo="lcs", size=16, nodes=2))
        assert not after.accepted
        assert after.reason.startswith("draining")


class TestElasticGrowth:
    def test_idle_workers_attach_to_running_job(self):
        daemon = _daemon(workers=4, grow_running=True, poll_interval=0.01)
        daemon.start()
        try:
            spec = JobSpec(algo="edit-distance", size=72, seed=3, nodes=2)
            job_id = daemon.submit(spec).job_id
            assert daemon.wait_idle(60.0)
            record = daemon.get(job_id)
            assert record.status == "done", record.detail
            _assert_oracle_identical(record, spec)
            attached = daemon.metrics.snapshot()["counters"].get(
                "serve.workers_attached{tenant=default}", 0
            )
            assert attached >= 1, "no idle worker ever attached mid-run"
        finally:
            daemon.drain(20.0)


class TestIPC:
    def test_socket_round_trip(self, tmp_path):
        from repro.serve.ipc import (
            ServeServer,
            cancel_job,
            daemon_stats,
            list_jobs,
            request,
            submit_job,
        )

        daemon = _daemon()
        daemon.start()
        sock = str(tmp_path / "serve.sock")
        server = ServeServer(daemon, sock)
        server.start()
        try:
            assert request(sock, {"op": "ping"})["ok"]
            decision = submit_job(sock, {"algo": "lcs", "size": 24, "nodes": 2})
            assert decision["accepted"]
            assert daemon.wait_idle(30.0)
            jobs = list_jobs(sock)
            assert jobs and jobs[0]["status"] == "done"
            assert "queue_depth" in daemon_stats(sock)
            assert cancel_job(sock, "job-nope") == "unknown"
            bad = request(sock, {"op": "frobnicate"})
            assert not bad["ok"] and "unknown op" in bad["error"]
        finally:
            server.stop()
            daemon.drain(10.0)

    def test_dead_daemon_is_clean_error_not_hang(self, tmp_path):
        from repro.serve.ipc import request
        from repro.utils.errors import TransportError

        with pytest.raises(TransportError):
            request(str(tmp_path / "nobody.sock"), {"op": "ping"}, timeout=0.5)
