"""The shared worker fleet: isolation, reuse, and — the satellite — the
attach_worker/WorkerLeave churn hammer with multiple masters sharing one
fleet (the serve-daemon version of test_elastic_membership)."""

import threading

import numpy as np
import pytest

from repro import EasyHPS, RunConfig
from repro.algorithms import EditDistance
from repro.comm.transport import channel_pair
from repro.runtime.assembly import RunAssembly
from repro.serve.fleet import WorkerFleet
from repro.utils.errors import ConfigError, SchedulerError


class TestFleetBasics:
    def test_acquire_release_cycle(self):
        fleet = WorkerFleet(3)
        fleet.start()
        try:
            ids = fleet.acquire(2)
            assert ids is not None and len(ids) == 2
            assert fleet.idle_count == 1
            done = threading.Event()
            for worker_id in ids:
                fleet.assign(worker_id, done.wait, label="wait")
            assert fleet.idle_count == 1
            done.set()
            assert fleet.wait_idle(5.0)
            assert fleet.idle_count == 3
        finally:
            assert fleet.stop() == 0

    def test_acquire_degrades_to_available(self):
        fleet = WorkerFleet(2)
        fleet.start()
        try:
            ids = fleet.acquire(5)
            assert ids is not None and len(ids) == 2
            assert fleet.acquire(1, timeout=0.05) is None
            fleet.unreserve(ids)
            assert fleet.idle_count == 2
        finally:
            fleet.stop()

    def test_invalid_sizes_rejected(self):
        with pytest.raises(ConfigError):
            WorkerFleet(0)
        fleet = WorkerFleet(1)
        with pytest.raises(ConfigError):
            fleet.acquire(0)

    def test_crash_is_contained_and_worker_returns(self):
        """A poisoned assignment must not kill the worker thread — the
        fault domain of the serve daemon's job isolation."""
        fleet = WorkerFleet(1)
        fleet.start()
        try:
            ids = fleet.acquire(1)
            assert ids is not None

            def poisoned():
                raise RuntimeError("boom")

            fleet.assign(ids[0], poisoned, label="job-x/slave0")
            assert fleet.wait_idle(5.0)
            assert fleet.crash_log and fleet.crash_log[0][1] == "job-x/slave0"
            # The same worker is reusable afterwards.
            ids = fleet.acquire(1)
            assert ids == (0,)
            ran = threading.Event()
            fleet.assign(ids[0], ran.set, label="job-y/slave0")
            assert ran.wait(5.0)
            assert fleet.wait_idle(5.0)
        finally:
            assert fleet.stop() == 0


def _wire_job(problem, config, fleet, worker_ids, *, leave_after=None):
    """Wire one master over fleet workers — the daemon's launch path
    (``RunAssembly``), taken apart so the test holds the live MasterPart."""
    asm = RunAssembly(config, problem)
    stop = threading.Event()
    master_channels, slaves = asm.inprocess_slaves(stop)
    assert len(slaves) == len(worker_ids)
    slaves[0].leave_after = leave_after
    for k, worker_id in enumerate(worker_ids):
        fleet.assign(worker_id, slaves[k].run, label=f"job/slave{k}")
    return asm.master(master_channels), asm, stop


class TestSharedFleetChurn:
    def test_concurrent_masters_with_join_and_leave_churn(self):
        """Satellite: several masters share one fleet; while they run,
        idle workers attach mid-run (attach_worker) and one founding
        worker per job departs (WorkerLeave via leave_after). Every job
        must still be oracle-identical and the fleet must come back
        fully idle with no leaked threads."""
        n_jobs = 3
        problems = [EditDistance.random(48, 48, seed=20 + i) for i in range(n_jobs)]
        oracles = [
            EasyHPS(RunConfig(backend="serial")).run(p).state for p in problems
        ]
        config = RunConfig(backend="threads", nodes=3, task_timeout=10.0)
        # 2 founding workers per job + spares that churn in as joiners.
        fleet = WorkerFleet(2 * n_jobs + 2)
        fleet.start()
        results = {}
        errors = []

        jobs = []
        try:
            for i, problem in enumerate(problems):
                ids = fleet.acquire(2)
                assert ids is not None and len(ids) == 2
                master, asm, stop = _wire_job(
                    problem, config, fleet, ids, leave_after=1
                )
                jobs.append((i, master, asm, stop))

            def run_master(i, master, stop):
                try:
                    results[i] = master.run()
                except Exception as exc:  # pragma: no cover - failure path
                    errors.append((i, exc))
                finally:
                    stop.set()

            runners = [
                threading.Thread(
                    target=run_master, args=(i, master, stop), daemon=True
                )
                for (i, master, _asm, stop) in jobs
            ]
            for t in runners:
                t.start()

            # Churn: keep attaching spare workers to whichever job still
            # runs, round-robin, until every master finishes.
            spin = 0
            while any(t.is_alive() for t in runners) and spin < 200:
                spin += 1
                ids = fleet.acquire(1, timeout=0.02)
                if ids is None:
                    continue
                attached = False
                for (i, master, asm, stop) in jobs:
                    master_end, slave_end = channel_pair()
                    try:
                        new_id = master.attach_worker(master_end)
                    except SchedulerError:
                        continue  # that job already ended
                    joiner = asm.slave(new_id, slave_end, stop)
                    fleet.assign(ids[0], joiner.run, label=f"job{i}/join{new_id}")
                    attached = True
                    break
                if not attached:
                    fleet.unreserve(ids)

            for t in runners:
                t.join(timeout=30.0)
            assert not any(t.is_alive() for t in runners), "a master hung"
        finally:
            for (_i, _m, _asm, stop) in jobs:
                stop.set()

        assert not errors, errors
        assert fleet.wait_idle(15.0), "fleet did not return to idle"
        assert not fleet.crash_log, fleet.crash_log
        for i, oracle in enumerate(oracles):
            for key in oracle:
                assert np.array_equal(oracle[key], results[i][key]), (
                    f"job {i} diverged from its oracle"
                )
        # Each job's worker 0 left cleanly; joins happened across jobs.
        total_left = sum(m.stats.workers_left for (_i, m, _asm, _s) in jobs)
        total_joined = sum(
            m.stats.workers_joined for (_i, m, _asm, _s) in jobs
        )
        assert total_left == n_jobs
        assert total_joined >= 1
        assert fleet.stop() == 0
