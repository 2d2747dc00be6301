"""Heartbeat/lease liveness protocol: the lease rows of the dispatch-core
table plus an end-to-end check that an expired lease — not the hard task timeout —
drives re-dispatch when a worker goes silent."""

import numpy as np

from repro import EasyHPS, RunConfig
from repro.algorithms import EditDistance
from repro.cluster.faults import FaultPlan, FaultRule, Faults, WorkerFaultPlan, WorkerFaultRule
from tests.test_dispatch_core import run_row


class TestLeaseTable:
    """Leases are fields of the dispatch core's registrations now; each
    case is the row of tests/test_dispatch_core.py that checks it."""

    def test_grant_and_expire(self):
        run_row("lease-grant-and-expire")

    def test_renew_worker_extends_all_its_leases(self):
        run_row("lease-renewed-by-any-message")

    def test_drop_is_epoch_checked(self):
        run_row("lease-settles-with-its-epoch")

    def test_drop_unknown_task_is_noop(self):
        run_row("lease-unknown-task")

    def test_regrant_replaces_lease(self):
        run_row("lease-regrant-replaces")


class TestHeartbeatProtocol:
    def test_silent_worker_recovered_by_lease_expiry(self):
        """A slave that dies holding a task stops heartbeating; its lease
        expires after heartbeat_interval * lease_factor and the task is
        re-dispatched long before the hard task timeout."""
        problem = EditDistance.random(48, 48, seed=7)
        oracle = EasyHPS(RunConfig(backend="serial")).run(problem)
        config = RunConfig(
            backend="threads", nodes=4,
            heartbeat_interval=0.05, lease_factor=3.0,
            task_timeout=60.0,  # the backstop must never be what saves us
            faults=Faults(worker=WorkerFaultPlan(
                [WorkerFaultRule("die", worker_id=0, after_tasks=1)]
            )),
            observe=True,
        )
        result = EasyHPS(config).run(problem)
        assert result.value.distance == oracle.value.distance
        for key in oracle.state:
            assert np.array_equal(oracle.state[key], result.state[key])
        kinds = [e.kind for e in result.report.events]
        assert "heartbeat" in kinds
        assert "lease-expired" in kinds
        # Recovery happened on the lease clock, not the 60 s timeout.
        assert result.report.wall_time < config.task_timeout / 2

    def test_healthy_run_emits_heartbeats_but_no_expiry(self):
        problem = EditDistance.random(40, 40, seed=8)
        config = RunConfig(
            backend="threads", nodes=3,
            heartbeat_interval=0.05, observe=True,
        )
        result = EasyHPS(config).run(problem)
        kinds = [e.kind for e in result.report.events]
        assert "lease-expired" not in kinds

    def test_no_heartbeat_knob_means_no_heartbeat_traffic(self):
        """heartbeat_interval=None keeps the paper's inference-only
        liveness: no beacons, no leases."""
        problem = EditDistance.random(40, 40, seed=8)
        config = RunConfig(backend="threads", nodes=3, observe=True)
        result = EasyHPS(config).run(problem)
        kinds = {e.kind for e in result.report.events}
        assert "heartbeat" not in kinds
        assert "lease-expired" not in kinds

    def test_processes_backend_heartbeats(self):
        problem = EditDistance.random(40, 40, seed=9)
        oracle = EasyHPS(RunConfig(backend="serial")).run(problem)
        # One sub-task stalls for four heartbeat intervals (well inside its
        # timeout), so a beacon is due by construction — the run used to
        # outlast one interval only because every block paid for a pool.
        config = RunConfig(
            backend="processes", nodes=3,
            heartbeat_interval=0.05, observe=True,
            faults=Faults(task=FaultPlan([FaultRule("hang", (0, 0), 0, duration=0.2)])),
        )
        result = EasyHPS(config).run(problem)
        assert result.value.distance == oracle.value.distance
        assert "heartbeat" in [e.kind for e in result.report.events]
