"""Tests for schedule tracing/Gantt rendering and the EasyPDP layer."""

import numpy as np
import pytest

from repro import EasyHPS, RunConfig
from repro.algorithms import EditDistance, Nussinov, SmithWatermanGG
from repro.analysis.gantt import TraceEvent, critical_tail, render_gantt
from repro.backends.simulated import run_simulated
from repro.cluster.faults import FaultPlan, FaultRule, Faults
from repro.obs.clock import ManualClock
from repro.obs.prof import build_profile
from repro.obs.recorder import EventRecorder
from repro.runtime.easypdp import run_easypdp


class TestTraceRecording:
    def test_trace_off_by_default(self):
        sw = SmithWatermanGG.random(400, seed=1)
        _, rep = run_simulated(sw, RunConfig.experiment(3, 11, process_partition=100,
                                                        thread_partition=25))
        assert rep.trace is None

    def test_trace_covers_every_task(self):
        sw = SmithWatermanGG.random(400, seed=1)
        cfg = RunConfig.experiment(3, 11, process_partition=100, thread_partition=25,
                                   observe=True)
        _, rep = run_simulated(sw, cfg)
        assert rep.trace is not None
        assert len(rep.trace) == rep.n_tasks
        assert {e.task_id for e in rep.trace} == {(i, j) for i in range(4) for j in range(4)}

    def test_trace_events_ordered_and_within_makespan(self):
        sw = SmithWatermanGG.random(400, seed=1)
        cfg = RunConfig.experiment(3, 11, process_partition=100, thread_partition=25,
                                   observe=True)
        _, rep = run_simulated(sw, cfg)
        for e in rep.trace:
            assert 0 <= e.transfer_start <= e.compute_start <= e.compute_end <= e.result_at
            assert e.result_at <= rep.makespan + 1e-9

    def test_trace_respects_node_serialization(self):
        """A node runs one sub-task at a time: its compute intervals are
        disjoint."""
        sw = SmithWatermanGG.random(600, seed=2)
        cfg = RunConfig.experiment(4, 13, process_partition=100, thread_partition=25,
                                   observe=True)
        _, rep = run_simulated(sw, cfg)
        by_node = {}
        for e in rep.trace:
            by_node.setdefault(e.node, []).append((e.compute_start, e.compute_end))
        for intervals in by_node.values():
            intervals.sort()
            for (s1, e1), (s2, e2) in zip(intervals, intervals[1:]):
                assert e1 <= s2 + 1e-12

    def test_faulted_attempts_not_traced(self):
        sw = SmithWatermanGG.random(400, seed=1)
        plan = FaultPlan([FaultRule("crash", (0, 0), 0)])
        cfg = RunConfig.experiment(3, 11, process_partition=100, thread_partition=25,
                                   observe=True, faults=Faults(task=plan), task_timeout=1.0)
        _, rep = run_simulated(sw, cfg)
        # (0,0) appears exactly once — the successful retry.
        assert sum(1 for e in rep.trace if e.task_id == (0, 0)) == 1


class TestGanttRendering:
    def _trace(self):
        return [
            TraceEvent(0, (0, 0), 0.0, 1.0, 5.0, 5.5),
            TraceEvent(1, (0, 1), 5.5, 6.0, 9.0, 9.5),
            TraceEvent(0, (1, 0), 5.5, 6.0, 10.0, 10.0),
        ]

    def test_render_shape(self):
        out = render_gantt(self._trace(), width=40)
        lines = out.splitlines()
        assert lines[0].startswith("node  0 |")
        assert lines[1].startswith("node  1 |")
        assert "#" in lines[0] and "-" in lines[0] and "." in lines[1]

    def test_empty_trace(self):
        assert render_gantt([]) == "(empty trace)"

    def test_event_validation(self):
        with pytest.raises(ValueError):
            TraceEvent(0, (0, 0), 5.0, 1.0, 2.0, 3.0)

    def test_busy_fraction(self):
        # The rows as the events that record them; the profile's fold gives
        # the rows back and sums each node's compute.
        rec = EventRecorder(ManualClock())
        for e in self._trace():
            rec.emit("send", e.task_id, epoch=0, node=e.node, ts=e.transfer_start)
            rec.emit("compute", e.task_id, epoch=0, node=e.node, ts=e.compute_end,
                     t0=e.compute_start, t1=e.compute_end)
            rec.emit("commit", e.task_id, epoch=0, ts=e.result_at)
        prof = build_profile(rec.events())
        assert list(prof.gantt_rows()) == self._trace()
        fractions = prof.busy_fraction(makespan=10.0)
        assert fractions[0] == pytest.approx((4.0 + 4.0) / 10.0)
        assert fractions[1] == pytest.approx(0.3)

    def test_critical_tail(self):
        tail = critical_tail(self._trace(), k=1)
        assert tail[0].task_id == (1, 0)

    def test_render_real_schedule(self):
        sw = SmithWatermanGG.random(600, seed=2)
        cfg = RunConfig.experiment(4, 13, process_partition=100, thread_partition=25,
                                   observe=True)
        _, rep = run_simulated(sw, cfg)
        out = render_gantt(rep.trace, width=60, makespan=rep.makespan)
        assert out.count("node") == 3


class TestEasyPDP:
    def test_edit_distance_single_node(self):
        ed = EditDistance.random(60, 80, seed=1)
        result, report = run_easypdp(ed, n_threads=3, partition_size=10)
        assert result.distance == ed.reference()
        assert report.backend == "easypdp"
        assert report.nodes == 1
        assert report.n_subtasks == 6 * 8

    def test_nussinov_single_node(self):
        nu = Nussinov.random(50, seed=2)
        result, _ = run_easypdp(nu, n_threads=2, partition_size=10)
        assert result.score == nu.reference()

    def test_default_partition_size(self):
        ed = EditDistance.random(40, 40, seed=3)
        result, _ = run_easypdp(ed, n_threads=2)
        assert result.distance == ed.reference()

    def test_static_thread_scheduler(self):
        ed = EditDistance.random(48, 48, seed=4)
        result, report = run_easypdp(ed, n_threads=2, partition_size=8, scheduler="bcw")
        assert result.distance == ed.reference()
        assert report.scheduler == "bcw"

    def test_thread_fault_recovery(self):
        ed = EditDistance.random(40, 40, seed=5)
        plan = FaultPlan([FaultRule("crash", (0, 0), 0)])
        result, report = run_easypdp(
            ed, n_threads=2, partition_size=10, subtask_timeout=0.3, fault_plan=plan
        )
        assert result.distance == ed.reference()
        assert report.thread_restarts >= 1

    def test_matches_easyhps_results(self):
        """EasyPDP (1 node) and EasyHPS (multi-node) agree exactly."""
        ed = EditDistance.random(50, 50, seed=6)
        pdp_result, _ = run_easypdp(ed, n_threads=2, partition_size=10)
        hps = EasyHPS(RunConfig(nodes=3, threads_per_node=2, backend="threads",
                                process_partition=25, thread_partition=10)).run(ed)
        assert pdp_result.distance == hps.value.distance
