"""Profiler tests: PROF kinds round-trip, critical path, attribution,
link calibration, what-if replay, histogram percentiles, partial traces,
and the guard that the profile is the stream's only reporting fold."""

import ast
import json
import math
from pathlib import Path

import pytest

import repro
from repro.analysis.calibration import LinkSample, fit_link, link_fit_report
from repro.cluster.network import LinkModel
from repro.dag.library import get_pattern
from repro.obs.clock import ManualClock
from repro.obs.export import read_trace, to_chrome_trace, write_trace
from repro.obs.metrics import Histogram
from repro.obs.prof import (
    BUCKETS,
    build_profile,
    format_perf_report,
    replay_schedule,
    what_if,
)
from repro.obs.recorder import PROF_KINDS, EventRecorder
from repro.obs.stats import format_stats
from repro.utils.errors import ConfigError


def _prof_stream():
    """One task's lifecycle plus every profiling span kind."""
    rec = EventRecorder(ManualClock())
    t = (0, 0)
    rec.emit("assign", t, epoch=0, node=-1, worker=0, ts=1.0)
    rec.emit("batch-assemble", None, node=-1, worker=0, ts=0.9, t0=0.8, t1=0.9,
             n_tasks=1)
    rec.emit("queue-wait", t, epoch=0, node=-1, worker=0, ts=1.0, t0=0.25, t1=1.0)
    rec.emit("shm-attach", t, epoch=0, node=-1, worker=0, scope="message",
             ts=1.3, t0=1.2, t1=1.3, ok=True, nbytes=4096)
    rec.emit("digest-compute", t, epoch=0, node=-1, worker=0,
             ts=1.1, t0=1.0, t1=1.1, hop="assign")
    rec.emit("compute", t, epoch=0, node=0, worker=0, ts=3.0, t0=1.5, t1=3.0)
    rec.emit("journal-write", t, epoch=0, node=-1, ts=3.5, t0=3.2, t1=3.5, nbytes=512)
    rec.emit("commit", t, epoch=0, node=-1, worker=0, ts=3.6)
    return rec.events()


class TestProfKindsExport:
    def test_round_trip_through_trace_file(self, tmp_path):
        events = _prof_stream()
        path = tmp_path / "trace.json"
        write_trace(str(path), events, meta={"backend": "test"})
        back, _metrics, meta = read_trace(str(path))
        assert back == events
        assert meta["backend"] == "test"

    def test_prof_spans_become_perfetto_slices(self):
        doc = to_chrome_trace(_prof_stream())
        for kind in PROF_KINDS:
            slices = [
                e for e in doc["traceEvents"]
                if e["ph"] == "X" and e["name"].startswith(kind)
            ]
            assert slices, f"{kind} produced no X slice"
            assert all(s["dur"] > 0 for s in slices)

    def test_chrome_json_is_serializable(self):
        json.dumps(to_chrome_trace(_prof_stream()))


class TestCriticalPath:
    """Hand-built 2x2 wavefront with a known longest chain."""

    def _events(self):
        # Costs: (0,0)=1.0, (0,1)=5.0, (1,0)=1.0, (1,1)=2.0; the longest
        # chain is (0,0) -> (0,1) -> (1,1) = 8.0 seconds.
        costs = {(0, 0): 1.0, (0, 1): 5.0, (1, 0): 1.0, (1, 1): 2.0}
        starts = {(0, 0): 0.0, (0, 1): 1.0, (1, 0): 1.0, (1, 1): 6.0}
        rec = EventRecorder(ManualClock())
        for t, dur in costs.items():
            t0 = starts[t]
            rec.emit("assign", t, epoch=0, node=-1, worker=0, ts=t0)
            rec.emit("compute", t, epoch=0, node=0, worker=0,
                     ts=t0 + dur, t0=t0, t1=t0 + dur)
            rec.emit("commit", t, epoch=0, node=-1, worker=0, ts=t0 + dur)
        return rec.events()

    def test_longest_chain_found(self):
        pattern = get_pattern("wavefront", 2, 2)
        prof = build_profile(self._events(), pattern)
        assert prof.critical_path == [(0, 0), (0, 1), (1, 1)]
        assert prof.critical_path_seconds == pytest.approx(8.0)

    def test_efficiency_is_cp_over_makespan(self):
        pattern = get_pattern("wavefront", 2, 2)
        prof = build_profile(self._events(), pattern)
        assert prof.extent == pytest.approx(8.0)  # trace spans 0..8
        assert prof.efficiency == pytest.approx(1.0)

    def test_without_pattern_no_critical_path(self):
        prof = build_profile(self._events(), None)
        assert prof.critical_path == []
        assert prof.efficiency == 0.0
        assert prof.n_committed == 4

    def test_report_mentions_critical_path(self):
        pattern = get_pattern("wavefront", 2, 2)
        prof = build_profile(self._events(), pattern)
        text = format_perf_report(prof, pattern=pattern)
        assert "critical path" in text
        assert "sched efficiency" in text
        assert "what-if" in text


class TestAttribution:
    def test_rows_sum_to_extent(self):
        prof = build_profile(_prof_stream())
        assert prof.extent > 0
        for node, row in prof.attribution.items():
            assert set(row) == set(BUCKETS)
            assert sum(row.values()) == pytest.approx(prof.extent), node

    def test_master_lane_buckets(self):
        prof = build_profile(_prof_stream())
        master = prof.attribution[-1]
        assert master["journal"] == pytest.approx(0.3)
        assert master["digest"] == pytest.approx(0.1)
        worker = prof.attribution[0]
        assert worker["compute"] == pytest.approx(1.5)

    def test_queue_wait_distribution(self):
        prof = build_profile(_prof_stream())
        assert prof.queue_wait.count == 1
        assert prof.queue_wait.total == pytest.approx(0.75)

    def test_real_run_buckets_sum_to_wall_time(self, tmp_path):
        """The acceptance criterion: every lane accounts >= 95% of the
        trace extent on a real journaled threads run."""
        from repro.algorithms import EditDistance
        from repro.runtime.config import RunConfig
        from repro.runtime.system import EasyHPS

        problem = EditDistance("kitten" * 8, "sitting" * 8)
        cfg = RunConfig(
            nodes=2, threads_per_node=2, backend="threads", observe=True,
            journal_path=str(tmp_path / "run.journal"),
        )
        res = EasyHPS().run(problem, cfg)
        proc, _ = cfg.partitions_for(problem)
        pattern = problem.build_partition(proc).abstract
        prof = build_profile(res.report.events, pattern)
        assert prof.extent > 0
        assert prof.critical_path
        assert 0.0 < prof.efficiency <= 1.0
        for node, row in prof.attribution.items():
            assert sum(row.values()) >= 0.95 * prof.extent, node
        master = prof.attribution[-1]
        assert master["journal"] > 0  # journal-write spans made it through


class TestReplay:
    def test_more_workers_never_slower(self):
        pattern = get_pattern("wavefront", 4, 4)
        rec = EventRecorder(ManualClock())
        for i in range(4):
            for j in range(4):
                t0 = float(i + j)
                rec.emit("compute", (i, j), epoch=0, node=0, worker=0,
                         ts=t0 + 1.0, t0=t0, t1=t0 + 1.0)
                rec.emit("commit", (i, j), epoch=0, node=-1, ts=t0 + 1.0)
        prof = build_profile(rec.events(), pattern)
        last = math.inf
        for n in (1, 2, 4, 8):
            est = replay_schedule(prof.tasks, pattern, n)
            assert est <= last + 1e-12
            last = est
        # A 4x4 wavefront of unit tasks has a 7-task critical path.
        assert replay_schedule(prof.tasks, pattern, 16) == pytest.approx(7.0)

    def test_zero_comm_bound_is_faster_or_equal(self):
        pattern = get_pattern("wavefront", 3, 3)
        rec = EventRecorder(ManualClock())
        for i in range(3):
            for j in range(3):
                t0 = float(i + j)
                rec.emit("send", (i, j), epoch=0, node=0, ts=t0,
                         t0=t0, t1=t0 + 0.5, nbytes=100)
                rec.emit("compute", (i, j), epoch=0, node=0, worker=0,
                         ts=t0 + 1.0, t0=t0 + 0.5, t1=t0 + 1.0)
                rec.emit("commit", (i, j), epoch=0, node=-1, ts=t0 + 1.0)
        prof = build_profile(rec.events(), pattern)
        with_comm = replay_schedule(prof.tasks, pattern, 2)
        without = replay_schedule(prof.tasks, pattern, 2, comm_scale=0.0)
        assert without < with_comm
        scenarios = dict(what_if(prof, pattern, extra_workers=(1,)))
        assert len(scenarios) == 3

    def test_replay_rejects_zero_workers(self):
        with pytest.raises(ConfigError):
            replay_schedule({}, get_pattern("wavefront", 2, 2), 0)


class TestLinkCalibration:
    def test_fit_recovers_known_model(self):
        model = LinkModel(latency=1e-4, bandwidth=1e8)
        samples = [
            LinkSample(nbytes=n, seconds=model.transfer_time(n))
            for n in (100, 1_000, 10_000, 100_000, 1_000_000)
        ]
        fitted = fit_link(samples)
        assert fitted.latency == pytest.approx(model.latency, rel=1e-6)
        assert fitted.bandwidth == pytest.approx(model.bandwidth, rel=1e-6)

    def test_fit_needs_two_samples_and_size_spread(self):
        with pytest.raises(ConfigError):
            fit_link([LinkSample(nbytes=10, seconds=1.0)])
        with pytest.raises(ConfigError):
            fit_link([LinkSample(10, 1.0), LinkSample(10, 2.0)])

    def test_samples_from_msg_send_events(self):
        rec = EventRecorder(ManualClock())
        rec.emit("msg-send", (0, 0), epoch=0, scope="message",
                 nbytes=1000, type="TaskAssign", t_wire=1e-5, t_ser=1e-6)
        rec.emit("msg-send", (0, 1), epoch=0, scope="message",
                 nbytes=2000, type="TaskAssign", t_wire=2e-5, t_ser=2e-6)
        rec.emit("msg-recv", (0, 0), epoch=0, scope="message", nbytes=500)
        samples = build_profile(rec.events()).link_samples
        assert [s.nbytes for s in samples] == [1000, 2000]
        assert samples[0].seconds == pytest.approx(1.1e-5)

    def test_samples_fall_back_to_sim_send_spans(self):
        rec = EventRecorder(ManualClock())
        rec.emit("send", (0, 0), epoch=0, node=0, ts=0.0, t0=0.0, t1=0.25, nbytes=100)
        samples = build_profile(rec.events()).link_samples
        assert samples == [LinkSample(nbytes=100, seconds=0.25)]

    def test_report_mentions_reference_diff(self):
        model = LinkModel(latency=1e-4, bandwidth=1e8)
        samples = [
            LinkSample(nbytes=n, seconds=model.transfer_time(n))
            for n in (100, 10_000, 1_000_000)
        ]
        text = link_fit_report(samples, reference=LinkModel(2e-6, 3.2e9))
        assert "fitted vs reference" in text


class TestHistogramPercentiles:
    def test_exact_on_small_samples(self):
        h = Histogram()
        for v in range(1, 101):
            h.observe(float(v))
        assert h.percentile(0.50) == pytest.approx(50.5)
        assert h.percentile(0.95) == pytest.approx(95.05)
        assert h.percentile(1.0) == 100.0
        assert h.percentile(0.0) == 1.0

    def test_summary_includes_percentiles(self):
        h = Histogram()
        h.observe(1.0)
        h.observe(3.0)
        s = h.summary()
        assert {"p50", "p95", "p99"} <= set(s)
        assert s["p50"] == pytest.approx(2.0)

    def test_reservoir_stays_bounded_and_representative(self):
        h = Histogram()
        n = Histogram.SAMPLE_CAP * 8
        for v in range(n):
            h.observe(float(v))
        assert len(h._samples) <= Histogram.SAMPLE_CAP
        assert h.count == n
        # Systematic thinning keeps the quantiles honest.
        assert h.percentile(0.5) == pytest.approx(n / 2, rel=0.05)
        assert h.percentile(0.99) == pytest.approx(0.99 * n, rel=0.05)

    def test_rejects_bad_quantile(self):
        with pytest.raises(ValueError):
            Histogram().percentile(1.5)


class TestPartialTraces:
    def test_compute_stats_never_raises_on_truncation(self):
        events = _prof_stream()
        for cut in range(len(events) + 1):
            prof = build_profile(events[:cut])
            format_stats(prof)  # must render too
            prof.gantt_rows()

    def test_coverage_note_on_incomplete_tasks(self):
        rec = EventRecorder(ManualClock())
        rec.emit("assign", (0, 0), epoch=0, node=-1, worker=0, ts=0.0)
        rec.emit("assign", (0, 1), epoch=0, node=-1, worker=1, ts=0.5)
        rec.emit("commit", (0, 0), epoch=0, node=-1, worker=0, ts=1.0)
        prof = build_profile(rec.events())
        assert prof.tasks_assigned == 2
        assert prof.tasks_incomplete == 1
        text = format_stats(prof)
        assert "PARTIAL" in text
        assert "event kinds" in text

    def test_complete_trace_has_no_coverage_note(self):
        prof = build_profile(_prof_stream())
        assert prof.tasks_incomplete == 0
        assert "PARTIAL" not in format_stats(prof)

    def test_malformed_payload_fields_degrade_to_zero(self):
        rec = EventRecorder(ManualClock())
        rec.emit("send", (0, 0), epoch=0, node=0, ts=0.0, nbytes="junk")
        rec.emit("msg-send", (0, 0), epoch=0, scope="message", nbytes=None)
        prof = build_profile(rec.events())
        assert prof.bytes_to_slaves == 0
        assert prof.link_samples == []

    def test_build_profile_tolerates_partial_trace(self):
        events = _prof_stream()
        pattern = get_pattern("wavefront", 2, 2)
        for cut in range(len(events) + 1):
            prof = build_profile(events[:cut], pattern)
            format_perf_report(prof, pattern=pattern)

    def test_stats_percentile_lines_present(self):
        rec = EventRecorder(ManualClock())
        rec.emit("queue-wait", (0, 0), epoch=0, ts=1.0, t0=0.0, t1=1.0)
        rec.emit("msg-send", (0, 0), epoch=0, scope="message",
                 nbytes=10, t_wire=1e-5, t_ser=1e-6)
        text = format_stats(build_profile(rec.events()))
        assert "queue wait" in text
        assert "msg latency" in text


SRC = Path(repro.__file__).parent

#: The stream's readers allowed to branch on an event's kind: the fold
#: itself, the Chrome writer (one slice per event, no join) and the
#: protocol replay (ledger kinds into a fresh dispatch core).
STREAM_READERS = ("obs/prof.py", "obs/export.py", "check/trace_check.py")
#: The lifecycle kinds a fold joins on.
FOLD_KINDS = {"send", "compute", "commit", "msg-send"}


def _names_fold_kind(node: ast.expr) -> bool:
    if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
        return any(_names_fold_kind(e) for e in node.elts)
    return isinstance(node, ast.Constant) and node.value in FOLD_KINDS


class TestOneFold:
    def test_only_the_profile_folds_the_stream(self):
        """Outside the stream readers no module compares ``<x>.kind`` with
        a lifecycle kind or reads an event's span: a second fold (its own
        extent, node mapping or send/compute/commit join) fails here."""
        found = []
        for path in sorted(SRC.rglob("*.py")):
            rel = path.relative_to(SRC).as_posix()
            if rel in STREAM_READERS:
                continue
            for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
                if isinstance(node, ast.Compare):
                    sides = [node.left, *node.comparators]
                    if any(
                        isinstance(s, ast.Attribute) and s.attr == "kind" for s in sides
                    ) and any(_names_fold_kind(s) for s in sides):
                        found.append((rel, node.lineno, ast.unparse(node)))
                elif (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "span"
                    and not node.args
                ):
                    found.append((rel, node.lineno, ast.unparse(node)))
        assert found == []

    def test_the_retired_folds_are_gone(self):
        retired = {"compute_stats", "RunStats", "NodeStats", "to_gantt_trace",
                   "link_samples_from_events", "busy_fraction"}
        defined = [
            (path.relative_to(SRC).as_posix(), node.name)
            for path in sorted(SRC.rglob("*.py"))
            for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name in retired
        ]
        # The profile's own busy fraction is a view of its attribution.
        assert defined == [("obs/prof.py", "busy_fraction")]
