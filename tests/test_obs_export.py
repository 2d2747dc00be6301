"""Exporter tests: Perfetto JSON schema, lossless round-trip, and the
stream's consumers (the replay, the profile's Gantt rows and digest)."""

import json

import pytest

from repro.check.trace_check import LEDGER_KINDS, check_trace
from repro.dag.library import get_pattern
from repro.obs.export import (
    TRACE_FORMAT,
    event_from_json,
    event_to_json,
    read_trace,
    to_chrome_trace,
    write_trace,
)
from repro.obs.clock import ManualClock
from repro.obs.prof import build_profile
from repro.obs.recorder import EventRecorder, ObsEvent
from repro.obs.stats import format_stats, text_summary


def _lifecycle_stream():
    """A two-task, two-node stream covering spans, instants and messages."""
    clk = ManualClock()
    rec = EventRecorder(clk)
    for k, task in enumerate(((0, 0), (0, 1))):
        base = k * 10.0
        rec.emit("assign", task, epoch=0, node=-1, worker=k, ts=base)
        rec.emit("send", task, epoch=0, node=k, worker=k, ts=base,
                 t0=base, t1=base + 1.0, nbytes=100)
        rec.emit("msg-send", task, epoch=0, node=k, scope="message",
                 ts=base, nbytes=108, type="TaskAssign", endpoint=f"slave{k}")
        rec.emit("compute", task, epoch=0, node=k, worker=k, ts=base + 3.0,
                 t0=base + 1.0, t1=base + 3.0)
        rec.emit("result", task, epoch=0, node=k, worker=k, ts=base + 4.0, nbytes=50)
        rec.emit("commit", task, epoch=0, node=-1, worker=k, ts=base + 4.0)
    return rec.events()


class TestChromeTrace:
    def test_schema(self):
        doc = to_chrome_trace(_lifecycle_stream(), metrics={"counters": {"x": 1}})
        assert isinstance(doc["traceEvents"], list)
        assert doc["displayTimeUnit"] == "ms"
        assert doc["otherData"]["format"] == TRACE_FORMAT
        phases = {e["ph"] for e in doc["traceEvents"]}
        assert phases == {"X", "i", "M"}
        for e in doc["traceEvents"]:
            assert {"name", "ph", "pid", "tid"} <= set(e)
            if e["ph"] == "X":
                assert e["dur"] >= 0 and e["ts"] >= 0
            elif e["ph"] == "i":
                assert e["s"] == "t"
        # Metadata names the master (pid 0) and both nodes.
        meta = [e for e in doc["traceEvents"] if e["ph"] == "M" and e["name"] == "process_name"]
        labels = {e["args"]["name"] for e in meta}
        assert {"master", "node 0", "node 1"} <= labels

    def test_timestamps_rebased_to_origin(self):
        events = _lifecycle_stream()
        doc = to_chrome_trace(events)
        slices = [e for e in doc["traceEvents"] if e["ph"] in ("X", "i")]
        assert min(e["ts"] for e in slices) == 0.0

    def test_document_is_json_serializable(self):
        doc = to_chrome_trace(_lifecycle_stream())
        json.dumps(doc)


class TestRoundTrip:
    def test_event_json_round_trip(self):
        ev = ObsEvent(kind="compute", ts=1.5, task_id=(2, 3), epoch=1, node=0,
                      worker=2, scope="task", seq=7, data={"t0": 1.0, "t1": 1.5})
        clone = event_from_json(json.loads(json.dumps(event_to_json(ev))))
        assert clone == ev

    def test_write_read_round_trip(self, tmp_path):
        events = _lifecycle_stream()
        metrics = {"counters": {"tasks": 2.0}, "gauges": {}, "histograms": {}}
        path = str(tmp_path / "trace.json")
        write_trace(path, events, metrics=metrics, meta={"backend": "threads"})
        back, back_metrics, meta = read_trace(path)
        assert back == events
        assert back_metrics == metrics
        assert meta["backend"] == "threads"
        assert meta["format"] == TRACE_FORMAT

    def test_read_rejects_foreign_chrome_trace(self, tmp_path):
        path = tmp_path / "foreign.json"
        path.write_text(json.dumps({"traceEvents": []}))
        with pytest.raises(ValueError, match="repro"):
            read_trace(str(path))


class TestBridges:
    def test_obs_stream_feeds_check_trace(self):
        # The replay reads the telemetry stream as is: ledger kinds at
        # task scope (assign+commit of the 1x2 chain), nothing else.
        events = _lifecycle_stream()
        pattern = get_pattern("wavefront", 1, 2)
        report = check_trace(events, pattern, title="bridge")
        report.raise_if_failed()
        assert report.checked == sum(
            e.kind in LEDGER_KINDS and e.scope == "task" for e in events
        )

    def test_to_gantt_trace_rows(self):
        rows = build_profile(_lifecycle_stream()).gantt_rows()
        assert len(rows) == 2
        for row in rows:
            assert row.transfer_start <= row.compute_start
            assert row.compute_start <= row.compute_end <= row.result_at
        assert {r.node for r in rows} == {0, 1}

    def test_gantt_skips_uncommitted_epochs(self):
        clk = ManualClock()
        rec = EventRecorder(clk)
        # Epoch 0 times out (no commit); epoch 1 commits.
        rec.emit("assign", (0, 0), epoch=0, node=0, ts=0.0)
        rec.emit("compute", (0, 0), epoch=0, node=0, ts=1.0, t0=0.0, t1=1.0)
        rec.emit("redistribute", (0, 0), epoch=0, ts=5.0)
        rec.emit("assign", (0, 0), epoch=1, node=1, ts=5.0)
        rec.emit("compute", (0, 0), epoch=1, node=1, ts=6.0, t0=5.0, t1=6.0)
        rec.emit("commit", (0, 0), epoch=1, node=1, ts=6.0)
        rows = build_profile(rec.events()).gantt_rows()
        assert len(rows) == 1
        assert rows[0].node == 1


class TestStats:
    def test_compute_stats(self):
        prof = build_profile(_lifecycle_stream())
        assert prof.n_committed == 2
        assert prof.extent == pytest.approx(14.0)
        assert prof.computed == {0: 1, 1: 1}
        assert prof.attribution[0]["compute"] == pytest.approx(2.0)
        assert prof.attribution[1]["compute"] == pytest.approx(2.0)
        # Message-scope events take precedence for wire accounting.
        assert prof.messages_sent == 2
        assert prof.bytes_to_slaves == 216
        text = format_stats(prof)
        assert "node  0 : busy 2 s, idle 12 s (14.3% busy, 1 tasks)" in text

    def test_task_scope_fallback_for_bytes(self):
        events = tuple(e for e in _lifecycle_stream() if e.scope != "message")
        prof = build_profile(events)
        assert prof.messages_sent == 0
        assert prof.bytes_to_slaves == 200  # from task-scope send nbytes
        assert prof.bytes_to_master == 100  # from task-scope result nbytes

    def test_format_stats_mentions_required_lines(self):
        text = format_stats(build_profile(_lifecycle_stream()), title="t")
        assert "per-worker busy/idle" in text
        assert "bytes on wire" in text

    def test_text_summary_appends_metrics(self):
        text = text_summary(
            _lifecycle_stream(),
            {"counters": {"comm.messages_sent{endpoint=slave0}": 3.0}, "gauges": {}},
        )
        assert "metrics:" in text
        assert "comm.messages_sent{endpoint=slave0} = 3" in text
