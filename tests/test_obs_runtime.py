"""End-to-end telemetry tests across backends, plus the overhead guard."""

import json
import random

import pytest

from repro.algorithms import SmithWatermanGG
from repro.check.trace_check import check_trace
from repro.obs.export import read_trace, write_trace
from repro.obs.recorder import LIFECYCLE_KINDS, NULL_RECORDER
from repro.runtime.config import RunConfig
from repro.runtime.system import EasyHPS

BACKENDS = ("serial", "threads", "processes", "simulated")

#: The canonical task lifecycle every backend must emit per committed task.
CANONICAL = ("assign", "send", "compute", "result", "commit")


def _swgg(n=48, seed=1):
    rng = random.Random(seed)
    a = "".join(rng.choice("ACGT") for _ in range(n))
    b = "".join(rng.choice("ACGT") for _ in range(n))
    return SmithWatermanGG(a, b)


def _run(backend, **overrides):
    base = dict(nodes=3, threads_per_node=2, backend=backend)
    base.update(overrides)
    return EasyHPS().run(_swgg(), RunConfig(**base))


def _per_task_kinds(events):
    # Lifecycle kinds only: the stream also carries task-scoped profiling
    # spans (queue-wait, digest-compute, journal-write) when observing.
    out = {}
    for ev in sorted(events, key=lambda e: e.seq):
        if ev.scope == "task" and ev.task_id is not None and ev.kind in LIFECYCLE_KINDS:
            out.setdefault((ev.task_id, ev.epoch), []).append(ev.kind)
    return out


class TestCrossBackendIdentity:
    @pytest.fixture(scope="class")
    def runs(self):
        return {b: _run(b, observe=True) for b in BACKENDS}

    def test_every_backend_emits_canonical_lifecycle(self, runs):
        for backend, res in runs.items():
            per_task = _per_task_kinds(res.report.events)
            assert per_task, backend
            sequences = {tuple(v) for v in per_task.values()}
            assert sequences == {CANONICAL}, backend

    def test_same_task_set_everywhere(self, runs):
        task_sets = {
            b: {t for (t, _e) in _per_task_kinds(r.report.events)}
            for b, r in runs.items()
        }
        reference = task_sets["serial"]
        assert reference
        for backend, tasks in task_sets.items():
            assert tasks == reference, backend

    def test_commit_order_is_a_valid_dag_linearization(self, runs):
        problem = _swgg()
        for backend, res in runs.items():
            cfg = RunConfig(nodes=3, threads_per_node=2, backend=backend)
            proc_size, _ = cfg.partitions_for(problem)
            pattern = problem.build_partition(proc_size).abstract
            report = check_trace(res.report.events, pattern, title=f"obs-{backend}")
            assert report.ok, f"{backend}: {report.diagnostics}"

    def test_trace_flag_yields_gantt_rows_on_every_backend(self):
        from repro.analysis.gantt import render_gantt

        for backend in BACKENDS:
            res = _run(backend, observe=True)
            trace = res.report.trace
            assert trace is not None and len(trace) == res.report.n_tasks, backend
            for row in trace:
                assert row.transfer_start <= row.compute_start
                assert row.compute_start <= row.compute_end <= row.result_at
            art = render_gantt(trace, width=40, makespan=res.report.makespan)
            assert "node" in art


class TestOverheadGuard:
    def test_disabled_run_attaches_no_telemetry(self):
        res = _run("threads")  # observe defaults to False
        assert res.report.events is None
        assert res.report.metrics is None
        assert res.report.trace is None

    def test_disabled_run_instantiates_no_recorder(self, monkeypatch):
        """The disabled path must never build an EventRecorder at all."""
        # Every backend's recorder comes from the shared run assembly.
        import repro.runtime.assembly as assembly_mod

        def explode(*args, **kwargs):
            raise AssertionError("EventRecorder built on a disabled run")

        monkeypatch.setattr(assembly_mod, "EventRecorder", explode)
        monkeypatch.setattr(assembly_mod, "MetricsRegistry", explode)
        for backend in BACKENDS:
            _run(backend)

    def test_disabled_runtime_parts_share_the_null_recorder(self):
        """No per-run recorder objects exist when observation is off."""
        from repro.comm.transport import channel_pair
        from repro.runtime.master import MasterPart
        from repro.schedulers.policy import make_policy

        problem = _swgg()
        cfg = RunConfig(nodes=3, threads_per_node=2, backend="threads", verify=False)
        proc_size, _ = cfg.partitions_for(problem)
        partition = problem.build_partition(proc_size)
        policy = make_policy("dynamic", 2, partition.grid.n_block_cols)
        channels = [channel_pair()[0] for _ in range(2)]
        master = MasterPart(problem, partition, channels, policy, cfg)
        assert master.sched.obs is NULL_RECORDER
        # Nor a verify trace: with both off the tracer is disabled outright.
        assert master.sched.trace is None and not master.sched.enabled
        assert all(ch._obs is NULL_RECORDER for ch in channels)

    def test_null_emit_allocates_no_event(self):
        assert NULL_RECORDER.emit("assign", (0, 0), epoch=0, nbytes=4) is None
        assert NULL_RECORDER.events() == ()


class TestTraceFileEndToEnd:
    def test_exported_processes_trace_passes_check_trace(self, tmp_path):
        res = _run("processes", observe=True)
        path = str(tmp_path / "trace.json")
        write_trace(path, res.report.events, metrics=res.report.metrics)
        events, metrics, _meta = read_trace(path)
        assert events == res.report.events
        problem = _swgg()
        cfg = RunConfig(nodes=3, threads_per_node=2, backend="processes")
        proc_size, _ = cfg.partitions_for(problem)
        pattern = problem.build_partition(proc_size).abstract
        check_trace(events, pattern, title="file").raise_if_failed()
        assert metrics["counters"]

    def test_file_is_perfetto_loadable_json(self, tmp_path):
        res = _run("serial", observe=True)
        path = tmp_path / "trace.json"
        write_trace(str(path), res.report.events)
        doc = json.loads(path.read_text())
        assert isinstance(doc["traceEvents"], list) and doc["traceEvents"]


class TestCli:
    def test_run_trace_out_then_stats(self, tmp_path, capsys):
        from repro.cli import main

        path = str(tmp_path / "trace.json")
        rc = main([
            "run", "--algo", "swgg", "--backend", "threads", "--size", "48",
            "--nodes", "3", "--threads", "2", "--trace-out", path,
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "trace written" in out
        assert "telemetry" in out

        rc = main(["stats", path])
        assert rc == 0
        out = capsys.readouterr().out
        assert "per-worker busy/idle" in out
        assert "bytes on wire" in out

    def test_stats_rejects_non_trace_file(self, tmp_path):
        from repro.cli import main

        bogus = tmp_path / "bogus.json"
        bogus.write_text("{}")
        with pytest.raises(SystemExit):
            main(["stats", str(bogus)])
