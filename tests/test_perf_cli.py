"""End-to-end tests for ``repro perf``: trace profiling."""

import pytest

from repro.cli import main


class TestPerfTraceReports:
    def test_simulated_trace_report(self, tmp_path, capsys):
        trace = tmp_path / "sim.json"
        assert main(["simulate", "--algo", "edit-distance", "--size", "96",
                     "--nodes", "2", "--cores", "4", "--trace-out", str(trace)]) == 0
        capsys.readouterr()
        assert main(["perf", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "critical path" in out
        assert "sched efficiency" in out
        assert "time attribution" in out
        assert "what-if" in out
        # Workload meta survived the round trip into the report title.
        assert "edit-distance" in out

    def test_threads_trace_report(self, tmp_path, capsys):
        trace = tmp_path / "thr.json"
        assert main(["run", "--algo", "edit-distance", "--size", "64",
                     "--backend", "threads", "--nodes", "2",
                     "--trace-out", str(trace)]) == 0
        capsys.readouterr()
        assert main(["perf", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "critical path" in out
        assert "time attribution" in out

    def test_multiple_traces_one_invocation(self, tmp_path, capsys):
        traces = []
        for i, backend in enumerate(("serial", "simulated")):
            trace = tmp_path / f"t{i}.json"
            verb = (["simulate", "--cores", "4"] if backend == "simulated"
                    else ["run", "--backend", backend])
            assert main(verb + ["--algo", "lcs", "--size", "48", "--nodes", "2",
                                "--trace-out", str(trace)]) == 0
            traces.append(str(trace))
        capsys.readouterr()
        assert main(["perf"] + traces) == 0
        out = capsys.readouterr().out
        assert out.count("time attribution") == 2

    def test_usage_error_without_inputs(self):
        with pytest.raises(SystemExit, match="nothing to do"):
            main(["perf"])

    def test_unreadable_trace_is_a_clean_error(self, tmp_path):
        bad = tmp_path / "nope.json"
        bad.write_text("{not json")
        with pytest.raises(SystemExit, match="cannot read trace"):
            main(["perf", str(bad)])
