"""End-to-end tests for ``repro perf``: trace profiling."""

import pytest

from repro import EasyHPS, RunConfig
from repro.algorithms import ALGORITHMS, make_problem
from repro.cli import main
from repro.cluster.faults import Faults
from repro.utils.errors import MasterCrash


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

    def test_resumed_trace_joins_the_dag(self, tmp_path, capsys):
        """``repro resume --trace-out`` writes the workload metadata ``repro
        run`` writes, so the continued run's trace gets a critical path."""
        journal = str(tmp_path / "run.journal")
        config = RunConfig(backend="threads", nodes=2, journal_path=journal,
                           journal_fsync=False, faults=Faults(kill_after=10))
        with pytest.raises(MasterCrash):
            EasyHPS(config).run(make_problem("edit-distance", 96, 0))
        trace = tmp_path / "resume.json"
        assert main(["resume", journal, "--trace-out", str(trace)]) == 0
        capsys.readouterr()
        assert main(["perf", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "54 committed tasks" in out
        assert "unavailable" not in out
        assert "sched efficiency" in out

    @pytest.mark.parametrize("name", sorted(ALGORITHMS))
    def test_problem_size_rebuilds_its_dag_at_any_seed(self, name):
        """What a resumed trace records as its size (the seed is not
        journaled) rebuilds the instance's process-level DAG."""
        problem = make_problem(name, 40, 3)
        if name == "cyk":
            assert problem.size is None  # the sentence's length is seeded
            return
        proc, _ = RunConfig().partitions_for(problem)
        dags = [p.build_partition(proc).abstract
                for p in (problem, make_problem(name, problem.size, 0))]
        orders = [list(dag.topological_order()) for dag in dags]
        assert orders[0] == orders[1]
        assert all(set(dags[0].predecessors(v)) == set(dags[1].predecessors(v))
                   for v in orders[0])

    def test_usage_error_without_inputs(self):
        with pytest.raises(SystemExit, match="nothing to do"):
            main(["perf"])

    def test_unreadable_trace_is_a_clean_error(self, tmp_path):
        bad = tmp_path / "nope.json"
        bad.write_text("{not json")
        with pytest.raises(SystemExit, match="cannot read trace"):
            main(["perf", str(bad)])
