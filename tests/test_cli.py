"""Tests for the command-line interface."""

import pytest

from repro.algorithms import ALGORITHMS
from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.algo == "edit-distance"
        assert args.backend == "threads"
        assert args.nodes == 3

    def test_simulate_defaults(self):
        args = build_parser().parse_args(["simulate", "--cores", "30"])
        assert args.cores == 30
        assert not args.gantt


class TestCommands:
    def test_info(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "backends" in out
        assert "swgg" in out
        assert "floyd-warshall" in out

    def test_run_serial(self, capsys):
        assert main(["run", "--algo", "lcs", "--size", "40", "--backend", "serial",
                     "--nodes", "1"]) == 0
        out = capsys.readouterr().out
        assert "lcs via serial" in out
        assert "result:" in out

    def test_run_threads(self, capsys):
        assert main(["run", "--algo", "edit-distance", "--size", "50"]) == 0
        assert "edit-distance via threads" in capsys.readouterr().out

    def test_simulate(self, capsys):
        assert main(["simulate", "--algo", "nussinov", "--size", "400",
                     "--nodes", "3", "--cores", "11"]) == 0
        assert "simulated" in capsys.readouterr().out

    def test_simulate_with_gantt(self, capsys):
        assert main(["simulate", "--algo", "swgg", "--size", "400",
                     "--nodes", "3", "--cores", "11", "--gantt"]) == 0
        out = capsys.readouterr().out
        assert "node  0 |" in out

    def test_calibrate(self, capsys):
        assert main(["calibrate", "--algo", "edit-distance", "--size", "80",
                     "--repeats", "1"]) == 0
        out = capsys.readouterr().out
        assert "fitted rate" in out
        assert "calibrated NodeSpec" in out
        # Blocks of 10 stay whole at any thread count; the handoff line and
        # the floor it justifies are printed beside the curve.
        assert "quarter-block regions (10, 10) (4 thread(s) a node, 1 x 1 a block)" in out
        assert "pool handoff on a (10, 10) block" in out
        assert "MIN_REGION_EDGE = 32" in out

    def test_unknown_algorithm(self):
        with pytest.raises(SystemExit, match="unknown algorithm"):
            main(["run", "--algo", "quicksort"])

    def test_audit_fraction_requires_audit_mode(self, monkeypatch):
        # Outside audit mode nothing is ever audited: the flag would be
        # silently ignored, so the run is refused instead.
        monkeypatch.delenv("REPRO_INTEGRITY", raising=False)
        with pytest.raises(SystemExit, match="--integrity audit"):
            main(["run", "--algo", "lcs", "--size", "20", "--audit-fraction", "0.5"])
        with pytest.raises(SystemExit, match="--integrity audit"):
            main(["run", "--algo", "lcs", "--size", "20", "--integrity", "vote",
                  "--audit-fraction", "0.5"])
        assert main(["run", "--algo", "lcs", "--size", "20", "--integrity", "audit",
                     "--audit-fraction", "0.5"]) == 0

    def test_registry_factories_produce_problems(self):
        from repro.algorithms.problem import DPProblem

        for name, factory in ALGORITHMS.items():
            problem = factory(12, 0)
            assert isinstance(problem, DPProblem), name


class TestChaosCommand:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["chaos"])
        assert args.seeds == 10
        assert args.backend is None  # resolved to (simulated, threads) later

    def test_small_campaign_exits_zero(self, capsys):
        assert main(["chaos", "--seeds", "2", "--backend", "simulated",
                     "--size", "32"]) == 0
        out = capsys.readouterr().out
        assert "invariant held" in out

    def test_quiet_suppresses_per_run_lines(self, capsys):
        assert main(["chaos", "--seeds", "1", "--backend", "simulated",
                     "--size", "32", "--quiet"]) == 0
        out = capsys.readouterr().out
        assert "faults injected," not in out.splitlines()[0]  # no per-run lines
        assert out.startswith("chaos campaign:")

    def test_fault_exhaustion_is_a_documented_exit_code(self, capsys, monkeypatch):
        # A clean abort must exit with code 3 and a message, not a traceback.
        import repro.cli as cli
        from repro.utils.errors import FaultToleranceExhausted

        def boom(args):
            raise FaultToleranceExhausted("all workers lost")

        monkeypatch.setitem(
            vars(cli), "cmd_run", boom
        )
        # Re-wire the parser default to the patched function.
        parser = cli.build_parser()
        args = parser.parse_args(["run", "--size", "20"])
        args.fn = boom
        monkeypatch.setattr(cli, "build_parser", lambda: _FixedParser(args))
        assert cli.main(["run", "--size", "20"]) == cli.EXIT_FAULT_EXHAUSTED == 3
        err = capsys.readouterr().err
        assert "fault tolerance exhausted" in err
        assert "Traceback" not in err


class _FixedParser:
    def __init__(self, args):
        self._args = args

    def parse_args(self, argv=None):
        return self._args
