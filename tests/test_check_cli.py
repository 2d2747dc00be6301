"""The ``repro check`` CLI verb."""

import pytest

from repro.cli import main


class TestCheckCommand:
    def test_all_builtin_exits_zero(self, capsys):
        assert main(["check", "--all-builtin"]) == 0
        out = capsys.readouterr().out
        assert "0 failed" in out
        assert "pattern:wavefront-6x9" in out
        assert "algorithm:lcs" in out

    def test_default_is_all_builtin(self, capsys):
        assert main(["check", "--size", "12"]) == 0
        assert "0 failed" in capsys.readouterr().out

    def test_selftest_exits_zero(self, capsys):
        assert main(["check", "--selftest"]) == 0
        out = capsys.readouterr().out
        assert "[pattern-cycle]" in out
        assert "[lock-cycle]" in out
        assert "MISS" not in out

    def test_single_pattern(self, capsys):
        assert main(["check", "--pattern", "wavefront", "--size", "8"]) == 0
        assert "pattern:wavefront-8" in capsys.readouterr().out

    def test_single_triangular_pattern(self, capsys):
        assert main(["check", "--pattern", "triangular", "--size", "7"]) == 0

    def test_single_algorithm(self, capsys):
        assert main(["check", "--algo", "lcs", "--size", "16"]) == 0
        assert "algorithm:lcs" in capsys.readouterr().out

    def test_unknown_pattern_rejected(self):
        with pytest.raises(SystemExit):
            main(["check", "--pattern", "moebius"])

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(SystemExit):
            main(["check", "--algo", "bogosort"])

    def test_exclusive_targets(self, capsys):
        with pytest.raises(SystemExit):
            main(["check", "--selftest", "--pattern", "wavefront"])
        capsys.readouterr()


class TestExitCodeContract:
    """The documented contract: 0 clean, 1 failed checks, 2 usage error."""

    def test_clean_run_exits_zero(self, capsys):
        assert main(["check", "--pattern", "wavefront", "--size", "6"]) == 0
        capsys.readouterr()

    def test_failed_checks_exit_one(self, capsys, monkeypatch):
        import repro.check.fixtures as fixtures

        monkeypatch.setattr(
            fixtures, "run_selftest",
            lambda: [("blind-spot", "some-code", False)],
        )
        assert main(["check", "--selftest"]) == 1
        out = capsys.readouterr().out
        assert "MISS" in out
        assert "1 failed" in out

    def test_usage_error_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["check", "--no-such-flag"])
        assert exc.value.code == 2
        capsys.readouterr()

    def test_conflicting_targets_exit_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["check", "--selftest", "--protocol"])
        assert exc.value.code == 2
        capsys.readouterr()

    def test_selftest_covers_the_fixture_floor(self, capsys):
        assert main(["check", "--selftest"]) == 0
        out = capsys.readouterr().out
        fixtures = [line for line in out.splitlines() if "(expects [" in line]
        assert len(fixtures) >= 12  # issue floor; currently 18


class TestProtocolAndExplore:
    def test_protocol_target(self, capsys):
        assert main(["check", "--protocol", "--size", "16"]) == 0
        out = capsys.readouterr().out
        assert "lint:message-dispatch" in out
        assert "protocol:conformance:simulated" in out
        assert "protocol:conformance:threads" in out
        assert "5 targets checked, 0 failed" in out

    def test_protocol_target_refuses_a_one_block_size(self, capsys):
        # At --size 2 the grid is one block, so the faulted run's
        # duplicate of block (1, 1) could never fire.
        with pytest.raises(SystemExit) as exc:
            main(["check", "--protocol", "--size", "2"])
        assert exc.value.code != 0
        assert "at least 3" in str(exc.value.code)
        assert "protocol:conformance" not in capsys.readouterr().out

    def test_explore_target(self, capsys, tmp_path):
        assert main([
            "check", "--explore", "--explore-grid", "2", "2",
            "--artifact-dir", str(tmp_path),
        ]) == 0
        out = capsys.readouterr().out
        assert "exploration:" in out
        assert "exhaustive" in out
        assert "protocol:explore" in out
        assert not list(tmp_path.iterdir())  # clean run: no artifacts

    def test_replay_of_unreadable_trace_is_usage_error(self, capsys):
        with pytest.raises(SystemExit):
            main(["check", "--replay", "/nonexistent/trace.json"])
        capsys.readouterr()


class TestVerifyFlag:
    def test_run_verify(self, capsys):
        assert main([
            "run", "--algo", "lcs", "--size", "24", "--verify",
            "--nodes", "3", "--threads", "2",
        ]) == 0
        assert "result:" in capsys.readouterr().out

    def test_simulate_verify(self, capsys):
        assert main([
            "simulate", "--algo", "nussinov", "--size", "30",
            "--nodes", "3", "--cores", "9", "--verify",
        ]) == 0
