"""End-to-end kill -9 smoke: start a journaled processes-backend run as a
real subprocess, SIGKILL it mid-flight, then `repro resume --check-oracle`
and demand exit 0. This is the same scenario the CI kill-resume job runs."""

import os
import signal
import subprocess
import sys
import time

import pytest

from repro.durable import scan_journal

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")


def repro_cmd(*args):
    return [sys.executable, "-m", "repro", *args]


def repro_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return env


@pytest.mark.slow
def test_sigkill_master_then_resume_matches_oracle(tmp_path):
    journal = str(tmp_path / "master.journal")
    # Big enough that the run is still in flight when we pull the trigger
    # (64 blocks of 250 x 250, seconds of compute left after the second
    # commit; the margin is asserted below, not assumed); fsync off keeps
    # the smoke fast on slow CI disks.
    env = repro_env()
    env["REPRO_JOURNAL_FSYNC"] = "0"
    proc = subprocess.Popen(
        repro_cmd(
            "run", "--backend", "processes", "--nodes", "3",
            "--algo", "edit-distance", "--size", "2000",
            "--journal", journal,
        ),
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )
    try:
        # Wait for real progress (>= 2 journaled commits), then kill -9.
        deadline = time.monotonic() + 120.0
        while time.monotonic() < deadline:
            if proc.poll() is not None:
                pytest.fail("run finished before the kill — instance too small")
            try:
                if scan_journal(journal).n_committed >= 2:
                    break
            except Exception:
                pass  # journal not created / begin not written yet
            time.sleep(0.05)
        else:
            pytest.fail("no journal progress within 120 s")
        os.kill(proc.pid, signal.SIGKILL)
        proc.wait(timeout=30.0)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=30.0)

    scan = scan_journal(journal)
    assert 0 < scan.n_committed and not scan.ended
    # The kill landed mid-flight with room to spare: a faster kernel or a
    # slower poll shows up here long before it loses the race above.
    proc_size, _ = scan.config.partitions_for(scan.problem)
    n_blocks = scan.problem.build_partition(proc_size).n_blocks
    assert scan.n_committed < n_blocks / 2, (
        f"{scan.n_committed} of {n_blocks} blocks committed at the kill - instance too small"
    )

    resumed = subprocess.run(
        repro_cmd("resume", journal, "--check-oracle"),
        env=repro_env(),
        capture_output=True,
        text=True,
        timeout=300.0,
    )
    assert resumed.returncode == 0, resumed.stdout + resumed.stderr
    assert "oracle check" in resumed.stdout
    # And the journal now covers the whole run.
    assert scan_journal(journal).ended
