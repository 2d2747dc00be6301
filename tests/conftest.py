"""Shared fixtures: small problem instances and fast run configurations."""

from __future__ import annotations

import os
import time

import pytest

from repro.algorithms import (
    EditDistance,
    LongestCommonSubsequence,
    MatrixChainOrder,
    Nussinov,
    SmithWatermanGG,
)
from repro.runtime.config import RunConfig

#: Environment tag every process this session starts (transitively)
#: inherits — how an orphan re-parented to init is still recognised.
_SESSION_TAG = f"REPRO_TEST_SESSION={os.getpid()}".encode()


def _live_descendants() -> list:
    """``pid: cmdline`` of every live process carrying the session tag."""
    out = []
    for pid in filter(str.isdigit, os.listdir("/proc")):
        if int(pid) == os.getpid():
            continue
        try:
            with open(f"/proc/{pid}/environ", "rb") as fh:
                tagged = _SESSION_TAG in fh.read().split(b"\0")
            if tagged:  # (a zombie's environ reads empty: not live)
                with open(f"/proc/{pid}/cmdline", "rb") as fh:
                    cmdline = fh.read().replace(bytes(1), b" ").decode()
                # The interpreter's own shared-memory tracker lives (by
                # design) until this process closes its pipe at exit.
                if "multiprocessing.resource_tracker" not in cmdline:
                    out.append(f"{pid}: {cmdline}")
        except OSError:
            continue  # exited mid-scan, or not ours to read
    return out


@pytest.fixture(scope="session", autouse=True)
def no_leaked_processes():
    """The suite must end with zero live child processes: slaves of a
    SIGKILLed master, daemons, pool workers — anything a test started."""
    key, _, value = _SESSION_TAG.decode().partition("=")
    os.environ[key] = value
    yield
    if not os.path.isdir("/proc"):
        return
    deadline = time.monotonic() + 5.0  # children already told to exit
    while (left := _live_descendants()) and time.monotonic() < deadline:
        time.sleep(0.1)
    assert not left, "processes outlived the test session:\n" + "\n".join(left)


@pytest.fixture
def edit_distance_small() -> EditDistance:
    return EditDistance.random(37, 53, seed=7)


@pytest.fixture
def lcs_small() -> LongestCommonSubsequence:
    return LongestCommonSubsequence.random(41, 29, seed=3)


@pytest.fixture
def swgg_small() -> SmithWatermanGG:
    return SmithWatermanGG.random(23, 31, seed=11)


@pytest.fixture
def nussinov_small() -> Nussinov:
    return Nussinov.random(40, seed=5)


@pytest.fixture
def matrix_chain_small() -> MatrixChainOrder:
    return MatrixChainOrder.random(25, seed=9)


@pytest.fixture
def threads_config() -> RunConfig:
    """A quick threads-backend configuration for integration tests."""
    return RunConfig(
        nodes=3,
        threads_per_node=2,
        backend="threads",
        process_partition=16,
        thread_partition=4,
        task_timeout=20.0,
        subtask_timeout=10.0,
        poll_interval=0.005,
    )


@pytest.fixture
def sim_config() -> RunConfig:
    """A small simulated-backend configuration."""
    return RunConfig.experiment(3, 11, process_partition=64, thread_partition=16)
