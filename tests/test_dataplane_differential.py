"""Differential data-plane tier: batching x shm against the serial oracle.

Every algorithm in :mod:`repro.algorithms` is run through the parallel
backends with the data-plane knobs (``batch_wave`` wavefront batching,
``shm`` zero-copy block transport) toggled on and off, and each run is
checked against the serial oracle two ways:

- **Committed regions** — every state array is ``np.array_equal`` to the
  oracle's (bit-for-bit, not approximately);
- **Run digest** — the PR 5 XOR-fold over canonical content digests of
  every committed block matches the oracle's, proving commit-for-commit
  content identity regardless of commit order.

The simulated backend computes no cell values, so its differential check
is structural: same task count, full completion, and strictly fewer
protocol messages once batching amortizes the envelope.

Tier-1 covers threads and simulated across all algorithms plus a
two-algorithm processes slice of the full {shm} x {batch_wave} square
(grid + triangular dependency shapes); the complete processes matrix
rides the opt-in ``-m soak`` tier.
"""

import os

import numpy as np
import pytest

from repro import EasyHPS, RunConfig
from repro.algorithms import ALGORITHMS, make_problem
from repro.comm.shm import leaked_segments

SIZE = 32
SEED = 0
ALGO_NAMES = sorted(ALGORITHMS)

#: Processes subset for tier-1: one rectangular-grid dependency pattern
#: and one triangular one. The full matrix runs under ``-m soak``.
PROCESS_TIER1_ALGOS = ("lcs", "nussinov")


def _problem(name):
    return make_problem(name, SIZE, SEED)


def _config(backend, **overrides):
    base = dict(
        backend=backend,
        nodes=3,
        threads_per_node=2,
        poll_interval=0.005,
        task_timeout=30.0,
    )
    base.update(overrides)
    return RunConfig(**base)


@pytest.fixture(scope="module")
def oracle():
    """Serial-backend state and run digest for every algorithm."""
    results = {}
    system = EasyHPS(RunConfig(backend="serial"))
    for name in ALGO_NAMES:
        run = system.run(_problem(name))
        assert run.report.run_digest is not None
        results[name] = run
    return results


def _assert_matches_oracle(run, oracle_run):
    assert run.state is not None and oracle_run.state is not None
    assert set(run.state) == set(oracle_run.state)
    for key, expect in oracle_run.state.items():
        got = run.state[key]
        assert got.dtype == expect.dtype, key
        assert np.array_equal(got, expect), f"state[{key!r}] diverged from oracle"
    assert run.report.run_digest == oracle_run.report.run_digest
    assert run.report.n_tasks == oracle_run.report.n_tasks


# -- threads: all algorithms, batching on/off --------------------------------------


@pytest.mark.parametrize("batch", [False, True], ids=["batch-off", "batch-on"])
@pytest.mark.parametrize("algo", ALGO_NAMES)
def test_threads_differential(algo, batch, oracle):
    run = EasyHPS().run(
        _problem(algo), _config("threads", batch_wave=batch, max_batch=4)
    )
    _assert_matches_oracle(run, oracle[algo])


def test_threads_batching_reduces_messages(oracle):
    """Batching ships whole waves: strictly fewer envelopes on a real grid."""
    single = EasyHPS().run(_problem("lcs"), _config("threads"))
    batched = EasyHPS().run(_problem("lcs"), _config("threads", batch_wave=True))
    assert batched.report.messages < single.report.messages
    assert batched.report.run_digest == single.report.run_digest


# -- simulated: all algorithms, batching on/off ------------------------------------


@pytest.mark.parametrize("batch", [False, True], ids=["batch-off", "batch-on"])
@pytest.mark.parametrize("algo", ALGO_NAMES)
def test_simulated_completes(algo, batch, oracle):
    run = EasyHPS().run(
        _problem(algo), _config("simulated", batch_wave=batch, max_batch=4)
    )
    assert run.report.n_tasks == oracle[algo].report.n_tasks
    assert run.report.makespan > 0.0


@pytest.mark.parametrize("algo", ["lcs", "floyd-warshall", "nussinov"])
def test_simulated_batching_reduces_messages(algo):
    single = EasyHPS().run(_problem(algo), _config("simulated"))
    batched = EasyHPS().run(
        _problem(algo), _config("simulated", batch_wave=True, max_batch=8)
    )
    assert batched.report.messages <= single.report.messages
    assert batched.report.n_tasks == single.report.n_tasks


# -- processes: the full {shm} x {batch_wave} square -------------------------------

DATAPLANE_COMBOS = [
    pytest.param(False, False, id="shm-off-batch-off"),
    pytest.param(False, True, id="shm-off-batch-on"),
    pytest.param(True, False, id="shm-on-batch-off"),
    pytest.param(True, True, id="shm-on-batch-on"),
]


def _run_processes(algo, shm, batch, oracle):
    run = EasyHPS().run(
        _problem(algo),
        _config("processes", shm=shm, batch_wave=batch, max_batch=4),
    )
    _assert_matches_oracle(run, oracle[algo])
    # The data plane must leave /dev/shm clean for this process's runs.
    assert leaked_segments(f"repro-{os.getpid()}-") == []


@pytest.mark.parametrize("shm,batch", DATAPLANE_COMBOS)
@pytest.mark.parametrize("algo", PROCESS_TIER1_ALGOS)
def test_processes_differential(algo, shm, batch, oracle):
    _run_processes(algo, shm, batch, oracle)


@pytest.mark.soak
@pytest.mark.parametrize("shm,batch", DATAPLANE_COMBOS)
@pytest.mark.parametrize(
    "algo", [a for a in ALGO_NAMES if a not in PROCESS_TIER1_ALGOS]
)
def test_processes_differential_full(algo, shm, batch, oracle):
    _run_processes(algo, shm, batch, oracle)


def test_processes_shm_batching_reduces_messages(oracle):
    single = EasyHPS().run(_problem("lcs"), _config("processes"))
    both = EasyHPS().run(
        _problem("lcs"), _config("processes", shm=True, batch_wave=True)
    )
    assert both.report.messages < single.report.messages
    assert both.report.run_digest == single.report.run_digest
