"""Abort attribution: every exhaustion error names its job and its cause,
and the attribution survives pickling and the serve IPC JSON boundary."""

import json
import pickle

import pytest

from repro.utils.errors import (
    FaultToleranceExhausted,
    InconsistentMatrix,
    JournalIOError,
    ResourceExhausted,
)


class TestResourceExhausted:
    def test_reason_grammar(self):
        exc = ResourceExhausted("disk full", job_id="job-7",
                               resource="disk", op="journal-write")
        assert exc.reason == "resource-exhausted:disk:journal-write"
        assert exc.job_id == "job-7"
        assert isinstance(exc, FaultToleranceExhausted)

    def test_reason_without_op(self):
        assert ResourceExhausted("x", resource="fd").reason == "resource-exhausted:fd"

    def test_str_carries_job_id(self):
        exc = ResourceExhausted("journal gone", job_id="job-3")
        assert "job-3" in str(exc)
        assert "job" not in str(ResourceExhausted("anon"))  # bare without id

    def test_pickle_round_trip_preserves_attribution(self):
        exc = ResourceExhausted("shm exhausted", job_id="run-1",
                                resource="shm", op="park")
        clone = pickle.loads(pickle.dumps(exc))
        assert type(clone) is ResourceExhausted
        assert clone.job_id == "run-1"
        assert clone.resource == "shm"
        assert clone.op == "park"
        assert clone.reason == exc.reason
        assert str(clone) == str(exc)

    def test_fault_tolerance_exhausted_pickles_with_job_id(self):
        exc = FaultToleranceExhausted("budget gone", job_id="job-2")
        clone = pickle.loads(pickle.dumps(exc))
        assert clone.job_id == "job-2"

    def test_journal_io_error_carries_op_errno_path(self):
        exc = JournalIOError("boom", op="fsync", errno=28, path="/tmp/j")
        assert (exc.op, exc.errno, exc.path) == ("fsync", 28, "/tmp/j")


class TestMasterAttribution:
    def test_guard_abort_carries_run_id(self, tmp_path):
        from repro import RunConfig
        from repro.algorithms import EditDistance
        from repro.cluster.faults import Faults, IoFaultPlan, IoFaultRule
        from repro.runtime.system import EasyHPS

        cfg = RunConfig(
            backend="threads", nodes=3,
            process_partition=4, thread_partition=2,
            journal_path=str(tmp_path / "j"), journal_fsync=False,
            journal_degrade="abort", journal_retries=0,
            faults=Faults(io=IoFaultPlan([IoFaultRule("write", "enospc", after=1)])),
            run_id="attrib-run",
        )
        with pytest.raises(ResourceExhausted) as err:
            EasyHPS(cfg).run(EditDistance.random(16, 16, seed=0))
        assert err.value.job_id == "attrib-run"
        assert err.value.reason.startswith("resource-exhausted:disk:journal-")


class TestIpcRoundTrip:
    def test_reason_survives_wal_snapshot_and_json(self, tmp_path):
        """A resource abort's machine-readable reason must survive the
        daemon's WAL, a daemon restart, and the JSON wire format."""
        from repro.serve import JobSpec, ServeDaemon

        wal_path = str(tmp_path / "serve.srvj")
        daemon = ServeDaemon(workers=1, wal_path=wal_path)
        daemon.start()
        decision = daemon.submit(JobSpec(algo="lcs", size=16, nodes=2))
        assert daemon.wait_idle(30.0)
        record = daemon.get(decision.job_id)
        # Simulate a resource abort outcome on a finished record via the
        # real finish path (the run itself completed cleanly).
        daemon._finish(record, "aborted", "injected disk full",
                       reason="resource-exhausted:disk:journal-write")
        daemon.drain(10.0)

        resumed = ServeDaemon(workers=1, wal_path=wal_path, resume=True)
        resumed.start()
        try:
            snapshots = resumed.jobs()
            wire = json.loads(json.dumps(snapshots))  # the IPC boundary
            assert wire[0]["reason"] == "resource-exhausted:disk:journal-write"
            assert wire[0]["status"] == "aborted"
        finally:
            resumed.drain(10.0)

    def test_snapshot_reason_defaults_empty(self):
        from repro.serve import JobSpec
        from repro.serve.job import JobRecord

        snap = JobRecord("job-1", JobSpec()).snapshot()
        assert snap["reason"] == ""
        json.dumps(snap)  # JSON-safe


def _break(algo, problem, state):
    """Contradict the recurrence at the cell the traceback reads first;
    returns that cell (for Floyd-Warshall, the pair whose path is read)."""
    import numpy as np

    if algo == "swgg":
        H = state["H"]
        cell = divmod(int(np.argmax(H)), H.shape[1])
        H[cell] += 1000.0
        return cell
    if algo == "floyd-warshall":
        W = state["W"]
        v = int(np.nonzero(np.isfinite(W[0, 1:]))[0][0]) + 1
        W[0, v] -= 1000.0
        return (0, v)
    F, last = state["F"], problem.n - 1
    if algo == "cyk":
        F[np.triu_indices(problem.n, 1)] = 0
        F[0, last] = np.uint64(1) << np.uint64(problem.grammar.index(problem.grammar.start))
    else:  # nussinov, optimal-bst, matrix-chain: no case reaches a raised score
        F[0, last] += 1000.0
    return (0, last)


@pytest.mark.parametrize(
    "algo", ["nussinov", "swgg", "cyk", "optimal-bst", "matrix-chain", "floyd-warshall"]
)
def test_a_wrong_matrix_names_its_cell_and_run(monkeypatch, algo):
    from repro import EasyHPS, RunConfig
    from repro.algorithms import make_problem
    from repro.algorithms.floyd_warshall import reconstruct_path

    problem = make_problem(algo, 12, 1)
    finalize, cells = problem.finalize, []

    def broken(state):
        cells.append(_break(algo, problem, state))
        result = finalize(state)
        if algo == "floyd-warshall":  # its traceback is path reconstruction
            reconstruct_path(problem.weights, result.dist, *cells[0])
        return result

    monkeypatch.setattr(problem, "finalize", broken)
    with pytest.raises(InconsistentMatrix) as err:
        EasyHPS(RunConfig(backend="serial", run_id="wrong-1")).run(problem)
    assert err.value.cell == cells[0] and err.value.run_id == "wrong-1"
    assert str(err.value).startswith("[run wrong-1]") and f"at cell {cells[0]}" in str(err.value)
