"""Integration tests: the real master/slave runtime end to end.

Every bundled algorithm runs through the threads backend and must produce
results identical to its serial reference; scheduling policies, worker
counts, and partition shapes are varied to exercise the protocol broadly.
"""

import numpy as np
import pytest

from repro import EasyHPS, RunConfig
from repro.algorithms import (
    EditDistance,
    LongestCommonSubsequence,
    MatrixChainOrder,
    Nussinov,
    SmithWatermanGG,
)


def cfg(**kw):
    base = dict(
        nodes=3,
        threads_per_node=2,
        backend="threads",
        process_partition=16,
        thread_partition=4,
        task_timeout=30.0,
        poll_interval=0.005,
    )
    base.update(kw)
    return RunConfig(**base)


class TestThreadsBackendCorrectness:
    def test_edit_distance(self, edit_distance_small):
        run = EasyHPS(cfg()).run(edit_distance_small)
        assert run.value.distance == edit_distance_small.reference()
        assert run.report.n_tasks > 1
        assert run.report.backend == "threads"

    def test_lcs(self, lcs_small):
        run = EasyHPS(cfg(process_partition=12)).run(lcs_small)
        assert run.value.length == lcs_small.reference()

    def test_swgg_full_matrix(self, swgg_small):
        run = EasyHPS(cfg(process_partition=8, thread_partition=3)).run(swgg_small)
        assert np.allclose(run.state["H"], swgg_small.reference_matrix())

    def test_nussinov(self, nussinov_small):
        run = EasyHPS(cfg(process_partition=10, thread_partition=5)).run(nussinov_small)
        assert run.value.score == nussinov_small.reference()

    def test_matrix_chain(self, matrix_chain_small):
        run = EasyHPS(cfg(process_partition=8, thread_partition=4)).run(matrix_chain_small)
        assert np.isclose(run.value.cost, matrix_chain_small.reference())

    @pytest.mark.parametrize("n_nodes", [2, 3, 5])
    def test_worker_counts(self, n_nodes, edit_distance_small):
        run = EasyHPS(cfg(nodes=n_nodes)).run(edit_distance_small)
        assert run.value.distance == edit_distance_small.reference()
        assert sum(run.report.tasks_per_worker.values()) == run.report.n_tasks

    def test_single_block_degenerate(self):
        ed = EditDistance("ACGT", "TGCA")
        run = EasyHPS(cfg(process_partition=64, thread_partition=64)).run(ed)
        assert run.value.distance == ed.reference()
        assert run.report.n_tasks == 1

    def test_one_cell_blocks_degenerate(self):
        ed = EditDistance("ACG", "TG")
        run = EasyHPS(cfg(process_partition=1, thread_partition=1)).run(ed)
        assert run.value.distance == ed.reference()
        assert run.report.n_tasks == 6


class TestSchedulingPolicies:
    @pytest.mark.parametrize("scheduler", ["dynamic", "bcw", "cw"])
    def test_node_level_policies_correct(self, scheduler, lcs_small):
        run = EasyHPS(cfg(scheduler=scheduler)).run(lcs_small)
        assert run.value.length == lcs_small.reference()

    @pytest.mark.parametrize("thread_scheduler", ["dynamic", "bcw"])
    def test_thread_level_policies_correct(self, thread_scheduler, nussinov_small):
        run = EasyHPS(cfg(thread_scheduler=thread_scheduler, process_partition=10,
                          thread_partition=3)).run(nussinov_small)
        assert run.value.score == nussinov_small.reference()

    def test_bcw_ownership_respected(self, edit_distance_small):
        run = EasyHPS(cfg(scheduler="bcw", nodes=3)).run(edit_distance_small)
        # 37x53 cells / 16 -> 3x4 block grid; columns deal 0,1,0,1 over 2
        # slaves: each slave owns 2 columns x 3 rows = 6 blocks.
        assert run.report.tasks_per_worker == {0: 6, 1: 6}


class TestReporting:
    def test_message_accounting(self, edit_distance_small):
        run = EasyHPS(cfg()).run(edit_distance_small)
        r = run.report
        # Protocol: per executed task one idle + one assign + one result,
        # plus one final idle + end per slave.
        assert r.messages >= 3 * r.n_tasks
        assert r.bytes_to_slaves > 0
        assert r.bytes_to_master > 0

    def test_subtask_accounting(self, edit_distance_small):
        run = EasyHPS(cfg()).run(edit_distance_small)
        part_cells = 37 * 53
        assert run.report.n_subtasks >= run.report.n_tasks
        assert run.report.total_flops == 3.0 * part_cells

    def test_summary_renders(self, edit_distance_small):
        run = EasyHPS(cfg()).run(edit_distance_small)
        text = run.report.summary()
        assert "edit-distance" in text
        assert "makespan" in text


class TestSerialBackend:
    def test_serial_matches_reference(self, nussinov_small):
        run = EasyHPS(RunConfig(nodes=1, backend="serial", process_partition=8,
                                thread_partition=4)).run(nussinov_small)
        assert run.value.score == nussinov_small.reference()
        assert run.report.nodes == 1

    def test_rejects_non_problem(self):
        from repro.utils.errors import ConfigError

        with pytest.raises(ConfigError):
            EasyHPS(RunConfig(backend="serial")).run("not a problem")


@pytest.mark.slow
class TestProcessesBackend:
    def test_edit_distance_across_processes(self, edit_distance_small):
        run = EasyHPS(cfg(backend="processes", nodes=3)).run(edit_distance_small)
        assert run.value.distance == edit_distance_small.reference()
        assert run.report.backend == "processes"

    def test_nussinov_across_processes(self, nussinov_small):
        run = EasyHPS(cfg(backend="processes", nodes=2, process_partition=10,
                          thread_partition=5)).run(nussinov_small)
        assert run.value.score == nussinov_small.reference()

    def test_swgg_across_processes_with_bcw(self, swgg_small):
        run = EasyHPS(cfg(backend="processes", scheduler="bcw",
                          process_partition=8, thread_partition=4)).run(swgg_small)
        assert np.allclose(run.state["H"], swgg_small.reference_matrix())

    def test_fault_recovery_across_processes(self, edit_distance_small):
        """A slave OS process that drops a task must be recovered by the
        master's overtime redistribution — the closest functional analogue
        of a killed MPI rank this substrate can express."""
        from repro.cluster.faults import FaultPlan, FaultRule, Faults

        plan = FaultPlan([FaultRule("crash", (0, 0), 0)])
        run = EasyHPS(cfg(backend="processes", nodes=3, threads_per_node=1,
                          task_timeout=0.5, faults=Faults(task=plan))).run(edit_distance_small)
        assert run.value.distance == edit_distance_small.reference()
        assert run.report.faults_recovered >= 1
