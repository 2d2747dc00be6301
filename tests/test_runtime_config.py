"""Unit tests for RunConfig and the Experiment_X_Y accounting."""

import ast
import dataclasses
import inspect

import pytest

from repro.algorithms import EditDistance
from repro.runtime import config as config_mod
from repro.runtime.config import RunConfig
from repro.utils.errors import ConfigError


class TestValidation:
    def test_defaults_valid(self):
        cfg = RunConfig()
        assert cfg.n_slaves == 1

    def test_bad_backend(self):
        with pytest.raises(ConfigError):
            RunConfig(backend="mpi")

    def test_bad_scheduler(self):
        with pytest.raises(ConfigError):
            RunConfig(scheduler="lottery")
        with pytest.raises(ConfigError):
            RunConfig(thread_scheduler="lottery")

    def test_removed_lcf_pool_names_the_remaining_choices(self):
        with pytest.raises(ConfigError) as err:
            RunConfig(scheduler="dynamic-lcf")
        assert "one of ['bcw', 'cw', 'dynamic', 'dynamic-affinity']" in str(err.value)

    def test_nodes_minimum(self):
        with pytest.raises(ConfigError):
            RunConfig(nodes=1, backend="threads")
        RunConfig(nodes=1, backend="serial")  # serial runs need no slave

    def test_positive_scalars(self):
        with pytest.raises(ConfigError):
            RunConfig(threads_per_node=0)
        with pytest.raises(ConfigError):
            RunConfig(task_timeout=0)
        with pytest.raises(ConfigError):
            RunConfig(max_retries=-1)


class TestPartitionsResolution:
    def test_explicit_sizes(self):
        cfg = RunConfig(process_partition=(20, 10), thread_partition=5)
        proc, thread = cfg.partitions_for(EditDistance("ACGT" * 20, "ACGT" * 20))
        assert proc == (20, 10)
        assert thread == (5, 5)

    def test_problem_defaults_used(self):
        ed = EditDistance("A" * 80, "C" * 80)
        proc, thread = RunConfig().partitions_for(ed)
        assert proc[0] >= 1 and thread[0] >= 1
        assert thread[0] <= proc[0]


class TestExperimentFactory:
    def test_paper_accounting(self):
        cfg = RunConfig.experiment(4, 22)
        spec = cfg.cluster_spec()
        assert spec.total_nodes == 4
        assert spec.total_cores == 22
        assert cfg.backend == "simulated"

    def test_uneven_threads(self):
        cfg = RunConfig.experiment(3, 10)
        assert [n.threads for n in cfg.cluster_spec().compute_nodes] == [3, 2]
        assert cfg.threads_per_node == 3

    def test_overrides(self):
        cfg = RunConfig.experiment(3, 11, scheduler="bcw", process_partition=50)
        assert cfg.scheduler == "bcw"
        assert cfg.process_partition == 50

    def test_infeasible_rejected(self):
        with pytest.raises(ConfigError):
            RunConfig.experiment(4, 9)

    def test_derived_cluster_without_experiment(self):
        cfg = RunConfig(nodes=4, threads_per_node=3)
        spec = cfg.cluster_spec()
        assert spec.n_compute_nodes == 3
        assert all(n.threads == 3 for n in spec.compute_nodes)


class TestKnobCount:
    """The next knob or override is an explicit edit here."""

    def test_field_count_is_pinned(self):
        assert len(dataclasses.fields(RunConfig)) == 35

    def test_env_overrides_are_exactly_these(self):
        tree = ast.parse(inspect.getsource(config_mod))
        names = {
            node.args[0].value
            for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and getattr(node.func, "id", None) == "_env"
        }
        assert names == {
            "REPRO_JOURNAL_FSYNC", "REPRO_VERIFY", "REPRO_INTEGRITY",
            "REPRO_BATCH_WAVE", "REPRO_SHM",
        }


class TestBooleanOverrides:
    @pytest.mark.parametrize("raw,value", [
        ("1", True), ("true", True), ("YES", True), ("On", True),
        ("0", False), ("false", False), ("No", False), ("OFF", False),
    ])
    def test_accepted_words(self, monkeypatch, raw, value):
        # Any other spelling raises: TestDurableKnobs in test_durable_resume.py.
        monkeypatch.setenv("REPRO_VERIFY", raw)
        assert RunConfig().verify is value
