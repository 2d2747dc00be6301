"""Kill-master chaos campaigns: crash the journaling master at a seeded
commit, resume from the write-ahead journal, and demand an
oracle-identical result with the resume invariants intact."""

import pytest

from repro.chaos import CampaignSpec, run_campaign
from repro.utils.errors import ChaosError


class TestSpecValidation:
    @pytest.mark.parametrize("bad", [0.0, -0.5, 1.5])
    def test_kill_master_at_must_be_fraction(self, bad):
        with pytest.raises(ChaosError):
            CampaignSpec(kill_master_at=bad)

    def test_full_fraction_is_allowed(self):
        assert CampaignSpec(kill_master_at=1.0).kill_master_at == 1.0


class TestKillMasterCampaign:
    @pytest.mark.parametrize("backend", ["simulated", "threads", "processes"])
    def test_kill_resume_campaign_all_acceptable(self, backend):
        spec = CampaignSpec(
            backends=(backend,),
            seeds=3,
            size=48,
            nodes=3,
            kill_master_at=0.5,
            # Kill-mode isolates the master crash: no extra fault pressure.
            message_p=0.0,
            worker_p_die=0.0,
            worker_p_slow=0.0,
            task_fault_p=0.0,
        )
        result = run_campaign(spec)
        assert len(result.outcomes) == 3
        assert result.ok, result.summary()
        # Every seed killed the master and came back — none were skipped.
        assert all(o.status == "ok" for o in result.outcomes), result.summary()

    @pytest.mark.parametrize("backend", ["threads", "processes"])
    def test_kill_resume_with_batched_group_commits(self, backend):
        # Under batch_wave a wave's results commit as one journal group,
        # so the kill point can fall between two records of one group.
        spec = CampaignSpec(
            backends=(backend,), seeds=3, size=48, nodes=3, kill_master_at=0.5,
            batch_wave=True, message_p=0.0, worker_p_die=0.0, worker_p_slow=0.0,
            task_fault_p=0.0,
        )
        result = run_campaign(spec)
        assert result.ok, result.summary()
        assert [o.status for o in result.outcomes] == ["ok"] * 3, result.summary()

    def test_seeded_kill_points_are_deterministic(self):
        spec = CampaignSpec(
            backends=("simulated",), seeds=2, size=48, kill_master_at=0.4,
            message_p=0.0, worker_p_die=0.0, worker_p_slow=0.0, task_fault_p=0.0,
        )
        first = run_campaign(spec)
        second = run_campaign(spec)
        assert [o.status for o in first.outcomes] == [
            o.status for o in second.outcomes
        ]
        assert first.ok and second.ok
