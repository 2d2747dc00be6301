"""Resource-exhaustion chaos campaigns and real fd-exhaustion behaviour.

The campaign invariant under injected I/O faults is the same hard
guarantee as every other chaos tier: each run either matches the serial
oracle bit-for-bit or aborts cleanly with an attributed
``ResourceExhausted`` — never a hang, never a torn journal, never a
leaked ``/dev/shm`` segment.  The last test drops ``RLIMIT_NOFILE`` in a
subprocess to exercise a *real* resource wall, not an injected one.
"""

import json
import subprocess
import sys
import textwrap

import pytest

from repro.chaos import CampaignSpec, run_campaign
from repro.utils.errors import ChaosError


def resource_spec(**over):
    base = dict(
        backends=("simulated",),
        seeds=4,
        algo="edit-distance",
        size=24,
        resources=True,
        message_p=0.0,
        worker_p_die=0.0,
        worker_p_slow=0.0,
        task_fault_p=0.0,
        io_p_write=0.1,
        io_p_fsync=0.05,
        io_p_shm=0.2,
        run_timeout=60.0,
    )
    base.update(over)
    return CampaignSpec(**base)


class TestResourceCampaign:
    def test_simulated_campaign_holds_invariant(self):
        result = run_campaign(resource_spec())
        assert result.ok, result.summary()
        statuses = {o.status for o in result.outcomes}
        assert statuses <= {"ok", "aborted"}

    def test_threads_campaign_holds_invariant(self):
        result = run_campaign(resource_spec(backends=("threads",), seeds=3))
        assert result.ok, result.summary()

    def test_aborts_are_attributed(self):
        # High persistent-ish pressure: some seed hits the abort arm of
        # the degrade cycle and the abort detail must name the resource.
        result = run_campaign(
            resource_spec(seeds=6, io_p_write=0.3, io_p_fsync=0.1)
        )
        assert result.ok, result.summary()
        aborted = [o for o in result.outcomes if o.status == "aborted"]
        assert aborted, "expected at least one clean abort at this pressure"
        assert any("resource-exhausted" in o.detail for o in aborted)

    def test_resources_excludes_kill_master(self):
        with pytest.raises(ChaosError):
            resource_spec(kill_master_at=0.5)

    def test_campaign_is_deterministic_per_seed(self):
        a = run_campaign(resource_spec(seeds=2))
        b = run_campaign(resource_spec(seeds=2))
        assert [(o.seed, o.status) for o in a.outcomes] == [
            (o.seed, o.status) for o in b.outcomes
        ]


FD_EXHAUSTION_SCRIPT = textwrap.dedent("""
    import json, resource, sys
    # Drop the fd ceiling so journal I/O hits a real EMFILE wall, then
    # burn every spare descriptor.
    resource.setrlimit(resource.RLIMIT_NOFILE, (32, 32))
    import numpy as np
    from repro import RunConfig
    from repro.algorithms import EditDistance
    from repro.durable import CommitJournal, JournalGuard, scan_journal
    from repro.comm.shm import leaked_segments
    from repro.utils.errors import ResourceExhausted

    path = sys.argv[1]
    problem = EditDistance.random(16, 16, seed=0)
    journal = CommitJournal.create(path, fsync=False)
    journal.begin(problem, RunConfig(backend="serial"))
    guard = JournalGuard(journal, mode="abort", retries=1, job_id="fd-job")
    guard.commit((0, 0), 0, {"cell": np.zeros((2, 2))})

    hogs = []
    try:
        while True:
            hogs.append(open("/dev/null", "rb"))
    except OSError:
        pass

    # Force the next append through a reopen (the repair path), which
    # must fail with EMFILE and surface as an attributed abort.
    guard.journal.log._fh.close()
    guard.journal.log._fh = None
    outcome = {}
    try:
        guard.commit((0, 1), 0, {"cell": np.zeros((2, 2))})
        outcome["status"] = "no-error"
    except ResourceExhausted as exc:
        outcome["status"] = "resource-exhausted"
        outcome["job_id"] = exc.job_id
        outcome["reason"] = exc.reason
    except BaseException as exc:  # noqa: BLE001 - report, don't mask
        outcome["status"] = f"unexpected:{type(exc).__name__}"

    for fh in hogs:
        fh.close()
    guard.close()
    scan = scan_journal(path)
    outcome["committed"] = sorted(map(list, scan.committed))
    outcome["truncated"] = scan.truncated
    outcome["shm_leaks"] = leaked_segments("")
    print(json.dumps(outcome))
""")


class TestRealFdExhaustion:
    def test_journal_under_rlimit_nofile_aborts_cleanly(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-c", FD_EXHAUSTION_SCRIPT, str(tmp_path / "j")],
            capture_output=True, text=True, timeout=120,
            env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin"},
        )
        assert proc.returncode == 0, proc.stderr[-2000:]
        outcome = json.loads(proc.stdout.strip().splitlines()[-1])
        assert outcome["status"] == "resource-exhausted", outcome
        assert outcome["job_id"] == "fd-job"
        assert outcome["reason"].startswith("resource-exhausted:fd")
        # The journal survived: a clean prefix holding the one commit
        # that landed before the wall, no torn tail, no shm leaks.
        assert outcome["committed"] == [[0, 0]]
        assert not outcome["truncated"]
        assert outcome["shm_leaks"] == []
