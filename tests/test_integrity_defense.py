"""End-to-end silent-data-corruption defense on the threads backend.

The layering under test: a lying worker slips past digest-only
verification (its digests are self-consistent) but is convicted by audit
recompute or voting; stale-digest corruption is caught at receive; and
with integrity off the machinery costs nothing and guards nothing.
Every defended run must end state-identical to the serial oracle.
"""

import pytest

from repro import EasyHPS, RunConfig
from repro.algorithms import EditDistance
from repro.cluster.faults import (
    Faults,
    MessageFaultPlan,
    MessageFaultRule,
    WorkerFaultPlan,
    WorkerFaultRule,
)
from repro.utils.errors import FaultToleranceExhausted


@pytest.fixture
def problem():
    return EditDistance.random(48, 48, seed=9)


def cfg(**kw):
    base = dict(
        nodes=3,
        threads_per_node=1,
        backend="threads",
        process_partition=16,
        thread_partition=8,
        task_timeout=0.5,
        poll_interval=0.005,
        observe=True,
    )
    base.update(kw)
    return RunConfig(**base)


def oracle_digest(problem, integrity="digest"):
    run = EasyHPS(cfg(backend="serial", nodes=1, integrity=integrity)).run(problem)
    return run.report.run_digest


LIAR_0 = WorkerFaultPlan([WorkerFaultRule("liar", worker_id=0, after_tasks=0)])


class TestLiarWorker:
    def test_digest_only_is_blind_to_a_liar(self, problem):
        """The liar's digests are computed over the lied payload, so
        receive-side verification passes and the corruption commits —
        visible as a run digest diverging from the serial oracle."""
        run = EasyHPS(
            cfg(integrity="digest", faults=Faults(worker=LIAR_0))
        ).run(problem)
        assert run.report.audits_convicted == 0
        assert run.report.digest_rejects == 0
        assert run.report.run_digest != oracle_digest(problem)

    def test_audit_convicts_and_recovers(self, problem):
        run = EasyHPS(
            cfg(
                integrity="audit",
                audit_fraction=1.0,
                quarantine_threshold=10**6,  # isolate the audit layer
                faults=Faults(worker=LIAR_0),
            )
        ).run(problem)
        assert run.value.distance == problem.reference()
        assert run.report.run_digest == oracle_digest(problem)
        assert run.report.audits_convicted >= 1
        assert run.report.tainted_recomputes >= 1

    def test_quarantine_retires_a_serial_liar(self, problem):
        run = EasyHPS(
            cfg(
                integrity="audit",
                audit_fraction=1.0,
                quarantine_threshold=2,
                faults=Faults(worker=LIAR_0),
            )
        ).run(problem)
        assert run.value.distance == problem.reference()
        assert 0 in run.report.quarantined_workers
        # The surviving honest workers carried the run to completion.
        assert run.report.run_digest == oracle_digest(problem)

    def test_vote_mode_catches_the_liar(self, problem):
        run = EasyHPS(
            cfg(
                integrity="vote",
                vote_k=2,
                quarantine_threshold=3,
                faults=Faults(worker=LIAR_0),
            )
        ).run(problem)
        assert run.value.distance == problem.reference()
        assert run.report.run_digest == oracle_digest(problem)


@pytest.mark.parametrize("backend", ["threads", "processes", "simulated"])
def test_fault_free_vote_casts_exactly_k_ballots_per_block(problem, backend):
    """A vote's re-offer goes only to a worker that has not voted on that
    block yet, so no worker recomputes a block it already voted on: a
    fault-free run casts ``vote_k`` ballots per block, no more."""
    run = EasyHPS(
        cfg(backend=backend, integrity="vote", vote_k=2, process_partition=12,
            task_timeout=30.0)
    ).run(problem)
    assert run.report.n_tasks == 16
    assert run.report.metrics["counters"]["integrity.votes_cast"] == 2 * 16
    assert backend == "simulated" or run.value.distance == problem.reference()


class TestStaleDigestCorruption:
    def test_persistent_corruption_aborts_cleanly(self, problem):
        """Every result of (0, 0) is mutated in transit with a stale
        digest: each attempt is rejected and re-charged until the retry
        budget exhausts — a clean abort, never a wrong answer."""
        plan = MessageFaultPlan([
            MessageFaultRule(
                "corrupt", direction="recv", message_type="BatchResult",
                task_id=(0, 0),
            )
        ])
        with pytest.raises(FaultToleranceExhausted):
            EasyHPS(
                cfg(integrity="digest", faults=Faults(message=plan), max_retries=2)
            ).run(problem)

    def test_random_corruption_never_changes_the_answer(self, problem):
        plan = MessageFaultPlan.random(0.1, seed=5, kinds=("corrupt",))
        run = EasyHPS(
            cfg(integrity="digest", faults=Faults(message=plan), max_retries=6)
        ).run(problem)
        assert run.value.distance == problem.reference()
        assert run.report.run_digest == oracle_digest(problem)


class TestResumeDigestOracle:
    def test_cli_resume_checks_the_fold_with_the_journaled_partition(
        self, problem, tmp_path, capsys
    ):
        """Regression: the resume oracle must reuse the journaled run's
        partition — the fold is over per-block digests, so a serial
        oracle on the default partition folds different payloads even
        when the final state is identical."""
        from repro.cli import main
        from repro.utils.errors import MasterCrash

        path = str(tmp_path / "crash.journal")
        crashing = cfg(
            integrity="digest", journal_path=path, faults=Faults(kill_after=4),
            observe=False,
        )
        with pytest.raises(MasterCrash):
            EasyHPS(crashing).run(problem)

        assert main(["resume", path, "--check-oracle"]) == 0
        out = capsys.readouterr().out
        assert "run digest matches" in out


class TestZeroCostOff:
    def test_off_mode_reports_nothing_and_counts_nothing(self, problem):
        run = EasyHPS(cfg(integrity="off")).run(problem)
        assert run.value.distance == problem.reference()
        assert run.report.run_digest is None
        assert run.report.digest_rejects == 0
        assert run.report.audits_convicted == 0
        assert run.report.quarantined_workers == ()
        counters = (run.report.metrics or {}).get("counters", {})
        assert not [k for k in counters if str(k).startswith("integrity.")]

    def test_digest_mode_populates_the_run_digest(self, problem):
        run = EasyHPS(cfg(integrity="digest")).run(problem)
        assert run.report.run_digest == oracle_digest(problem)
