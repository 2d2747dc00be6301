"""Silent-data-corruption modeling in the simulated backend.

The simulator is omniscient: it tracks corruption as *taint* rather than
corrupting actual values, so every test can assert directly on how much
wrongness survived (``sim.undetected_corruptions``) under each defense
tier — the ground truth the chaos campaigns classify against.
"""

import pytest

from repro import EasyHPS, RunConfig
from repro.algorithms import EditDistance
from repro.cluster.faults import (
    Faults,
    MessageFaultPlan,
    WorkerFaultPlan,
    WorkerFaultRule,
)
from repro.utils.errors import FaultToleranceExhausted


@pytest.fixture
def problem():
    return EditDistance.random(96, 96, seed=7)


def run(problem, **kw):
    base = dict(
        nodes=4,
        backend="simulated",
        process_partition=16,
        observe=True,
    )
    base.update(kw)
    return EasyHPS(RunConfig(**base)).run(problem)


def counters(report):
    return (report.metrics or {}).get("counters", {})


LIAR_1 = WorkerFaultPlan([WorkerFaultRule("liar", worker_id=1, after_tasks=0)])


class TestLiarTaint:
    def test_undefended_lies_survive_as_undetected_taint(self, problem):
        rep = run(problem, integrity="off", faults=Faults(worker=LIAR_1)).report
        assert counters(rep)["sim.undetected_corruptions"] > 0
        # Zero-cost invariant: no integrity machinery ran.
        assert not [k for k in counters(rep) if str(k).startswith("integrity.")]
        assert rep.run_digest is None

    def test_digest_only_is_blind_to_lies(self, problem):
        rep = run(problem, integrity="digest", faults=Faults(worker=LIAR_1)).report
        assert counters(rep)["sim.undetected_corruptions"] > 0
        assert rep.digest_rejects == 0

    def test_full_audit_leaves_no_taint(self, problem):
        rep = run(
            problem,
            integrity="audit",
            audit_fraction=1.0,
            faults=Faults(worker=LIAR_1),
        ).report
        assert counters(rep)["sim.undetected_corruptions"] == 0
        assert rep.audits_convicted >= 1
        assert rep.tainted_recomputes >= 1
        assert counters(rep)["integrity.audits_convicted"] == rep.audits_convicted

    def test_a_never_quarantined_liar_does_not_recompute_its_own_lie(self, problem):
        """Audits run AUDIT_LAG commits late, so the last lies are
        convicted as the level drains, with the liar often the first idle
        node: once convicted twice for a block, the liar is passed over
        for its recompute, or it would lie on it again forever."""
        rep = run(
            problem,
            integrity="audit",
            audit_fraction=1.0,
            quarantine_threshold=10**6,
            faults=Faults(worker=LIAR_1),
        ).report
        assert rep.quarantined_workers == ()
        assert rep.audits_convicted >= 1
        assert counters(rep)["sim.undetected_corruptions"] == 0

    def test_audit_quarantines_a_persistent_liar(self, problem):
        rep = run(
            problem,
            integrity="audit",
            audit_fraction=1.0,
            quarantine_threshold=2,
            faults=Faults(worker=LIAR_1),
        ).report
        assert 1 in rep.quarantined_workers
        assert counters(rep)["sim.undetected_corruptions"] == 0

    def test_vote_mode_leaves_no_taint_at_message_cost(self, problem):
        clean = run(problem, integrity="digest").report
        voted = run(
            problem, integrity="vote", vote_k=2, faults=Faults(worker=LIAR_1)
        ).report
        assert counters(voted)["sim.undetected_corruptions"] == 0
        assert counters(voted)["integrity.votes_cast"] > 0
        # Replication is not free: the vote run moved more messages.
        assert voted.messages > clean.messages


class TestTransitCorruption:
    def corrupt_plan(self, p=0.08, seed=3):
        return MessageFaultPlan.random(p, seed=seed, kinds=("corrupt",))

    def bitflip_plan(self, p=0.08, seed=3):
        return MessageFaultPlan.random(p, seed=seed, kinds=("bitflip",))

    def test_stale_digest_corruption_detected_and_requeued(self, problem):
        rep = run(
            problem,
            integrity="digest",
            max_retries=8,
            faults=Faults(message=self.corrupt_plan()),
        ).report
        assert counters(rep)["sim.undetected_corruptions"] == 0
        assert rep.digest_rejects >= 1
        assert counters(rep)["integrity.digest_rejects"] == rep.digest_rejects

    def test_same_corruption_survives_with_integrity_off(self, problem):
        rep = run(
            problem,
            integrity="off",
            max_retries=8,
            faults=Faults(message=self.corrupt_plan()),
        ).report
        assert counters(rep)["sim.undetected_corruptions"] > 0

    def test_bitflip_evades_digests_but_not_audit(self, problem):
        blind = run(
            problem,
            integrity="digest",
            max_retries=8,
            faults=Faults(message=self.bitflip_plan()),
        ).report
        assert counters(blind)["sim.undetected_corruptions"] > 0
        assert blind.digest_rejects == 0

        audited = run(
            problem,
            integrity="audit",
            audit_fraction=1.0,
            quarantine_threshold=10**6,
            max_retries=8,
            faults=Faults(message=self.bitflip_plan()),
        ).report
        assert counters(audited)["sim.undetected_corruptions"] == 0
        assert audited.audits_convicted >= 1

    def test_persistent_corruption_exhausts_cleanly(self, problem):
        # p=1.0: every result mutates in transit, every attempt rejected.
        with pytest.raises(FaultToleranceExhausted):
            run(
                problem,
                integrity="digest",
                max_retries=2,
                faults=Faults(message=MessageFaultPlan.random(
                    1.0, seed=0, kinds=("corrupt",)
                )),
            )


class TestAuditSampling:
    def test_partial_audit_is_probabilistic(self, problem):
        """A fractional sample may leave taint behind — the documented
        reason SDC campaigns audit at fraction 1.0."""
        full = run(
            problem, integrity="audit", audit_fraction=1.0, faults=Faults(worker=LIAR_1)
        ).report
        sampled = run(
            problem, integrity="audit", audit_fraction=0.25, faults=Faults(worker=LIAR_1)
        ).report
        assert counters(full)["sim.undetected_corruptions"] == 0
        assert (
            counters(sampled)["sim.undetected_corruptions"]
            >= counters(full)["sim.undetected_corruptions"]
        )
        assert sampled.audits_convicted <= full.audits_convicted


class TestJournaledGroups:
    def test_journal_recovers_exactly_the_committed_set_after_every_envelope(
        self, tmp_path, monkeypatch
    ):
        """A result envelope is journaled as one group before any element
        merges; an element a conviction earlier in the same envelope then
        evicts must have its record revoked, or a crash after it would
        resume a commit the run never made."""
        from repro.backends import simulated
        from repro.durable import scan_journal

        path = str(tmp_path / "j")
        evicted, checked = [], []
        run_cls = simulated._SimulatedRun
        write_ahead, merge = run_cls._write_ahead, run_cls._merge
        batch_arrival = run_cls._batch_arrival
        envelope = {}

        def spy_write(self, commits, revoked):
            if commits:
                envelope.update(dict.fromkeys(((r.task, r.epoch) for r in commits), False))
            write_ahead(self, commits, revoked)

        def spy_merge(self, res, released):
            if (res.task, res.epoch) in envelope:
                envelope[res.task, res.epoch] = True
            merge(self, res, released)

        def spy_arrival(self, *args, **kwargs):
            envelope.clear()
            batch_arrival(self, *args, **kwargs)
            evicted.extend(p for p, landed in envelope.items() if not landed)
            assert scan_journal(path).committed == self.core.committed
            checked.append(True)

        monkeypatch.setattr(run_cls, "_write_ahead", spy_write)
        monkeypatch.setattr(run_cls, "_merge", spy_merge)
        monkeypatch.setattr(run_cls, "_batch_arrival", spy_arrival)
        for seed in range(6):
            liar = WorkerFaultRule("liar", worker_id=seed % 3, after_tasks=1)
            try:
                EasyHPS(RunConfig(
                    backend="simulated", nodes=4, batch_wave=True,
                    integrity="audit", audit_fraction=1.0,
                    faults=Faults(worker=WorkerFaultPlan((liar,))),
                    journal_path=path, journal_fsync=False,
                )).run(EditDistance.random(48, 48, seed=seed))
            except FaultToleranceExhausted:
                pass
        assert checked and evicted  # the revoke path was exercised
