"""Property tests for the seeded fault plans (repro.cluster.faults).

The chaos campaign's replayability rests on one property: every random
plan is a pure function of ``(seed, key)``. These tests pin that down,
along with the probability edges (p=0 injects nothing, p=1 injects
everything) and picklability (plans cross the process boundary to slave
processes).
"""

import inspect
import pickle
import random

import pytest

from repro.chaos.campaign import CampaignSpec, chaos_config
from repro.cluster.faults import (
    DETECTABLE_MESSAGE_KINDS,
    MESSAGE_FAULT_KINDS,
    FaultPlan,
    FaultRule,
    Faults,
    IoFaultPlan,
    IoFaultRule,
    MessageFaultPlan,
    MessageFaultRule,
    WorkerFaultPlan,
    WorkerFaultRule,
    derived_rng,
)
from repro.runtime.config import RunConfig
from repro.serve.job import CHAOS_KEYS, JobRecord, JobSpec
from repro.utils.errors import ConfigError

TASKS = [(i, j) for i in range(8) for j in range(8)]


class TestDerivedRng:
    def test_pure_function_of_key(self):
        a = derived_rng(7, 11, (2, 3)).random(4)
        b = derived_rng(7, 11, (2, 3)).random(4)
        assert list(a) == list(b)

    def test_salt_separates_streams(self):
        a = derived_rng(7, 11, (2, 3)).random()
        b = derived_rng(7, 13, (2, 3)).random()
        assert a != b

    def test_key_separates_streams(self):
        assert derived_rng(7, 11, (2, 3)).random() != derived_rng(7, 11, (2, 4)).random()

    def test_exotic_keys_are_stable(self):
        # Non-int vertex ids fall back to a repr hash, still deterministic.
        assert derived_rng(1, 11, "v-a").random() == derived_rng(1, 11, "v-a").random()


class TestFaultPlanRandom:
    def test_same_seed_same_decisions_any_query_order(self):
        forward = FaultPlan.random(0.4, seed=5)
        backward = FaultPlan.random(0.4, seed=5)
        a = {t: forward.lookup(t, 0) for t in TASKS}
        b = {t: backward.lookup(t, 0) for t in reversed(TASKS)}
        assert a == b

    def test_different_seeds_differ(self):
        a = {t: FaultPlan.random(0.5, seed=1).lookup(t, 0) for t in TASKS}
        b = {t: FaultPlan.random(0.5, seed=2).lookup(t, 0) for t in TASKS}
        assert a != b

    def test_p_zero_injects_nothing(self):
        plan = FaultPlan.random(0.0, seed=3)
        assert all(plan.lookup(t, 0) is None for t in TASKS)
        assert not plan

    def test_p_one_faults_every_first_attempt(self):
        plan = FaultPlan.random(1.0, seed=3, kind=("crash", "hang"))
        for t in TASKS:
            rule = plan.lookup(t, 0)
            assert rule is not None and rule.kind in ("crash", "hang")

    def test_retries_never_refault(self):
        # Random task faults hit attempt 0 only: recovery must be able to win.
        plan = FaultPlan.random(1.0, seed=3)
        assert all(plan.lookup(t, attempt) is None for t in TASKS for attempt in (1, 2, 5))

    def test_decision_is_memoized_consistently(self):
        plan = FaultPlan.random(0.5, seed=9)
        assert [plan.lookup(t, 0) for t in TASKS] == [plan.lookup(t, 0) for t in TASKS]

    def test_pickle_roundtrip_preserves_decisions(self):
        plan = FaultPlan.random(0.5, seed=4)
        before = {t: plan.lookup(t, 0) for t in TASKS}
        clone = pickle.loads(pickle.dumps(plan))
        assert {t: clone.lookup(t, 0) for t in TASKS} == before

    def test_explicit_rule_matches_attempt(self):
        plan = FaultPlan([FaultRule("crash", (1, 1), attempt=2)])
        assert plan.lookup((1, 1), 2).kind == "crash"
        assert plan.lookup((1, 1), 0) is None
        assert plan.lookup((0, 0), 2) is None

    def test_invalid_kind_rejected(self):
        with pytest.raises(Exception):
            FaultPlan.random(0.5, kind="explode")


class TestMessageFaultPlanRandom:
    def _decisions(self, plan, n=64):
        return {
            (d, i): plan.decide(d, "TaskAssign", (0, 0), i, endpoint=2)
            for d in ("send", "recv")
            for i in range(n)
        }

    def test_same_seed_same_decisions_any_query_order(self):
        keys = [(d, i) for d in ("send", "recv") for i in range(64)]
        shuffled = list(keys)
        random.Random(0).shuffle(shuffled)
        a = MessageFaultPlan.random(0.3, seed=6)
        b = MessageFaultPlan.random(0.3, seed=6)
        da = {k: a.decide(k[0], "TaskAssign", None, k[1], endpoint=2) for k in keys}
        db = {k: b.decide(k[0], "TaskAssign", None, k[1], endpoint=2) for k in shuffled}
        assert da == db

    def test_endpoints_get_independent_streams(self):
        plan = MessageFaultPlan.random(0.5, seed=6)
        a = [plan.decide("recv", "TaskResult", None, i, endpoint=0) for i in range(64)]
        b = [plan.decide("recv", "TaskResult", None, i, endpoint=1) for i in range(64)]
        assert a != b

    def test_p_zero_delivers_everything(self):
        plan = MessageFaultPlan.random(0.0, seed=1)
        assert not any(self._decisions(plan).values())

    def test_p_one_faults_everything(self):
        plan = MessageFaultPlan.random(1.0, seed=1)
        decisions = self._decisions(plan)
        assert all(d is not None for d in decisions.values())
        assert all(d.kind in MESSAGE_FAULT_KINDS for d in decisions.values())

    def test_end_signal_protected_by_default(self):
        plan = MessageFaultPlan.random(1.0, seed=1)
        assert all(
            plan.decide(d, "EndSignal", None, i) is None
            for d in ("send", "recv")
            for i in range(32)
        )

    def test_send_side_never_draws_delay(self):
        # Send-side delay would need a timer thread; the random mix
        # restricts itself to what the send path can realize inline.
        plan = MessageFaultPlan.random(1.0, seed=2)
        kinds = {plan.decide("send", "TaskAssign", None, i).kind for i in range(128)}
        assert "delay" not in kinds
        assert kinds <= set(MESSAGE_FAULT_KINDS)

    def test_explicit_rule_matching(self):
        rule = MessageFaultRule("drop", direction="recv", message_type="TaskResult", index=3)
        plan = MessageFaultPlan([rule])
        assert plan.decide("recv", "TaskResult", None, 3) is rule
        assert plan.decide("recv", "TaskResult", None, 4) is None
        assert plan.decide("send", "TaskResult", None, 3) is None
        assert plan.decide("recv", "IdleSignal", None, 3) is None

    def test_pickle_roundtrip(self):
        plan = MessageFaultPlan.random(0.3, seed=8)
        before = self._decisions(plan)
        assert self._decisions(pickle.loads(pickle.dumps(plan))) == before


class TestWorkerFaultPlanRandom:
    def test_same_seed_same_decisions(self):
        a = WorkerFaultPlan.random(p_die=0.5, p_slow=0.5, seed=7)
        b = WorkerFaultPlan.random(p_die=0.5, p_slow=0.5, seed=7)
        for w in range(16):
            assert a.death_point(w) == b.death_point(w)
            assert a.slow_factor(w) == b.slow_factor(w)

    def test_p_zero_everyone_healthy(self):
        plan = WorkerFaultPlan.random(p_die=0.0, p_slow=0.0, seed=1)
        assert all(plan.death_point(w) is None for w in range(16))
        assert all(plan.slow_factor(w) == 1.0 for w in range(16))
        assert not plan

    def test_p_one_everyone_faulted(self):
        plan = WorkerFaultPlan.random(p_die=1.0, p_slow=1.0, seed=1, max_after=3, factor=6.0)
        for w in range(16):
            assert plan.death_point(w) in (1, 2, 3)
            assert plan.slow_factor(w) == 6.0

    def test_die_and_slow_draw_independent_streams(self):
        plan = WorkerFaultPlan.random(p_die=0.5, p_slow=0.5, seed=3)
        dies = [plan.death_point(w) is not None for w in range(64)]
        slow = [plan.slow_factor(w) > 1.0 for w in range(64)]
        assert dies != slow  # would only match if the streams were shared

    def test_explicit_rules(self):
        plan = WorkerFaultPlan(
            [WorkerFaultRule("die", worker_id=1, after_tasks=2),
             WorkerFaultRule("slow", worker_id=2, factor=8.0)]
        )
        assert plan.death_point(1) == 2
        assert plan.death_point(0) is None
        assert plan.slow_factor(2) == 8.0
        assert plan.slow_factor(1) == 1.0

    def test_pickle_roundtrip(self):
        plan = WorkerFaultPlan.random(p_die=0.4, p_slow=0.4, seed=9)
        clone = pickle.loads(pickle.dumps(plan))
        for w in range(16):
            assert clone.death_point(w) == plan.death_point(w)
            assert clone.slow_factor(w) == plan.slow_factor(w)


# -- one fault plan: RunConfig.faults ------------------------------------------------

#: Every query key the comparisons below ask a plan about.
MESSAGES = [
    (direction, mtype, (i % 4, i // 4), i, endpoint)
    for direction in ("send", "recv")
    for mtype in ("BatchAssign", "BatchResult", "Heartbeat", "EndSignal")
    for i in range(24)
    for endpoint in range(3)
]
WORKERS = range(12)
IO_OPS = [
    (stream, op, i)
    for stream in ("journal", "shm-master", "shm-slave0")
    for op in ("write", "fsync", "shm")
    for i in range(24)
]


def answers(task, message, worker, io=None):
    """Every decision a set of plans takes over the fixed key grid (a task
    fault as its kind, task and attempt)."""
    def rule(r):
        return None if r is None else (r.kind, r.task_id, r.attempt)

    out = {
        "task": [rule(task.lookup(t, a)) for t in TASKS for a in (0, 1)],
        "message": [message.decide(*key) for key in MESSAGES],
        "worker": [
            (worker.death_point(w), worker.slow_factor(w), worker.lie_point(w))
            for w in WORKERS
        ],
    }
    if io is not None:
        out["io"] = [io.decide(*key) for key in IO_OPS]
    return out


class TestFaults:
    def test_every_slice_defaults_to_no_faults(self):
        faults = Faults()
        assert not any((faults.task, faults.thread, faults.message, faults.worker, faults.io))
        assert faults.kill_after is None and faults.kill_torn is False

    def test_slices_and_kill_switch_are_validated(self):
        with pytest.raises(ConfigError):
            Faults(thread=3)
        with pytest.raises(ConfigError):
            Faults(message=FaultPlan())
        with pytest.raises(ConfigError):
            Faults(kill_after=0)
        with pytest.raises(ConfigError):
            Faults(kill_torn="yes")

    def test_the_hang_length_rides_on_the_rule(self):
        plan = FaultPlan.random(1.0, seed=2, kind="hang", duration=1.5)
        assert {plan.lookup(t, 0).duration for t in TASKS} == {1.5}
        assert FaultRule("hang").duration == 1.0
        with pytest.raises(ConfigError):
            FaultRule("hang", duration=-1.0)

    def test_lookup_keeps_no_state(self):
        # Like the message, worker and I/O families: every decision is
        # derived from (seed, key), nothing is cached on the plan.
        plan = FaultPlan.random(0.5, seed=9)
        before = dict(vars(plan))
        [plan.lookup(t, 0) for t in TASKS]
        assert vars(plan) == before
        assert "__getstate__" not in vars(FaultPlan)

    def test_random_at_zero_injects_nothing(self):
        faults = Faults.random(seed=4)
        assert not any((faults.task, faults.message, faults.worker, faults.io))
        assert answers(faults.task, faults.message, faults.worker, faults.io) == answers(
            FaultPlan(), MessageFaultPlan(), WorkerFaultPlan(), IoFaultPlan()
        )

    def test_a_pickled_config_decides_the_same(self):
        # Slave processes receive the config pickled.
        faults = Faults.random(
            3, task_fault_p=0.4, message_p=0.4, worker_p_die=0.4, io_p_write=0.4
        )
        clone = pickle.loads(pickle.dumps(RunConfig(faults=faults))).faults
        assert answers(clone.task, clone.message, clone.worker, clone.io) == answers(
            faults.task, faults.message, faults.worker, faults.io
        )

    @pytest.mark.parametrize("explicit", [False, True], ids=["random", "rules"])
    def test_a_pickled_config_equals_its_original(self, explicit):
        if explicit:
            faults = Faults(
                task=FaultPlan([FaultRule("hang", (1, 1), duration=0.5)]),
                message=MessageFaultPlan([MessageFaultRule("drop", index=3)]),
                worker=WorkerFaultPlan([WorkerFaultRule("die", worker_id=1)]),
                io=IoFaultPlan([IoFaultRule("write", "enospc", after=2)]),
                kill_after=4,
            )
        else:
            faults = Faults.random(
                3, task_fault_p=0.1, message_p=0.1, worker_p_die=0.2, io_p_write=0.1
            )
        config = RunConfig(faults=faults)
        clone = pickle.loads(pickle.dumps(config))
        assert clone == config and hash(clone) == hash(config)

    def test_different_seeds_compare_unequal(self):
        a, b = (
            Faults.random(seed, task_fault_p=0.1, message_p=0.1, worker_p_die=0.2, io_p_write=0.1)
            for seed in (3, 4)
        )
        for tier in ("task", "message", "worker", "io"):
            assert getattr(a, tier) != getattr(b, tier)
        assert RunConfig(faults=a) != RunConfig(faults=b)


class TestServeChaosVocabulary:
    """A serve job's ``chaos`` profile is ``Faults.random``'s keywords."""

    PROFILE = {
        "seed": 7, "task_fault_p": 0.3, "message_p": 0.2,
        "worker_p_die": 0.3, "worker_p_slow": 0.3, "worker_p_lie": 0.3,
    }

    def test_every_chaos_key_is_a_faults_keyword(self):
        keywords = inspect.signature(Faults.random).parameters
        assert set(CHAOS_KEYS) == set(self.PROFILE)
        assert all(key in keywords for key in CHAOS_KEYS if key != "seed")

    def test_a_full_profile_decides_like_the_hand_built_plans(self):
        from repro.serve.daemon import ServeDaemon

        record = JobRecord("job-1", JobSpec(chaos=self.PROFILE))
        faults = ServeDaemon(workers=1)._job_config(record, 1).faults
        p = self.PROFILE
        assert answers(faults.task, faults.message, faults.worker) == answers(
            FaultPlan.random(p["task_fault_p"], seed=7),
            MessageFaultPlan.random(p["message_p"], seed=7),
            WorkerFaultPlan.random(
                p_die=p["worker_p_die"], p_slow=p["worker_p_slow"],
                p_lie=p["worker_p_lie"], seed=7,
            ),
        )
        assert not faults.thread and not faults.io and faults.kill_after is None

    def test_a_value_faults_refuses_is_refused_at_submit(self, tmp_path):
        from repro.serve import ServeDaemon
        from repro.serve.wal import scan_serve_journal

        with pytest.raises(ConfigError, match="message_p"):
            JobSpec(chaos={"message_p": 2.0})
        wal_path = str(tmp_path / "serve.srvj")
        daemon = ServeDaemon(workers=1, wal_path=wal_path)
        daemon.start()
        try:
            decision = daemon.submit_dict({"chaos": {"seed": 1, "worker_p_die": -0.5}})
        finally:
            daemon.drain(10.0)
        assert not decision.accepted and "worker_p_die" in decision.reason
        assert scan_serve_journal(wal_path).order == []

    @pytest.mark.parametrize("sdc", [False, True])
    def test_the_campaign_decides_like_the_hand_built_plans(self, sdc):
        spec = CampaignSpec(sdc=sdc, resources=True)
        faults = chaos_config("threads", 5, spec).faults
        assert answers(faults.task, faults.message, faults.worker, faults.io) == answers(
            FaultPlan.random(spec.task_fault_p, seed=5, kind=("crash", "hang")),
            MessageFaultPlan.random(
                spec.message_p, seed=5,
                kinds=MESSAGE_FAULT_KINDS if sdc else DETECTABLE_MESSAGE_KINDS,
            ),
            WorkerFaultPlan.random(
                p_die=spec.worker_p_die, p_slow=spec.worker_p_slow,
                p_lie=spec.worker_p_lie if sdc else 0.0, seed=5,
            ),
            IoFaultPlan.random(spec.io_p_write, spec.io_p_fsync, spec.io_p_shm, seed=5),
        )
        assert {r.duration for r in map(faults.task.lookup, TASKS, [0] * 64) if r} == {1.5}
