"""The seeded I/O fault plan: rules, random mode, policies, pickling."""

import pickle

import pytest

from repro.cluster.faults import (
    IO_FAULT_KINDS,
    IO_FAULT_OPS,
    IoFaultPlan,
    IoFaultRule,
    IoPolicy,
)


class TestRules:
    def test_exact_index_matches_once(self):
        rule = IoFaultRule("write", "enospc", index=3)
        assert not rule.matches("journal", "write", 2)
        assert rule.matches("journal", "write", 3)
        assert not rule.matches("journal", "write", 4)

    def test_after_is_persistent(self):
        rule = IoFaultRule("write", "enospc", after=2)
        assert not rule.matches("journal", "write", 1)
        assert all(rule.matches("journal", "write", i) for i in range(2, 10))

    def test_stream_scoping(self):
        rule = IoFaultRule("shm", "emfile", stream="shm-master")
        assert rule.matches("shm-master", "shm", 0)
        assert not rule.matches("shm-slave0", "shm", 0)
        assert not rule.matches("shm-master", "write", 0)

    def test_oserror_carries_errno(self):
        exc = IoFaultRule("write", "enospc").to_oserror()
        assert isinstance(exc, OSError)
        assert exc.errno == 28  # ENOSPC
        assert IoFaultRule("fsync", "fsync-fail").to_oserror().errno == 5
        assert IoFaultRule("shm", "emfile").to_oserror().errno == 24

    def test_partial_cut_is_a_proper_prefix(self):
        rule = IoFaultRule("write", "partial", fraction=0.5)
        assert rule.cut(100) == 50
        assert rule.cut(1) == 0  # never the whole record
        assert IoFaultRule("write", "partial", fraction=1.0).cut(64) == 63
        assert IoFaultRule("write", "partial", fraction=0.0).cut(64) == 0

    def test_validation_rejects_unknown_ops_and_kinds(self):
        with pytest.raises(Exception):
            IoFaultRule("read", "enospc")
        with pytest.raises(Exception):
            IoFaultRule("write", "esplode")

    def test_kind_and_op_registries(self):
        assert set(IO_FAULT_OPS) == {"write", "fsync", "shm"}
        assert "enospc" in IO_FAULT_KINDS and "partial" in IO_FAULT_KINDS


class TestRandomPlan:
    def test_pure_function_of_identity(self):
        a = IoFaultPlan.random(p_write=0.3, seed=7)
        b = IoFaultPlan.random(p_write=0.3, seed=7)
        for i in range(50):
            assert a.decide("journal", "write", i) == b.decide("journal", "write", i)

    def test_order_independent(self):
        plan = IoFaultPlan.random(p_write=0.3, seed=7)
        forward = [plan.decide("journal", "write", i) for i in range(30)]
        backward = [plan.decide("journal", "write", i) for i in reversed(range(30))]
        assert forward == list(reversed(backward))

    def test_streams_draw_independently(self):
        plan = IoFaultPlan.random(p_write=0.5, seed=3)
        a = [bool(plan.decide("journal", "write", i)) for i in range(40)]
        b = [bool(plan.decide("serve-wal", "write", i)) for i in range(40)]
        assert a != b  # distinct derived streams

    def test_probability_extremes(self):
        never = IoFaultPlan.random(p_write=0.0, seed=1)
        always = IoFaultPlan.random(p_write=1.0, seed=1)
        assert all(never.decide("j", "write", i) is None for i in range(20))
        assert all(always.decide("j", "write", i) is not None for i in range(20))

    def test_random_kinds_are_realizable_for_the_op(self):
        plan = IoFaultPlan.random(p_write=1.0, p_fsync=1.0, p_shm=1.0, seed=9)
        for i in range(10):
            assert plan.decide("j", "write", i).kind in ("enospc", "eio", "partial")
            assert plan.decide("j", "fsync", i).kind == "fsync-fail"
            assert plan.decide("j", "shm", i).kind in ("enospc", "emfile")

    def test_truthiness(self):
        assert not IoFaultPlan()
        assert IoFaultPlan.random(p_fsync=0.01)
        assert IoFaultPlan([IoFaultRule("write", "eio", index=0)])

    def test_plan_pickles_with_decisions_intact(self):
        plan = IoFaultPlan.random(p_write=0.4, p_shm=0.2, seed=5)
        clone = pickle.loads(pickle.dumps(plan))
        for i in range(30):
            assert plan.decide("s", "write", i) == clone.decide("s", "write", i)
            assert plan.decide("s", "shm", i) == clone.decide("s", "shm", i)


class TestPolicy:
    def test_policy_counts_per_op(self):
        plan = IoFaultPlan([IoFaultRule("write", "eio", index=1)])
        pol = IoPolicy(plan, "journal")
        assert pol.fault("write") is None        # index 0
        assert pol.fault("fsync") is None        # fsync counter independent
        assert pol.fault("write").kind == "eio"  # index 1
        assert pol.fault("write") is None        # index 2

    def test_check_raises_the_oserror(self):
        plan = IoFaultPlan([IoFaultRule("fsync", "fsync-fail", index=0)])
        pol = IoPolicy(plan, "journal")
        with pytest.raises(OSError) as err:
            pol.check("fsync")
        assert err.value.errno == 5

    def test_distinct_streams_distinct_sequences(self):
        plan = IoFaultPlan([IoFaultRule("write", "eio", stream="a", index=0)])
        assert IoPolicy(plan, "a").fault("write") is not None
        assert IoPolicy(plan, "b").fault("write") is None
