"""Unit tests for the worker-pool data structures (Section V-A)."""

import threading
import time

from repro.runtime.worker_pool import ComputableStack, FinishedStack
from repro.schedulers.policy import BlockCyclicWavefrontPolicy, DynamicPolicy
from tests.test_dispatch_core import run_row


class TestComputableStack:
    def test_lifo_pop(self):
        s = ComputableStack()
        s.push_many([(0, 0), (0, 1), (1, 0)])
        p = DynamicPolicy(1)
        assert s.pop_eligible(0, p) == (1, 0)
        assert s.pop_eligible(0, p) == (0, 1)
        assert len(s) == 1
        assert s.pop_eligible(0, p) == (0, 0)
        assert s.pop_eligible(0, p, timeout=0) is None

    def test_policy_filtered_pop(self):
        s = ComputableStack()
        s.push_many([(0, 0), (0, 1)])
        p = BlockCyclicWavefrontPolicy(2)
        assert s.pop_eligible(1, p) == (0, 1)
        assert s.pop_eligible(1, p, timeout=0.01) is None  # nothing owned left
        assert s.snapshot() == ((0, 0),)

    def test_close_unblocks_waiters(self):
        s = ComputableStack()
        result = []

        def waiter():
            result.append(s.pop_eligible(0, DynamicPolicy(1)))

        t = threading.Thread(target=waiter)
        t.start()
        time.sleep(0.05)
        s.close()
        t.join(timeout=2.0)
        assert result == [None]

    def test_push_wakes_blocked_popper(self):
        s = ComputableStack()
        result = []

        def waiter():
            result.append(s.pop_eligible(0, DynamicPolicy(1)))

        t = threading.Thread(target=waiter)
        t.start()
        time.sleep(0.05)
        s.push((3, 3))
        t.join(timeout=2.0)
        assert result == [(3, 3)]

    def test_empty_push_wakes_nobody(self):
        """The fault-tolerance thread pushes its ``due`` list every poll,
        usually empty: that must not re-poll a parked popper's policy,
        while a real push and ``close()`` still wake it."""
        depths = []
        s = ComputableStack(depth_observer=depths.append)
        asked = threading.Event()
        calls = []

        class Spy(DynamicPolicy):
            def select_index(self, worker_id, ready):
                calls.append(len(ready))
                asked.set()
                return super().select_index(worker_id, ready)

        result = []

        def waiter():
            result.append(s.pop_eligible(0, Spy(1)))
            result.append(s.pop_eligible(0, Spy(1)))

        t = threading.Thread(target=waiter, daemon=True)
        t.start()
        try:
            assert asked.wait(2.0)  # parked after one look at the empty stack
            asked.clear()
            for _ in range(3):
                s.push_many([])
                s.push_many(iter(()))
            assert not asked.wait(0.2)
            assert calls == [0] and depths == []
            s.push_many([(2, 2)])
            assert asked.wait(2.0)  # woken by the real push, then parked again
            deadline = time.monotonic() + 2.0
            while len(calls) < 3 and time.monotonic() < deadline:
                time.sleep(0.01)
        finally:
            s.close()
            t.join(timeout=2.0)
        assert not t.is_alive()
        assert result == [(2, 2), None]
        assert calls[:3] == [0, 1, 0]
        assert depths == [1, 0]

    def test_concurrent_poppers_unique_items(self):
        s = ComputableStack()
        items = [(i, 0) for i in range(200)]
        s.push_many(items)
        got = []
        lock = threading.Lock()

        def popper():
            while True:
                item = s.pop_eligible(0, DynamicPolicy(1), timeout=0.05)
                if item is None:
                    return
                with lock:
                    got.append(item)

        threads = [threading.Thread(target=popper) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert sorted(got) == items  # every item exactly once


class TestFinishedStack:
    def test_lifo_and_close(self):
        f = FinishedStack()
        f.push((0, 0))
        f.push((1, 1))
        assert f.pop() == (1, 1)
        assert f.pop() == (0, 0)
        f.close()
        assert f.pop() is None

    def test_timeout(self):
        f = FinishedStack()
        assert f.pop(timeout=0.01) is None


# The overtime queue and the register table are the dispatch ledger of
# ``repro.runtime.dispatch`` now; each case below is the row of
# tests/test_dispatch_core.py that checks the same behaviour. (Overdue
# dispatches are no longer reported in deadline order: the core scans its
# ledger, and the order of simultaneous expirations decides nothing.)


class TestOvertimeQueue:
    def test_due_respects_deadlines(self):
        run_row("deadline-respects-time")

    def test_due_pops_in_deadline_order(self):
        run_row("tick-fires-every-overdue")

    def test_empty(self):
        run_row("tick-empty")


class TestRegisterTable:
    def test_register_finish_cycle(self):
        run_row("register-finish-cycle")

    def test_epochs_count_dispatches(self):
        run_row("epochs-count-dispatches")

    def test_stale_epoch_rejected(self):
        run_row("stale-epoch")

    def test_double_register_rejected(self):
        run_row("double-register")

    def test_unknown_finish_rejected(self):
        run_row("unknown-result")
