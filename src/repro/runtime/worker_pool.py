"""Worker-pool stacks (paper Section V-A), thread-safe.

Two of the paper's four pool structures live here:

- :class:`ComputableStack` — LIFO of computable sub-task ids; idle workers
  pop the entry their scheduling policy selects for them;
- :class:`FinishedStack` — LIFO of finished sub-task ids drained by the
  scheduling thread to update the DAG pattern.

The other two — the overtime queue and the sub-task register table —
are the dispatch ledger of :mod:`repro.runtime.dispatch`, shared by the
master, the slave pool and the simulator.

Both are safe for concurrent access from the scheduling thread, the
per-slave worker threads, and the fault-tolerance thread.
"""

from __future__ import annotations

from typing import Callable, Iterable, List, Optional, Tuple

from repro.check.lock_lint import make_condition
from repro.comm.messages import TaskId
from repro.schedulers.policy import SchedulingPolicy


class ComputableStack:
    """Blocking LIFO of computable sub-tasks with policy-aware pops.

    ``depth_observer`` (optional) is called with the new depth after
    every mutation — the observability layer wires it to a queue-depth
    gauge/histogram. ``push_observer`` (optional) is called with each
    task id as it lands on the stack — the profiler wires it to a
    ready-timestamp table so the ``queue-wait`` span covers *every* push
    site (initial frontier, commit fan-out, fault re-queues, taint
    recompute) without the master chasing each one. Both run under the
    stack's condition, so observers must be cheap and must not touch
    runtime locks.
    """

    def __init__(
        self,
        depth_observer: Optional[Callable[[int], None]] = None,
        push_observer: Optional[Callable[[TaskId], None]] = None,
    ) -> None:
        self._items: List[TaskId] = []
        self._cond = make_condition("pool.computable-stack")
        self._closed = False
        self._depth_observer = depth_observer
        self._push_observer = push_observer

    def push(self, task_id: TaskId) -> None:
        with self._cond:
            self._items.append(task_id)
            if self._push_observer is not None:
                self._push_observer(task_id)
            if self._depth_observer is not None:
                self._depth_observer(len(self._items))
            self._cond.notify_all()

    def push_many(self, task_ids: Iterable[TaskId]) -> None:
        """Push several tasks with one wake-up. An empty push (the fault-
        tolerance thread's usual ``due == []``, a commit that releases
        nothing) wakes nobody and observes no depth."""
        with self._cond:
            depth = len(self._items)
            if self._push_observer is None:
                self._items.extend(task_ids)
            else:
                for task_id in task_ids:
                    self._items.append(task_id)
                    self._push_observer(task_id)
            if len(self._items) == depth:
                return
            if self._depth_observer is not None:
                self._depth_observer(len(self._items))
            self._cond.notify_all()

    def close(self) -> None:
        """Wake every blocked popper with a None (end of schedule)."""
        with self._cond:
            self._closed = True
            self._cond.notify_all()

    def pop_eligible(
        self,
        worker_id: int,
        policy: SchedulingPolicy,
        timeout: Optional[float] = None,
    ) -> Optional[TaskId]:
        """Pop the task ``policy.select_index`` picks for ``worker_id`` —
        the one question the simulator asks of its ready list (newest
        eligible by default). The master hands it its
        :class:`~repro.runtime.offering.Offering` step, which asks the
        run's policy and passes re-offers over.

        Blocks until an eligible task appears, the pool closes (returns
        None), or ``timeout`` elapses (returns None). Static policies can
        therefore leave a worker waiting here while other tasks sit on the
        stack — exactly the BCW pathology the evaluation measures. The
        policy runs under the stack's condition, like the observers.
        """
        with self._cond:
            while True:
                idx = policy.select_index(worker_id, self._items)
                if idx is not None:
                    picked = self._items.pop(idx)
                    if self._depth_observer is not None:
                        self._depth_observer(len(self._items))
                    return picked
                if self._closed:
                    return None
                if not self._cond.wait(timeout=timeout):
                    return None

    def retain(self, keep: Callable[[TaskId], bool]) -> Tuple[TaskId, ...]:
        """Drop every queued task for which ``keep`` is false.

        Taint invalidation uses this to pull successors of a revoked
        commit off the stack before a worker can pop them with stale
        inputs. Returns the removed tasks. ``keep`` runs under the
        stack's condition — it must be cheap and lock-free.
        """
        with self._cond:
            removed = tuple(t for t in self._items if not keep(t))
            if removed:
                self._items = [t for t in self._items if keep(t)]
                if self._depth_observer is not None:
                    self._depth_observer(len(self._items))
            return removed

    def snapshot(self) -> Tuple[TaskId, ...]:
        with self._cond:
            return tuple(self._items)

    def __len__(self) -> int:
        with self._cond:
            return len(self._items)


class FinishedStack:
    """Blocking LIFO of finished sub-tasks: ids on the master (results
    are buffered beside it), ``(id, epoch, worker)`` in the slave pool."""

    def __init__(self) -> None:
        self._items: List[TaskId] = []
        self._cond = make_condition("pool.finished-stack")
        self._closed = False

    def push(self, task_id: TaskId) -> None:
        with self._cond:
            self._items.append(task_id)
            self._cond.notify_all()

    def close(self) -> None:
        with self._cond:
            self._closed = True
            self._cond.notify_all()

    def pop(self, timeout: Optional[float] = None) -> Optional[TaskId]:
        """Pop the newest finished id; None on close or timeout."""
        with self._cond:
            while True:
                if self._items:
                    return self._items.pop()
                if self._closed:
                    return None
                if not self._cond.wait(timeout=timeout):
                    return None

    def pop_all(self, timeout: Optional[float] = None) -> List[TaskId]:
        """Block like :meth:`pop` for one finished id, then take every
        other one already here too, newest first; empty on close or
        timeout."""
        first = self.pop(timeout)
        if first is None:
            return []
        with self._cond:
            rest, self._items = self._items[::-1], []
        return [first, *rest]

    def __len__(self) -> int:
        with self._cond:
            return len(self._items)
