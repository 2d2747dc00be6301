"""Offering step: what the master hands an idle worker (Fig 9 steps d-f).

The one offering sequence of both shells — the threaded master and the
simulator, so also the explorer that drives it. Given an idle worker it
takes up to one envelope's worth of tasks through the shell's ``pop``
hook (only the first pop may wait), registers each dispatch with the
core and writes its ``queue-wait`` and ``assign`` records, then records
``batch-assemble`` for the envelope. Like the landing step beside it, it
touches no thread, clock, channel or payload: how to wait for work, how
to pay for an envelope and the timers stay in the shells. The hooks of
each shell are described in ``docs/fault_tolerance.md`` §The offering
step.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.comm.messages import TaskId
from repro.runtime.dispatch import DispatchCore, Registration

__all__ = ["Offering"]

#: What a registration answers when the worker was retired (blacklist,
#: leave, quarantine) after it was handed the task — distinct from None,
#: a task whose inputs a taint revoked after the pop.
_RETIRED = object()


def _call(event: Callable[..., Any], *args: Any) -> Any:
    return event(*args)


class Offering:
    """The offering sequence of one DAG level over ``core``.

    ``pop(worker, first)`` is the shell's wait: the task
    :meth:`select_index` picks for ``worker``, or None — blocking only
    when ``first``. ``push(task)`` puts a popped task back on offer.
    ``sched`` is the shell's :class:`~repro.obs.schedule.ScheduleTracer`.
    """

    def __init__(
        self,
        core: DispatchCore,
        policy: Any,
        config: Any,
        sched: Any,
        *,
        pop: Callable[[int, bool], Optional[TaskId]],
        push: Callable[[TaskId], None],
        decide: Callable[..., Any] = _call,
    ) -> None:
        self.core = core
        self.policy = policy
        self.sched = sched
        self.pop = pop
        self.push = push
        self.decide = decide
        self._batch_wave = config.batch_wave
        #: Tasks one envelope carries at most: a wave under ``batch_wave``.
        self.cap = config.max_batch if self._batch_wave else 1
        #: task -> when it went on offer; consumed by its ``queue-wait``.
        self.ready_at: Dict[TaskId, float] = {}

    def note_ready(self, task: TaskId) -> None:
        """Stamp the instant ``task`` went on offer (shells call it only
        while observing)."""
        self.ready_at[task] = self.sched.now()

    def offer(self, worker: int) -> List[Tuple[TaskId, Registration]]:
        """The registered elements of one envelope to ``worker``; empty
        when nothing is on offer, or when the worker was retired
        mid-gather — its popped task goes back on offer, and the
        retirement already evicted what it was registered so far."""
        sched = self.sched
        wave: List[Tuple[TaskId, Registration]] = []
        t0 = 0.0
        while len(wave) < self.cap:
            task = self.pop(worker, not wave)
            if task is None:
                break
            reg = self.decide(self._register, task, worker)
            if reg is _RETIRED:
                self.push(task)
                return []
            if reg is None:
                continue  # a later commit releases it again
            if not wave and sched.observing:
                t0 = sched.now()
            wave.append((task, reg))
        if wave and self._batch_wave and sched.observing:
            t1 = sched.now()
            sched.record(
                "batch-assemble", None, -1, worker, ts=t1, t0=t0, t1=t1, n_tasks=len(wave)
            )
        return wave

    def _register(self, task: TaskId, worker: int):
        """Register one dispatch and write its records — through
        ``decide``, so under ``master.core`` on the master, where an
        eviction chasing this dispatch must not be recorded first."""
        sched = self.sched
        now = sched.now()
        reg = self.core.dispatch(task, worker, now)
        if reg is None:
            return _RETIRED if self.core.is_retired(worker) else None
        if sched.enabled:
            if sched.observing:
                # queue-wait first: the assign closes the wait.
                ready_at = self.ready_at.pop(task, None)
                if ready_at is not None:
                    sched.record(
                        "queue-wait", task, reg.epoch, worker, ts=now, t0=ready_at, t1=now
                    )
            sched.record("assign", task, reg.epoch, worker, ts=now)
        return reg

    def pop_from(self, worker: int, ready: List[TaskId]) -> Optional[TaskId]:
        """Take from ``ready`` the task ``worker`` takes next, or None —
        the pick of a shell whose ready tasks are a plain list."""
        idx = self.select_index(worker, ready)
        return None if idx is None else ready.pop(idx)

    def select_index(self, worker: int, ready: Sequence[TaskId]) -> Optional[int]:
        """Index into ``ready`` of the task ``worker`` takes next: the
        policy's pick, passing over a re-offer that is not for ``worker``
        (:meth:`DispatchCore.passed_over`) while another candidate can
        take it — with none left, the same worker takes it again."""
        if not self.core.reoffering:
            return self.policy.select_index(worker, ready)
        keep = [i for i, t in enumerate(ready) if not self._passes_over(worker, t)]
        idx = self.policy.select_index(worker, [ready[i] for i in keep])
        return None if idx is None else keep[idx]

    def _passes_over(self, worker: int, task: TaskId) -> bool:
        core = self.core
        shun = core.passed_over(task)
        return worker in shun and any(
            k not in shun and not core.is_retired(k) and self.policy.eligible(k, task)
            for k in range(core.n_workers)
        )
