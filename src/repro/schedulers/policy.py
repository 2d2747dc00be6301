"""Scheduling policy objects shared by the real runtime and the simulator.

A policy answers one question: *may idle worker ``w`` execute ready task
``t``, and which ready task should it take first?* The dynamic policy
(EasyHPS) says yes to everything; the static wavefront policies partition
tasks by block column up front, so a worker whose next owned block is
still blocked sits idle — measurably so, which is what the Fig 17
BCW/EasyHPS ratio quantifies.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from typing import Optional, Sequence

from repro.comm.messages import TaskId
from repro.utils.errors import ConfigError, SchedulerError


class SchedulingPolicy(ABC):
    """Assignment rule for one level (processor or thread) of the runtime."""

    name: str = "abstract"
    #: Whether the worker count may grow mid-run (elastic membership).
    #: Static wavefront policies fix column ownership at construction, so
    #: only the dynamic family accepts joiners.
    elastic: bool = False

    def __init__(self, n_workers: int) -> None:
        if n_workers <= 0:
            raise ConfigError(f"n_workers must be positive, got {n_workers}")
        self.n_workers = n_workers

    @abstractmethod
    def owner(self, task_id: TaskId) -> Optional[int]:
        """Static owner of ``task_id``, or None if any worker may run it."""

    def _check_worker(self, worker_id: int) -> None:
        if not 0 <= worker_id < self.n_workers:
            raise SchedulerError(f"worker {worker_id} out of range 0..{self.n_workers - 1}")

    def eligible(self, worker_id: int, task_id: TaskId) -> bool:
        """Whether ``worker_id`` may execute ``task_id``."""
        self._check_worker(worker_id)
        o = self.owner(task_id)
        return o is None or o == worker_id

    def select_index(self, worker_id: int, ready: Sequence[TaskId]) -> Optional[int]:
        """Index into ``ready`` of the task this worker should take next —
        what every shell's :class:`~repro.runtime.offering.Offering` step
        asks (over the computable stack on the real backends, the ready
        list in the simulator).

        The default scans from the end — LIFO over the computable stack.
        Locality-aware policies override.
        """
        for idx in range(len(ready) - 1, -1, -1):
            if self.eligible(worker_id, ready[idx]):
                return idx
        return None

    def completed(self, worker_id: int, task_id: TaskId) -> None:
        """Told by the shell that ``worker_id`` finished ``task_id``; only
        history-steered policies keep it."""

    def __repr__(self) -> str:
        return f"{type(self).__name__}(workers={self.n_workers})"


class DynamicPolicy(SchedulingPolicy):
    """EasyHPS's dynamic worker pool: any worker takes any ready task."""

    name = "dynamic"
    elastic = True

    def owner(self, task_id: TaskId) -> Optional[int]:
        return None

    def select_index(self, worker_id: int, ready: Sequence[TaskId]) -> Optional[int]:
        """The newest ready task, in O(1): every task is eligible, so the
        base LIFO scan would stop at its first look (and, like it, this
        checks ``worker_id`` only when there is a task to look at)."""
        if not ready:
            return None
        self._check_worker(worker_id)
        return len(ready) - 1


class AffinityDynamicPolicy(DynamicPolicy):
    """Locality-preferring dynamic pool — an extension beyond the paper.

    Same eligibility as the dynamic pool, but an idle worker first looks
    for a ready task one of whose precedence neighbors it executed
    itself: the big prefix/strip inputs of that task are then already in
    the worker's memory and need not be re-shipped (the simulator models
    the saving via :meth:`DPProblem.cached_input_bytes`; the real master
    re-sends per task, so there it only orders the pops). Falls back to
    LIFO when nothing local is ready, so it never idles while work exists.
    """

    name = "dynamic-affinity"

    def __init__(self, n_workers: int, neighbor_fn, history=None) -> None:
        super().__init__(n_workers)
        if not callable(neighbor_fn):
            raise ConfigError("dynamic-affinity needs a callable neighbor_fn(task_id)")
        self.neighbor_fn = neighbor_fn
        #: worker id -> set of task ids that worker completed, grown by
        #: :meth:`completed`. A worker's entry is only touched on that
        #: worker's own service thread (its pops and its results).
        self.history = {} if history is None else history

    def completed(self, worker_id: int, task_id: TaskId) -> None:
        self.history.setdefault(worker_id, set()).add(task_id)

    def select_index(self, worker_id: int, ready: Sequence[TaskId]) -> Optional[int]:
        done = self.history.get(worker_id, ())
        if done:
            for idx in range(len(ready) - 1, -1, -1):
                if any(nb in done for nb in self.neighbor_fn(ready[idx])):
                    return idx
        return super().select_index(worker_id, ready)


class BlockCyclicWavefrontPolicy(SchedulingPolicy):
    """Block-cyclic wavefront (BCW, Liu & Schmidt): block column ``J`` is
    owned by worker ``(J // block_cols) % n_workers``.

    ``block_cols`` groups adjacent block columns before the cyclic deal
    (the BCW ``block_col`` argument); 1 is the classic cyclic layout.
    """

    name = "bcw"

    def __init__(self, n_workers: int, block_cols: int = 1) -> None:
        super().__init__(n_workers)
        if block_cols <= 0:
            raise ConfigError(f"block_cols must be positive, got {block_cols}")
        self.block_cols = block_cols

    def owner(self, task_id: TaskId) -> Optional[int]:
        col = task_id[-1]
        return (col // self.block_cols) % self.n_workers


class ColumnWavefrontPolicy(SchedulingPolicy):
    """Column wavefront (CW): one contiguous band of block columns per worker.

    The paper notes CW is the special case of BCW with ``block_col =
    data_col / n_workers``; we implement it directly from the total number
    of block columns.
    """

    name = "cw"

    def __init__(self, n_workers: int, n_columns: int) -> None:
        super().__init__(n_workers)
        if n_columns <= 0:
            raise ConfigError(f"n_columns must be positive, got {n_columns}")
        self.n_columns = n_columns
        self._band = math.ceil(n_columns / n_workers)

    def owner(self, task_id: TaskId) -> Optional[int]:
        col = task_id[-1]
        if col >= self.n_columns:
            raise SchedulerError(f"column {col} outside declared range {self.n_columns}")
        return min(col // self._band, self.n_workers - 1)


POLICIES = ("dynamic", "dynamic-affinity", "bcw", "cw")


def make_policy(
    name: str,
    n_workers: int,
    n_columns: int,
    block_cols: int = 1,
    neighbor_fn=None,
) -> SchedulingPolicy:
    """Instantiate a policy by name (``n_columns`` feeds CW,
    ``neighbor_fn`` dynamic-affinity).

    The processor level supplies ``neighbor_fn`` on every backend
    (:meth:`RunAssembly.policy <repro.runtime.assembly.RunAssembly.policy>`).
    The thread level does not — regions of one block share one node's
    memory — so there, and only there, ``dynamic-affinity`` is the plain
    dynamic pool.
    """
    if name == "dynamic":
        return DynamicPolicy(n_workers)
    if name == "dynamic-affinity":
        if neighbor_fn is None:
            return DynamicPolicy(n_workers)
        return AffinityDynamicPolicy(n_workers, neighbor_fn)
    if name == "bcw":
        return BlockCyclicWavefrontPolicy(n_workers, block_cols=block_cols)
    if name == "cw":
        return ColumnWavefrontPolicy(n_workers, n_columns)
    raise ConfigError(f"unknown scheduler {name!r}; choose from {POLICIES}")
