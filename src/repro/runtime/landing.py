"""Landing step: what the master does with results that came back (Figs 9-10).

The one landing sequence of both shells — the threaded master and the
simulator, so also the explorer that drives it. For a group of results
the core accepted together it drops late duplicates and purged results,
tallies votes, journals the survivors write-ahead, commits and merges
each in order, runs the audits ``AUDIT_LAG`` commits due after each
commit (forced only once the level drained) and journals what a
conviction revokes. Like the dispatch core beside it, it touches no
thread, clock, channel, journal file or payload: a shell supplies
``merge``, ``verdict`` and ``journal`` hooks, plus ``perform`` for the
core's actions and, on the master, ``decide`` for making a core call
under its lock. The order and the hooks of each shell are described in
``docs/fault_tolerance.md`` §The landing step.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

from repro.comm.messages import TaskId
from repro.runtime.dispatch import Arbitrate, Decide, DispatchCore, Invalidate

__all__ = ["Accepted", "Landing"]


class Accepted(NamedTuple):
    """One result the core accepted. ``payload`` is what the shell merges
    (the outputs on the master, the taint label in the simulator);
    ``digest`` its content digest when the wire carried one."""

    task: TaskId
    epoch: int
    worker: int
    payload: Any
    digest: Optional[str] = None


def _call(event: Callable[..., Any], *args: Any) -> Any:
    return event(*args)


class Landing:
    """The landing sequence of one DAG level over ``core``.

    Keeps the payloads the core's ledgers refer to — commits awaiting
    their lagged audit, ballots cast so far — written only by the thread
    that lands results.
    """

    def __init__(
        self,
        core: DispatchCore,
        policy: Any,
        *,
        perform: Callable[[List[Any]], bool],
        merge: Callable[[Accepted, Sequence[TaskId]], None],
        verdict: Callable[[Accepted, bool], Tuple[Any, str]],
        journal: Callable[[Sequence[Accepted], Sequence[TaskId]], None],
        decide: Callable[..., Any] = _call,
    ) -> None:
        self.core = core
        self.policy = policy
        self.perform = perform
        self.merge = merge
        self.verdict = verdict
        self.journal = journal
        self.decide = decide
        self._aborted = False
        self._vote_on = core.integrity.vote_on
        self._audited: Dict[Tuple[TaskId, int], Accepted] = {}
        #: task -> worker -> ballot (worker -1 = the shell's arbiter).
        self._ballots: Dict[TaskId, Dict[int, Accepted]] = {}

    def land(self, group: Iterable[Accepted]) -> bool:
        """Land results that were accepted together; False once the run
        aborted."""
        core = self.core
        landing: List[Accepted] = []
        for res in group:
            if res.task in core.committed or (core.revoked and not core.inputs_committed(res.task)):
                continue  # a late duplicate, or purged by a taint
            if self._vote_on:
                res = self._vote(res)
                if self._aborted:
                    return False
                if res is None:
                    continue  # no quorum yet
            landing.append(res)
        if not landing:
            return True
        self.journal(landing, ())
        revoked = []
        for res in landing:
            if core.revoked and not core.inputs_committed(res.task):
                revoked.append(res.task)  # a conviction earlier in the group
                continue
            released, sampled = self.decide(
                core.commit, res.task, res.epoch, res.worker, res.digest
            )
            if sampled:
                self._audited[res.task, res.epoch] = res
            self.merge(res, released)
            if self._audited and not self._run_due_audits():
                return False
        if revoked:
            self.journal((), revoked)
        return True

    def _vote(self, res: Accepted) -> Optional[Accepted]:
        """Cast ``res`` as a ballot; the winning result once a quorum
        decides, else None (re-offered for another voter, or aborted)."""
        core, task = self.core, res.task
        candidates = [k for k in range(core.n_workers) if self.policy.eligible(k, task)]
        while True:
            if res.digest is None:
                res = res._replace(digest=self.verdict(res, False)[1])
            self._ballots.setdefault(task, {})[res.worker] = res
            actions = self.decide(core.vote, task, res.epoch, res.worker, res.digest, candidates)
            if not self._perform(actions):
                return None
            last = actions[-1]
            if isinstance(last, Decide):
                return self._ballots.pop(task)[last.worker]
            if not isinstance(last, Arbitrate):
                return None
            payload, digest = self.verdict(res, True)
            res = Accepted(task, last.epoch, -1, payload, digest)

    def _run_due_audits(self) -> bool:
        """Run every audit the lag lets through (all once the level has
        drained): the shell recomputes the committed block and the core
        gets the verdict. The recompute reads committed predecessor
        blocks — a successor never overwrites them — so it sees what the
        worker saw; a lying predecessor makes both sides agree and is
        caught by its own audit."""
        core = self.core
        while True:
            due = self.decide(core.next_audit, not core.n_remaining)
            if due is None:
                return True
            task, epoch, worker = due
            res = self._audited.pop((task, epoch))
            expected = self.verdict(res, True)[1]
            got = res.digest if res.digest is not None else self.verdict(res, False)[1]
            if not self._perform(self.decide(core.audit, task, epoch, worker, expected == got)):
                return False

    def _perform(self, actions: List[Any]) -> bool:
        """Journal each invalidation and forget the payloads it revoked,
        then hand the actions to the shell."""
        for act in actions:
            if isinstance(act, Invalidate):
                self.journal((), act.order)
                committed, ready = self.core.committed, self.core.inputs_committed
                for task in [t for t in self._ballots if not ready(t)]:
                    del self._ballots[task]
                for key in [k for k in self._audited if committed.get(k[0]) != k[1]]:
                    del self._audited[key]
        if not self.perform(actions):
            self._aborted = True
        return not self._aborted
