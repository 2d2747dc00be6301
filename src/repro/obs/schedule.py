"""The shared scheduling-trace helper used by master and slave parts.

Before this module existed, ``runtime/master.py`` and
``runtime/slave.py`` each carried their own copy of the same three
blocks: build a trace recorder when verifying, stamp every event with a
hardcoded ``time.monotonic()``, and run the
``check_trace(...).raise_if_failed()`` epilogue. A
:class:`ScheduleTracer` owns all three behind one ``record``/``check``
pair, with the clock injected — so the identical instrumentation records
wall-time on the real backends and sim-time on the simulated one.

One ``record`` call fans out to two ordinary
:class:`~repro.obs.recorder.EventRecorder` streams:

- the verify trace (when ``verify`` is on): this level's own recorder,
  holding only the ledger kinds :func:`check_trace` feeds the dispatch
  core — its ``seq`` order is this level's decision order, undiluted by
  other levels' or other slaves' events;
- the :mod:`repro.obs` event stream (when observing) for every kind,
  carrying the richer lifecycle taxonomy (``send``, ``compute``,
  ``result``, byte counts, span extents).
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.check.trace_check import LEDGER_KINDS, check_trace
from repro.comm.messages import TaskId
from repro.dag.pattern import DAGPattern
from repro.obs.clock import Clock, ensure_clock
from repro.obs.recorder import NULL_RECORDER, EventRecorder

_CHECK_KINDS = frozenset(LEDGER_KINDS)


class ScheduleTracer:
    """Clock-injected scheduling instrumentation for one DAG level."""

    __slots__ = ("clock", "trace", "obs", "node", "scope")

    def __init__(
        self,
        *,
        clock: Optional[Clock] = None,
        verify: bool = False,
        obs: Optional[EventRecorder] = None,
        node: int = -1,
        scope: str = "task",
    ) -> None:
        self.clock = ensure_clock(clock)
        #: The verify trace :meth:`check` replays; None when not verifying.
        self.trace = EventRecorder(self.clock) if verify else None
        #: Telemetry event stream; the shared null recorder when off.
        self.obs = obs if obs is not None else NULL_RECORDER
        self.node = node
        self.scope = scope

    # -- hot path --------------------------------------------------------------

    @property
    def enabled(self) -> bool:
        """True when any consumer wants events (guards arg building)."""
        return self.trace is not None or self.obs.enabled

    @property
    def observing(self) -> bool:
        """True when the telemetry stream is live (guards obs-only work,
        e.g. byte accounting for ``send``/``result`` events)."""
        return self.obs.enabled

    def now(self) -> float:
        return self.clock.now()

    def record(
        self,
        kind: str,
        task_id: Optional[TaskId],
        epoch: int,
        worker: int = -1,
        *,
        node: Optional[int] = None,
        ts: Optional[float] = None,
        **data: object,
    ) -> None:
        """Record one scheduling event in both consumers.

        ``node`` overrides the tracer's home node for events describing
        work elsewhere (the master synthesizing a slave's compute span);
        ``ts`` overrides the clock stamp (the simulator records reserved
        future spans).
        """
        stamp = self.clock.now() if ts is None else ts
        where = self.node if node is None else node
        if self.trace is not None and kind in _CHECK_KINDS:
            self.trace.emit(
                kind, task_id, epoch=epoch, node=where, worker=worker,
                scope=self.scope, ts=stamp,
            )
        if self.obs.enabled:
            self.obs.emit(
                kind,
                task_id,
                epoch=epoch,
                node=where,
                worker=worker,
                scope=self.scope,
                ts=stamp,
                **data,
            )

    # -- epilogue --------------------------------------------------------------

    def check(
        self, pattern: DAGPattern, title: str, journaled: Optional[Dict[TaskId, int]] = None
    ) -> None:
        """Replay the verify trace into a fresh dispatch core (raises
        :class:`~repro.utils.errors.CheckError` on violations); a no-op
        when not verifying. ``journaled`` is the committed prefix a
        resumed run started from."""
        if self.trace is not None:
            check_trace(
                self.trace.events(), pattern, journaled=journaled,
                scope=self.scope, title=title,
            ).raise_if_failed()

    def __repr__(self) -> str:
        return (
            f"ScheduleTracer(scope={self.scope!r}, node={self.node}, "
            f"verify={self.trace is not None}, observing={self.observing})"
        )
