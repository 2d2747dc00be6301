"""``repro.obs`` — runtime-wide observability.

One subsystem, four pieces (see ``docs/observability.md``):

- **clocks** (:mod:`repro.obs.clock`) — the same instrumentation records
  sim-time on the simulated backend and ``time.monotonic()`` elsewhere;
- **events** (:mod:`repro.obs.recorder`) — the task-lifecycle stream
  (``assign → send → compute → result → commit`` plus the fault path),
  with a zero-cost null recorder for disabled runs;
- **metrics** (:mod:`repro.obs.metrics`) — counters/gauges/histograms
  snapshot into the run report;
- **exporters** (:mod:`repro.obs.export`) — Perfetto/Chrome JSON that
  round-trips the raw stream
  (:func:`repro.check.trace_check.check_trace` reads the stream as is);
- **profiling** (:mod:`repro.obs.prof`) — the one post-hoc fold of a
  stream: critical path, time attribution, what-if replay (``repro
  perf``), and what the ``repro stats`` digest (:mod:`repro.obs.stats`),
  the Gantt rows of :mod:`repro.analysis.gantt` and the link fit read.

Enable end to end with ``RunConfig(observe=True)`` and export with
``repro run ... --trace-out trace.json`` / ``repro stats trace.json``.
"""

from repro.obs.clock import MONOTONIC, Clock, ManualClock, MonotonicClock, SimClock
from repro.obs.export import (
    read_trace,
    to_chrome_trace,
    write_trace,
)
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.prof import (
    PerfProfile,
    TaskProfile,
    build_profile,
    format_perf_report,
    replay_schedule,
)
from repro.obs.recorder import (
    DURABLE_KINDS,
    INTEGRITY_KINDS,
    LIFECYCLE_KINDS,
    MESSAGE_KINDS,
    NULL_RECORDER,
    PROF_KINDS,
    SCOPES,
    EventRecorder,
    NullRecorder,
    ObsEvent,
)
from repro.obs.schedule import ScheduleTracer
from repro.obs.stats import format_stats, text_summary

__all__ = [
    "MONOTONIC",
    "Clock",
    "ManualClock",
    "MonotonicClock",
    "SimClock",
    "read_trace",
    "to_chrome_trace",
    "write_trace",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "PerfProfile",
    "TaskProfile",
    "build_profile",
    "format_perf_report",
    "replay_schedule",
    "DURABLE_KINDS",
    "INTEGRITY_KINDS",
    "LIFECYCLE_KINDS",
    "MESSAGE_KINDS",
    "NULL_RECORDER",
    "PROF_KINDS",
    "SCOPES",
    "EventRecorder",
    "NullRecorder",
    "ObsEvent",
    "ScheduleTracer",
    "format_stats",
    "text_summary",
]
