"""Static and dynamic verification of the DAG Data Driven Model.

The runtime's correctness contract — a sub-task runs only after every
dependency's data landed (paper Section IV) — is *assumed* everywhere
else in this package. ``repro.check`` is the layer that verifies it:

- :mod:`repro.check.pattern_check` — static verification of DAG Pattern
  Models and partitions (acyclicity, in-bounds dependencies, view
  consistency, the Fig-7 data ⊇ topological invariant, coarse-DAG edge
  preservation);
- :mod:`repro.check.trace_check` — the replay of a recorded run (any
  backend, the simulator, the explorer) into a fresh ``DispatchCore``:
  every point where the stream and the core disagree, plus the
  happens-before rules (early commits, duplicate commits from
  fault-tolerance races, lost updates) as queries on that core — primed
  with the journal's committed prefix (``journaled=``) they are also the
  resume invariants every kill-master campaign run is held to, and they
  hold every chaos and SDC campaign run to the fault and integrity
  invariants (no commit after blacklist, no dispatch after quarantine,
  every fault re-assigned, every taint recomputed, no commit without a
  digest check when given ``verified=``);
- :mod:`repro.check.lock_lint` — an instrumented lock layer that records
  the acquisition-order graph across runtime threads and reports cycles
  and blocking channel calls made under a lock;
- :mod:`repro.check.explore` — a systematic concurrency explorer that
  drives the simulated backend through every message-delivery order
  (with partial-order reduction and bounded fault injection), checking
  all of the above invariants on every interleaving;
- :mod:`repro.check.ast_lint` — source-level lints for the repo's
  concurrency, clock, config and protocol discipline (no raw
  ``threading.Lock()``, no direct wall-clock reads in scheduling code, no
  I/O in the sans-I/O core, no unread ``RunConfig`` field, every wire
  message kind handled by exactly one of the two receive loops);
- :mod:`repro.check.runner` — the batch sweeps: every built-in pattern,
  algorithm and lint (``--all-builtin``), and observed runs of every
  backend replayed into the dispatch core (``--protocol``).

Run everything from the command line with ``python -m repro check`` (see
``docs/static_analysis.md``), or enable the trace validator for any run
by setting ``REPRO_VERIFY=1`` / ``RunConfig(verify=True)``.
"""

from repro.check.ast_lint import check_clock_discipline, check_lock_discipline
from repro.check.diagnostics import CheckReport, Diagnostic
from repro.check.lock_lint import LockLint, lock_lint_session, make_condition, make_lock, note_blocking
from repro.check.pattern_check import check_partition, check_pattern
from repro.check.trace_check import LEDGER_KINDS, check_trace

# NOTE: repro.check.explore is deliberately NOT imported here. It needs
# repro.cluster.faults at module level, which pulls repro.comm and (via
# the transport) repro.obs — and repro.obs imports back into this
# package (trace_check, lock_lint). Importing explore eagerly would
# recreate the init cycle the TYPE_CHECKING guard in trace_check broke.
# Import it as ``from repro.check.explore import ...`` at use sites.

__all__ = [
    "CheckReport",
    "Diagnostic",
    "LEDGER_KINDS",
    "LockLint",
    "check_clock_discipline",
    "check_lock_discipline",
    "check_partition",
    "check_pattern",
    "check_trace",
    "lock_lint_session",
    "make_condition",
    "make_lock",
    "note_blocking",
]
