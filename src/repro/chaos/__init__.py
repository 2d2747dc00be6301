"""``repro.chaos`` — deterministic fault campaigns for the runtime.

Three pieces (see ``docs/fault_tolerance.md``):

- **fault plans** (:mod:`repro.cluster.faults`) — seeded, order-independent
  task / message / worker / I/O fault models, one :class:`Faults` value
  per run;
- **channel injection** (:mod:`repro.chaos.channel`) — a
  :class:`ChaosChannel` wrapping any transport endpoint to drop,
  duplicate, delay, or corrupt protocol messages;
- **campaigns** — N seeded runs per backend. :mod:`repro.chaos.campaign`
  drives one executor and one verdict for every mode (plain, ``--sdc``,
  ``--kill-master-at``, ``--resources``): *the DP result equals the
  serial oracle, or the run ends in a clean, attributed*
  :class:`~repro.utils.errors.FaultToleranceExhausted` — *never a hang,
  a wrong answer, a torn journal or a leaked shm segment* — with every
  surviving run replayed into the dispatch core
  (:func:`repro.check.trace_check.check_trace`). A kill-master run
  crashes the journaling master at a seeded commit and resumes from the
  journal before it is judged. :mod:`repro.chaos.serve` runs the same
  contract through the ``repro serve`` daemon.

Drive from the CLI with ``repro chaos --seeds 20 --backend simulated
--backend threads``.
"""

from repro.chaos.campaign import (
    DEGRADE_CYCLE,
    CampaignResult,
    CampaignSpec,
    RunOutcome,
    chaos_config,
    run_campaign,
)
from repro.chaos.channel import ChaosChannel
from repro.chaos.serve import (
    JobVerdict,
    ServeCampaignResult,
    ServeCampaignSpec,
    run_serve_campaign,
)
from repro.cluster.faults import (
    IO_FAULT_KINDS,
    IO_FAULT_OPS,
    MESSAGE_FAULT_KINDS,
    WORKER_FAULT_KINDS,
    IoFaultPlan,
    IoFaultRule,
    IoPolicy,
    MessageFaultPlan,
    MessageFaultRule,
    WorkerFaultPlan,
    WorkerFaultRule,
)

__all__ = [
    "CampaignResult",
    "CampaignSpec",
    "RunOutcome",
    "chaos_config",
    "run_campaign",
    "ChaosChannel",
    "JobVerdict",
    "ServeCampaignResult",
    "ServeCampaignSpec",
    "run_serve_campaign",
    "DEGRADE_CYCLE",
    "IO_FAULT_KINDS",
    "IO_FAULT_OPS",
    "IoFaultPlan",
    "IoFaultRule",
    "IoPolicy",
    "MESSAGE_FAULT_KINDS",
    "WORKER_FAULT_KINDS",
    "MessageFaultPlan",
    "MessageFaultRule",
    "WorkerFaultPlan",
    "WorkerFaultRule",
]
