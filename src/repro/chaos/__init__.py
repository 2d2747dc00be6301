"""``repro.chaos`` — deterministic fault campaigns for the runtime.

Three pieces (see ``docs/fault_tolerance.md``):

- **fault plans** (:mod:`repro.cluster.faults`) — seeded, order-independent
  task / message / worker fault models;
- **channel injection** (:mod:`repro.chaos.channel`) — a
  :class:`ChaosChannel` wrapping any transport endpoint to drop,
  duplicate, delay, or corrupt protocol messages;
- **campaigns** (:mod:`repro.chaos.campaign`) — N seeded runs per backend,
  each asserting the core invariant: *the DP result equals the serial
  oracle, or the run ends in a clean*
  :class:`~repro.utils.errors.FaultToleranceExhausted` — *never a hang,
  never a wrong answer* — with the :mod:`repro.check` trace invariants
  validated on every surviving run.

Drive from the CLI with ``repro chaos --seeds 20 --backend simulated
--backend threads``. Kill-master campaigns (``repro chaos
--kill-master-at 0.5``) crash the journaling master at a seeded commit,
``repro resume`` the write-ahead journal, and assert the resumed run is
oracle-identical and that its recorded stream replays cleanly into the
dispatch core primed with the journal
(:func:`repro.check.trace_check.check_trace`, ``journaled=``).
"""

from repro.chaos.campaign import (
    CampaignResult,
    CampaignSpec,
    RunOutcome,
    chaos_config,
    run_campaign,
)
from repro.chaos.channel import ChaosChannel
from repro.chaos.resources import DEGRADE_CYCLE
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
