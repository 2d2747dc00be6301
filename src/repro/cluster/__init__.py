"""Simulated multilevel cluster — the Tianhe-1A stand-in.

The paper's experiments ran on dual-socket 6-core Xeon nodes over
Infiniband QDR. This package models exactly the pieces those results
depend on: per-node compute threads with a memory-contention efficiency
curve, per-node NICs and a master NIC with latency+bandwidth links, and a
deterministic discrete-event clock. See DESIGN.md's substitution table.
"""

from repro.cluster.simcore import EventQueue
from repro.cluster.network import LinkModel, INFINIBAND_QDR
from repro.cluster.machine import NodeSpec
from repro.cluster.topology import ClusterSpec, experiment_layout
from repro.cluster.faults import FaultPlan, FaultRule, Faults

__all__ = [
    "EventQueue",
    "LinkModel",
    "INFINIBAND_QDR",
    "NodeSpec",
    "ClusterSpec",
    "experiment_layout",
    "FaultPlan",
    "FaultRule",
    "Faults",
]
