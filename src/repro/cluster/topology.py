"""Cluster topology and the paper's Experiment_X_Y core accounting.

``Experiment_X_Y`` uses ``Y`` total cores on ``X`` nodes: one master node
does processor-level scheduling, the other ``X - 1`` nodes compute; each
computing node reserves one core for its thread-level scheduling thread.
Total cores therefore decompose as ``Y = X + (X - 1) + ct_total`` where
``ct_total = Y - 2X + 1`` computing threads spread over the ``X - 1``
computing nodes (Section VI). :func:`experiment_layout` reproduces that
accounting, including the round-robin split when ``ct_total`` does not
divide evenly.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Tuple

from repro.cluster.machine import NodeSpec
from repro.cluster.network import INFINIBAND_QDR, LinkModel
from repro.utils.errors import ConfigError
from repro.utils.validate import check_nonnegative

#: Hardware cap of the paper's platform: up to 11 computing threads/node
#: (12 cores minus the slave scheduling thread).
MAX_THREADS_PER_NODE = 11


@dataclass(frozen=True)
class ClusterSpec:
    """A master node plus a list of computing nodes joined by one fabric."""

    compute_nodes: Tuple[NodeSpec, ...]
    link: LinkModel = INFINIBAND_QDR
    #: Master-side per-dispatch CPU overhead (parse + pack), seconds.
    master_overhead: float = 50.0e-6
    #: Slave-side fixed handling overhead per sub-task, seconds.
    slave_overhead: float = 50.0e-6
    #: Master-side CPU time of one journal append (a landing group or a
    #: checkpoint), seconds; charged only when the run journals.
    journal_latency: float = 0.0005

    def __post_init__(self) -> None:
        if not self.compute_nodes:
            raise ConfigError("cluster needs at least one computing node")
        check_nonnegative("master_overhead", self.master_overhead)
        check_nonnegative("slave_overhead", self.slave_overhead)
        check_nonnegative("journal_latency", self.journal_latency)

    @property
    def n_compute_nodes(self) -> int:
        return len(self.compute_nodes)

    @property
    def total_nodes(self) -> int:
        """Including the master node (the paper's ``X``)."""
        return self.n_compute_nodes + 1

    @property
    def total_computing_threads(self) -> int:
        return sum(n.threads for n in self.compute_nodes)

    @property
    def total_cores(self) -> int:
        """The paper's ``Y``: computing threads plus all scheduling cores."""
        return self.total_computing_threads + 2 * self.total_nodes - 1

    def with_link(self, link: LinkModel) -> "ClusterSpec":
        return replace(self, link=link)

    def __repr__(self) -> str:
        threads = [n.threads for n in self.compute_nodes]
        return f"ClusterSpec(nodes={self.total_nodes}, threads={threads})"


def experiment_layout(
    nodes: int,
    cores: int,
    *,
    node_spec: NodeSpec = NodeSpec(threads=1),
    link: LinkModel = INFINIBAND_QDR,
    max_threads_per_node: int = MAX_THREADS_PER_NODE,
) -> ClusterSpec:
    """Build the cluster of ``Experiment_X_Y`` (X = ``nodes``, Y = ``cores``).

    Raises :class:`ConfigError` when the core budget leaves no computing
    thread (``Y < 2X``) or exceeds the per-node thread cap.
    """
    if nodes < 2:
        raise ConfigError(f"need >= 2 nodes (one master, one computing), got {nodes}")
    ct_total = cores - 2 * nodes + 1
    n_compute = nodes - 1
    if ct_total < n_compute:
        raise ConfigError(
            f"Experiment_{nodes}_{cores}: only {ct_total} computing threads for "
            f"{n_compute} computing nodes — increase cores (need Y >= 3X - 2)"
        )
    base, extra = divmod(ct_total, n_compute)
    threads = [base + (1 if k < extra else 0) for k in range(n_compute)]
    if max(threads) > max_threads_per_node:
        raise ConfigError(
            f"Experiment_{nodes}_{cores} needs {max(threads)} threads on one node, "
            f"cap is {max_threads_per_node}"
        )
    compute_nodes = tuple(replace(node_spec, threads=t) for t in threads)
    return ClusterSpec(compute_nodes=compute_nodes, link=link)
