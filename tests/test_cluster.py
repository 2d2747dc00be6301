"""Unit tests for the simulated cluster substrate."""

import pytest

from repro.cluster.faults import FaultPlan, FaultRule
from repro.cluster.machine import NodeSpec
from repro.cluster.network import GIGABIT_ETHERNET, INFINIBAND_QDR, LinkModel
from repro.cluster.simcore import EventQueue, SimulationError
from repro.cluster.topology import ClusterSpec, experiment_layout
from repro.utils.errors import ConfigError


class TestEventQueue:
    def test_runs_in_time_order(self):
        evq = EventQueue()
        seen = []
        evq.at(2.0, lambda: seen.append("b"))
        evq.at(1.0, lambda: seen.append("a"))
        evq.at(3.0, lambda: seen.append("c"))
        evq.run()
        assert seen == ["a", "b", "c"]
        assert evq.now == 3.0

    def test_fifo_tie_break(self):
        evq = EventQueue()
        seen = []
        for tag in "xyz":
            evq.at(1.0, lambda tag=tag: seen.append(tag))
        evq.run()
        assert seen == ["x", "y", "z"]

    def test_after_and_nested_scheduling(self):
        evq = EventQueue()
        seen = []

        def first():
            seen.append(("first", evq.now))
            evq.after(0.5, lambda: seen.append(("second", evq.now)))

        evq.at(1.0, first)
        evq.run()
        assert seen == [("first", 1.0), ("second", 1.5)]

    def test_cancel(self):
        evq = EventQueue()
        seen = []
        h = evq.at(1.0, lambda: seen.append("cancelled"))
        evq.at(2.0, lambda: seen.append("kept"))
        evq.cancel(h)
        evq.run()
        assert seen == ["kept"]

    def test_run_until(self):
        evq = EventQueue()
        seen = []
        evq.at(1.0, lambda: seen.append(1))
        evq.at(5.0, lambda: seen.append(5))
        evq.run(until=2.0)
        assert seen == [1]
        assert evq.now == 2.0
        evq.run()
        assert seen == [1, 5]

    def test_past_scheduling_rejected(self):
        evq = EventQueue()
        evq.at(1.0, lambda: evq.at(0.5, lambda: None))
        with pytest.raises(SimulationError):
            evq.run()

    def test_negative_delay_rejected(self):
        with pytest.raises(SimulationError):
            EventQueue().after(-1.0, lambda: None)

    def test_runaway_guard(self):
        evq = EventQueue()

        def reschedule():
            evq.after(1.0, reschedule)

        evq.at(0.0, reschedule)
        with pytest.raises(SimulationError, match="runaway"):
            evq.run(max_events=100)


class TestLinkModel:
    def test_transfer_time(self):
        link = LinkModel(latency=1e-3, bandwidth=1e6)
        assert link.transfer_time(0) == 1e-3
        assert link.transfer_time(1e6) == pytest.approx(1.001)

    def test_presets_sane(self):
        assert INFINIBAND_QDR.bandwidth > GIGABIT_ETHERNET.bandwidth
        assert INFINIBAND_QDR.latency < GIGABIT_ETHERNET.latency

    def test_validation(self):
        with pytest.raises(ConfigError):
            LinkModel(latency=-1, bandwidth=1)
        with pytest.raises(ConfigError):
            LinkModel(latency=0, bandwidth=0)
        with pytest.raises(ValueError):
            INFINIBAND_QDR.transfer_time(-5)


class TestNodeSpec:
    def test_efficiency_decreases_with_threads(self):
        n = NodeSpec(threads=11, contention=0.02)
        assert n.thread_efficiency(1) == 1.0
        assert n.thread_efficiency(11) == pytest.approx(1 / 1.2)
        assert n.thread_efficiency(2) > n.thread_efficiency(8)

    def test_effective_rate_sublinear_but_monotone(self):
        n = NodeSpec(threads=11, contention=0.05)
        rates = [n.effective_rate(t) for t in range(1, 12)]
        assert all(b > a for a, b in zip(rates, rates[1:]))
        assert rates[10] < 11 * rates[0]

    def test_compute_time(self):
        n = NodeSpec(threads=4, flops_per_second=100.0, contention=0.0)
        assert n.compute_time(50.0) == 0.5

    def test_validation(self):
        with pytest.raises(ConfigError):
            NodeSpec(threads=0)
        with pytest.raises(ValueError):
            NodeSpec(threads=2).thread_efficiency(0)
        with pytest.raises(ConfigError):
            NodeSpec(threads=2).compute_time(-1.0)


class TestClusterSpec:
    def test_core_accounting_round_trip(self):
        # Experiment_X_Y: Y = 2X - 1 + ct_total.
        spec = experiment_layout(4, 22)
        assert spec.total_nodes == 4
        assert spec.total_computing_threads == 22 - 2 * 4 + 1
        assert spec.total_cores == 22

    def test_uneven_split_round_robin(self):
        spec = experiment_layout(3, 10)  # 5 threads over 2 nodes
        assert [n.threads for n in spec.compute_nodes] == [3, 2]

    def test_paper_ranges_feasible(self):
        # The exact experiment ranges of Section VI.
        for nodes, lo, hi in [(2, 4, 14), (3, 7, 27), (4, 10, 40), (5, 13, 53)]:
            experiment_layout(nodes, lo)
            experiment_layout(nodes, hi)

    def test_too_few_cores_rejected(self):
        with pytest.raises(ConfigError):
            experiment_layout(4, 9)

    def test_thread_cap_enforced(self):
        with pytest.raises(ConfigError, match="cap"):
            experiment_layout(2, 15)  # would need 12 threads on one node

    def test_needs_computing_node(self):
        with pytest.raises(ConfigError):
            experiment_layout(1, 10)
        with pytest.raises(ConfigError):
            ClusterSpec(compute_nodes=())


class TestFaultPlan:
    def test_rule_matching(self):
        rule = FaultRule("crash", (1, 2), attempt=1)
        assert rule.matches((1, 2), 1)
        assert not rule.matches((1, 2), 0)
        assert not rule.matches((0, 0), 1)

    def test_wildcard_task(self):
        rule = FaultRule("hang", None, attempt=0)
        assert rule.matches((5, 5), 0)

    def test_plan_lookup(self):
        plan = FaultPlan([FaultRule("crash", (0, 0), 0), FaultRule("hang", (1, 1), 2)])
        assert plan.lookup((0, 0), 0).kind == "crash"
        assert plan.lookup((0, 0), 1) is None
        assert plan.lookup((1, 1), 2).kind == "hang"
        assert bool(plan)

    def test_none_plan_is_falsy(self):
        assert not FaultPlan()
        assert FaultPlan().lookup((0, 0), 0) is None

    def test_random_plan_deterministic_and_memoized(self):
        p1 = FaultPlan.random(0.5, seed=3)
        first = {t: p1.lookup((t, 0), 0) for t in range(20)}
        again = {t: p1.lookup((t, 0), 0) for t in range(20)}
        assert first == again
        hits = sum(1 for v in first.values() if v is not None)
        assert 0 < hits < 20

    def test_random_plan_only_first_attempt(self):
        p = FaultPlan.random(1.0, seed=0)
        assert p.lookup((0, 0), 0) is not None
        assert p.lookup((0, 0), 1) is None

    def test_validation(self):
        with pytest.raises(ValueError):
            FaultRule("explode")
        with pytest.raises(ValueError):
            FaultRule("crash", attempt=-1)
        with pytest.raises(ValueError):
            FaultPlan.random(1.5)
