"""Tests for simulator calibration against real kernel timings."""

import pytest

from repro import RunConfig
from repro.algorithms import EditDistance, Nussinov
from repro.analysis.calibration import (
    CalibrationSample,
    calibrate_node,
    calibration_report,
    fit_rate,
    measure_blocks,
    pool_handoff_seconds,
    region_seconds,
)
from repro.cluster.machine import NodeSpec
from repro.utils.errors import ConfigError


class TestSamples:
    def test_rate(self):
        s = CalibrationSample(bid=(0, 0), flops=100.0, seconds=0.5)
        assert s.rate == 200.0

    def test_fit_rate_is_total_ratio(self):
        samples = [
            CalibrationSample((0, 0), 100.0, 1.0),
            CalibrationSample((1, 1), 300.0, 1.0),
        ]
        assert fit_rate(samples) == 200.0

    def test_fit_rate_validates(self):
        with pytest.raises(ConfigError):
            fit_rate([])


class TestMeasureBlocks:
    def test_default_picks_spread(self):
        ed = EditDistance.random(60, 60, seed=1)
        samples = measure_blocks(ed, 20, 10)
        assert len(samples) == 3
        assert samples[0].bid == (0, 0)
        assert all(s.seconds > 0 for s in samples)
        assert all(s.flops > 0 for s in samples)

    def test_explicit_blocks(self):
        ed = EditDistance.random(40, 40, seed=2)
        samples = measure_blocks(ed, 20, 10, block_ids=[(1, 1)])
        assert [s.bid for s in samples] == [(1, 1)]

    def test_repeats_take_best(self):
        ed = EditDistance.random(30, 30, seed=3)
        one = measure_blocks(ed, 15, 5, block_ids=[(0, 0)], repeats=1)[0]
        many = measure_blocks(ed, 15, 5, block_ids=[(0, 0)], repeats=3)[0]
        assert many.seconds <= one.seconds * 3  # sanity: same order of magnitude

    def test_rejects_bad_repeats(self):
        ed = EditDistance.random(20, 20, seed=4)
        with pytest.raises(ConfigError):
            measure_blocks(ed, 10, 5, repeats=0)


class TestPoolHandoff:
    """The two numbers ``MIN_REGION_EDGE`` rests on (``repro calibrate``)."""

    def test_the_pool_costs_more_than_the_thread_that_received_the_block(self):
        """Blocks of 4 cells hold no kernel time to overlap: what is left is
        the pool itself. Best of 5, so one preempted run cannot flip it."""
        ed = EditDistance.random(16, 16, seed=1)
        one, per_region = pool_handoff_seconds(ed, 2, repeats=5)
        assert one > 0 and per_region > 0

    def test_rejects_bad_repeats(self):
        with pytest.raises(ConfigError):
            pool_handoff_seconds(EditDistance.random(16, 16, seed=1), 2, repeats=0)

    def test_region_seconds_times_the_head_region_at_each_edge(self):
        ed = EditDistance.random(256, 256, seed=2)
        timed = region_seconds(ed, 64, [4, 64], repeats=3)
        assert [edge for edge, _ in timed] == [4, 64]
        assert 0 < timed[0][1] < timed[1][1]  # 16 cells vs 4096


class TestCalibrateNode:
    def test_produces_positive_rate(self):
        ed = EditDistance.random(80, 80, seed=5)
        spec, samples = calibrate_node(ed, 20, 10)
        assert spec.flops_per_second > 0
        assert spec.threads == 1
        assert len(samples) == 3

    def test_base_spec_fields_kept(self):
        ed = EditDistance.random(40, 40, seed=6)
        base = NodeSpec(threads=4, contention=0.07)
        spec, _ = calibrate_node(ed, 20, 10, base=base)
        assert spec.threads == 4
        assert spec.contention == 0.07

    def test_calibrated_sim_tracks_real_serial_time(self):
        """A simulated 1-thread run with the calibrated rate lands within
        an order of magnitude of the real serial run."""
        import time

        from repro.backends.serial import run_serial
        from repro.backends.simulated import run_simulated
        from repro.cluster.topology import ClusterSpec

        ed = EditDistance.random(150, 150, seed=7)
        spec, _ = calibrate_node(ed, 50, 10, repeats=2)
        _, real = run_serial(ed, RunConfig(nodes=1, backend="serial",
                                           process_partition=50, thread_partition=10))
        cluster = ClusterSpec(compute_nodes=(spec,), master_overhead=0.0, slave_overhead=0.0)
        cfg = RunConfig(nodes=2, threads_per_node=1, backend="simulated",
                        cluster=cluster, process_partition=50, thread_partition=10)
        _, sim = run_simulated(ed, cfg)
        ratio = sim.makespan / real.makespan
        assert 0.2 < ratio < 5.0, f"calibrated sim off by {ratio:.1f}x"
        del time

    def test_report_renders(self):
        ed = EditDistance.random(40, 40, seed=8)
        _, samples = calibrate_node(ed, 20, 10)
        text = calibration_report(samples)
        assert "fitted rate" in text
        assert "(0, 0)" in text

    def test_position_dependent_costs_probed(self):
        """Nussinov's spread across diagonal offsets shows in the samples."""
        nu = Nussinov.random(120, seed=9)
        samples = measure_blocks(nu, 30, 10)
        assert len({s.bid for s in samples}) == 3
