"""Static pattern/partition verifier (repro.check.pattern_check).

Positive path: every built-in pattern and every bundled algorithm's whole
partition stack verifies clean. Negative path: each seeded structural
defect is rejected with its named diagnostic.
"""

import pytest

from repro.check import diagnostics as D
from repro.algorithms import ALGORITHMS, EditDistance, FloydWarshall, make_problem
from repro.check.fixtures import (
    cyclic_pattern,
    data_gap_pattern,
    out_of_bounds_pattern,
    overreaching_mapping_report,
)
from repro.check.pattern_check import check_data_mapping, check_partition, check_pattern
from repro.check.runner import (
    builtin_pattern_cases,
    check_algorithm,
    run_builtin_checks,
)
from repro.dag.library import IndependentGridPattern, WavefrontPattern
from repro.dag.partition import Partition, partition_pattern
from repro.utils.errors import CheckError

PATTERN_CASES = builtin_pattern_cases()


class TestBuiltinsClean:
    @pytest.mark.parametrize("name", sorted(PATTERN_CASES))
    def test_library_pattern_verifies(self, name):
        report = check_pattern(PATTERN_CASES[name]())
        assert report.ok, report.summary()
        assert report.checked > 0

    @pytest.mark.parametrize("name", sorted(ALGORITHMS))
    def test_algorithm_stack_verifies(self, name):
        report = check_algorithm(make_problem(name, 24, 0))
        assert report.ok, report.summary()

    def test_run_builtin_checks_all_ok(self):
        results = run_builtin_checks(algo_size=16)
        assert len(results) >= len(PATTERN_CASES) + len(ALGORITHMS) - 1
        bad = [name for name, report in results if not report.ok]
        assert not bad, bad


class TestSeededDefects:
    def test_cycle_detected(self):
        report = check_pattern(cyclic_pattern())
        assert not report.ok
        assert report.has(D.PATTERN_CYCLE), report.summary()

    def test_out_of_bounds_dep_detected(self):
        report = check_pattern(out_of_bounds_pattern())
        assert report.has(D.DEP_OUT_OF_BOUNDS), report.summary()

    def test_data_superset_violation_detected(self):
        report = check_pattern(data_gap_pattern())
        assert report.has(D.DATA_SUPERSET_VIOLATION), report.summary()

    def test_raise_if_failed(self):
        report = check_pattern(cyclic_pattern())
        with pytest.raises(CheckError):
            report.raise_if_failed()

    def test_partition_edge_lost_detected(self):
        # Doctor a wavefront partition so its coarse DAG claims the blocks
        # are independent: every cross-block cell dependency is then lost.
        good = partition_pattern(WavefrontPattern(12, 12), 4)
        bad = Partition(
            base=good.base,
            abstract=IndependentGridPattern(
                good.grid.n_block_rows, good.grid.n_block_cols
            ),
            grid=good.grid,
            kind=good.kind,
        )
        report = check_partition(bad)
        assert report.has(D.PARTITION_EDGE_LOST), report.summary()

    def test_mapping_reading_a_concurrent_block_detected(self):
        report = overreaching_mapping_report()
        assert set(report.codes()) == {D.MAPPING_READS_NON_ANCESTOR}, report.summary()
        # Row 0 reads boundary data and the last column reads past the
        # matrix: only the four interior-edge blocks reach a live block.
        assert len(report.diagnostics) == 4

    def test_mapping_writing_outside_its_block_detected(self):
        class Spilling(EditDistance):
            def output_regions(self, partition, bid):
                regions = super().output_regions(partition, bid)
                if bid == (1, 1):
                    key, r0, r1, c0, c1 = regions["block"]
                    regions["block"] = (key, r0 - 1, r1, c0, c1)  # into (0, 1)'s last row
                return regions

        problem = Spilling.random(12, 12, seed=0)
        report = check_data_mapping(problem, problem.build_partition(4))
        assert [d.subject for d in report.diagnostics] == ["(1, 1)"]
        assert report.has(D.MAPPING_WRITES_OUTSIDE_BLOCK), report.summary()

    def test_staged_mapping_reading_next_rounds_pivot_detected(self):
        """Floyd-Warshall cells have one writer per round; a round-0 block
        declared to read round 1's pivot region reads what no ancestor
        wrote yet."""

        class Eager(FloydWarshall):
            def input_regions(self, partition, bid):
                regions = super().input_regions(partition, bid)
                if "pivot" in regions and bid[0] == 0:
                    p = partition.grid.row_range(1)
                    regions["pivot"] = ("W", p.start, p.stop, p.start, p.stop, None)
                return regions

        problem = Eager.random(12, seed=0)
        report = check_data_mapping(problem, problem.build_partition(4))
        assert report.has(D.MAPPING_READS_NON_ANCESTOR), report.summary()
        assert {d.subject for d in report.diagnostics} == {
            "(0, 0, 1)", "(0, 0, 2)", "(0, 1, 0)", "(0, 2, 0)"
        }


class TestSampledPath:
    def test_large_pattern_uses_sampling(self):
        # 360k vertices: far past the exhaustive cutoff; must stay fast
        # and clean under the probing verifier.
        report = check_pattern(WavefrontPattern(600, 600), samples=64, seed=3)
        assert report.ok, report.summary()
        assert report.checked <= 600 * 600

    def test_method_hooks(self):
        pattern = WavefrontPattern(6, 6)
        assert pattern.check().ok
        assert partition_pattern(pattern, 3).check().ok
