"""Unit tests for the DAG pattern base class and Table I vertex records."""

import heapq

import pytest

from repro.algorithms.floyd_warshall import FloydWarshallPattern
from repro.check import fixtures
from repro.check.pattern_check import check_pattern
from repro.dag.library import (
    ChainPattern,
    CustomPattern,
    Full2DPattern,
    RowColPrefixPattern,
    TriangularPattern,
    WavefrontPattern,
)
from repro.dag.pattern import PatternType, edges_of
from repro.utils.errors import PatternError


class TestDAGVertexRecord:
    def test_element_degrees_interior(self):
        p = WavefrontPattern(4, 4)
        v = p.element((2, 2))
        assert v.pre_cnt == 2
        assert v.pos_cnt == 2
        assert v.data_pre_cnt == 3  # N, W plus NW data dependency
        assert set(v.posfix_id) == {(3, 2), (2, 3)}
        assert (1, 1) in v.data_prefix_id

    def test_element_source_has_no_predecessors(self):
        p = WavefrontPattern(3, 3)
        v = p.element((0, 0))
        assert v.pre_cnt == 0
        assert v.data_pre_cnt == 0

    def test_element_rejects_foreign_vertex(self):
        p = WavefrontPattern(3, 3)
        with pytest.raises(PatternError):
            p.element((5, 5))

    def test_element_binds_process_function(self):
        p = ChainPattern(3)
        fn = lambda: 42  # noqa: E731
        assert p.element((1,), process=fn).process is fn


class TestDerivedOperations:
    def test_sources_and_sinks_wavefront(self):
        p = WavefrontPattern(3, 4)
        assert list(p.sources()) == [(0, 0)]
        assert list(p.sinks()) == [(2, 3)]

    def test_sources_triangular_is_main_diagonal(self):
        p = TriangularPattern(5)
        assert set(p.sources()) == {(i, i) for i in range(5)}
        assert list(p.sinks()) == [(0, 4)]

    def test_topological_order_respects_edges(self):
        p = WavefrontPattern(4, 4)
        pos = {v: i for i, v in enumerate(p.topological_order())}
        assert len(pos) == 16
        for pred, succ in edges_of(p):
            assert pos[pred] < pos[succ]

    def test_len_iter_contains(self):
        p = WavefrontPattern(3, 5)
        assert len(p) == 15
        assert (2, 4) in p
        assert (3, 0) not in p
        assert "x" not in p
        assert sorted(p) == sorted(p.vertices())

    def test_as_adjacency_matches_predecessors(self):
        p = TriangularPattern(4)
        adj = p.as_adjacency()
        assert adj[(0, 3)] == p.predecessors((0, 3))
        assert len(adj) == p.n_vertices()


#: The eight library patterns the validation and pinned-order tests share.
BUILTINS = [
    WavefrontPattern(5, 3),
    WavefrontPattern(4, 4, row_reversed=True),
    WavefrontPattern(2, 6, diagonal_data_dep=False),
    RowColPrefixPattern(4, 5),
    RowColPrefixPattern(5, 4, row_reversed=True),
    TriangularPattern(6),
    Full2DPattern(4, 4),
    ChainPattern(7),
]


def _smallest_first_peel(pattern):
    """An independent topological peel: always take the smallest ready id."""
    left = {v: len(pattern.predecessors(v)) for v in pattern.vertices()}
    ready = [v for v, n in left.items() if n == 0]
    heapq.heapify(ready)
    order = []
    while ready:
        v = heapq.heappop(ready)
        order.append(v)
        for s in pattern.successors(v):
            left[s] -= 1
            if left[s] == 0:
                heapq.heappush(ready, s)
    return order


class TestPinnedOrder:
    """``topological_order`` is the order journals, traces and the serial
    drain follow: the smallest computable vertex id comes first."""

    @pytest.mark.parametrize(
        "pattern",
        BUILTINS
        + [
            FloydWarshallPattern(3),
            CustomPattern({(0,): [], (1,): [], (2,): [(1,)], (3,): [(0,), (2,)], (4,): [(1,)]}),
        ],
        ids=repr,
    )
    def test_order_is_smallest_ready_id_first(self, pattern):
        expected = _smallest_first_peel(pattern)
        assert len(expected) == pattern.n_vertices()
        assert list(pattern.topological_order()) == expected


class TestValidation:
    @pytest.mark.parametrize("pattern", BUILTINS)
    def test_all_builtins_validate(self, pattern):
        pattern.validate()

    def test_cycle_detection(self):
        class Cyclic(ChainPattern):
            def predecessors(self, vid):
                (i,) = vid
                return (((i - 1) % self.n,),)

            def successors(self, vid):
                (i,) = vid
                return (((i + 1) % self.n,),)

        with pytest.raises(PatternError, match="cycle"):
            Cyclic(4).validate()

    def test_inconsistent_views_detected(self):
        class Broken(ChainPattern):
            def successors(self, vid):
                return ()  # forgets the edges its predecessors view declares

        with pytest.raises(PatternError, match="successors view"):
            Broken(3).validate()

    def test_data_deps_must_cover_topological(self):
        class BadData(WavefrontPattern):
            def data_predecessors(self, vid):
                return ()

        with pytest.raises(PatternError, match="absent from data dependencies"):
            BadData(2, 2).validate()

    @pytest.mark.parametrize(
        "make",
        [fixtures.cyclic_pattern, fixtures.out_of_bounds_pattern, fixtures.data_gap_pattern],
    )
    def test_validate_names_the_checkers_codes(self, make):
        codes = set(check_pattern(make()).codes())
        assert codes
        with pytest.raises(PatternError) as info:
            make().validate()
        for code in codes:
            assert code in str(info.value)

    def test_data_dependency_outside_the_pattern_rejected(self):
        class LeakyData(CustomPattern):
            def data_predecessors(self, vid):
                return super().data_predecessors(vid) + ((9,),)

        with pytest.raises(PatternError, match="dep-out-of-bounds"):
            LeakyData({(0,): [], (1,): [(0,)]})


class TestPatternTypes:
    def test_types_assigned(self):
        assert WavefrontPattern(2, 2).pattern_type is PatternType.WAVEFRONT_2D0D
        assert RowColPrefixPattern(2, 2).pattern_type is PatternType.ROWCOL_PREFIX_2D1D
        assert TriangularPattern(2).pattern_type is PatternType.TRIANGULAR_2D1D
        assert Full2DPattern(2, 2).pattern_type is PatternType.FULL_2D2D
        assert ChainPattern(2).pattern_type is PatternType.CHAIN_1D
        assert CustomPattern({(0,): []}).pattern_type is PatternType.CUSTOM

    def test_equality_and_hash(self):
        assert WavefrontPattern(3, 3) == WavefrontPattern(3, 3)
        assert WavefrontPattern(3, 3) != WavefrontPattern(3, 4)
        assert WavefrontPattern(3, 3) != WavefrontPattern(3, 3, row_reversed=True)
        assert hash(TriangularPattern(5)) == hash(TriangularPattern(5))
        assert TriangularPattern(5) != TriangularPattern(6)
