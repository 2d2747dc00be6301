"""Unit tests for the scheduling policies (dynamic, BCW, CW)."""

import pytest

from repro.schedulers.policy import (
    AffinityDynamicPolicy,
    BlockCyclicWavefrontPolicy,
    ColumnWavefrontPolicy,
    DynamicPolicy,
    SchedulingPolicy,
    make_policy,
)
from repro.utils.errors import ConfigError, SchedulerError

#: Ready lists of every length the thread level sees at its ends.
READY_LISTS = [[], [(0, 0)], [(1, 1), (0, 2)], [(3, 0), (2, 1), (1, 2), (0, 3)]]


class TestDynamic:
    def test_everything_eligible(self):
        p = DynamicPolicy(3)
        for w in range(3):
            for t in [(0, 0), (5, 9), (2, 1)]:
                assert p.eligible(w, t)
                assert p.owner(t) is None

    def test_select_index_takes_newest(self):
        p = DynamicPolicy(2)
        assert p.select_index(0, [(1, 1), (0, 2)]) == 1  # LIFO over the stack
        assert p.select_index(0, []) is None

    def test_worker_range_checked(self):
        p = DynamicPolicy(2)
        with pytest.raises(SchedulerError):
            p.eligible(2, (0, 0))


class TestDynamicPick:
    """``DynamicPolicy.select_index`` answers in O(1) what the base class's
    LIFO scan answers, error included."""

    @pytest.mark.parametrize("ready", READY_LISTS)
    def test_equals_the_base_scan(self, ready):
        p = DynamicPolicy(3)
        for w in range(3):
            want = SchedulingPolicy.select_index(p, w, ready)
            assert p.select_index(w, ready) == want
            assert want == (len(ready) - 1 if ready else None)

    @pytest.mark.parametrize("worker", [-1, 3, 7])
    def test_out_of_range_worker_raises_only_with_a_task_to_look_at(self, worker):
        p = DynamicPolicy(3)
        assert p.select_index(worker, []) is None
        with pytest.raises(SchedulerError) as override:
            p.select_index(worker, [(0, 0)])
        with pytest.raises(SchedulerError) as base:
            SchedulingPolicy.select_index(p, worker, [(0, 0)])
        assert str(override.value) == str(base.value)

    def test_grown_pool_admits_the_joiner(self):
        p = DynamicPolicy(2)
        p.n_workers = 3  # an elastic join
        assert p.select_index(2, [(0, 0), (0, 1)]) == 1

    @pytest.mark.parametrize("ready", READY_LISTS)
    def test_affinity_fallback_is_the_base_scan(self, ready):
        p = AffinityDynamicPolicy(2, neighbor_fn=lambda t: [], history={0: {(9, 9)}})
        for w in range(2):
            assert p.select_index(w, ready) == SchedulingPolicy.select_index(p, w, ready)


class TestBCW:
    def test_cyclic_ownership(self):
        p = BlockCyclicWavefrontPolicy(3)
        assert p.owner((0, 0)) == 0
        assert p.owner((5, 1)) == 1
        assert p.owner((9, 2)) == 2
        assert p.owner((0, 3)) == 0

    def test_block_cols_grouping(self):
        p = BlockCyclicWavefrontPolicy(2, block_cols=2)
        assert [p.owner((0, j)) for j in range(8)] == [0, 0, 1, 1, 0, 0, 1, 1]

    def test_select_respects_ownership(self):
        p = BlockCyclicWavefrontPolicy(2)
        ready = [(0, 0), (0, 1), (0, 2)]
        assert p.select_index(0, ready) == 2  # the newest of its columns 0 and 2
        assert p.select_index(1, ready) == 1

    def test_worker_with_nothing_eligible_idles(self):
        p = BlockCyclicWavefrontPolicy(3)
        assert p.select_index(2, [(0, 0), (0, 1)]) is None  # owns column 2 only

    def test_invalid_block_cols(self):
        with pytest.raises(ConfigError):
            BlockCyclicWavefrontPolicy(2, block_cols=0)


class TestCW:
    def test_contiguous_bands(self):
        p = ColumnWavefrontPolicy(2, n_columns=8)
        assert [p.owner((0, j)) for j in range(8)] == [0, 0, 0, 0, 1, 1, 1, 1]

    def test_uneven_bands_clip_to_last_worker(self):
        p = ColumnWavefrontPolicy(3, n_columns=7)  # band = 3
        assert [p.owner((0, j)) for j in range(7)] == [0, 0, 0, 1, 1, 1, 2]

    def test_more_workers_than_columns(self):
        p = ColumnWavefrontPolicy(5, n_columns=3)
        owners = {p.owner((0, j)) for j in range(3)}
        assert owners <= {0, 1, 2, 3, 4}

    def test_column_out_of_range(self):
        p = ColumnWavefrontPolicy(2, n_columns=4)
        with pytest.raises(SchedulerError):
            p.owner((0, 4))


class TestFactory:
    def test_make_each(self):
        assert isinstance(make_policy("dynamic", 2, 10), DynamicPolicy)
        assert isinstance(make_policy("bcw", 2, 10), BlockCyclicWavefrontPolicy)
        assert isinstance(make_policy("cw", 2, 10), ColumnWavefrontPolicy)

    def test_unknown_rejected(self):
        with pytest.raises(ConfigError):
            make_policy("random", 2, 10)

    def test_zero_workers_rejected(self):
        with pytest.raises(ConfigError):
            make_policy("dynamic", 0, 10)

    def test_cw_is_bcw_with_band_grouping(self):
        """The paper's note: CW == BCW with block_col = data_col / workers."""
        n_cols, workers = 12, 3
        cw = ColumnWavefrontPolicy(workers, n_columns=n_cols)
        bcw = BlockCyclicWavefrontPolicy(workers, block_cols=n_cols // workers)
        for j in range(n_cols):
            assert cw.owner((0, j)) == bcw.owner((0, j))
