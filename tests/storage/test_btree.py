"""Unit tests for the B+-tree cost model and Yao's formula."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.storage import BTreeIndex, yao_pages_touched


class TestYao:
    def test_zero_picks(self):
        assert yao_pages_touched(1000, 100, 0) == 0.0

    def test_one_page(self):
        assert yao_pages_touched(36, 1, 5) == 1.0

    def test_all_tuples_touch_all_pages(self):
        assert yao_pages_touched(360, 10, 360) == pytest.approx(10.0)

    def test_single_pick_touches_one_page(self):
        assert yao_pages_touched(3600, 100, 1) == pytest.approx(1.0)

    def test_sparse_picks_nearly_one_page_each(self):
        # 30 picks from 100k tuples on ~2778 pages: overlap is negligible.
        touched = yao_pages_touched(100_000, 2778, 30)
        assert 29.0 < touched <= 30.0

    def test_monotone_in_picks(self):
        prev = 0.0
        for picks in (1, 5, 10, 50, 100):
            cur = yao_pages_touched(1000, 50, picks)
            assert cur >= prev
            prev = cur

    @given(
        pages=st.integers(min_value=1, max_value=500),
        per_page=st.integers(min_value=1, max_value=100),
        picks=st.integers(min_value=0, max_value=1000),
    )
    def test_bounds_property(self, pages, per_page, picks):
        tuples = pages * per_page
        touched = yao_pages_touched(tuples, pages, picks)
        assert 0.0 <= touched <= pages + 1e-9
        if picks > 0:
            assert touched <= picks + 1e-9 or touched <= pages + 1e-9


class TestBTreeShape:
    def test_empty_index(self):
        idx = BTreeIndex(0)
        assert idx.height == 0
        assert idx.data_pages == 0
        assert idx.index_pages_total == 0

    def test_clustered_leaves_are_data_pages(self):
        idx = BTreeIndex(3600, tuples_per_page=36, clustered=True)
        assert idx.data_pages == 100
        assert idx.leaf_pages == 100

    def test_nonclustered_leaf_count(self):
        idx = BTreeIndex(3600, clustered=False, fanout=455)
        assert idx.leaf_pages == math.ceil(3600 / 455)

    def test_internal_levels_growth(self):
        # One leaf -> no internal levels.
        assert BTreeIndex(30, clustered=True).internal_levels == 0
        # 100 leaves with fanout 10 -> 2 internal levels.
        idx = BTreeIndex(1000, tuples_per_page=10, clustered=True, fanout=10)
        assert idx.leaf_pages == 100
        assert idx.internal_levels == 2

    def test_index_pages_total_nonclustered(self):
        idx = BTreeIndex(1000, tuples_per_page=10, clustered=False, fanout=10)
        # 100 leaves + 10 + 1 internal pages.
        assert idx.index_pages_total == 111

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            BTreeIndex(-1)
        with pytest.raises(ValueError):
            BTreeIndex(10, fanout=1)
        with pytest.raises(ValueError):
            BTreeIndex(10, cached_levels=-1)


class TestAccessPlans:
    def test_empty_fragment_lookup_costs_one_read(self):
        plan = BTreeIndex(0).range_lookup(10)
        assert plan.total_reads == 1
        assert plan.tuples_examined == 0

    def test_zero_match_lookup_still_costs_descent(self):
        idx = BTreeIndex(3125, clustered=False)
        plan = idx.range_lookup(0)
        assert plan.total_reads >= 1
        assert plan.tuples_examined == 0

    def test_clustered_range_streams_sequentially(self):
        idx = BTreeIndex(3125, tuples_per_page=36, clustered=True)
        plan = idx.range_lookup(300)
        assert plan.sequential_reads == math.ceil(300 / 36)
        assert plan.tuples_examined == 300

    def test_nonclustered_fetches_random_pages(self):
        idx = BTreeIndex(3125, tuples_per_page=36, clustered=False)
        plan = idx.range_lookup(30)
        assert plan.sequential_reads == 0
        # ~30 scattered data pages + leaf + descent.
        assert 25 <= plan.random_reads <= 35

    def test_single_tuple_nonclustered(self):
        idx = BTreeIndex(3125, tuples_per_page=36, clustered=False)
        plan = idx.range_lookup(1)
        # leaf read + 1 data page (root cached, shallow tree).
        assert 2 <= plan.total_reads <= 4
        assert plan.tuples_examined == 1

    def test_matches_clamped_to_keys(self):
        idx = BTreeIndex(10, clustered=True)
        plan = idx.range_lookup(1000)
        assert plan.tuples_examined == 10

    def test_negative_matches_rejected(self):
        with pytest.raises(ValueError):
            BTreeIndex(10).range_lookup(-1)

    def test_paper_workload_costs_comparable(self):
        """§6: the 'low' pair (and the 'moderate' pair) were chosen to have
        nearly identical costs.  Check the I/O counts are in the same
        ballpark for one 32-way fragment of the 100k relation."""
        frag_keys = 100_000 // 32
        nonclustered = BTreeIndex(frag_keys, clustered=False)
        clustered = BTreeIndex(frag_keys, clustered=True)
        low_a = nonclustered.range_lookup(1).total_reads
        low_b = clustered.range_lookup(10).total_reads
        assert abs(low_a - low_b) <= 3


class TestPlanMemo:
    """range_lookup memoizes its frozen plan per match count; a memoized
    plan must equal the plan a fresh index builds."""

    SHAPES = [
        dict(num_keys=0),
        dict(num_keys=1, clustered=True),
        dict(num_keys=98, clustered=False),
        dict(num_keys=98, clustered=False, resident=True),
        dict(num_keys=3125, clustered=True, cached_levels=0),
        dict(num_keys=3125, clustered=False, fanout=8),
    ]

    @pytest.mark.parametrize("shape", SHAPES,
                             ids=lambda shape: "-".join(
                                 f"{k}={v}" for k, v in shape.items()))
    def test_memo_matches_fresh_index(self, shape):
        idx = BTreeIndex(**shape)
        keys = shape["num_keys"]
        counts = [0, 1, max(keys // 3, 2), keys, keys + 7]
        # Ask twice in a mixed order: the second pass reads the memo.
        for matches in counts + counts[::-1]:
            plan = idx.range_lookup(matches)
            assert plan == BTreeIndex(**shape).range_lookup(matches)
            assert idx.range_lookup(matches) is plan

    def test_negative_count_raises_every_time(self):
        idx = BTreeIndex(98)
        idx.range_lookup(3)
        for _ in range(2):
            with pytest.raises(ValueError):
                idx.range_lookup(-1)
