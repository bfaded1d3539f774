"""Unit tests for range and hash declustering."""

import numpy as np
import pytest

from repro.core import HashStrategy, RangePredicate, RangeStrategy
from repro.storage import make_wisconsin
from tests.scans import count_in_range, min_max


@pytest.fixture(scope="module")
def relation():
    return make_wisconsin(cardinality=10_000, correlation="low", seed=1)


@pytest.fixture(scope="module")
def range_placement(relation):
    return RangeStrategy("unique1").partition(relation, 8)


class TestRangePartitioning:
    def test_is_a_partition(self, relation, range_placement):
        total = sum(f.cardinality for f in range_placement.fragments)
        assert total == relation.cardinality

    def test_balanced_fragments(self, range_placement):
        cards = range_placement.cardinalities()
        assert cards.max() - cards.min() <= 2

    def test_fragments_are_contiguous_ranges(self, range_placement):
        highs = []
        for site in range(range_placement.num_sites):
            mn, mx = min_max(range_placement.fragment(site), "unique1")
            if highs:
                assert mn > highs[-1]
            highs.append(mx)

    def test_route_on_partitioning_attribute_localizes(self, range_placement):
        decision = range_placement.route(RangePredicate("unique1", 0, 10))
        assert decision.target_sites == (0,)
        assert decision.used_partitioning

    def test_route_spanning_predicate(self, range_placement):
        # Half the domain -> about half the sites.
        decision = range_placement.route(RangePredicate("unique1", 0, 4999))
        assert 3 <= len(decision.target_sites) <= 5

    def test_route_other_attribute_broadcasts(self, range_placement):
        decision = range_placement.route(RangePredicate("unique2", 0, 10))
        assert decision.target_sites == tuple(range(8))
        assert not decision.used_partitioning

    def test_routing_is_sound(self, relation, range_placement):
        """Every qualifying tuple lives on a routed site."""
        pred = RangePredicate("unique1", 2_000, 2_500)
        counts = range_placement.qualifying_counts(pred)
        routed = set(range_placement.route(pred).target_sites)
        for site, count in enumerate(counts):
            if count > 0:
                assert site in routed
        assert counts.sum() == 501

    def test_explicit_boundaries(self, relation):
        strategy = RangeStrategy(
            "unique1", boundaries=np.array([4999]))
        placement = strategy.partition(relation, 2)
        assert min_max(placement.fragment(0), "unique1")[1] <= 4999

    def test_wrong_boundary_count_rejected(self, relation):
        strategy = RangeStrategy("unique1", boundaries=np.array([1, 2]))
        with pytest.raises(ValueError):
            strategy.partition(relation, 2)

    def test_bad_site_count_rejected(self, relation):
        with pytest.raises(ValueError):
            RangeStrategy("unique1").partition(relation, 0)


class TestHashPartitioning:
    @pytest.fixture(scope="class")
    def placement(self, relation):
        return HashStrategy("unique1").partition(relation, 8)

    def test_is_a_partition(self, relation, placement):
        assert sum(f.cardinality for f in placement.fragments) == \
            relation.cardinality

    def test_roughly_balanced(self, placement):
        cards = placement.cardinalities()
        assert cards.min() > 0.8 * cards.mean()
        assert cards.max() < 1.2 * cards.mean()

    def test_equality_routes_to_single_site(self, relation, placement):
        decision = placement.route(RangePredicate.equals("unique1", 1234))
        assert len(decision.target_sites) == 1
        # ... and it is the right site.
        site = decision.target_sites[0]
        assert count_in_range(placement.fragment(site), "unique1",
                              1234, 1234) == 1

    def test_range_predicate_broadcasts(self, placement):
        decision = placement.route(RangePredicate("unique1", 0, 10))
        assert decision.target_sites == tuple(range(8))

    def test_other_attribute_broadcasts(self, placement):
        decision = placement.route(RangePredicate.equals("unique2", 5))
        assert len(decision.target_sites) == 8
        assert not decision.used_partitioning
