"""Unit tests for BERD declustering (paper §2)."""

import numpy as np
import pytest

from repro.core import BerdStrategy, RangePredicate
from repro.storage import make_wisconsin
from tests.scans import min_max

P = 8


@pytest.fixture(scope="module")
def low_corr_relation():
    return make_wisconsin(cardinality=10_000, correlation="low", seed=2)


@pytest.fixture(scope="module")
def high_corr_relation():
    return make_wisconsin(cardinality=10_000, correlation="high", seed=2)


@pytest.fixture(scope="module")
def placement(low_corr_relation):
    return BerdStrategy("unique1", ["unique2"]).partition(low_corr_relation, P)


class TestConstruction:
    def test_is_a_partition(self, low_corr_relation, placement):
        assert sum(f.cardinality for f in placement.fragments) == \
            low_corr_relation.cardinality

    def test_primary_fragments_are_ranges(self, placement):
        last_hi = None
        for site in range(P):
            mn, mx = min_max(placement.fragment(site), "unique1")
            if last_hi is not None:
                assert mn > last_hi
            last_hi = mx

    def test_aux_cardinalities_cover_relation(self, low_corr_relation,
                                              placement):
        total = sum(placement.aux_cardinality("unique2", s) for s in range(P))
        assert total == low_corr_relation.cardinality

    def test_aux_cardinalities_balanced(self, placement):
        cards = [placement.aux_cardinality("unique2", s) for s in range(P)]
        assert max(cards) - min(cards) <= 2

    def test_primary_as_secondary_rejected(self):
        with pytest.raises(ValueError):
            BerdStrategy("a", ["a", "b"])

    def test_requires_secondary(self):
        with pytest.raises(ValueError):
            BerdStrategy("a", [])


class TestRouting:
    def test_primary_query_single_phase(self, placement):
        decision = placement.route(RangePredicate("unique1", 0, 50))
        assert not decision.is_two_phase
        assert decision.target_sites == (0,)

    def test_secondary_query_is_two_phase(self, placement):
        decision = placement.route(RangePredicate("unique2", 100, 109))
        assert decision.is_two_phase
        # A 10-value range lives in one aux fragment almost surely.
        assert len(decision.probe_sites) == 1
        assert sum(decision.probe_matches) == 10

    def test_secondary_query_targets_are_exact(self, low_corr_relation,
                                               placement):
        pred = RangePredicate("unique2", 5_000, 5_019)
        decision = placement.route(pred)
        counts = placement.qualifying_counts(pred)
        expected = {s for s in range(P) if counts[s] > 0}
        assert set(decision.target_sites) == expected

    def test_low_correlation_scatters_targets(self, placement):
        """§2: 10 qualifying tuples land on ~10 distinct processors
        (bounded by P here)."""
        widths = []
        for lo in range(0, 5000, 500):
            decision = placement.route(RangePredicate("unique2", lo, lo + 9))
            widths.append(len(decision.target_sites))
        assert np.mean(widths) > 0.6 * P

    def test_high_correlation_localizes(self, high_corr_relation):
        """§4: under high correlation the qualifying tuples co-locate with
        the aux fragment, localizing execution."""
        placement = BerdStrategy("unique1", ["unique2"]).partition(
            high_corr_relation, P)
        widths = []
        for lo in range(100, 9000, 1000):
            decision = placement.route(RangePredicate("unique2", lo, lo + 9))
            widths.append(decision.site_count)
        assert np.mean(widths) <= 2.5

    def test_unindexed_attribute_broadcasts(self, placement):
        decision = placement.route(RangePredicate("ten", 1, 1))
        assert decision.target_sites == tuple(range(P))
        assert not decision.used_partitioning

    def test_no_qualifying_tuples_empty_targets(self, placement):
        decision = placement.route(RangePredicate("unique2", 100_000, 200_000))
        assert decision.target_sites == ()
        assert decision.is_two_phase  # the probe still happens

    def test_probe_matches_split_across_probe_sites(self, placement):
        # A range spanning an aux boundary probes two sites; the per-site
        # match counts must sum to the total matches.
        bound = int(placement.auxiliaries["unique2"].boundaries[0])
        decision = placement.route(
            RangePredicate("unique2", bound - 5, bound + 5))
        assert len(decision.probe_sites) == 2
        assert sum(decision.probe_matches) == 11
