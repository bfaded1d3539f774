"""Differential test: vectorized per-site counts against fragment scans.

``Placement.qualifying_counts`` answers a predicate for every site at
once from one sorted key array per attribute.  A scan of each
fragment's values (``tests.scans.count_in_range``) is the reference; the two must agree exactly on every strategy, including
placements with empty fragments and predicates outside the domain.
"""

import numpy as np
import pytest

from repro.core import (
    BerdStrategy,
    HashStrategy,
    MagicStrategy,
    MagicTuning,
    RangePredicate,
    RangeStrategy,
)
from repro.dynamics import rescale_placement
from repro.storage import Relation, make_wisconsin, wisconsin_schema
from tests.scans import count_in_range

CARDINALITY = 3_000


@pytest.fixture(scope="module")
def relation():
    return make_wisconsin(CARDINALITY, correlation="high", seed=5)


@pytest.fixture(scope="module")
def placements(relation):
    magic = MagicStrategy(
        ("unique1", "unique2"),
        tuning=MagicTuning(shape={"unique1": 12, "unique2": 10},
                           mi={"unique1": 3.0, "unique2": 3.0}))
    range_16 = RangeStrategy("unique1").partition(relation, 16)
    return {
        "range": range_16,
        "hash": HashStrategy("unique2").partition(relation, 13),
        "berd": BerdStrategy("unique1", ["unique2"]).partition(relation, 8),
        "magic": magic.partition(relation, 32),
        "range-rescaled": rescale_placement(range_16, 24)[0],
        # Ten distinct values over 32 sites: most fragments are empty.
        "range-ten": RangeStrategy("ten").partition(relation, 32),
        # A hash of 20 values over 40 sites leaves every other site empty.
        "hash-twenty": HashStrategy("twenty").partition(relation, 40),
        # Negative and widely spread values.
        "range-shifted": RangeStrategy("unique1").partition(Relation(
            "S", wisconsin_schema(),
            {name: relation.column(name) * 7 - 10_000
             for name in ("unique1", "unique2", "ten", "twenty")}), 12),
    }


def _predicates(rng, attribute, low_value, high_value):
    predicates = [
        RangePredicate(attribute, low_value - 50, low_value - 1),  # below
        RangePredicate(attribute, high_value + 1, high_value + 99),  # above
        RangePredicate(attribute, -10**12, 10**12),    # everything
        RangePredicate.equals(attribute, low_value),
        RangePredicate.equals(attribute, high_value),
        RangePredicate.equals(attribute, high_value + 7),
        RangePredicate(attribute, low_value - 3, low_value + 2),
        RangePredicate(attribute, high_value - 2, high_value + 5),
    ]
    span = high_value - low_value
    for _ in range(25):
        low = int(rng.integers(low_value, high_value + 1))
        width = int(rng.integers(0, max(span // 4, 1)))
        predicates.append(RangePredicate(attribute, low, low + width))
        value = int(rng.integers(low_value, high_value + 1))
        predicates.append(RangePredicate.equals(attribute, value))
    return predicates


@pytest.mark.parametrize("name", ["range", "hash", "berd", "magic",
                                  "range-rescaled", "range-ten",
                                  "hash-twenty", "range-shifted"])
def test_counts_match_fragment_scans(relation, placements, name):
    placement = placements[name]
    rng = np.random.default_rng(len(name))
    checked = 0
    for attribute in ("unique1", "unique2", "ten", "twenty"):
        column = placement.relation.column(attribute)
        for predicate in _predicates(rng, attribute, int(column.min()),
                                     int(column.max())):
            expected = [count_in_range(fragment, attribute, predicate.low,
                                       predicate.high)
                        for fragment in placement.fragments]
            counts = placement.qualifying_counts(predicate)
            assert counts.tolist() == expected, (name, predicate)
            checked += 1
    assert checked > 200
    if name in ("range-ten", "hash-twenty"):
        assert 0 in placement.cardinalities().tolist()


def test_counts_leave_fragment_caches_alone(relation):
    """Counting builds no per-fragment state (no sorted copies)."""
    placement = RangeStrategy("unique1").partition(relation, 8)
    before = [sorted(vars(fragment)) for fragment in placement.fragments]
    counts = placement.qualifying_counts(RangePredicate("unique1", 10, 900))
    assert counts.sum() == 891
    assert [sorted(vars(fragment))
            for fragment in placement.fragments] == before
