"""Tests for the insert path (write workload extension)."""

import pytest

from repro.core import (
    BerdStrategy,
    HashStrategy,
    MagicStrategy,
    MagicTuning,
    RangeStrategy,
)
from repro.gamma import GammaMachine
from repro.storage import make_wisconsin
from tests.scans import count_in_range, min_max

INDEXES = {"unique1": False, "unique2": True}
P = 4


@pytest.fixture(scope="module")
def relation():
    return make_wisconsin(10_000, correlation="low", seed=120)


class TestSiteForTuple:
    def test_range_uses_boundaries(self, relation):
        placement = RangeStrategy("unique1").partition(relation, P)
        # A value inside site 0's range must map to site 0.
        hi = min_max(placement.fragment(0), "unique1")[1]
        assert placement.site_for_tuple({"unique1": int(hi)}) == 0
        assert placement.site_for_tuple({"unique1": 9_999}) == P - 1

    def test_range_requires_partitioning_attribute(self, relation):
        placement = RangeStrategy("unique1").partition(relation, P)
        with pytest.raises(KeyError):
            placement.site_for_tuple({"unique2": 5})

    def test_hash_default_rule(self, relation):
        placement = HashStrategy("unique1").partition(relation, P)
        site = placement.site_for_tuple({"unique1": 123})
        # Must agree with where the existing tuple 123 lives.
        assert count_in_range(placement.fragment(site), "unique1",
                              123, 123) == 1

    def test_berd_primary_and_aux(self, relation):
        placement = BerdStrategy("unique1", ["unique2"]).partition(
            relation, P)
        home = placement.site_for_tuple({"unique1": 100, "unique2": 5_000})
        assert 0 <= home < P
        aux = placement.aux_site_for("unique2", 5_000)
        assert 0 <= aux < P

    def test_magic_uses_grid_entry(self, relation):
        placement = MagicStrategy(
            ["unique1", "unique2"],
            tuning=MagicTuning(shape={"unique1": 8, "unique2": 8},
                               mi={"unique1": 2.0, "unique2": 2.0}),
        ).partition(relation, P)
        # The computed site must match where the actual tuple lives.
        u1 = int(relation.column("unique1")[17])
        u2 = int(relation.column("unique2")[17])
        site = placement.site_for_tuple({"unique1": u1, "unique2": u2})
        assert count_in_range(placement.fragment(site), "unique1",
                              u1, u1) >= 1

    def test_magic_requires_all_dimensions(self, relation):
        placement = MagicStrategy(
            ["unique1", "unique2"],
            tuning=MagicTuning(shape={"unique1": 8, "unique2": 8},
                               mi={"unique1": 2.0, "unique2": 2.0}),
        ).partition(relation, P)
        with pytest.raises(KeyError):
            placement.site_for_tuple({"unique1": 5})


class TestInsertExecution:
    def _machine(self, relation, strategy):
        return GammaMachine(strategy.partition(relation, P),
                            indexes=INDEXES, seed=3)

    def test_range_insert_completes(self, relation):
        machine = self._machine(relation, RangeStrategy("unique1"))
        handle = machine.scheduler.submit_insert(
            "R", {"unique1": 5_000, "unique2": 7_777})
        machine.env.run(until=handle.completion)
        assert handle.sites_used == 1
        assert machine.scheduler.in_flight == 0

    def test_berd_insert_touches_aux_site(self, relation):
        machine = self._machine(
            relation, BerdStrategy("unique1", ["unique2"]))
        handle = machine.scheduler.submit_insert(
            "R", {"unique1": 100, "unique2": 9_000})
        machine.env.run(until=handle.completion)
        # home site (low unique1) and aux site (high unique2) differ.
        assert handle.sites_used == 2

    def test_berd_insert_slower_than_range(self, relation):
        durations = {}
        for name, strategy in (
                ("range", RangeStrategy("unique1")),
                ("berd", BerdStrategy("unique1", ["unique2"]))):
            machine = self._machine(relation, strategy)
            total = 0.0
            for i in range(20):
                start = machine.env.now
                handle = machine.scheduler.submit_insert(
                    "R", {"unique1": i * 37, "unique2": 9_999 - i * 41})
                machine.env.run(until=handle.completion)
                total += machine.env.now - start
            durations[name] = total
        assert durations["berd"] > durations["range"]

    def test_concurrent_inserts_and_selects(self, relation):
        from repro.core import RangePredicate
        machine = self._machine(
            relation, BerdStrategy("unique1", ["unique2"]))
        handles = []
        for i in range(10):
            handles.append(machine.scheduler.submit_insert(
                "R", {"unique1": i * 11, "unique2": i * 13}))
            handles.append(machine.scheduler.submit(
                "R", "QB", RangePredicate("unique2", i * 100,
                                          i * 100 + 9)))
        for handle in handles:
            machine.env.run(until=handle.completion)
        assert machine.scheduler.in_flight == 0
