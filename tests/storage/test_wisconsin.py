"""Unit tests for the Wisconsin benchmark generator and correlation control."""

import numpy as np
import pytest

from repro.experiments import FIGURES, PlanExecutor, compile_figure
from repro.experiments.plan import _relation_for, clear_memos
from repro.storage import (
    HIGH_CORRELATION_WINDOW,
    WISCONSIN_TUPLE_BYTES,
    correlated_permutation,
    make_wisconsin,
    measured_rank_correlation,
    wisconsin_schema,
)


class TestSchema:
    def test_tuple_is_208_bytes(self):
        assert wisconsin_schema().tuple_size_bytes == WISCONSIN_TUPLE_BYTES

    def test_thirteen_integer_attributes(self):
        ints = [a for a in wisconsin_schema() if a.kind == "int"]
        assert len(ints) == 13


class TestGenerator:
    def test_default_cardinality(self):
        r = make_wisconsin(cardinality=1000)
        assert r.cardinality == 1000

    def test_unique1_unique2_are_permutations(self):
        r = make_wisconsin(cardinality=500, correlation="low", seed=1)
        for col in ("unique1", "unique2"):
            assert sorted(r.column(col)) == list(range(500))

    def test_deterministic_given_seed(self):
        a = make_wisconsin(cardinality=200, seed=9)
        b = make_wisconsin(cardinality=200, seed=9)
        assert np.array_equal(a.column("unique1"), b.column("unique1"))
        assert np.array_equal(a.column("unique2"), b.column("unique2"))

    def test_different_seeds_differ(self):
        a = make_wisconsin(cardinality=200, seed=1)
        b = make_wisconsin(cardinality=200, seed=2)
        assert not np.array_equal(a.column("unique1"), b.column("unique1"))

    def test_derived_columns_consistent(self):
        r = make_wisconsin(cardinality=300)
        u1 = r.column("unique1")
        assert np.array_equal(r.column("two"), u1 % 2)
        assert np.array_equal(r.column("one_percent"), u1 % 100)
        assert np.array_equal(r.column("unique3"), u1)

    def test_fresh_relation_stores_only_the_partitioning_columns(self):
        r = make_wisconsin(cardinality=300)
        assert set(r._columns) == {"unique1", "unique2"}
        # Still listed: every column column() can return.
        ints = [a.name for a in wisconsin_schema() if a.kind == "int"]
        assert set(r.materialized_columns) == set(ints)

    @pytest.mark.parametrize("name, formula", [
        ("two", lambda u1: u1 % 2),
        ("four", lambda u1: u1 % 4),
        ("ten", lambda u1: u1 % 10),
        ("twenty", lambda u1: u1 % 20),
        ("one_percent", lambda u1: u1 % 100),
        ("ten_percent", lambda u1: u1 % 10),
        ("twenty_percent", lambda u1: u1 % 5),
        ("fifty_percent", lambda u1: u1 % 2),
        ("unique3", lambda u1: u1),
        ("even_one_percent", lambda u1: (u1 % 100) * 2),
        ("odd_one_percent", lambda u1: (u1 % 100) * 2 + 1),
    ])
    def test_derived_on_first_read_then_cached(self, name, formula):
        r = make_wisconsin(cardinality=300, seed=4)
        first = r.column(name)
        assert np.array_equal(first, formula(r.column("unique1")))
        assert first.dtype == np.int64
        assert r.column(name) is first
        assert set(r._columns) == {"unique1", "unique2", name}

    def test_unique3_is_a_copy(self):
        r = make_wisconsin(cardinality=50)
        assert not np.shares_memory(r.column("unique3"), r.column("unique1"))

    def test_strings_optional(self):
        r = make_wisconsin(cardinality=10, with_strings=True)
        assert r.column("stringu1")[0] == "A" * 52
        bare = make_wisconsin(cardinality=10)
        with pytest.raises(KeyError):
            bare.column("stringu1")

    def test_bad_cardinality_rejected(self):
        with pytest.raises(ValueError):
            make_wisconsin(cardinality=0)


class TestCorrelation:
    def test_low_correlation_near_zero(self):
        r = make_wisconsin(cardinality=20_000, correlation="low", seed=3)
        rho = measured_rank_correlation(r.column("unique1"), r.column("unique2"))
        assert abs(rho) < 0.05

    def test_high_correlation_near_one(self):
        r = make_wisconsin(cardinality=20_000, correlation="high", seed=3)
        rho = measured_rank_correlation(r.column("unique1"), r.column("unique2"))
        assert rho > 0.999

    def test_high_correlation_bounded_displacement(self):
        r = make_wisconsin(cardinality=10_000, correlation="high", seed=5)
        delta = np.abs(r.column("unique1") - r.column("unique2"))
        assert delta.max() < HIGH_CORRELATION_WINDOW

    def test_identical_correlation(self):
        r = make_wisconsin(cardinality=1000, correlation="identical")
        assert np.array_equal(r.column("unique1"), r.column("unique2"))

    def test_float_rho_monotone(self):
        rng_card = 20_000
        measured = []
        for rho in (0.0, 0.5, 0.9, 1.0):
            r = make_wisconsin(cardinality=rng_card, correlation=rho, seed=11)
            measured.append(measured_rank_correlation(
                r.column("unique1"), r.column("unique2")))
        assert measured == sorted(measured)
        assert measured[-1] == pytest.approx(1.0)

    def test_float_rho_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            make_wisconsin(cardinality=10, correlation=1.5)

    def test_unknown_level_rejected(self):
        with pytest.raises(ValueError):
            make_wisconsin(cardinality=10, correlation="medium")

    def test_correlated_permutation_is_permutation(self):
        rng = np.random.default_rng(0)
        base = rng.permutation(5000)
        for spec in ("low", "high", "identical", 0.7):
            perm = correlated_permutation(base, spec, rng)
            assert sorted(perm) == list(range(5000))

    def test_measured_correlation_edge_cases(self):
        assert measured_rank_correlation(np.array([1]), np.array([2])) == 1.0
        with pytest.raises(ValueError):
            measured_rank_correlation(np.arange(3), np.arange(4))


def test_figure_run_derives_no_column():
    """A fig-8a plan reads unique1/unique2 only: no column is derived."""
    clear_memos()
    plan = compile_figure(FIGURES["8a"], cardinality=8_000, num_sites=8,
                          measured_queries=20, mpls=(1, 4), seed=3)
    try:
        PlanExecutor().execute(plan)
        relation = _relation_for(plan.specs()[0])
        assert set(relation._columns) == {"unique1", "unique2"}
    finally:
        clear_memos()
