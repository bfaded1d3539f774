"""Tests for the skewed-data generator (extension)."""

import numpy as np
import pytest

from repro.storage import make_skewed_wisconsin, measured_rank_correlation


class TestSkewedGenerator:
    def test_cardinality_and_domain(self):
        rel = make_skewed_wisconsin(5_000, skew=2.0, seed=1)
        assert rel.cardinality == 5_000
        u1 = rel.column("unique1")
        assert u1.min() >= 0
        assert u1.max() < 5_000

    def test_skew_one_is_roughly_uniform(self):
        rel = make_skewed_wisconsin(20_000, skew=1.0, seed=2)
        u1 = rel.column("unique1")
        below_half = float((u1 < 10_000).mean())
        assert below_half == pytest.approx(0.5, abs=0.03)

    def test_higher_skew_concentrates_low_values(self):
        fractions = []
        for skew in (1.0, 2.0, 4.0):
            rel = make_skewed_wisconsin(20_000, skew=skew, seed=3)
            u1 = rel.column("unique1")
            fractions.append(float((u1 < 4_000).mean()))
        assert fractions == sorted(fractions)
        assert fractions[-1] > 2 * fractions[0]

    def test_duplicates_allowed(self):
        rel = make_skewed_wisconsin(10_000, skew=3.0, seed=4)
        u1 = rel.column("unique1")
        assert len(np.unique(u1)) < len(u1)

    def test_marginals_match_between_attributes(self):
        rel = make_skewed_wisconsin(20_000, skew=2.5, seed=5)
        u1 = np.sort(rel.column("unique1"))
        u2 = np.sort(rel.column("unique2"))
        assert np.array_equal(u1, u2)  # same multiset by construction

    def test_correlation_control(self):
        low = make_skewed_wisconsin(20_000, skew=2.0, correlation="low",
                                    seed=6)
        high = make_skewed_wisconsin(20_000, skew=2.0, correlation="high",
                                     seed=6)
        rho_low = measured_rank_correlation(low.column("unique1"),
                                            low.column("unique2"))
        rho_high = measured_rank_correlation(high.column("unique1"),
                                             high.column("unique2"))
        assert abs(rho_low) < 0.1
        assert rho_high > 0.95

    def test_deterministic(self):
        a = make_skewed_wisconsin(1_000, skew=2.0, seed=7)
        b = make_skewed_wisconsin(1_000, skew=2.0, seed=7)
        assert np.array_equal(a.column("unique1"), b.column("unique1"))

    def test_validation(self):
        with pytest.raises(ValueError):
            make_skewed_wisconsin(0)
        with pytest.raises(ValueError):
            make_skewed_wisconsin(100, skew=0.5)

    def test_derived_columns_consistent(self):
        rel = make_skewed_wisconsin(1_000, skew=2.0, seed=8)
        assert np.array_equal(rel.column("two"), rel.column("unique1") % 2)

    def test_secondary_columns_derived_on_first_read(self):
        rel = make_skewed_wisconsin(1_000, skew=2.0, seed=8)
        assert set(rel._columns) == {"unique1", "unique2"}
        u1 = rel.column("unique1")
        for name, formula in (("twenty", u1 % 20),
                              ("unique3", u1),
                              ("odd_one_percent", (u1 % 100) * 2 + 1)):
            first = rel.column(name)
            assert np.array_equal(first, formula)
            assert rel.column(name) is first
        assert set(rel._columns) == {"unique1", "unique2", "twenty",
                                     "unique3", "odd_one_percent"}
