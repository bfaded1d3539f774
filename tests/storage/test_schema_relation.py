"""Unit tests for schemas, relations and fragments."""

import numpy as np
import pytest

from repro.storage import Attribute, Fragment, Relation, Schema, union_fragments
from repro.storage.schema import INT, STRING
from tests.scans import count_in_range, min_max, rows_in_range


def small_schema():
    return Schema([
        Attribute("a", INT, 4),
        Attribute("b", INT, 4),
        Attribute("pad", STRING, 200),
    ])


def small_relation(n=100):
    schema = small_schema()
    return Relation("r", schema, {
        "a": np.arange(n, dtype=np.int64),
        "b": np.arange(n, dtype=np.int64)[::-1].copy(),
    })


class TestSchema:
    def test_tuple_size_is_sum_of_widths(self):
        assert small_schema().tuple_size_bytes == 208

    def test_index_of(self):
        s = small_schema()
        assert s.index_of("b") == 1
        with pytest.raises(KeyError):
            s.index_of("missing")

    def test_getitem_by_name_and_position(self):
        s = small_schema()
        assert s["a"].name == "a"
        assert s[2].name == "pad"

    def test_contains_and_names(self):
        s = small_schema()
        assert "a" in s and "zz" not in s
        assert s.names == ("a", "b", "pad")

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError):
            Schema([Attribute("x"), Attribute("x")])

    def test_empty_schema_rejected(self):
        with pytest.raises(ValueError):
            Schema([])

    def test_bad_attribute_kind_rejected(self):
        with pytest.raises(ValueError):
            Attribute("x", "float", 8)

    def test_nonpositive_width_rejected(self):
        with pytest.raises(ValueError):
            Attribute("x", INT, 0)


class TestRelation:
    def test_cardinality(self):
        assert small_relation(50).cardinality == 50
        assert len(small_relation(50)) == 50

    def test_column_access(self):
        r = small_relation(10)
        assert r.column("a")[3] == 3
        with pytest.raises(KeyError):
            r.column("pad")  # declared but not materialized

    def test_unknown_column_rejected_at_build(self):
        with pytest.raises(KeyError):
            Relation("r", small_schema(), {"zzz": np.arange(3)})

    def test_derived_column_computed_once_on_first_read(self):
        calls = []

        def double(rel):
            calls.append(rel)
            return rel.column("a") * 2

        r = Relation("r", small_schema(), {"a": np.arange(4)},
                     derived={"b": double})
        assert r.materialized_columns == ("a", "b")
        assert calls == []
        assert list(r.column("b")) == [0, 2, 4, 6]
        assert r.column("b") is r.column("b")
        assert calls == [r]

    def test_derived_column_checked(self):
        with pytest.raises(KeyError):
            Relation("r", small_schema(), {"a": np.arange(3)},
                     derived={"zzz": lambda rel: rel.column("a")})
        r = Relation("r", small_schema(), {"a": np.arange(3)},
                     derived={"b": lambda rel: np.arange(5)})
        with pytest.raises(ValueError):
            r.column("b")

    def test_ragged_columns_rejected(self):
        with pytest.raises(ValueError):
            Relation("r", small_schema(),
                     {"a": np.arange(3), "b": np.arange(4)})

    def test_rows_in_range_inclusive(self):
        r = small_relation(100)
        rows = rows_in_range(r, "a", 10, 19)
        assert sorted(r.column("a")[rows]) == list(range(10, 20))

    def test_tuple_size_from_schema(self):
        assert small_relation().tuple_size_bytes == 208


class TestFragment:
    def test_cardinality_and_values(self):
        r = small_relation(100)
        frag = r.fragment(np.array([5, 6, 7]), site=3)
        assert frag.cardinality == 3
        assert frag.site == 3
        assert sorted(frag.values("a")) == [5, 6, 7]

    def test_count_in_range(self):
        r = small_relation(100)
        frag = r.fragment(np.arange(0, 100, 2))  # even a-values
        assert count_in_range(frag, "a", 0, 9) == 5
        assert count_in_range(frag, "a", 98, 200) == 1
        assert count_in_range(frag, "a", 1000, 2000) == 0

    def test_count_in_range_empty_fragment(self):
        r = small_relation(10)
        frag = r.fragment(np.array([], dtype=np.int64))
        assert count_in_range(frag, "a", 0, 100) == 0
        assert min_max(frag, "a") is None

    def test_min_max(self):
        r = small_relation(100)
        frag = r.fragment(np.array([10, 50, 90]))
        assert min_max(frag, "a") == (10, 90)

    def test_union_fragments(self):
        r = small_relation(100)
        f1 = r.fragment(np.array([1, 2]))
        f2 = r.fragment(np.array([3]))
        merged = union_fragments(r, [f1, f2], site=0)
        assert merged.cardinality == 3
        assert merged.site == 0

    def test_union_of_nothing_is_empty(self):
        r = small_relation(10)
        assert union_fragments(r, []).cardinality == 0

    def test_counts_match_brute_force(self):
        rng = np.random.default_rng(7)
        r = small_relation(1000)
        rows = rng.choice(1000, size=400, replace=False)
        frag = r.fragment(rows)
        values = r.column("b")[rows]
        for lo, hi in [(0, 100), (250, 260), (999, 999), (500, 499)]:
            expected = int(((values >= lo) & (values <= hi)).sum())
            assert count_in_range(frag, "b", lo, hi) == expected
