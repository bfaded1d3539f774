"""Column-oriented in-memory relations and fragments.

The simulator never materializes byte-level tuples; it stores each integer
attribute as a numpy column, which is what every consumer needs:

* the declustering strategies partition on attribute *values*;
* the placements count, per processor, *how many* tuples of a fragment
  satisfy a predicate (``Placement.qualifying_counts``);
* the page model needs fragment cardinalities.

A :class:`Fragment` is a view of a relation restricted to a subset of rows
(one processor's share under some declustering).
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, Mapping, Optional, Sequence

import numpy as np

from .schema import Schema

__all__ = ["Relation", "Fragment"]


class Relation:
    """A named relation with integer numpy columns.

    Only the columns actually generated are stored; the schema may declare
    more (e.g. the Wisconsin string paddings that exist purely to reach the
    208-byte tuple width).  A *derived* column is a function of the
    relation, computed on its first :meth:`column` read and then stored,
    so a run that never reads it never pays for it.
    """

    def __init__(self, name: str, schema: Schema,
                 columns: Dict[str, np.ndarray],
                 derived: Optional[Mapping[
                     str, Callable[["Relation"], np.ndarray]]] = None):
        self.name = name
        self.schema = schema
        if not columns:
            raise ValueError("a relation needs at least one materialized column")
        lengths = {len(col) for col in columns.values()}
        if len(lengths) != 1:
            raise ValueError(f"ragged columns: lengths {sorted(lengths)}")
        derived = dict(derived or {})
        for cname in (*columns, *derived):
            if cname not in schema:
                raise KeyError(f"column {cname!r} is not in the schema")
        self._columns = {name: np.asarray(col) for name, col in columns.items()}
        self._derived = derived
        self._names = tuple(dict.fromkeys((*columns, *derived)))
        self._cardinality = lengths.pop()

    # -- basic accessors ---------------------------------------------------

    @property
    def cardinality(self) -> int:
        """Number of tuples."""
        return self._cardinality

    def __len__(self) -> int:
        return self._cardinality

    def column(self, name: str) -> np.ndarray:
        """The materialized column *name* (raises KeyError if absent).

        A derived column is computed here on its first read and stored.
        """
        try:
            return self._columns[name]
        except KeyError:
            pass
        try:
            derive = self._derived[name]
        except KeyError:
            raise KeyError(
                f"column {name!r} not materialized in relation {self.name!r}"
            ) from None
        column = np.asarray(derive(self))
        if len(column) != self._cardinality:
            raise ValueError(
                f"derived column {name!r} has {len(column)} rows, "
                f"expected {self._cardinality}")
        self._columns[name] = column
        return column

    @property
    def materialized_columns(self) -> Sequence[str]:
        """Every column :meth:`column` returns, stored or derived."""
        return self._names

    @property
    def tuple_size_bytes(self) -> int:
        return self.schema.tuple_size_bytes

    def fragment(self, rows: np.ndarray, site: Optional[int] = None) -> "Fragment":
        """A fragment consisting of the given row indices."""
        return Fragment(self, np.asarray(rows, dtype=np.int64), site=site)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Relation {self.name!r} card={self._cardinality}>"


class Fragment:
    """One processor's horizontal share of a relation (row indices)."""

    def __init__(self, relation: Relation, rows: np.ndarray,
                 site: Optional[int] = None):
        self.relation = relation
        self.rows = rows
        self.site = site

    @property
    def cardinality(self) -> int:
        return len(self.rows)

    def __len__(self) -> int:
        return len(self.rows)

    def values(self, attribute: str) -> np.ndarray:
        """The fragment's (unsorted) values of *attribute*."""
        return self.relation.column(attribute)[self.rows]

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<Fragment of {self.relation.name!r} site={self.site} "
                f"card={len(self.rows)}>")


def union_fragments(relation: Relation, fragments: Iterable[Fragment],
                    site: Optional[int] = None) -> Fragment:
    """Concatenate several fragments of the same relation into one."""
    parts = [f.rows for f in fragments]
    rows = np.concatenate(parts) if parts else np.empty(0, dtype=np.int64)
    return Fragment(relation, rows, site=site)
