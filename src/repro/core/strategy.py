"""Declustering strategy interface: predicates, routing and placements.

Every strategy in this package (range, hash, BERD, MAGIC) follows the same
two-step contract:

1. ``strategy.partition(relation, num_sites)`` physically declusters the
   relation, returning a :class:`Placement` -- one fragment per processor
   plus whatever partitioning metadata the strategy keeps in the catalog
   (range boundaries, auxiliary relations, the grid directory).

2. ``placement.route(predicate)`` answers the query optimizer's question:
   *which processors must this selection be sent to?*  The result is a
   :class:`RoutingDecision`; for BERD it also names the auxiliary-index
   processors that must be probed *first* (the two-step execution paradigm
   of paper §2), together with the per-site probe cost inputs.

The placement works on real data, so the simulator can also ask how many
tuples of each site's fragment actually satisfy a predicate
(:meth:`Placement.qualifying_counts`) -- that is what drives each
operator's index-lookup cost at that site.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..storage.relation import Fragment, Relation

__all__ = [
    "RangePredicate",
    "RoutingDecision",
    "Placement",
    "DeclusteringStrategy",
    "equal_depth_boundaries",
    "sites_for_interval",
]


@dataclass(frozen=True)
class RangePredicate:
    """An inclusive range (or equality) predicate on one attribute.

    ``low == high`` expresses an exact-match predicate.
    """

    attribute: str
    low: int
    high: int

    def __post_init__(self):
        if self.low > self.high:
            raise ValueError(
                f"empty predicate range [{self.low}, {self.high}]")

    @property
    def is_equality(self) -> bool:
        return self.low == self.high

    @classmethod
    def equals(cls, attribute: str, value: int) -> "RangePredicate":
        return cls(attribute, value, value)

    def __str__(self) -> str:
        if self.is_equality:
            return f"{self.attribute} = {self.low}"
        return f"{self.low} <= {self.attribute} <= {self.high}"


@dataclass(frozen=True)
class RoutingDecision:
    """Where a selection operator must run.

    Attributes
    ----------
    target_sites:
        Processors that will execute the selection proper.
    probe_sites:
        Processors holding auxiliary-index fragments that must be probed
        *before* the selection can be scheduled (BERD's first step; empty
        for every other strategy).
    probe_matches:
        For each probe site, how many auxiliary entries the probe scans
        (drives the probe's B-tree cost).
    used_partitioning:
        False when the predicate references no partitioning attribute and
        the optimizer had to broadcast to every site.
    """

    target_sites: Tuple[int, ...]
    probe_sites: Tuple[int, ...] = ()
    probe_matches: Tuple[int, ...] = ()
    used_partitioning: bool = True

    def __post_init__(self):
        if len(self.probe_matches) not in (0, len(self.probe_sites)):
            raise ValueError("probe_matches must parallel probe_sites")

    @property
    def is_two_phase(self) -> bool:
        return bool(self.probe_sites)

    @property
    def site_count(self) -> int:
        """Distinct processors involved in either phase."""
        return len(set(self.target_sites) | set(self.probe_sites))


class Placement(ABC):
    """A declustered relation: per-site fragments plus catalog metadata."""

    def __init__(self, relation: Relation, fragments: Sequence[Fragment]):
        self.relation = relation
        self._fragments: List[Fragment] = list(fragments)
        total = sum(f.cardinality for f in self._fragments)
        if total != relation.cardinality:
            raise ValueError(
                f"fragments hold {total} tuples, relation has "
                f"{relation.cardinality}: placement is not a partition")
        #: attribute -> (sorted keys, lowest value, width)
        self._count_keys: Dict[str, Tuple[np.ndarray, int, int]] = {}

    # -- structure -----------------------------------------------------------

    @property
    def num_sites(self) -> int:
        return len(self._fragments)

    def fragment(self, site: int) -> Fragment:
        """The fragment stored at processor *site*."""
        return self._fragments[site]

    @property
    def fragments(self) -> Sequence[Fragment]:
        return tuple(self._fragments)

    def cardinalities(self) -> np.ndarray:
        """Per-site tuple counts."""
        return np.array([f.cardinality for f in self._fragments], dtype=np.int64)

    # -- data-dependent answers ---------------------------------------------------

    def qualifying_counts(self, predicate: RangePredicate) -> np.ndarray:
        """Per-site count of fragment tuples satisfying *predicate*.

        Tuples are keyed ``site * width + value - lowest`` (values are
        integers), one sorted array per attribute, so two binary searches
        answer every site at once.
        """
        index = self._count_keys.get(predicate.attribute)
        if index is None:
            values = np.concatenate(
                [f.values(predicate.attribute) for f in self._fragments])
            lowest = int(values.min(initial=0))
            width = int(values.max(initial=0)) - lowest + 1
            keys = np.repeat(
                np.arange(0, self.num_sites * width, width, dtype=np.int64),
                [f.cardinality for f in self._fragments])
            keys += values
            keys -= lowest
            keys.sort()
            index = (keys, lowest, width)
            self._count_keys[predicate.attribute] = index
        keys, lowest, width = index
        base = np.arange(0, self.num_sites * width, width, dtype=np.int64)
        low = min(max(predicate.low - lowest, 0), width)
        high = min(max(predicate.high - lowest, -1), width - 1)
        return (np.searchsorted(keys, base + high, side="right")
                - np.searchsorted(keys, base + low, side="left"))

    # -- strategy-specific ----------------------------------------------------------

    @abstractmethod
    def route(self, predicate: RangePredicate) -> RoutingDecision:
        """Which processors must execute a selection with *predicate*."""

    def site_for_tuple(self, values: Dict[str, int]) -> int:
        """Home processor of a new tuple with the given attribute values.

        Used by the insert path (extension): the default resolves the
        tuple as an equality predicate on the first routable attribute;
        strategies with an exact rule (range boundaries, hash, grid
        entry) override for precision.
        """
        for attribute, value in values.items():
            decision = self.route(RangePredicate.equals(attribute, value))
            if decision.used_partitioning and decision.target_sites:
                return decision.target_sites[0]
        raise KeyError(
            f"no partitioning attribute among {sorted(values)}")

    def route_conjunction(self, predicates: Sequence[RangePredicate]
                          ) -> RoutingDecision:
        """Route a conjunction (AND) of predicates.

        The generic strategy can only exploit one predicate: it picks
        the routable predicate with the fewest target processors (the
        others are applied as residual filters at those sites).  MAGIC
        overrides this with true multi-dimensional intersection.
        """
        if not predicates:
            raise ValueError("a conjunction needs at least one predicate")
        decisions = [self.route(p) for p in predicates]
        usable = [d for d in decisions if d.used_partitioning]
        if not usable:
            return decisions[0]
        return min(usable, key=lambda d: len(d.target_sites))

    def qualifying_counts_all(self, predicates: Sequence[RangePredicate]
                              ) -> np.ndarray:
        """Per-site counts of tuples satisfying *every* predicate."""
        result = np.zeros(self.num_sites, dtype=np.int64)
        for site, fragment in enumerate(self._fragments):
            if fragment.cardinality == 0:
                continue
            mask = np.ones(fragment.cardinality, dtype=bool)
            for predicate in predicates:
                values = fragment.values(predicate.attribute)
                mask &= (values >= predicate.low) & (values <= predicate.high)
            result[site] = int(mask.sum())
        return result

    def describe(self) -> str:
        """One-line human-readable summary for reports."""
        cards = self.cardinalities()
        return (f"{type(self).__name__}: {self.num_sites} sites, "
                f"{cards.min()}..{cards.max()} tuples/site")


class DeclusteringStrategy(ABC):
    """Factory turning a relation into a :class:`Placement`."""

    #: Short name used in experiment reports ("range", "berd", "magic", ...).
    name: str = "abstract"

    @abstractmethod
    def partition(self, relation: Relation, num_sites: int) -> Placement:
        """Decluster *relation* across *num_sites* processors."""

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<{type(self).__name__} {self.name!r}>"


# -- shared helpers -------------------------------------------------------------


def equal_depth_boundaries(values: np.ndarray, parts: int) -> np.ndarray:
    """Split points producing *parts* nearly equal-cardinality intervals.

    Returns ``parts - 1`` interior boundaries ``b_1 <= ... <= b_{parts-1}``;
    interval *i* is ``(b_i, b_{i+1}]``-style as implemented by
    :func:`sites_for_interval` / ``np.searchsorted`` conventions below.
    """
    if parts <= 0:
        raise ValueError(f"parts must be positive, got {parts}")
    if parts == 1:
        return np.empty(0, dtype=np.asarray(values).dtype)
    ordered = np.sort(np.asarray(values))
    # Cut after every len/parts-th value.
    cuts = [ordered[min(len(ordered) - 1, (len(ordered) * k) // parts)]
            for k in range(1, parts)]
    return np.array(cuts)


def sites_for_interval(boundaries: np.ndarray, low, high) -> Tuple[int, ...]:
    """Sites whose range interval intersects ``[low, high]``.

    Site *i* (0-based, ``len(boundaries) + 1`` sites) covers values ``v``
    with ``boundaries[i-1] < v <= ... `` in searchsorted terms: a value
    ``v`` belongs to site ``searchsorted(boundaries, v, side='left')``.
    """
    boundaries = np.asarray(boundaries)
    first = int(np.searchsorted(boundaries, low, side="left"))
    last = int(np.searchsorted(boundaries, high, side="left"))
    return tuple(range(first, last + 1))
