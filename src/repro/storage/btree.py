"""B+-tree index cost model (clustered and non-clustered).

The paper's simulator supports "Indices, including both clustered and
non-clustered B+ trees" (§5); the workload uses a non-clustered index on
attribute A and a clustered index on attribute B (§6).  For a
simulation we do not need the tree itself, only an I/O-accurate access
plan: which pages a range lookup touches, and whether those reads are
sequential or random.

Model
-----
* Pages are 8 KB; an index entry is a 4-byte key plus a 8-byte pointer
  (page id + slot), giving an internal/leaf fanout of ~680 with a 2/3
  average fill factor applied.
* A **clustered** index's leaf level *is* the data file in key order: a
  range retrieval descends the internal levels (random reads) and then
  streams the qualifying data pages sequentially.
* A **non-clustered** index stores (key, tuple-id) pairs in its leaves:
  a range retrieval descends to the first leaf, walks however many
  leaves the range spans, and then fetches data pages in *random* order
  -- the number of distinct data pages touched follows Yao's formula.
* The root page is assumed buffer-resident (``cached_levels=1``), as in
  Gamma, whose catalog pinned index roots.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict

__all__ = ["BTreeIndex", "IndexAccessPlan", "yao_pages_touched",
           "sequential_scan_plan"]

#: 8 KB page / (4-byte key + 8-byte pointer) * 2/3 average fill.
DEFAULT_FANOUT = 455


def yao_pages_touched(num_tuples: int, num_pages: int, picks: int) -> float:
    """Yao's function: expected distinct pages hit by *picks* random tuples.

    Given ``num_tuples`` spread evenly over ``num_pages`` pages, selecting
    ``picks`` distinct tuples uniformly at random touches on average

        num_pages * (1 - C(num_tuples - per_page, picks) / C(num_tuples, picks))

    computed here as a running product for numerical stability.
    """
    if picks <= 0 or num_pages <= 0 or num_tuples <= 0:
        return 0.0
    picks = min(picks, num_tuples)
    if num_pages == 1:
        return 1.0
    per_page = num_tuples / num_pages
    # prob(a given page untouched) = prod_{i<picks} (T - per_page - i)/(T - i)
    prob_untouched = 1.0
    for i in range(picks):
        numer = num_tuples - per_page - i
        if numer <= 0:
            prob_untouched = 0.0
            break
        prob_untouched *= numer / (num_tuples - i)
    return num_pages * (1.0 - prob_untouched)


@dataclass(frozen=True)
class IndexAccessPlan:
    """The I/O plan of one index range retrieval on one fragment.

    The plan is broken down by page role so an explicit buffer pool can
    treat each class separately:

    * ``descent_reads`` -- internal index pages along the root-to-leaf
      path;
    * ``leaf_reads`` -- non-clustered leaf pages walked for the range
      (zero for clustered indexes, whose leaves *are* the data file);
    * ``data_random_reads`` -- scattered data-page fetches;
    * ``data_sequential_reads`` -- one sequential data run.

    ``random_reads`` / ``sequential_reads`` aggregate the breakdown for
    the analytical (non-buffered) read path.
    """

    descent_reads: int
    leaf_reads: int
    data_random_reads: int
    data_sequential_reads: int
    tuples_examined: int
    #: Qualifying tuples returned; -1 means "same as examined" (index
    #: scans examine only qualifying tuples; sequential scans examine
    #: everything but return only the matches).
    tuples_returned_override: int = -1

    @property
    def tuples_returned(self) -> int:
        if self.tuples_returned_override >= 0:
            return self.tuples_returned_override
        return self.tuples_examined

    @property
    def random_reads(self) -> int:
        return self.descent_reads + self.leaf_reads + self.data_random_reads

    @property
    def sequential_reads(self) -> int:
        return self.data_sequential_reads

    @property
    def total_reads(self) -> int:
        return self.random_reads + self.sequential_reads


def sequential_scan_plan(num_tuples: int, tuples_per_page: int = 36,
                         num_matches: int = 0) -> IndexAccessPlan:
    """Access plan for a full sequential scan (no usable index).

    Every data page streams past; every tuple is examined, though only
    ``num_matches`` qualify.  ``tuples_examined`` reports the *examined*
    count because the operator's per-tuple CPU applies to each tuple the
    scan inspects.
    """
    if num_tuples < 0:
        raise ValueError(f"negative tuple count {num_tuples}")
    if num_matches < 0 or num_matches > num_tuples:
        raise ValueError(
            f"match count {num_matches} outside [0, {num_tuples}]")
    pages = math.ceil(num_tuples / tuples_per_page) if num_tuples else 0
    return IndexAccessPlan(descent_reads=0, leaf_reads=0,
                           data_random_reads=0,
                           data_sequential_reads=pages,
                           tuples_examined=num_tuples,
                           tuples_returned_override=num_matches)


class BTreeIndex:
    """Cost model of a B+-tree over one fragment's attribute.

    Parameters
    ----------
    num_keys:
        Number of indexed tuples in the fragment.
    tuples_per_page:
        Data-page capacity in tuples (Table 2: 36).
    clustered:
        Whether the data file is stored in index order.
    fanout:
        Entries per internal (and non-clustered leaf) page.
    cached_levels:
        Top levels assumed resident in the buffer pool (root caching).
    resident:
        When True, *all* index structure pages (internal levels, and the
        leaf level of a non-clustered index) are assumed buffer-resident:
        a per-fragment index is a handful of hot pages that any buffer
        pool retains, so lookups only pay disk reads for *data* pages
        (the leaf level of a clustered index, and the scattered fetches
        of a non-clustered one).
    """

    def __init__(self, num_keys: int, tuples_per_page: int = 36,
                 clustered: bool = False, fanout: int = DEFAULT_FANOUT,
                 cached_levels: int = 1, resident: bool = False):
        if num_keys < 0:
            raise ValueError(f"negative key count {num_keys}")
        if fanout < 2:
            raise ValueError(f"fanout must be >= 2, got {fanout}")
        if cached_levels < 0:
            raise ValueError("cached_levels must be >= 0")
        self.num_keys = num_keys
        self.tuples_per_page = tuples_per_page
        self.clustered = clustered
        self.fanout = fanout
        self.cached_levels = cached_levels
        self.resident = resident
        #: Frozen plans by match count (see :meth:`range_lookup`).
        self._plans: Dict[int, IndexAccessPlan] = {}

    # -- shape ---------------------------------------------------------------

    @property
    def data_pages(self) -> int:
        """Data pages of the indexed fragment."""
        return math.ceil(self.num_keys / self.tuples_per_page) if self.num_keys else 0

    @property
    def leaf_pages(self) -> int:
        """Leaf pages: the data file itself when clustered, else (key, tid) pages."""
        if self.num_keys == 0:
            return 0
        if self.clustered:
            return self.data_pages
        return math.ceil(self.num_keys / self.fanout)

    @property
    def internal_levels(self) -> int:
        """Number of internal levels above the leaves (0 for <=1 leaf)."""
        leaves = self.leaf_pages
        if leaves <= 1:
            return 0
        return math.ceil(math.log(leaves, self.fanout))

    @property
    def height(self) -> int:
        """Total levels (internal + leaf) for a non-empty index."""
        return self.internal_levels + (1 if self.leaf_pages else 0)

    @property
    def index_pages_total(self) -> int:
        """All pages of the index structure excluding data pages."""
        if self.num_keys == 0:
            return 0
        pages = 0 if self.clustered else self.leaf_pages
        level = self.leaf_pages
        for _ in range(self.internal_levels):
            level = math.ceil(level / self.fanout)
            pages += level
        return pages

    # -- access plans ------------------------------------------------------------

    def descent_reads(self) -> int:
        """Page reads to descend internal levels, net of cached levels."""
        if self.resident:
            return 0
        return max(self.internal_levels - self.cached_levels, 0)

    def range_lookup(self, num_matches: int) -> IndexAccessPlan:
        """Plan for retrieving *num_matches* contiguous-key tuples.

        A lookup that matches nothing still pays the descent plus one leaf
        inspection -- the cost the paper highlights for processors that
        "search their fragment of the relation to find no relevant
        tuples".

        The plan depends only on the match count and the index's shape,
        which is fixed once the index is built, and it is frozen, so
        each count's plan is built once and shared.
        """
        plan = self._plans.get(num_matches)
        if plan is None:
            plan = self._plans[num_matches] = self._plan(num_matches)
        return plan

    def _plan(self, num_matches: int) -> IndexAccessPlan:
        if num_matches < 0:
            raise ValueError(f"negative match count {num_matches}")
        if self.num_keys == 0:
            # Catalog knows the fragment is empty only after probing a
            # metadata page (free when the index is buffer-resident).
            reads = 0 if self.resident else 1
            return IndexAccessPlan(descent_reads=reads, leaf_reads=0,
                                   data_random_reads=0,
                                   data_sequential_reads=0,
                                   tuples_examined=0)
        num_matches = min(num_matches, self.num_keys)
        descent = self.descent_reads()

        if self.clustered:
            # Descend, then stream the qualifying data pages (the leaf
            # level *is* the data file, so it always hits disk).  A
            # zero-match lookup still reads the one data page the key
            # range would occupy -- internal separators locate the page
            # but cannot prove it holds no matching keys.
            span = max(1, math.ceil(num_matches / self.tuples_per_page))
            return IndexAccessPlan(descent_reads=descent, leaf_reads=0,
                                   data_random_reads=0,
                                   data_sequential_reads=span,
                                   tuples_examined=num_matches)

        # Non-clustered: walk the leaf range, then fetch scattered data pages.
        if self.resident:
            leaf_span = 0
        else:
            leaf_span = max(1, math.ceil(num_matches / self.fanout)) \
                if num_matches else 1
        data_reads = int(round(yao_pages_touched(
            self.num_keys, self.data_pages, num_matches)))
        if num_matches:
            data_reads = max(data_reads, 1)
        return IndexAccessPlan(descent_reads=descent, leaf_reads=leaf_span,
                               data_random_reads=data_reads,
                               data_sequential_reads=0,
                               tuples_examined=num_matches)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        kind = "clustered" if self.clustered else "non-clustered"
        return (f"<BTreeIndex {kind} keys={self.num_keys} "
                f"height={self.height}>")
