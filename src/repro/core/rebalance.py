"""Hill-climbing slice-swap load balancing (paper §4).

When the partitioning attributes are highly correlated, the block-cyclic
assignment -- which assumes tuples are spread uniformly over grid entries
-- produces a skewed tuple distribution (most entries off the data's
diagonal are empty).  The paper's remedy:

    "the heuristic determines the processor with the fewest and the one
    with the most tuples.  Next, it switches the assignment of either two
    rows or two columns (i.e., two slices in a dimension K) in order to
    reduce the weight difference between these two processors.  It uses a
    hill climbing search technique and swaps the assignment of those two
    slices that minimizes the weight difference by the greatest margin.
    It is important to note that by swapping two slices of a dimension,
    the number of unique processors that appear in each dimension does
    not change."

We implement exactly that: per iteration, take the heaviest and lightest
processors, evaluate every same-dimension slice pair's effect on those
two processors' weight difference (vectorized), apply the best swap, stop
when no swap improves or the iteration budget is exhausted.

Cost model at scale
-------------------

Weights change only when a swap is applied, so :class:`_Ladder` searches
each directory state once, replaying its whole pool-widening ladder.
The swaps, tie-breaks included, stay those of a scan that evaluates one
(dim, heavy, light) pair at a time and keeps the first strictly better:

* rungs nest: with ``K = pool_limit`` and ``order = argsort(weights)``,
  rung k pairs the first k of ``order[-K:][::-1]`` (heavies) with the
  first k of ``order[:K]`` (lights).  Its swap is the first minimum of
  a (dim, heavy rank, light rank) objective table cut to
  ``[:, :k, :k]``; a pair failing one rung fails them all, so a rung
  fills only its new L-shaped block;
* swap deltas are symmetric with a zero diagonal: a pair's first
  row-major best slice pair lies in the strict upper triangle, the only
  part kept;
* deltas are tuple-count sums, exact from one float64 bincount per
  block of candidates;
* a swap's objective (sum of squares, then spread) is exact in int64,
  one offset bincount for a block's new swaps; below 2**53 it equals
  the float64 sum of squares.

``max_pool`` (default 64) bounds the ladder: below that many sites the
search is exhaustive, above it the pool stops growing with P.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Optional, Tuple

import numpy as np

from .directory import GridDirectory

__all__ = ["rebalance_assignment", "entry_exchange", "load_spread",
           "last_rebalance_stats"]

#: Search-effort counters of the most recent :func:`rebalance_assignment`
#: call, updated in place (import the dict once and re-read it).  Used by
#: scaling regression tests to pin the widening ladder's cost; not part
#: of the placement API.
last_rebalance_stats = {"iterations": 0, "widenings": 0,
                        "delta_builds": 0, "pairs_evaluated": 0}


def load_spread(weights: np.ndarray) -> int:
    """max - min of per-processor tuple loads."""
    return int(weights.max() - weights.min())


def _slice_matrices(directory: GridDirectory, dim: int):
    """(X, A): per-slice tuple-count and assignment matrices for *dim*.

    Both are 2-D with one row per slice of *dim* and one column per entry
    in the slice (remaining dimensions flattened).
    """
    counts = np.moveaxis(directory.counts, dim, 0)
    assign = np.moveaxis(directory.assignment, dim, 0)
    n = counts.shape[0]
    return counts.reshape(n, -1), assign.reshape(n, -1)


#: Table entry of a (dim, heavy, light) pair without an improving swap.
_NONE = np.iinfo(np.int64).max
#: Element budget of one broadcast temporary.
_CHUNK = 1 << 18


@lru_cache(maxsize=16)
def _upper_triangle(n: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rows and columns of an n x n strict upper triangle in row-major
    order, and each slice pair's position in it (diagonal: one past the
    end)."""
    iu, ju = np.triu_indices(n, 1)
    position = np.full((n, n), len(iu))
    position[iu, ju] = position[ju, iu] = np.arange(len(iu))
    return iu, ju, position


def _swap_deltas(x: np.ndarray, a: np.ndarray, processors: np.ndarray,
                 num_sites: int, dtype) -> np.ndarray:
    """``delta[c, m]``: weight change of ``processors[c]`` if the m-th
    upper-triangle slice pair of (x, a) swapped.  In an (s, t) swap each
    candidate entry (s, e) trades ``x[s, e]`` tuples for ``x[t, e]``."""
    iu, _, position = _upper_triangle(len(x))
    size, count = len(iu) + 1, len(processors)
    slot = np.full(num_sites, count)
    slot[processors] = np.arange(count)
    owner = slot[a]
    rows, cols = np.nonzero(owner < count)
    index = position[rows]
    index += (owner[rows, cols] * size)[:, None]
    trade = np.ascontiguousarray(x.T, dtype=np.float64)[cols]
    trade -= trade[np.arange(len(rows)), rows][:, None]
    delta = np.bincount(index.ravel(), weights=trade.ravel(),
                        minlength=count * size)
    return delta.reshape(count, size)[:, :-1].astype(dtype)


def _swap_objectives(x: np.ndarray, a: np.ndarray, s1: np.ndarray,
                     s2: np.ndarray, weights: np.ndarray):
    """(sum of squares, spread) of the per-processor weights after each
    swap ``(s1[u], s2[u])`` of (x, a): one offset bincount, exact."""
    n, p = len(s1), len(weights)
    moved = (x[s2] - x[s1]).astype(np.float64).ravel()
    offsets = (np.arange(n) * p)[:, None]
    change = np.bincount(
        np.concatenate([(a[s1] + offsets).ravel(), (a[s2] + offsets).ravel()]),
        weights=np.concatenate([moved, -moved]), minlength=n * p)
    new = weights + change.reshape(n, p).astype(np.int64)
    return (new * new).sum(axis=1), new.max(axis=1) - new.min(axis=1)


class _Ladder:
    """The pool-widening ladder of one directory state: ``table[:, dim,
    i, j]`` holds (sum of squares, spread, swap index) of the best swap
    of heavy rank i and light rank j, ``_NONE`` unless it improves."""

    def __init__(self, directory: GridDirectory, weights: np.ndarray,
                 pool_limit: int, current: Tuple[int, int]):
        order = np.argsort(weights)
        self.heavies = order[-pool_limit:][::-1]
        self.lights = order[:pool_limit]
        self.w_heavy = weights[self.heavies]
        self.w_light = weights[self.lights]
        # Lights ascend in weight: heavy rank i can only gain against
        # light ranks below valid[i].
        self.valid = np.searchsorted(self.w_light, self.w_heavy, "left")
        self.weights, self.current, self.done = weights, current, 0
        # |gap + delta_heavy - delta_light| <= 3 x total tuples.
        dtype = np.int32 if 3 * int(weights.sum()) < 2**31 else np.int64
        # Per dimension: slice matrices, delta rows by processor and by
        # heavy / light rank, and each swap's objective (-1: not yet).
        self.dims = []
        for dim in range(directory.ndim):
            x, a = _slice_matrices(directory, dim)
            size = len(x) * (len(x) - 1) // 2
            self.dims.append((x, a, {}, np.empty((pool_limit, size), dtype),
                              np.empty((pool_limit, size), dtype),
                              np.full((2, size), -1, dtype=np.int64)))
        self.table = np.full((3, directory.ndim, pool_limit, pool_limit),
                             _NONE)

    def climb(self, rung: int, stats: dict):
        """Rung *rung*'s swap as (dim, s1, s2, objective), or None."""
        done, self.done = self.done, rung
        pool = set(self.heavies[:rung].tolist() + self.lights[:rung].tolist())
        for dim, (x, a, cache, dh, dl, objective) in enumerate(self.dims):
            fresh = np.array(sorted(pool - cache.keys()), dtype=np.int64)
            stats["delta_builds"] += len(fresh)
            if len(fresh):
                cache.update(zip(fresh.tolist(), _swap_deltas(
                    x, a, fresh, len(self.weights), dh.dtype)))
            for r in range(done, rung):
                dh[r] = cache[int(self.heavies[r])]
                dl[r] = cache[int(self.lights[r])]
            # Old heavies x new lights, then new heavies x all lights,
            # a few heavy ranks at a time.
            for r0, r1, c0 in ((0, done, done), (done, rung, 0)):
                step = max(1, _CHUNK // max(1, (rung - c0) * dh.shape[1]))
                for i in range(r0, r1, step):
                    stop = min(rung, int(self.valid[i]))
                    if stop <= c0:
                        break  # valid[] never grows with rank
                    rows = slice(i, min(i + step, r1))
                    gaps = (self.w_heavy[rows, None]
                            - self.w_light[None, c0:stop])
                    stats["pairs_evaluated"] += int((gaps > 0).sum())
                    if dh.shape[1]:
                        self._fill(dim, i, c0, dh[rows], dl[c0:stop], gaps)
        sumsq, spread, pick = self.table[:, :, :rung, :rung]
        low = sumsq.min(initial=_NONE)
        if low == _NONE:
            return None
        tied = np.where(sumsq == low, spread, _NONE)
        at = np.unravel_index(int(tied.argmin()), sumsq.shape)
        iu, ju, _ = _upper_triangle(len(self.dims[at[0]][0]))
        return (int(at[0]), int(iu[pick[at]]), int(ju[pick[at]]),
                (int(low), int(spread[at])))

    def _fill(self, dim: int, i: int, c0: int, dh: np.ndarray,
              dl: np.ndarray, gaps: np.ndarray) -> None:
        """Table entries from heavy rank i and light rank c0 on."""
        x, a, _, _, _, objective = self.dims[dim]
        iu, ju, _ = _upper_triangle(len(x))
        new_gap = dh[:, None, :] - dl[None, :, :]
        new_gap += gaps.astype(dh.dtype)[:, :, None]
        np.abs(new_gap, out=new_gap)
        pick = new_gap.argmin(axis=2)  # first minimum, as the scan
        hit = np.take_along_axis(new_gap, pick[..., None], 2)[..., 0] < gaps
        pick = pick[hit]
        todo = np.unique(pick[objective[0, pick] < 0])
        span = max(1, _CHUNK // len(self.weights))
        for u in range(0, len(todo), span):
            part = todo[u:u + span]
            objective[:, part] = _swap_objectives(x, a, iu[part], ju[part],
                                                  self.weights)
        sumsq, spread = objective[:, pick]
        better = (sumsq < self.current[0]) | (
            (sumsq == self.current[0]) & (spread < self.current[1]))
        hi, li = np.nonzero(hit)
        self.table[:, dim, hi[better] + i, li[better] + c0] = (
            sumsq[better], spread[better], pick[better])


def entry_exchange(directory: GridDirectory, num_sites: int,
                   diversity_slack: int = 2,
                   max_moves: int = 5000) -> int:
    """Single-entry reassignments within a slice-diversity budget.

    Slice swaps cannot change any slice's processor *multiset*, so on
    some directories they plateau well above an even distribution (the
    193x23 high-correlation case converges at ~40% spread).  This
    finishing pass greedily moves individual non-empty entries from the
    heaviest to the lightest processor, but never lets a slice's
    distinct-processor count grow more than ``diversity_slack`` above
    what it was when the pass started -- bounding the localization cost
    (a K=2 grid's row/column may gain at most that many processors).

    Per-processor weights and per-slice distinct-owner counts are
    maintained incrementally across moves (the weight vector via exact
    integer updates, the diversity via :class:`SliceOwnerTracker`), and
    each move's candidate scan is fully vectorized -- no per-move grid
    bincount, no per-candidate ``np.unique``.  The move sequence is
    identical to the original scalar implementation.

    Only implementable for 2-D directories (the paper's K); for other
    ranks it is a no-op.  Returns the number of moves applied.
    """
    if directory.assignment is None:
        raise RuntimeError("directory has no assignment to rebalance")
    if diversity_slack < 0:
        raise ValueError("diversity_slack must be >= 0")
    if directory.ndim != 2:
        return 0
    assignment = directory.assignment
    counts = directory.counts
    row_tracker = directory.owner_tracker(directory.attributes[0], num_sites)
    col_tracker = directory.owner_tracker(directory.attributes[1], num_sites)
    row_cap = row_tracker.distinct_counts() + diversity_slack
    col_cap = col_tracker.distinct_counts() + diversity_slack

    weights = directory.tuples_per_site(num_sites)
    moves = 0
    for _ in range(max_moves):
        heavy = int(weights.argmax())
        light = int(weights.argmin())
        gap = int(weights[heavy] - weights[light])
        if gap <= 1:
            break
        rows, cols = np.nonzero((assignment == heavy) & (counts > 0))
        if rows.size == 0:
            break
        entry_weights = counts[rows, cols].astype(np.int64)
        # A candidate qualifies when the move does not overshoot the gap
        # and neither of its slices would exceed its diversity cap.
        ok = entry_weights <= gap
        ok &= row_tracker.distinct_with(rows, light) <= row_cap[rows]
        ok &= col_tracker.distinct_with(cols, light) <= col_cap[cols]
        qualifying = np.nonzero(ok)[0]
        if qualifying.size == 0:
            break
        # np.nonzero enumerates row-major, matching the original scan
        # order; argmin takes the first minimum, matching its strict-<
        # tie-break.
        badness = np.abs(gap - 2 * entry_weights[qualifying])
        pick = int(qualifying[int(np.argmin(badness))])
        r, c = int(rows[pick]), int(cols[pick])
        weight = int(counts[r, c])
        assignment[r, c] = light
        row_tracker.move(r, heavy, light)
        col_tracker.move(c, heavy, light)
        weights[heavy] -= weight
        weights[light] += weight
        moves += 1
    return moves


def rebalance_assignment(directory: GridDirectory, num_sites: int,
                         max_iterations: int = 200,
                         candidate_processors: int = 3,
                         max_pool: Optional[int] = 64) -> int:
    """Hill-climb slice swaps until per-processor tuple loads stabilize.

    Each iteration proposes, for the ``candidate_processors`` heaviest and
    lightest processors, the slice pair that most reduces that pair's
    weight difference (the paper's move), then applies the proposal that
    most reduces the *global* load spread.  When stuck, the candidate
    pool doubles (skewed directories often need mid-weight processors in
    the proposal set to escape local optima) up to ``max_pool`` sites --
    ``None`` restores the unbounded pre-scale behavior of widening all
    the way to ``num_sites``.  Mutates ``directory.assignment`` in place
    and returns the number of swaps applied.  Slice swaps never change
    the distinct-processor count of any slice, so the M_i goals of the
    assignment are preserved.
    """
    if directory.assignment is None:
        raise RuntimeError("directory has no assignment to rebalance")
    stats = last_rebalance_stats
    stats.update(iterations=0, widenings=0, delta_builds=0,
                 pairs_evaluated=0)

    swaps = 0
    pool = max(1, candidate_processors)
    pool_limit = (num_sites if max_pool is None
                  else min(num_sites, max(pool, max_pool)))
    weights = directory.tuples_per_site(num_sites)
    # Sum of squares first (it drops on any useful move, so the climb
    # crosses equal-spread plateaus), load spread second.
    current = (int(weights @ weights), load_spread(weights))
    ladder = None  # the current directory state's ladder
    for _ in range(max_iterations):
        stats["iterations"] += 1
        if current[1] == 0:
            break
        if ladder is None:
            ladder = _Ladder(directory, weights, pool_limit, current)
        best = ladder.climb(min(pool, pool_limit), stats)
        if best is None:
            # Stuck with this candidate pool: widen it before giving up.
            if pool >= pool_limit:
                break
            pool = min(pool * 2, pool_limit)
            stats["widenings"] += 1
            continue
        dim, s1, s2, current = best
        assign = np.moveaxis(directory.assignment, dim, 0)
        assign[[s1, s2]] = assign[[s2, s1]]
        weights = directory.tuples_per_site(num_sites)
        swaps += 1
        pool = max(1, candidate_processors)
        ladder = None
    return swaps
