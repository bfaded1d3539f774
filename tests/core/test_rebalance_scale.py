"""Large-machine rebalancer behavior: pool widening, caps, termination.

The hill climber widens its candidate pool (doubling from
``candidate_processors``) when an iteration finds no improving swap.
Before the ``max_pool`` cap, a local optimum at P = 1,024 widened the
pool to the full machine and evaluated ~P^2 candidate pairs per
dimension with a fresh delta matrix each -- these tests pin the new
behavior: widening terminates after a bounded number of doublings, the
evaluated-pair and delta-build counts stay bounded, and the cap changes
nothing at the machine sizes the paper's figures use (P <= 64, where
``pool_limit`` equals ``num_sites`` either way).
"""

import numpy as np

from repro.core import (
    GridDirectory,
    entry_exchange,
    load_spread,
    rebalance_assignment,
)
from repro.core.rebalance import last_rebalance_stats


def directory_with(counts, assignment):
    counts = np.asarray(counts)
    boundaries = [np.arange(1, n) * 10 for n in counts.shape]
    return GridDirectory(["a", "b"][:counts.ndim], boundaries, counts,
                         np.asarray(assignment))


def local_optimum(num_slices):
    """A 1 x N directory whose spread (1) no slice swap can improve.

    Site loads are a permutation-invariant multiset under slice swaps,
    so every candidate pair is rejected and the pool widens to its
    limit before the climber gives up.
    """
    counts = np.ones((1, num_slices), dtype=np.int64)
    counts[0, 0] = 2
    assignment = np.arange(num_slices).reshape(1, num_slices)
    return directory_with(counts, assignment)


class TestWideningTermination:
    def test_local_optimum_terminates_at_256(self):
        d = local_optimum(256)
        before = d.assignment.copy()
        swaps = rebalance_assignment(d, 256)
        assert swaps == 0
        assert np.array_equal(d.assignment, before)
        # Pool doubles 3 -> 6 -> 12 -> 24 -> 48 -> 64 (max_pool cap),
        # then the climber stops: bounded widenings, bounded work.
        assert last_rebalance_stats["widenings"] <= 6
        assert last_rebalance_stats["pairs_evaluated"] <= 64 * 64
        assert last_rebalance_stats["delta_builds"] <= 4 * 64 * 2

    def test_local_optimum_terminates_at_1024_with_capped_pool(self):
        # 64 occupied sites on a 1,024-site machine: the pool cap keeps
        # the search over the 64 heaviest/lightest, not all 1,024.
        d = local_optimum(64)
        swaps = rebalance_assignment(d, 1024)
        assert swaps == 0
        assert last_rebalance_stats["widenings"] <= 6
        assert last_rebalance_stats["pairs_evaluated"] <= 2 * 64 * 64

    def test_uncapped_widening_still_terminates(self):
        d = local_optimum(256)
        swaps = rebalance_assignment(d, 256, max_pool=None)
        assert swaps == 0
        # Doubling from 3 reaches 256 within 8 widenings; each rung
        # evaluates only the pairs it adds to the last one, so total
        # evaluations stay ~P^2, not widenings * P^2.
        assert last_rebalance_stats["widenings"] <= 8
        assert last_rebalance_stats["pairs_evaluated"] <= 2 * 256 * 256

    def test_perfectly_balanced_short_circuits(self):
        counts = np.ones((64, 32), dtype=np.int64)
        assignment = (np.arange(64 * 32) % 1024).reshape(64, 32)
        d = directory_with(counts, assignment)
        swaps = rebalance_assignment(d, 1024)
        assert swaps == 0
        assert last_rebalance_stats["iterations"] == 1
        assert last_rebalance_stats["widenings"] == 0
        assert entry_exchange(d, 1024) == 0


class TestPoolCapSemantics:
    def test_cap_is_inert_at_paper_machine_sizes(self):
        # P <= max_pool: pool_limit == num_sites with or without the
        # cap, so results (swap count AND final assignment) match.
        for seed in range(4):
            rng = np.random.default_rng(seed)
            shape = tuple(rng.integers(5, 25, 2))
            counts = rng.integers(0, 60, shape)
            assignment = rng.integers(0, 32, shape)
            capped = directory_with(counts, assignment.copy())
            uncapped = directory_with(counts, assignment.copy())
            s_capped = rebalance_assignment(capped, 32)
            s_uncapped = rebalance_assignment(uncapped, 32, max_pool=None)
            assert s_capped == s_uncapped
            assert np.array_equal(capped.assignment, uncapped.assignment)

    def test_stats_dict_is_stable_identity(self):
        before = last_rebalance_stats
        rebalance_assignment(local_optimum(16), 16)
        assert last_rebalance_stats is before


class TestLargeMachineInvariants:
    def test_spread_never_increases_at_512(self):
        rng = np.random.default_rng(21)
        counts = rng.integers(0, 50, size=(40, 40))
        assignment = rng.integers(0, 512, size=(40, 40))
        d = directory_with(counts, assignment)
        before = load_spread(d.tuples_per_site(512))
        total_before = d.tuples_per_site(512).sum()
        rebalance_assignment(d, 512)
        entry_exchange(d, 512)
        assert load_spread(d.tuples_per_site(512)) <= before
        assert d.tuples_per_site(512).sum() == total_before
