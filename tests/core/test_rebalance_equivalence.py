"""Pinned rebalancer output: the swap sequence never changes.

``rebalance_assignment`` is a deterministic hill climber; its result on
every figure directory feeds the committed reference payloads and the
scale-smoke digest.  The table below records, per case, the sha256 of
the final assignment, the swap count and the four
``last_rebalance_stats`` counters.  Any rewrite of the search must
reproduce every row exactly -- tie-breaks, widening rungs and the
mid-ladder ``max_iterations`` cut included.  ``reference_rebalance``, a
copy of the per-pair search the table was recorded from, cross-checks
random small directories.

Run this file as a script to print the table for the installed code::

    PYTHONPATH=src python tests/core/test_rebalance_equivalence.py
"""

import hashlib

import numpy as np
import pytest

from repro.core import (
    GridDirectory,
    MagicStrategy,
    MagicTuning,
    assign_entries,
)
from repro.core import magic, rebalance
from repro.core.rebalance import last_rebalance_stats, rebalance_assignment
from repro.storage import make_wisconsin


def directory_with(counts, assignment):
    counts = np.asarray(counts)
    names = ["a", "b", "c"][:counts.ndim]
    boundaries = [np.arange(1, n) * 10 for n in counts.shape]
    return GridDirectory(names, boundaries, counts, np.asarray(assignment))


def correlated_grid(shape, num_sites, seed, total):
    """Diagonal-heavy counts (correlated attributes) on a MAGIC tiling."""
    rng = np.random.default_rng(seed)
    rows = np.arange(shape[0])[:, None] / shape[0]
    cols = np.arange(shape[1])[None, :] / shape[1]
    rate = np.exp(-((rows - cols) ** 2) / 0.004)
    counts = rng.poisson(rate * (total / rate.sum()))
    return directory_with(counts, assign_entries(shape, [4.0, 2.0],
                                                 num_sites))


def local_optimum(num_slices):
    """1 x N, spread 1: no slice swap improves, the pool widens out."""
    counts = np.ones((1, num_slices), dtype=np.int64)
    counts[0, 0] = 2
    return directory_with(counts, np.arange(num_slices).reshape(1, -1))


def random_grid(shape, num_sites, seed, high=60):
    rng = np.random.default_rng(seed)
    return directory_with(rng.integers(0, high, shape),
                          rng.integers(0, num_sites, shape))


#: name -> (directory factory, num_sites, keyword arguments)
CASES = {
    "grid62x61-p8": (lambda: correlated_grid((62, 61), 8, 1, 20_000), 8,
                     {}),
    "grid62x61-p32": (lambda: correlated_grid((62, 61), 32, 2, 20_000), 32,
                      {}),
    "grid62x61-p128": (lambda: correlated_grid((62, 61), 128, 3, 20_000),
                       128, {}),
    "grid193x23-p8": (lambda: correlated_grid((193, 23), 8, 4, 2_000), 8,
                      {}),
    "grid193x23-p32": (lambda: correlated_grid((193, 23), 32, 5, 2_000), 32,
                       {}),
    "grid193x23-p128": (lambda: correlated_grid((193, 23), 128, 6, 2_000),
                        128, {"max_iterations": 100}),
    "local-optimum-1x64": (lambda: local_optimum(64), 64, {}),
    "one-dim": (lambda: directory_with(
        np.random.default_rng(7).integers(0, 90, 40),
        np.arange(40) % 8), 8, {}),
    "three-dim": (lambda: random_grid((8, 7, 6), 16, 8), 16, {}),
    "p256-unbounded-pool": (lambda: random_grid((24, 24), 256, 9), 256,
                            {"max_pool": None}),
    # Iteration 13 is the fifth widening of a ladder that would go on.
    "cut-mid-ladder": (lambda: random_grid((10, 10), 16, 0, high=3), 16,
                       {"max_iterations": 13}),
    "pool-exceeds-sites": (lambda: random_grid((12, 10), 4, 10), 4,
                           {"candidate_processors": 6}),
    # Counts 0-2 on 16 sites: weights tie, so argsort's order picks pools.
    "tied-weights": (lambda: random_grid((10, 10), 16, 4, high=3), 16, {}),
    # 816M tuples: swap deltas no longer fit int32 (sums of squares
    # still stay below 2**53, so the objective stays exact).
    "int64-deltas": (lambda: directory_with(
        np.random.default_rng(12).integers(1_000_000, 1_800_000, (24, 24)),
        np.random.default_rng(12).integers(0, 256, (24, 24))), 256, {}),
    "all-zero-counts": (lambda: directory_with(
        np.zeros((9, 8), dtype=np.int64),
        np.arange(72).reshape(9, 8) % 5), 5, {}),
    "one-site": (lambda: directory_with(
        np.random.default_rng(11).integers(0, 30, (6, 5)),
        np.zeros((6, 5), dtype=np.int64)), 1, {}),
}


def run_case(name):
    """(assignment sha256, swaps, iterations, widenings, delta builds,
    pairs evaluated) of one case."""
    factory, num_sites, kwargs = CASES[name]
    directory = factory()
    swaps = rebalance_assignment(directory, num_sites, **kwargs)
    digest = hashlib.sha256(np.ascontiguousarray(
        directory.assignment, dtype=np.int64).tobytes()).hexdigest()
    stats = last_rebalance_stats
    return (digest, swaps, stats["iterations"], stats["widenings"],
            stats["delta_builds"], stats["pairs_evaluated"])


#: Recorded before the ladder replay, from the per-pair search.
PINNED = {
    "all-zero-counts": (
        "049cb6e46269886a7b443884828e4054156413f2f5234a1d713c666fc4ca401c",
        0, 1, 0, 0, 0),
    "cut-mid-ladder": (
        "efa40b9fc1dcee1f77ad6d83823ec7fcfe7833cd8abe2952534d56782bc2c25d",
        8, 13, 5, 152, 424),
    "grid193x23-p128": (
        "99f72dbd4b7f1bdbfbc61e51a82ae31915c59ff938b538f976cfeeb53704636c",
        85, 100, 15, 1200, 2304),
    "grid193x23-p32": (
        "f6eec3dc2c2c26cbffd66d6e0fd8234c5a090d0710564b5ca6b3c8c9738399a8",
        67, 88, 20, 1128, 4744),
    "grid193x23-p8": (
        "fab6237f2827308ee9e21e49e84cf7fd7e2231c8eae02855d07058c8701f0085",
        18, 22, 3, 236, 412),
    "grid62x61-p128": (
        "9c3be47c4e1ea9210ea799534a33c446dfea7b49eb93fda1598304b04ca57ef8",
        86, 200, 114, 5160, 92232),
    "grid62x61-p32": (
        "143bb1a1d76b36c322af1fec7dde0b020df63d4e67e80f2d123a8b5d767e569c",
        69, 147, 77, 2088, 17352),
    "grid62x61-p8": (
        "0488fdfa6b7234d08479aba77eaf3a969527a444b7aed818c5bc889137a704b7",
        29, 41, 11, 396, 828),
    "int64-deltas": (
        "5a638c608bb24e930338520b849d0851c26e250977784890c5e28ae3e7505657",
        48, 114, 65, 2872, 52148),
    "local-optimum-1x64": (
        "7a4644928f3a08db905254fd7e5e53ef19a46d932a2ecd372b45462413a82619",
        0, 6, 5, 128, 126),
    "one-dim": (
        "631c5decdb5b9c84cc86da5cc30a764da06d7aec0af89500098787c4201487ec",
        18, 27, 8, 128, 255),
    "one-site": (
        "2dfba633817046c7f559ed4b93076048435f7e1a90f14eb8035c04b9ebae2537",
        0, 1, 0, 0, 0),
    "p256-unbounded-pool": (
        "89695d0217a0c27762284fbe14a823486ff4219082a7d006b1efd72e4d13bea3",
        30, 87, 56, 2984, 123586),
    "pool-exceeds-sites": (
        "1f3780ee66cad994f375506de3c36c98a4d6e73475f4f780fc87db6b52d1e8e6",
        4, 5, 0, 40, 56),
    "three-dim": (
        "7a86c6905ab7439d0056d1b824795044e85c0ba260af43308e71d16679111028",
        5, 10, 4, 156, 570),
    "tied-weights": (
        "eb06b873bbae9729217d51cad21d0fa9c884c8b827eb7b89d3b22fd8c860ae37",
        7, 13, 5, 140, 408),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_rebalance_output_is_pinned(name):
    assert run_case(name) == PINNED[name]


def test_cut_mid_ladder_stops_while_widening():
    # The budget runs out inside the last state's ladder: the uncut run
    # makes no further swap but keeps widening.
    factory, num_sites, _ = CASES["cut-mid-ladder"]
    full_swaps = rebalance_assignment(factory(), num_sites)
    full = dict(last_rebalance_stats)
    _, swaps, iterations, widenings, _, _ = PINNED["cut-mid-ladder"]
    assert swaps == full_swaps
    assert iterations == 13 < full["iterations"]
    assert 0 < widenings < full["widenings"]


def _delta(x, a, p):
    cross = x @ (a == p).T.astype(np.int64)
    own = np.diagonal(cross)
    return cross + cross.T - own[:, None] - own[None, :]


def reference_rebalance(directory, num_sites, max_iterations=200,
                        candidate_processors=3, max_pool=64):
    """The search the ladder replays, one (dim, heavy, light) pair at a
    time: the first strictly better pair wins, and a pair that failed is
    skipped on the later rungs of the same state.  Returns (swaps,
    counters)."""
    stats = dict.fromkeys(last_rebalance_stats, 0)

    def objective(w):
        w = w.astype(np.float64)
        return float((w * w).sum()), int(w.max() - w.min())

    swaps = 0
    pool = base = max(1, candidate_processors)
    limit = (num_sites if max_pool is None
             else min(num_sites, max(pool, max_pool)))
    weights = directory.tuples_per_site(num_sites)
    current = objective(weights)
    built, rejected = set(), set()
    for _ in range(max_iterations):
        stats["iterations"] += 1
        if current[1] == 0:
            break
        order = np.argsort(weights)
        lights, heavies = order[:pool].tolist(), order[-pool:][::-1].tolist()
        best = None
        for dim in range(directory.ndim):
            n = directory.counts.shape[dim]
            x = np.moveaxis(directory.counts, dim, 0).reshape(n, -1)
            a = np.moveaxis(directory.assignment, dim, 0).reshape(n, -1)
            fresh = {(dim, p) for p in lights + heavies} - built
            stats["delta_builds"] += len(fresh)
            built |= fresh
            for heavy in heavies:
                for light in lights:
                    key = (dim, heavy, light)
                    if weights[heavy] <= weights[light] or key in rejected:
                        continue
                    stats["pairs_evaluated"] += 1
                    gap = int(weights[heavy] - weights[light])
                    new_gap = np.abs(gap + _delta(x, a, heavy)
                                     - _delta(x, a, light))
                    np.fill_diagonal(new_gap, gap)
                    s1, s2 = np.unravel_index(int(new_gap.argmin()), (n, n))
                    if new_gap[s1, s2] >= gap:
                        rejected.add(key)
                        continue
                    trial = a.copy()
                    trial[[s1, s2]] = trial[[s2, s1]]
                    new_weights = np.bincount(
                        trial.ravel(), weights=x.ravel(),
                        minlength=num_sites).astype(np.int64)
                    new_obj = objective(new_weights)
                    if new_obj >= current:
                        rejected.add(key)
                    elif best is None or new_obj < best[0]:
                        best = (new_obj, dim, s1, s2, new_weights)
        if best is None:
            if pool >= limit:
                break
            pool = min(pool * 2, limit)
            stats["widenings"] += 1
            continue
        current, dim, s1, s2, weights = best
        assign = np.moveaxis(directory.assignment, dim, 0)
        assign[[s1, s2]] = assign[[s2, s1]]
        swaps += 1
        pool = base
        built.clear()
        rejected.clear()
    return swaps, stats


@pytest.mark.parametrize("seed", range(12))
def test_matches_the_per_pair_search(seed):
    rng = np.random.default_rng(100 + seed)
    ndim = 1 if seed == 4 else 3 if seed in (5, 9) else 2
    shape = tuple(int(n) for n in rng.integers(3, 13 if ndim < 3 else 6,
                                               ndim))
    num_sites = int(rng.choice([3, 8, 16, 24]))
    counts = rng.integers(0, int(rng.choice([3, 60])), shape)
    assignment = rng.integers(0, num_sites, shape)
    kwargs = {"candidate_processors": int(rng.integers(1, 5)),
              "max_pool": (None, 4, 64)[seed % 3]}
    ours, theirs = (directory_with(counts, assignment.copy())
                    for _ in range(2))
    swaps = rebalance_assignment(ours, num_sites, **kwargs)
    assert (swaps, last_rebalance_stats) == reference_rebalance(
        theirs, num_sites, **kwargs)
    assert np.array_equal(ours.assignment, theirs.assignment)


class TestTracingContract:
    """The benchmark suite's tracer wraps ``magic.rebalance_assignment``
    and reads ``rebalance.last_rebalance_stats`` after each call; both
    hooks must survive any rewrite of the search."""

    def test_partition_calls_through_module_global(self, monkeypatch):
        stats = rebalance.last_rebalance_stats
        calls = []

        def counting(*args, **kwargs):
            calls.append(args[1])
            return rebalance_assignment(*args, **kwargs)

        monkeypatch.setattr(magic, "rebalance_assignment", counting)
        relation = make_wisconsin(2_000, correlation="high", seed=3)
        MagicStrategy(["unique1", "unique2"], tuning=MagicTuning(
            shape={"unique1": 12, "unique2": 10},
            mi={"unique1": 2.0, "unique2": 2.0})).partition(relation, 8)
        assert calls == [8]
        assert rebalance.last_rebalance_stats is stats
        assert set(stats) == {"iterations", "widenings", "delta_builds",
                              "pairs_evaluated"}
        assert stats["iterations"] >= 1


if __name__ == "__main__":
    for case in sorted(CASES):
        print(f"    {case!r}: {run_case(case)!r},")
