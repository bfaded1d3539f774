"""The paper's in-text numbers that are not figures.

* :func:`average_processors_table` -- the §7 average processors each
  strategy uses per query type (rendered by
  :func:`~repro.experiments.report.processor_document`);
* :func:`rebalance_worst_case` -- the §4 hill-climbing experiment on
  identical partitioning attribute values.

Neither simulates: both work at the routing and directory level.
"""

from __future__ import annotations

import random
from typing import Dict, List

import numpy as np

from ..core import (assign_entries, build_from_shape, load_spread,
                    rebalance_assignment)
from ..storage import make_wisconsin
from ..workload import make_mix
from .config import ATTR_A, ATTR_B, ExperimentConfig
from .plan import build_strategy

__all__ = ["average_processors_table", "rebalance_worst_case"]


def average_processors_table(config: ExperimentConfig,
                             cardinality: int = 100_000,
                             num_sites: int = 32,
                             samples: int = 300,
                             seed: int = 13) -> Dict[str, Dict[str, float]]:
    """Average processors used per query type, per strategy (§7 numbers).

    Purely routing-level (no simulation): draws predicates from the mix
    and averages :meth:`RoutingDecision.site_count`.
    """
    relation = make_wisconsin(cardinality, correlation=config.correlation,
                              seed=seed)
    mix = make_mix(config.mix_name, domain=cardinality)
    table: Dict[str, Dict[str, float]] = {}
    for name in config.strategies:
        strategy = build_strategy(name, config, cardinality)
        placement = strategy.partition(relation, num_sites)
        rng = random.Random(seed)
        widths: Dict[str, List[int]] = {}
        for _ in range(samples):
            spec = mix.sample_spec(rng)
            predicate = spec.make_predicate(rng)
            decision = placement.route(predicate)
            widths.setdefault(spec.name, []).append(decision.site_count)
        table[name] = {
            qtype: float(np.mean(values))
            for qtype, values in sorted(widths.items())
        }
        all_widths = [w for values in widths.values() for w in values]
        table[name]["average"] = float(np.mean(all_widths))
    return table


def rebalance_worst_case(num_sites: int = 32, cardinality: int = 32_000,
                         grid: int = 32, seed: int = 12) -> Dict[str, float]:
    """The §4 experiment: identical partitioning attribute values.

    Returns the empty-processor counts and load spreads before/after the
    hill-climbing heuristic, mirroring the paper's "12 processors
    containing no tuples ... only a 20% difference" discussion.
    """
    relation = make_wisconsin(cardinality, correlation="identical",
                              seed=seed)
    directory = build_from_shape(relation, [ATTR_A, ATTR_B], (grid, grid))
    directory.set_assignment(
        assign_entries((grid, grid), [5.0, 5.0], num_sites))

    before = directory.tuples_per_site(num_sites)
    swaps = rebalance_assignment(directory, num_sites, max_iterations=500)
    after = directory.tuples_per_site(num_sites)
    mean = float(after.mean()) if after.mean() else 1.0
    return {
        "empty_before": int((before == 0).sum()),
        "empty_after": int((after == 0).sum()),
        "spread_before": int(load_spread(before)),
        "spread_after": int(load_spread(after)),
        "relative_spread_after": float(load_spread(after) / mean),
        "swaps": swaps,
    }
