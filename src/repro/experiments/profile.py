"""cProfile one simulated figure point (``repro profile``).

The workload is the same single-point simulation the throughput
benchmark times: one strategy at one multiprogramming level of a
figure's query mix, with relation generation and placement
construction excluded from the profile, so kernel and model hot spots
are visible without hand-rolling a harness.
"""

from __future__ import annotations

import cProfile
import pstats
import time
from typing import Dict, List

from .config import FIGURES
from .plan import (
    GAMMA_PARAMETERS,
    PAPER_INDEXES,
    compile_point,
    make_mix,
    placement_for_spec,
)

__all__ = ["profile_point", "profile_rows"]


def profile_point(figure: str, strategy: str, mpl: int, cardinality: int,
                  num_sites: int, measured: int, seed: int):
    """Run one point under cProfile; returns ``(stats, result, wall)``.

    ``wall`` is the profiled run's total wall-clock seconds -- the
    denominator that puts per-function tottime in context.
    """
    from ..gamma.machine import GammaMachine

    spec = compile_point(
        FIGURES[figure], strategy, multiprogramming_level=mpl,
        cardinality=cardinality, num_sites=num_sites,
        measured_queries=measured, seed=seed).spec
    # Built outside the profile: the simulation is the subject, not the
    # NumPy relation/placement construction.
    placement = placement_for_spec(spec)
    mix = make_mix(spec.mix_name, domain=spec.cardinality,
                   qb_low_tuples=spec.qb_low_tuples)
    machine = GammaMachine(placement, indexes=PAPER_INDEXES,
                           params=GAMMA_PARAMETERS, seed=spec.machine_seed)
    profiler = cProfile.Profile()
    started = time.perf_counter()
    profiler.enable()
    result = machine.run(mix, multiprogramming_level=mpl,
                         measured_queries=measured)
    profiler.disable()
    wall = time.perf_counter() - started
    return pstats.Stats(profiler), result, wall


def profile_rows(stats: pstats.Stats, sort: str, top: int) -> List[Dict]:
    """The top *top* rows of *stats* ordered by *sort*, as dicts."""
    # The CLI speaks pstats vocabulary ("cumulative"); the row dicts
    # carry the stat-tuple field name ("cumtime").
    sort_key = "cumtime" if sort == "cumulative" else sort
    items = []
    for (filename, lineno, name), (cc, nc, tottime, cumtime, _callers) \
            in stats.stats.items():
        items.append({
            "function": name,
            "location": f"{filename}:{lineno}",
            "calls": nc,
            "primitive_calls": cc,
            "tottime": tottime,
            "cumtime": cumtime,
        })
    items.sort(key=lambda row: row[sort_key], reverse=True)
    return items[:top]
