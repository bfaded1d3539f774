"""The scale-up figure: machine size as the x-axis (ROADMAP north star).

The paper stops at 32 processors; this experiment sweeps ``num_sites``
up to 1,024 (:data:`~repro.experiments.config.SCALEUP_SITES`) at a fixed
multiprogramming level and reports, per (machine size, strategy) point:

* the usual :class:`~repro.gamma.metrics.RunResult` (throughput,
  response time, utilizations);
* wall-clock *phase attribution* -- placement-build seconds vs simulate
  seconds vs relation-build seconds, from a dedicated
  :class:`~repro.obs.phases.PhaseAccumulator` pushed around each run --
  so a superlinear-cost regression in either half is visible per P, not
  smeared over a whole figure;
* the DES events/sec rate achieved at that machine size.

The CLI exposes it as ``repro scaleup``; ``benchmarks/test_perf_gates.py``
runs its P=1024 point to gate the MAGIC placement build time.

Runs execute serially on purpose: each point's phase attribution must
come from its own accumulator, and the P=1024 points dominate wall time
anyway.  Memos are cleared per machine size so placement-build is always
measured (and so placements for retired sizes do not pile up in memory).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..gamma import GAMMA_PARAMETERS, RunResult, SimulationParameters
from ..obs import phases
from .config import FIGURES, SCALEUP_SITES, ExperimentConfig
from .plan import clear_memos, compile_point, execute_run

__all__ = ["ScaleupPoint", "ScaleupResult", "run_scaleup"]


@dataclass(frozen=True)
class ScaleupPoint:
    """One (machine size, strategy) measurement with phase attribution."""

    num_sites: int
    strategy: str
    result: RunResult
    #: Wall seconds spent building the placement for this point (0.0 for
    #: a memo hit, which run_scaleup avoids by clearing memos per size).
    placement_build_seconds: float
    #: Wall seconds spent inside the simulation proper.
    simulate_seconds: float
    #: Wall seconds spent synthesizing the relation (first strategy of a
    #: machine size only; later ones reuse the memoized relation).
    relation_build_seconds: float
    #: DES events scheduled during the simulation.
    events: int

    @property
    def events_per_sec(self) -> float:
        """DES throughput of the simulate phase (0.0 if unmeasurable)."""
        if self.simulate_seconds <= 0:
            return 0.0
        return self.events / self.simulate_seconds

    def to_json_dict(self) -> Dict:
        return {
            "num_sites": self.num_sites,
            "strategy": self.strategy,
            "result": self.result.to_json_dict(),
            "placement_build_seconds": self.placement_build_seconds,
            "simulate_seconds": self.simulate_seconds,
            "relation_build_seconds": self.relation_build_seconds,
            "events": self.events,
            "events_per_sec": self.events_per_sec,
        }


@dataclass
class ScaleupResult:
    """All points of one scale-up experiment."""

    figure: str
    multiprogramming_level: int
    cardinality: int
    measured_queries: int
    seed: int
    sites: Tuple[int, ...]
    strategies: Tuple[str, ...]
    points: List[ScaleupPoint] = field(default_factory=list)

    def series(self, strategy: str) -> List[Tuple[int, float]]:
        """(num_sites, throughput) pairs of one strategy, in sweep order."""
        return [(p.num_sites, p.result.throughput)
                for p in self.points if p.strategy == strategy]

    def placement_build_seconds(self, num_sites: int) -> float:
        """Total placement-build seconds across strategies at one size."""
        return sum(p.placement_build_seconds for p in self.points
                   if p.num_sites == num_sites)

    def render(self) -> str:
        """Throughput per strategy, build seconds and events/s per size."""
        lines = [f"Scale-up (figure {self.figure}, "
                 f"MPL {self.multiprogramming_level}):",
                 f"{'sites':>8}"
                 + "".join(f"{s:>10}" for s in self.strategies)
                 + f"{'build(s)':>12}{'events/s':>12}"]
        for num_sites in self.sites:
            at_size = [p for p in self.points if p.num_sites == num_sites]
            series = {p.strategy: p.result.throughput for p in at_size}
            rates = [p.events_per_sec for p in at_size
                     if p.events_per_sec > 0]
            lines.append(
                f"{num_sites:8d}"
                + "".join(f"{series.get(s, float('nan')):10.1f}"
                          for s in self.strategies)
                + f"{self.placement_build_seconds(num_sites):12.2f}"
                + f"{(sum(rates) / len(rates)) if rates else 0.0:12.0f}")
        return "\n".join(lines)

    def to_json_dict(self) -> Dict:
        return {
            "figure": self.figure,
            "multiprogramming_level": self.multiprogramming_level,
            "cardinality": self.cardinality,
            "measured_queries": self.measured_queries,
            "seed": self.seed,
            "sites": list(self.sites),
            "strategies": list(self.strategies),
            "points": [p.to_json_dict() for p in self.points],
        }


def run_scaleup(figure: str = "8a",
                sites: Sequence[int] = SCALEUP_SITES,
                strategies: Optional[Sequence[str]] = None,
                multiprogramming_level: int = 8,
                cardinality: int = 100_000,
                measured_queries: int = 100,
                seed: int = 13,
                params: SimulationParameters = GAMMA_PARAMETERS,
                check_invariants: bool = False,
                config: Optional[ExperimentConfig] = None,
                on_point: Optional[Callable[[ScaleupPoint], None]] = None
                ) -> ScaleupResult:
    """Sweep machine size for one figure's workload at a fixed MPL.

    ``on_point`` (if given) is called with each finished
    :class:`ScaleupPoint` -- the CLI uses it for progress lines.
    """
    if config is None:
        config = FIGURES[figure]
    names = tuple(strategies if strategies is not None
                  else config.strategies)
    sweep = ScaleupResult(figure=config.figure,
                          multiprogramming_level=multiprogramming_level,
                          cardinality=cardinality,
                          measured_queries=measured_queries,
                          seed=seed, sites=tuple(int(s) for s in sites),
                          strategies=names)
    for num_sites in sweep.sites:
        clear_memos()
        for name in names:
            planned = compile_point(
                config, name,
                multiprogramming_level=multiprogramming_level,
                cardinality=cardinality, num_sites=num_sites,
                measured_queries=measured_queries, params=params,
                seed=seed)
            acc = phases.PhaseAccumulator(keep_spans=False)
            phases.push(acc)
            try:
                result = execute_run(planned.spec, planned.params,
                                     config=config,
                                     check_invariants=check_invariants)
            finally:
                phases.pop()
            snap = acc.snapshot(memory=False)
            totals = snap.get("totals", {})
            counters = snap.get("counters", {})

            def seconds(phase_name: str) -> float:
                entry = totals.get(phase_name)
                return float(entry["seconds"]) if entry else 0.0

            point = ScaleupPoint(
                num_sites=num_sites, strategy=name, result=result,
                placement_build_seconds=seconds("placement-build"),
                simulate_seconds=seconds("simulate"),
                relation_build_seconds=seconds("relation-build"),
                events=int(counters.get("events", 0)))
            sweep.points.append(point)
            if on_point is not None:
                on_point(point)
    return sweep
