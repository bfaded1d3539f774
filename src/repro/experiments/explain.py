"""``repro explain``: re-run one MPL point with tracing and show *why*.

The paper's §7 explains each figure by naming the saturated resource
(MAGIC's scheduler CPU at high multiprogramming levels, BERD's
sequential auxiliary probe, range's full-broadcast disk load).  This
module re-runs a single (figure, MPL) point per strategy through
:func:`~repro.experiments.runner.run_experiment` with a
:class:`~repro.obs.telemetry.TelemetrySpec`, and prints the
per-query-type resource breakdown -- the measured version of that
narrative.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from ..gamma import GAMMA_PARAMETERS, SimulationParameters
from ..obs import Telemetry, TelemetrySpec, dominant_resource, why_table
from .cache import ResultCache
from .config import FIGURES
from .runner import run_experiment

__all__ = ["explain_figure", "ExplainResult"]


class ExplainResult:
    """The traced re-run of one figure point, per strategy."""

    def __init__(self, figure: str, mpl: int):
        self.figure = figure
        self.mpl = mpl
        self.telemetry: Dict[str, Telemetry] = {}
        self.run_results: Dict[str, object] = {}

    def dominant(self, strategy: str, query_type: str) -> Optional[str]:
        """The resource with the most attributed time for one query type."""
        telemetry = self.telemetry[strategy]
        return dominant_resource(telemetry.spans, query_type)

    def saturated(self, strategy: str) -> str:
        """The machine resource with the highest busy fraction.

        Per-query attributed time sums across all sites, so 32 node
        CPUs at 50% outweigh one scheduler CPU at 90% there; the
        *saturated* resource compares per-server utilization instead,
        which is what caps throughput.
        """
        run = self.run_results[strategy]
        utilization = {
            "sched.cpu": run.scheduler_cpu_utilization,
            "node.cpu": run.cpu_utilization,
            "node.disk": run.disk_utilization,
        }
        return max(utilization, key=utilization.__getitem__)

    def render(self, top_k: int = 5) -> str:
        lines: List[str] = []
        lines.append(f"Figure {self.figure} at MPL {self.mpl}: "
                     f"where each query type's time went")
        lines.append("(wait = queued behind other work; service = using "
                     "the resource; per-site times sum across sites)")
        for strategy, telemetry in self.telemetry.items():
            run = self.run_results[strategy]
            lines.append("")
            lines.append(f"=== {strategy}: {run.throughput:.1f} q/s, "
                         f"sched cpu {run.scheduler_cpu_utilization:.0%}, "
                         f"node cpu {run.cpu_utilization:.0%}, "
                         f"disk {run.disk_utilization:.0%} ===")
            lines.append(why_table(telemetry.spans, top_k=top_k).rstrip())
            for qtype in sorted(telemetry.spans.resource_totals):
                lines.append(f"  -> {qtype} bottleneck: "
                             f"{dominant_resource(telemetry.spans, qtype)}")
            lines.append(f"  -> saturated resource: "
                         f"{self.saturated(strategy)}")
        lines.append("")
        lines.append("scheduler CPU load by strategy (the multi-attribute "
                     "strategies' coordination cost, paper §7):")
        for strategy, run in self.run_results.items():
            lines.append(f"  {strategy:<14} "
                         f"{run.scheduler_cpu_utilization:6.0%}")
        return "\n".join(lines) + "\n"


def explain_figure(figure: str, mpl: int = 64,
                   cardinality: int = 100_000, num_sites: int = 32,
                   measured_queries: int = 200, seed: int = 13,
                   params: SimulationParameters = GAMMA_PARAMETERS,
                   strategies: Optional[Sequence[str]] = None,
                   jobs: int = 1, cache: Optional[ResultCache] = None,
                   check_invariants: bool = False,
                   progress=None) -> ExplainResult:
    """Re-run one (figure, MPL) point per strategy with tracing on.

    The execution keywords mean what they mean for
    :func:`~repro.experiments.runner.run_experiment`; traced points are
    always simulated, so ``cache`` is only written through.
    """
    figure_result = run_experiment(
        FIGURES[figure], cardinality=cardinality, num_sites=num_sites,
        measured_queries=measured_queries, mpls=(mpl,), seed=seed,
        params=params, strategies=strategies, jobs=jobs, cache=cache,
        telemetry_spec=TelemetrySpec(), check_invariants=check_invariants,
        progress=progress)

    result = ExplainResult(figure, mpl)
    for strategy, (run,) in figure_result.series.items():
        result.run_results[strategy] = run
        result.telemetry[strategy] = figure_result.telemetries[
            (strategy, mpl)]
    return result
