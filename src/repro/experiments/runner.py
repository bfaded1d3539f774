"""Figure regeneration: a thin consumer of the run-plan layer.

Regenerates the throughput-vs-multiprogramming-level series behind every
figure of the paper's evaluation.  :func:`run_experiment` compiles the
(strategy x MPL) grid into a :class:`~repro.experiments.plan.RunPlan`,
hands it to the :class:`~repro.experiments.executor.PlanExecutor`
(in-process, or on a warm process pool when ``jobs`` > 1), records the
figure's wall-clock phases, and reshapes the outcomes into the
per-strategy series the reports and plots expect.  It is also the one
entry point of the traced re-runs (``repro explain``, ``repro
latency --figure``), which request telemetry with a
:class:`~repro.obs.telemetry.TelemetrySpec` like any other caller.
Placements are built once per (strategy, correlation) per process --
the plan layer's memo -- and reused across the MPL sweep, as in the
paper: the relation is declustered once, then measured under different
loads.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..gamma import GAMMA_PARAMETERS, RunResult, SimulationParameters
from ..obs import Telemetry, TelemetrySpec, phases
from .cache import ResultCache
from .config import ExperimentConfig
from .executor import PlanExecutor
from .latency import latency_payload
from .plan import PAPER_INDEXES, build_strategy, compile_figure

__all__ = ["FigureResult", "build_strategy", "run_experiment",
           "check_expectation", "PAPER_INDEXES"]


@dataclass
class FigureResult:
    """All series of one regenerated figure."""

    config: ExperimentConfig
    cardinality: int
    num_sites: int
    measured_queries: int
    series: Dict[str, List[RunResult]] = field(default_factory=dict)
    #: Wall-clock seconds the whole figure took end to end.  Under a
    #: parallel executor this is what the user waited, NOT the work
    #: done -- see :attr:`cpu_seconds`.
    wall_seconds: float = 0.0
    #: Summed per-run simulation wall seconds across all executed
    #: points, wherever they ran.  Serial: ~= wall_seconds.  Parallel:
    #: the aggregate compute; wall_seconds / cpu_seconds ~ speedup.
    #: On an oversubscribed host this inflates with time-slicing --
    #: see :attr:`process_cpu_seconds` for the honest work metric.
    cpu_seconds: float = 0.0
    #: Summed per-run *process CPU* seconds (``time.process_time``
    #: deltas in whichever process simulated each point).  Unlike
    #: :attr:`cpu_seconds` this does not inflate when workers
    #: time-slice a smaller machine, so it is what the parallel
    #: benchmark's <= 1.25x work-amplification bound is stated on.
    process_cpu_seconds: float = 0.0
    #: Parallelism level the figure was executed with.
    jobs: int = 1
    #: Executor backend name ("serial" / "process-pool").
    executor: str = "serial"
    #: Points simulated fresh vs. loaded from the result cache.
    executed_runs: int = 0
    cached_runs: int = 0
    #: Root seed the runs were generated with; echoed into every saved
    #: results file so a figure is reproducible from the artifact alone.
    seed: int = 13
    #: Per-strategy content digests of each run's RunSpec, in MPL
    #: order; echoed into artifacts so a saved point can be matched
    #: against the cache that produced it.
    spec_digests: Dict[str, List[str]] = field(default_factory=dict)
    #: (strategy, mpl) -> detached telemetry, when tracing was on.
    #: Excluded from serialization (live measurement artifacts).
    telemetries: Dict[Tuple[str, int], Telemetry] = field(
        default_factory=dict, repr=False, compare=False)
    #: Placement-quality audit payload (``{"summary": {strategy:
    #: ...}, "digest": ...}``) attached by ``--audit``; round-trips
    #: through results-v2 JSON so cached runs re-report offline.
    audit: Optional[Dict] = None
    #: Wall-clock phase attribution for the whole figure (a
    #: :meth:`~repro.obs.phases.PhaseAccumulator.snapshot`: per-phase
    #: seconds/counts, raw spans per pid, peak-RSS marks).  Always
    #: recorded by :func:`run_experiment`; None only on results loaded
    #: from files saved without it.  Round-trips through results-v2 JSON.
    phases: Optional[Dict] = None
    #: Response-time distribution payload (see
    #: :func:`~repro.experiments.latency.latency_payload`): per-point
    #: p50/p95/p99/max plus the full mergeable sketches.  None unless
    #: latency capture was on; round-trips through results-v2 JSON.
    latency: Optional[Dict] = None
    #: Dynamics-scenario payload (see
    #: :func:`~repro.dynamics.runner.run_dynamics`): per-strategy
    #: baseline/failure/rescale/churn results, including the fault seed
    #: and full fault plan for replay.  None on static figures;
    #: round-trips through results-v2 JSON.
    dynamics: Optional[Dict] = None

    def throughput_at(self, strategy: str, mpl: int) -> float:
        for result in self.series[strategy]:
            if result.multiprogramming_level == mpl:
                return result.throughput
        raise KeyError(f"no MPL {mpl} run for {strategy!r}")

    def final_throughputs(self) -> Dict[str, float]:
        """Throughput of each strategy at the highest MPL swept."""
        return {name: runs[-1].throughput
                for name, runs in self.series.items()}


def run_experiment(config: ExperimentConfig,
                   cardinality: int = 100_000,
                   num_sites: int = 32,
                   measured_queries: int = 400,
                   mpls: Optional[Sequence[int]] = None,
                   seed: int = 13,
                   params: SimulationParameters = GAMMA_PARAMETERS,
                   strategies: Optional[Sequence[str]] = None,
                   jobs: int = 1,
                   cache: Optional[ResultCache] = None,
                   telemetry_spec: Optional[TelemetrySpec] = None,
                   check_invariants: bool = False,
                   progress=None,
                   ) -> FigureResult:
    """Regenerate one figure; returns every (strategy, MPL) run result.

    ``jobs`` > 1 executes the grid on a warm process pool with
    bit-identical results (every seed derives from the run's spec): the
    parent prewarms the distinct relations/placements the plan needs,
    then forks workers that inherit the memos copy-on-write (where fork
    is unavailable, a per-worker initializer prewarms instead).
    ``cache`` makes the figure resumable: completed points are loaded,
    missing ones simulated and stored.  ``telemetry_spec`` collects
    per-run telemetry at any ``jobs``, returned as detached snapshots
    in :attr:`FigureResult.telemetries`.  ``check_invariants`` runs
    every point under the conservation-law checker (see
    :mod:`repro.validation`): the first breach raises, results are
    bit-identical either way.

    ``progress`` (a :class:`~repro.obs.progress.ProgressTracker`)
    streams executor lifecycle events, and wall-clock phase attribution
    is always recorded into :attr:`FigureResult.phases`.  Both are
    purely observational: series and spec digests are bit-identical
    with progress on or off.
    """
    started = time.time()
    accumulator = phases.push(phases.PhaseAccumulator())
    try:
        with phases.phase("plan-compile"):
            plan = compile_figure(config, cardinality=cardinality,
                                  num_sites=num_sites,
                                  measured_queries=measured_queries,
                                  mpls=mpls, seed=seed, params=params,
                                  strategies=strategies)
        executor = PlanExecutor(jobs)
        outcomes = executor.execute(plan, cache=cache,
                                    telemetry_spec=telemetry_spec,
                                    check_invariants=check_invariants,
                                    progress=progress)
    finally:
        phases.pop(merge_into_parent=False)

    result = FigureResult(config=config, cardinality=cardinality,
                          num_sites=num_sites,
                          measured_queries=measured_queries, seed=seed,
                          jobs=executor.jobs, executor=executor.name)
    for outcome in outcomes:
        spec = outcome.spec
        result.series.setdefault(spec.strategy, []).append(outcome.result)
        result.spec_digests.setdefault(spec.strategy, []).append(
            spec.digest())
        if outcome.cached:
            result.cached_runs += 1
        else:
            result.executed_runs += 1
        result.cpu_seconds += outcome.wall_seconds
        result.process_cpu_seconds += outcome.cpu_seconds
        if outcome.telemetry is not None:
            result.telemetries[(spec.strategy,
                                spec.multiprogramming_level)] = \
                outcome.telemetry
    result.wall_seconds = time.time() - started
    result.phases = accumulator.snapshot()
    result.latency = latency_payload(result.telemetries)
    return result


def check_expectation(result: FigureResult) -> Tuple[bool, str]:
    """Compare a figure's outcome against the paper's claim.

    Returns ``(matches, explanation)``.  The check uses the highest-MPL
    point, where the paper states its margins.
    """
    expected = result.config.expected
    if expected is None:
        return True, "no expectation recorded"
    finals = result.final_throughputs()
    present = [s for s in expected.order if s in finals]
    values = [finals[s] for s in present]
    ok = all(values[i] >= values[i + 1] for i in range(len(values) - 1))
    measured_order = sorted(present, key=lambda s: -finals[s])
    detail = " > ".join(f"{s}={finals[s]:.0f}" for s in measured_order)
    if ok and expected.min_ratio is not None and len(values) >= 2:
        ratio = values[0] / values[1] if values[1] else float("inf")
        ok = ratio >= expected.min_ratio
        detail += f" (ratio {ratio:.2f}, expected >= {expected.min_ratio})"
    return ok, detail
