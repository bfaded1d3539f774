"""General parameter sweeps over the simulation model.

Beyond the figure regeneration (fixed Table 2 parameters, MPL on the
x-axis), a systems study wants sensitivity analyses: how does the
comparison move when a hardware or workload parameter changes?
:func:`sweep` compiles a (strategy x value) grid over any knob
expressible as a :class:`SweepAxis` into a
:class:`~repro.experiments.plan.RunPlan`, executes it with the
:class:`~repro.experiments.executor.PlanExecutor` (``jobs``), and
returns a tidy result table.

Built-in axes cover the sweeps the extension benchmarks use:
machine size, QB selectivity, attribute correlation, buffer-pool size
and CPU speed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..gamma import GAMMA_PARAMETERS, RunResult, SimulationParameters
from .cache import ResultCache
from .config import ExperimentConfig, FIGURES
from .executor import PlanExecutor
from .plan import RunPlan, compile_point, execute_run

__all__ = ["SweepAxis", "SweepPoint", "SweepResult", "sweep",
           "AXES"]


@dataclass(frozen=True)
class SweepAxis:
    """One sweepable knob.

    ``apply(value)`` returns the keyword overrides for
    :func:`run_point`: any of ``params`` (a SimulationParameters),
    ``correlation``, ``qb_low_tuples``, ``num_sites``.
    """

    name: str
    apply: Callable[[float], Dict]
    description: str = ""


def _params_axis(field_name: str, description: str) -> SweepAxis:
    def apply(value):
        return {"params": GAMMA_PARAMETERS.with_overrides(
            **{field_name: value})}
    return SweepAxis(name=field_name, apply=apply, description=description)


AXES: Dict[str, SweepAxis] = {
    "processors": SweepAxis(
        "processors", lambda v: {"num_sites": int(v)},
        "machine size (number of processors)"),
    "num_sites": SweepAxis(
        "num_sites", lambda v: {"num_sites": int(v)},
        "machine size (alias of processors; the scale-up figure axis)"),
    "qb_selectivity": SweepAxis(
        "qb_selectivity", lambda v: {"qb_low_tuples": int(v)},
        "tuples retrieved by the low QB query (Figure 9 axis)"),
    "correlation": SweepAxis(
        "correlation", lambda v: {"correlation": float(v)},
        "rank correlation of the partitioning attributes"),
    "buffer_pool": SweepAxis(
        "buffer_pool",
        lambda v: {"params": GAMMA_PARAMETERS.with_overrides(
            buffer_pool_pages=(int(v) or None))},
        "explicit buffer pool pages per node (0 = analytic model)"),
    "cpu_mips": _params_axis(
        "cpu_instructions_per_second", "CPU speed in instructions/second"),
}


@dataclass(frozen=True)
class SweepPoint:
    """One (strategy, axis value) measurement."""

    strategy: str
    value: float
    result: RunResult


@dataclass
class SweepResult:
    """All points of one sweep."""

    axis: str
    figure: str
    multiprogramming_level: int
    points: List[SweepPoint] = field(default_factory=list)
    #: Aggregate execution accounting (mirrors FigureResult semantics).
    cpu_seconds: float = 0.0
    jobs: int = 1
    executed_runs: int = 0
    cached_runs: int = 0

    def series(self, strategy: str) -> List[Tuple[float, float]]:
        """(value, throughput) pairs of one strategy, in sweep order."""
        return [(p.value, p.result.throughput)
                for p in self.points if p.strategy == strategy]

    def ratio_series(self, numerator: str,
                     denominator: str) -> List[Tuple[float, float]]:
        """Throughput ratio of two strategies along the axis."""
        num = dict(self.series(numerator))
        den = dict(self.series(denominator))
        return [(v, num[v] / den[v]) for v in num if v in den and den[v]]

    def render(self) -> str:
        """Throughput table: one row per axis value, a column per strategy."""
        strategies = sorted({p.strategy for p in self.points})
        series = {s: dict(self.series(s)) for s in strategies}
        lines = [f"Sweep over {self.axis} (figure {self.figure}, "
                 f"MPL {self.multiprogramming_level}):",
                 f"{'value':>12}" + "".join(f"{s:>12}" for s in strategies)]
        for value in dict.fromkeys(p.value for p in self.points):
            lines.append(f"{value:12g}" + "".join(
                f"{series[s].get(value, float('nan')):12.1f}"
                for s in strategies))
        lines.append(f"(jobs {self.jobs}; {self.executed_runs} simulated, "
                     f"{self.cached_runs} from cache)")
        return "\n".join(lines)


def run_point(config: ExperimentConfig, strategy_name: str,
              multiprogramming_level: int,
              cardinality: int = 100_000,
              num_sites: int = 32,
              measured_queries: int = 250,
              correlation: Optional[float] = None,
              qb_low_tuples: int = 10,
              params: SimulationParameters = GAMMA_PARAMETERS,
              seed: int = 13) -> RunResult:
    """One simulation run with arbitrary overrides."""
    planned = compile_point(
        config, strategy_name,
        multiprogramming_level=multiprogramming_level,
        cardinality=cardinality, num_sites=num_sites,
        measured_queries=measured_queries, correlation=correlation,
        qb_low_tuples=qb_low_tuples, params=params, seed=seed)
    return execute_run(planned.spec, planned.params, config=config)


def sweep(axis: str, values: Sequence[float],
          figure: str = "8a",
          strategies: Sequence[str] = ("range", "berd", "magic"),
          multiprogramming_level: int = 32,
          cardinality: int = 100_000,
          measured_queries: int = 250,
          seed: int = 13,
          jobs: int = 1,
          cache: Optional[ResultCache] = None,
          num_sites: int = 32,
          check_invariants: bool = False,
          progress=None) -> SweepResult:
    """Run a (strategy x value) grid along one named axis.

    ``num_sites`` is the machine size wherever the axis does not set it;
    the execution keywords mean what they mean for
    :func:`~repro.experiments.runner.run_experiment`.
    """
    try:
        sweep_axis = AXES[axis]
    except KeyError:
        raise ValueError(
            f"unknown axis {axis!r}; available: {sorted(AXES)}") from None
    config = FIGURES[figure]
    labels: List[Tuple[float, str]] = []
    runs = []
    for value in values:
        overrides = {"num_sites": num_sites, **sweep_axis.apply(value)}
        for name in strategies:
            runs.append(compile_point(
                config, name,
                multiprogramming_level=multiprogramming_level,
                cardinality=cardinality,
                measured_queries=measured_queries,
                seed=seed, **overrides))
            labels.append((value, name))

    outcomes = PlanExecutor(jobs).execute(
        RunPlan(runs=tuple(runs)), cache=cache,
        check_invariants=check_invariants, progress=progress)

    result = SweepResult(axis=axis, figure=figure,
                         multiprogramming_level=multiprogramming_level,
                         jobs=jobs)
    for (value, name), outcome in zip(labels, outcomes):
        result.points.append(SweepPoint(strategy=name, value=value,
                                        result=outcome.result))
        result.cpu_seconds += outcome.wall_seconds
        if outcome.cached:
            result.cached_runs += 1
        else:
            result.executed_runs += 1
    return result
