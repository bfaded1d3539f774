"""The ``repro dynamics`` figure family: degradation under change.

For each strategy, :func:`run_dynamics` executes up to four machine
runs against one figure configuration:

``baseline``
    The static closed-loop run, with latency sketches on, giving the
    per-query-type p50/p95/p99 reference curve.
``failure``
    The same run with a seeded :class:`~repro.dynamics.faults.FaultPlan`
    killing a site mid-window (optionally recovering it later).  The
    per-query-type p99 ratio against the baseline is the degradation
    curve the latency observatory reports.
``rescale``
    Elastic growth ``num_sites -> grow_to`` through
    :func:`~repro.dynamics.rescale.rescale_placement`, with the audit
    layer's before/after skew/fan-out comparison and a post-growth
    throughput measurement.
``churn``
    Online inserts (append-skewed) streamed through the terminals; for
    MAGIC an :class:`~repro.dynamics.mutations.OnlineGridMaintainer`
    performs live directory splits while queries are in flight.

Everything derives from the run seed; the returned
:class:`~repro.experiments.runner.FigureResult` carries the scenario
payload under ``.dynamics`` (results-v2 key ``"dynamics"``), including
the fault seed and full fault plan for replay.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, Optional, Sequence

from ..experiments.config import ATTR_A, ATTR_B, FIGURES
from ..experiments.latency import latency_payload
from ..experiments.plan import PAPER_INDEXES, build_strategy
from ..experiments.runner import FigureResult
from ..gamma.machine import GammaMachine
from ..gamma.params import GAMMA_PARAMETERS, SimulationParameters
from ..obs.audit import audit_comparison, audit_placement
from ..obs.telemetry import TelemetrySpec
from ..storage.wisconsin import make_wisconsin
from ..workload.mixes import make_mix
from .faults import FaultPlan
from .mutations import MutationSource, OnlineGridMaintainer
from .rescale import rescale_placement

__all__ = ["run_dynamics", "format_dynamics", "DYNAMICS_STRATEGIES",
           "DYNAMICS_SCENARIOS"]

#: All four strategies, including the hash ablation the static figures
#: omit -- degradation under failure is exactly where they differ.
DYNAMICS_STRATEGIES = ("range", "hash", "berd", "magic")

DYNAMICS_SCENARIOS = ("failure", "rescale", "churn")


def _p99(telemetry) -> Dict[str, float]:
    recorder = telemetry.latency
    if recorder is None:
        return {}
    return {query_type: sketch.quantile(0.99)
            for query_type, sketch in sorted(recorder.sketches.items())}


def _latency_telemetry():
    return TelemetrySpec(trace=False, latency=True).build()


def run_dynamics(figure: str = "8a", *,
                 strategies: Optional[Sequence[str]] = None,
                 scenarios: Optional[Sequence[str]] = None,
                 cardinality: int = 20_000,
                 num_sites: int = 32,
                 grow_to: int = 64,
                 multiprogramming_level: int = 8,
                 measured_queries: int = 150,
                 seed: int = 13,
                 insert_fraction: float = 0.4,
                 hot_span: float = 0.02,
                 fail_fraction: float = 0.45,
                 recovery_fraction: Optional[float] = 0.25,
                 check_invariants: bool = False,
                 audit_samples: int = 200,
                 params: SimulationParameters = GAMMA_PARAMETERS,
                 progress: Optional[Callable[[str], None]] = None
                 ) -> FigureResult:
    """Run the dynamics scenarios for one figure configuration.

    ``fail_fraction`` / ``recovery_fraction`` place the site failure
    (and optional recovery) as fractions of each strategy's *baseline*
    simulated duration, so the failure always lands inside the run
    regardless of how fast the strategy is.  ``recovery_fraction=None``
    keeps the site dead to the end (pure degradation, no retries).
    """
    config = FIGURES[figure]
    names = tuple(strategies if strategies is not None
                  else DYNAMICS_STRATEGIES)
    wanted = tuple(scenarios if scenarios is not None
                   else DYNAMICS_SCENARIOS)
    unknown = [s for s in wanted if s not in DYNAMICS_SCENARIOS]
    if unknown:
        raise ValueError(f"unknown dynamics scenarios {unknown}")
    if grow_to <= num_sites and "rescale" in wanted:
        raise ValueError(
            f"grow_to ({grow_to}) must exceed num_sites ({num_sites})")

    def note(message: str) -> None:
        if progress is not None:
            progress(message)

    invariants_factory = None
    if check_invariants:
        from ..validation.invariants import InvariantChecker
        invariants_factory = InvariantChecker

    started = time.time()
    relation = make_wisconsin(cardinality, correlation=config.correlation,
                              seed=seed)
    mix = make_mix(config.mix_name, domain=cardinality)
    result = FigureResult(config=config, cardinality=cardinality,
                          num_sites=num_sites,
                          measured_queries=measured_queries,
                          series={}, seed=seed, executor="serial", jobs=1)
    per_strategy: Dict[str, Dict] = {}
    fault_seed = seed * 1009 + 7

    for index, name in enumerate(names):
        note(f"[{name}] partitioning {cardinality} tuples over "
             f"{num_sites} sites")
        strategy = build_strategy(name, config, cardinality, params)
        placement = strategy.partition(relation, num_sites)
        payload: Dict[str, Dict] = {}

        # Baseline: static run with latency sketches on.
        telemetry = _latency_telemetry()
        machine = GammaMachine(
            placement, indexes=PAPER_INDEXES, params=params, seed=seed,
            telemetry=telemetry,
            invariants=(invariants_factory() if invariants_factory
                        else None))
        baseline = machine.run(mix, multiprogramming_level,
                               measured_queries=measured_queries)
        sim_seconds = machine.env.now
        telemetry.detach()
        result.series[name] = [baseline]
        result.executed_runs += 1
        result.telemetries[(name, multiprogramming_level)] = telemetry
        payload["baseline"] = {
            "throughput": baseline.throughput,
            "p99_seconds": _p99(telemetry),
            "sim_seconds": sim_seconds,
        }
        note(f"[{name}] baseline: {baseline.throughput:.1f} q/s over "
             f"{sim_seconds:.1f} simulated seconds")

        if "failure" in wanted:
            plan = FaultPlan.seeded(
                fault_seed + index, num_sites,
                fail_at=fail_fraction * sim_seconds,
                recovery_seconds=(
                    None if recovery_fraction is None
                    else recovery_fraction * sim_seconds))
            fault_telemetry = _latency_telemetry()
            machine = GammaMachine(
                placement, indexes=PAPER_INDEXES, params=params, seed=seed,
                telemetry=fault_telemetry, fault_plan=plan,
                invariants=(invariants_factory() if invariants_factory
                            else None))
            faulted = machine.run(mix, multiprogramming_level,
                                  measured_queries=measured_queries)
            fault_telemetry.detach()
            result.executed_runs += 1
            result.telemetries[(f"{name}+fault",
                                multiprogramming_level)] = fault_telemetry
            base_p99 = payload["baseline"]["p99_seconds"]
            fault_p99 = _p99(fault_telemetry)
            degradation = {
                query_type: (fault_p99[query_type] / base_p99[query_type]
                             if base_p99.get(query_type) else None)
                for query_type in fault_p99
            }
            payload["failure"] = {
                "fault_seed": plan.seed,
                "fault_plan": plan.to_json_dict(),
                "throughput": faulted.throughput,
                "p99_seconds": fault_p99,
                "p99_degradation": degradation,
                "stats": machine.faults.stats(),
            }
            note(f"[{name}] failure: {faulted.throughput:.1f} q/s, "
                 f"{machine.faults.degraded_queries} degraded, "
                 f"{machine.faults.retries} retried")

        if "rescale" in wanted:
            before = audit_placement(placement, mix, strategy=name,
                                     correlation=config.correlation,
                                     samples=audit_samples, seed=seed)
            rescaled, report = rescale_placement(placement, grow_to)
            after = audit_placement(rescaled, mix, strategy=name,
                                    correlation=config.correlation,
                                    samples=audit_samples, seed=seed)
            grown = GammaMachine(
                rescaled, indexes=PAPER_INDEXES, params=params, seed=seed,
                invariants=(invariants_factory() if invariants_factory
                            else None))
            after_run = grown.run(mix, multiprogramming_level,
                                  measured_queries=measured_queries)
            result.executed_runs += 1
            payload["rescale"] = {
                "report": report.to_json_dict(),
                "audit_comparison": audit_comparison(before, after),
                "throughput_after": after_run.throughput,
            }
            note(f"[{name}] rescale {num_sites}->{grow_to}: moved "
                 f"{report.moved_fraction:.1%} (naive "
                 f"~{report.naive_fraction:.0%}), throughput "
                 f"{baseline.throughput:.1f} -> {after_run.throughput:.1f}")

        if "churn" in wanted:
            # A fresh placement: the maintainer mutates the directory.
            churn_placement = strategy.partition(relation, num_sites)
            maintainer = None
            directory = getattr(churn_placement, "directory", None)
            if directory is not None:
                maintainer = OnlineGridMaintainer(
                    churn_placement,
                    capacity=int(directory.counts.max()) + 4)
            source = MutationSource(mix, insert_fraction,
                                    attributes=(ATTR_A, ATTR_B),
                                    domain=cardinality,
                                    maintainer=maintainer,
                                    hot_span=hot_span)
            machine = GammaMachine(
                churn_placement, indexes=PAPER_INDEXES, params=params,
                seed=seed,
                invariants=(invariants_factory() if invariants_factory
                            else None))
            churned = machine.run(source, multiprogramming_level,
                                  measured_queries=measured_queries)
            result.executed_runs += 1
            payload["churn"] = {
                "insert_fraction": insert_fraction,
                "hot_span": hot_span,
                "inserts_issued": source.inserts_issued,
                "throughput": churned.throughput,
                "maintainer": (maintainer.stats() if maintainer is not None
                               else None),
            }
            splits = (maintainer.splits_performed
                      if maintainer is not None else 0)
            note(f"[{name}] churn: {source.inserts_issued} inserts, "
                 f"{splits} online splits, {churned.throughput:.1f} q/s")

        per_strategy[name] = payload

    result.wall_seconds = time.time() - started
    result.latency = latency_payload(result.telemetries)
    result.dynamics = {
        "figure": figure,
        "seed": seed,
        "fault_seed": fault_seed,
        "num_sites": num_sites,
        "grow_to": grow_to,
        "multiprogramming_level": multiprogramming_level,
        "measured_queries": measured_queries,
        "scenarios": list(wanted),
        "check_invariants": bool(check_invariants),
        "per_strategy": per_strategy,
    }
    return result


def format_dynamics(dyn: Dict) -> str:
    """One row per strategy of a ``dynamics`` payload: baseline and
    failure throughput, worst p99 degradation, rescale movement and
    throughput, live grid splits ("-" where a scenario did not run)."""
    lines = [f"Dynamics (figure {dyn['figure']}, {dyn['num_sites']} sites, "
             f"MPL {dyn['multiprogramming_level']}, scenarios "
             f"{','.join(dyn['scenarios'])}):",
             f"{'strategy':>10}{'base q/s':>10}{'fail q/s':>10}"
             f"{'p99 x':>8}{'moved%':>8}{'grow q/s':>10}{'splits':>8}"]
    for name, payload in dyn["per_strategy"].items():
        row = f"{name:>10}{payload['baseline']['throughput']:10.1f}"
        failure = payload.get("failure")
        if failure:
            worst = max((d for d in failure["p99_degradation"].values()
                         if d is not None), default=float("nan"))
            row += f"{failure['throughput']:10.1f}{worst:8.2f}"
        else:
            row += f"{'-':>10}{'-':>8}"
        rescale = payload.get("rescale")
        if rescale:
            moved = (100.0 * rescale["report"]["tuples_moved"]
                     / rescale["report"]["total_tuples"])
            row += f"{moved:8.1f}{rescale['throughput_after']:10.1f}"
        else:
            row += f"{'-':>8}{'-':>10}"
        churn = payload.get("churn")
        if churn and churn.get("maintainer"):
            row += f"{churn['maintainer']['splits_performed']:8d}"
        else:
            row += f"{'-':>8}"
        lines.append(row)
    return "\n".join(lines)
