"""Persisting and reloading experiment results (JSON and CSV).

Long sweeps are expensive; this module lets the harness save every
:class:`~repro.gamma.metrics.RunResult` of a figure and reload it later
for reporting, plotting or regression comparison, with a round-trip
guarantee tested in the suite.

Format version 2 additionally records how the figure was *executed* --
the executor backend, parallelism level, wall vs. summed simulation
seconds, cache hit counts -- and the content digest of every run's
:class:`~repro.experiments.plan.RunSpec`, so an artifact point can be
matched against the result cache that produced it.  Version-1 files
(pre-plan-layer) still load, with the execution metadata defaulted.
"""

from __future__ import annotations

import csv
import io
import json
from typing import Dict

from ..gamma.metrics import RunResult
from .config import FIGURES, ExperimentConfig
from .runner import FigureResult

__all__ = [
    "figure_to_dict",
    "figure_from_dict",
    "save_figure_json",
    "load_figure_json",
    "figure_to_csv",
]

#: Format identifier embedded in saved files.
FORMAT_VERSION = 2

#: Older formats :func:`figure_from_dict` still understands.
SUPPORTED_VERSIONS = (1, 2)


def figure_to_dict(result: FigureResult) -> Dict:
    """A JSON-serializable dictionary of one figure's results."""
    payload = {
        "format_version": FORMAT_VERSION,
        "figure": result.config.figure,
        "seed": result.seed,
        "cardinality": result.cardinality,
        "num_sites": result.num_sites,
        "measured_queries": result.measured_queries,
        "wall_seconds": result.wall_seconds,
        "cpu_seconds": result.cpu_seconds,
        "process_cpu_seconds": result.process_cpu_seconds,
        "executor": {
            "name": result.executor,
            "jobs": result.jobs,
            "executed_runs": result.executed_runs,
            "cached_runs": result.cached_runs,
        },
        "spec_digests": {name: list(digests)
                         for name, digests in result.spec_digests.items()},
        "series": {
            name: [run.to_json_dict() for run in runs]
            for name, runs in result.series.items()
        },
    }
    if result.audit is not None:
        payload["audit"] = result.audit
    if result.phases is not None:
        payload["phases"] = result.phases
    if result.latency is not None:
        payload["latency"] = result.latency
    if result.dynamics is not None:
        payload["dynamics"] = result.dynamics
    return payload


def figure_from_dict(payload: Dict) -> FigureResult:
    """Rebuild a :class:`FigureResult` from :func:`figure_to_dict` output.

    The experiment config is resolved by figure name from the registry,
    so loaded results carry their expectations for re-checking.
    """
    version = payload.get("format_version")
    if version not in SUPPORTED_VERSIONS:
        raise ValueError(f"unsupported results format {version!r}")
    figure = payload.get("figure")
    if figure not in FIGURES:
        raise ValueError(f"unknown figure {figure!r} in results file")
    try:
        return _figure_from_payload(FIGURES[figure], payload)
    except KeyError as exc:
        raise ValueError(f"results file lacks the {exc} key") from None


def _figure_from_payload(config: ExperimentConfig,
                         payload: Dict) -> FigureResult:
    executor = payload.get("executor", {})
    result = FigureResult(
        config=config,
        cardinality=payload["cardinality"],
        num_sites=payload["num_sites"],
        measured_queries=payload["measured_queries"],
        wall_seconds=payload.get("wall_seconds", 0.0),
        cpu_seconds=payload.get("cpu_seconds", 0.0),
        # Absent in files saved before the warm-pool executor; those
        # runs did not measure per-run process CPU.
        process_cpu_seconds=payload.get("process_cpu_seconds", 0.0),
        jobs=executor.get("jobs", 1),
        executor=executor.get("name", "serial"),
        executed_runs=executor.get("executed_runs", 0),
        cached_runs=executor.get("cached_runs", 0),
        spec_digests={name: list(digests)
                      for name, digests
                      in payload.get("spec_digests", {}).items()},
        # Files written before the seed echo existed load as seed 13,
        # the harness-wide default they were in fact produced with.
        seed=payload.get("seed", 13),
        # Optional placement-audit summary+digest (absent unless the
        # figure ran under --audit); kept verbatim so an offline
        # re-report can verify it against a freshly computed audit.
        audit=payload.get("audit"),
        # Optional wall-clock phase attribution (absent in files saved
        # before the observability layer, or with phases off); kept
        # verbatim for ``repro trace`` and offline reporting.
        phases=payload.get("phases"),
        # Optional response-time distributions (absent in files saved
        # before the latency observatory, or with capture off); the
        # embedded sketches let ``repro latency`` re-derive any quantile.
        latency=payload.get("latency"),
        # Optional dynamics-scenario payload (absent in every static
        # figure file; present only for ``repro dynamics`` runs); carries the
        # fault seed and fault plan so a degradation curve is
        # replayable from the artifact alone.
        dynamics=payload.get("dynamics"))
    for name, runs in payload["series"].items():
        try:
            result.series[name] = [RunResult.from_json_dict(run)
                                   for run in runs]
        except TypeError as exc:
            # An unknown or missing key in one run entry.
            raise ValueError(f"bad run entry in series {name!r}: "
                             f"{exc}") from None
    return result


def save_figure_json(result: FigureResult, path: str) -> None:
    """Write one figure's results to *path* as JSON."""
    with open(path, "w") as handle:
        json.dump(figure_to_dict(result), handle, indent=2, sort_keys=True)


def load_figure_json(path: str) -> FigureResult:
    """Load a figure saved by :func:`save_figure_json`."""
    with open(path) as handle:
        return figure_from_dict(json.load(handle))


def figure_to_csv(result: FigureResult) -> str:
    """Flatten one figure's series to CSV (one row per strategy x MPL)."""
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow([
        "figure", "strategy", "mpl", "throughput_qps",
        "response_time_ms", "cpu_utilization", "disk_utilization",
        "scheduler_cpu_utilization", "completed", "messages_sent",
    ])
    for strategy, runs in result.series.items():
        for run in runs:
            writer.writerow([
                result.config.figure, strategy,
                run.multiprogramming_level,
                f"{run.throughput:.3f}",
                f"{run.response_time_mean * 1000:.2f}",
                f"{run.cpu_utilization:.4f}",
                f"{run.disk_utilization:.4f}",
                f"{run.scheduler_cpu_utilization:.4f}",
                run.completed, run.messages_sent,
            ])
    return buffer.getvalue()
