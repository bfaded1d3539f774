"""Figure-level latency distributions: the results-v2 ``latency`` key.

When a figure runs with latency capture on (``--latency`` or any
:class:`~repro.obs.telemetry.TelemetrySpec` with ``latency=True``), each
(strategy, MPL) run ships back a
:class:`~repro.obs.sketch.LatencyRecorder` on its detached telemetry.
This module folds those per-run sketches into the JSON payload stored
under the optional ``latency`` key of results-v2 files (older files and
files saved without capture simply lack the key) and renders the full
latency table ``repro latency`` prints; the figure and audit reports'
compact budget is :func:`~repro.experiments.report.latency_budget`.

Payload schema (all times in simulated seconds)::

    {
      "relative_accuracy": 0.02,
      "points": {                       # one entry per figure point
        "<strategy>": [
          {"mpl": 4,
           "by_type": {"<qtype>": {count, mean, max, p50, p95, p99}},
           "overall": {count, mean, max, p50, p95, p99},
           "sketches": <LatencyRecorder.to_dict()>},   # full histograms
          ...                            # in MPL order
        ]
      },
      "merged": {                        # all MPLs of a strategy merged
        "<strategy>": {"by_type": {...}, "overall": {...}}
      }
    }

The full per-point sketches are retained (a few hundred integers each)
so offline consumers can re-derive any quantile, re-merge across
strategies, or diff two artifacts without re-simulating.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..obs import TelemetrySpec, span_records
from ..obs.critpath import (critical_paths, critpath_table,
                            summarize_critical_paths)
from ..obs.sketch import LatencyRecorder, QUANTILES
from .config import FIGURES

__all__ = ["latency_payload", "latency_table", "recorders_from_payload",
           "traced_latency_report"]


def latency_payload(telemetries: Dict[Tuple[str, int], object],
                    ) -> Optional[Dict]:
    """Build the results-v2 ``latency`` payload from a figure's telemetries.

    *telemetries* is :attr:`FigureResult.telemetries` -- ``(strategy,
    mpl) -> detached Telemetry``.  Returns None when no run carried a
    latency recorder (capture off), so callers can attach the key
    conditionally.  Iteration is sorted, making the payload -- like the
    sketches themselves -- identical under serial and parallel
    execution.
    """
    points: Dict[str, List[Dict]] = {}
    merged: Dict[str, LatencyRecorder] = {}
    accuracy = None
    for (strategy, mpl), telemetry in sorted(telemetries.items()):
        recorder = getattr(telemetry, "latency", None)
        if recorder is None:
            continue
        accuracy = recorder.relative_accuracy
        points.setdefault(strategy, []).append({
            "mpl": mpl,
            "by_type": recorder.summary(),
            "overall": recorder.overall().summary(),
            "sketches": recorder.to_dict(),
        })
        fold = merged.get(strategy)
        if fold is None:
            merged[strategy] = fold = LatencyRecorder(
                recorder.relative_accuracy, recorder.max_buckets)
        fold.merge(recorder)
    if not points:
        return None
    return {
        "relative_accuracy": accuracy,
        "points": points,
        "merged": {strategy: {"by_type": recorder.summary(),
                              "overall": recorder.overall().summary()}
                   for strategy, recorder in sorted(merged.items())},
    }


def recorders_from_payload(payload: Dict,
                           ) -> Dict[str, List[Tuple[int, LatencyRecorder]]]:
    """Rebuild live recorders from a saved ``latency`` payload.

    Returns ``strategy -> [(mpl, recorder), ...]`` in MPL order; lets
    offline tools re-derive quantiles beyond the precomputed columns.
    """
    out: Dict[str, List[Tuple[int, LatencyRecorder]]] = {}
    for strategy, entries in sorted(payload.get("points", {}).items()):
        out[strategy] = [
            (entry["mpl"], LatencyRecorder.from_dict(entry["sketches"]))
            for entry in entries]
    return out


# -- rendering -------------------------------------------------------------

_COLUMNS = ["count", "mean"] + [f"p{int(q * 100)}" for q in QUANTILES] \
    + ["max"]


def _row(label: str, summary: Dict[str, float], indent: str = "  ") -> str:
    cells = [f"{indent}{label:<22}", f"{int(summary['count']):>6}"]
    for column in _COLUMNS[1:]:
        cells.append(f"{summary[column] * 1000:>9.1f}")
    return " ".join(cells)


def _header(indent: str = "  ") -> str:
    cells = [f"{indent}{'':<22}", f"{'count':>6}"]
    for column in _COLUMNS[1:]:
        cells.append(f"{column + ' ms':>9}")
    return " ".join(cells)


def latency_table(payload: Dict, mpls: Optional[Iterable[int]] = None,
                  ) -> str:
    """Render a full latency-budget table from a ``latency`` payload.

    One block per strategy: each captured MPL's per-query-type and
    overall percentiles, plus the all-MPL merge.  *mpls* restricts the
    rendered points (the merge row always covers every captured MPL).
    """
    wanted = set(mpls) if mpls is not None else None
    lines: List[str] = [
        f"latency budget (relative accuracy "
        f"{payload['relative_accuracy']:.0%}; times in ms):"]
    for strategy, entries in sorted(payload.get("points", {}).items()):
        lines.append(f"  strategy {strategy}")
        lines.append(_header(indent="    "))
        for entry in entries:
            if wanted is not None and entry["mpl"] not in wanted:
                continue
            for qtype, summary in sorted(entry["by_type"].items()):
                lines.append(_row(f"mpl {entry['mpl']:<3} {qtype}",
                                  summary, indent="    "))
            lines.append(_row(f"mpl {entry['mpl']:<3} (all types)",
                              entry["overall"], indent="    "))
        merged = payload.get("merged", {}).get(strategy)
        if merged is not None:
            lines.append(_row("all mpls (all types)", merged["overall"],
                              indent="    "))
    return "\n".join(lines) + "\n"


def traced_latency_report(figure: str, mpls: Sequence[int] = (16,),
                          cardinality: int = 100_000, num_sites: int = 32,
                          measured_queries: int = 200, seed: int = 13,
                          jobs: int = 1, cache=None,
                          check_invariants: bool = False,
                          progress=None) -> str:
    """Re-run *figure* at *mpls* with tracing + latency capture on.

    Returns the latency-budget table followed by one critical-path
    attribution table per (strategy, MPL) run.  The execution keywords
    mean what they mean for
    :func:`~repro.experiments.runner.run_experiment`.
    """
    # Imported here: the runner imports this module for latency_payload.
    from .runner import run_experiment
    result = run_experiment(
        FIGURES[figure], cardinality=cardinality, num_sites=num_sites,
        measured_queries=measured_queries, mpls=tuple(mpls), seed=seed,
        jobs=jobs, cache=cache, telemetry_spec=TelemetrySpec(latency=True),
        check_invariants=check_invariants, progress=progress)
    blocks = [f"figure {figure} at MPL {','.join(map(str, mpls))} (live "
              f"traced run, {measured_queries} measured queries per "
              f"strategy):"]
    if result.latency is not None:
        blocks.append(latency_table(result.latency).rstrip())
    for (strategy, mpl), telemetry in sorted(result.telemetries.items()):
        if telemetry.spans is None:
            continue
        summaries = summarize_critical_paths(
            critical_paths(span_records(telemetry.spans)))
        blocks.append(f"critical paths -- {strategy}, MPL {mpl}:")
        blocks.append(critpath_table(summaries).rstrip())
    return "\n".join(blocks)
