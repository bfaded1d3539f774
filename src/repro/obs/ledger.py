"""The perf-regression ledger: an append-only history of BENCH metrics.

Every ``BENCH_*.json`` writer records a point-in-time snapshot and then
overwrites it on the next run -- the 1.6x kernel win of one PR and the
regression of the next both vanish into the same file.  The ledger
keeps the history: one JSONL row per (run, metric), appended by the
benchmark harnesses (:mod:`benchmarks.ledger` is the thin shim they
import) and by CI, diffed and rendered by ``repro perf``.

Row schema (all rows, stable)::

    {"ts": "2026-08-08T12:34:56Z",      # UTC, second resolution
     "git_sha": "d4b277f",              # short sha, "unknown" outside git
     "host": "3f9c1a2b4d6e",            # stable host fingerprint (12 hex)
     "benchmark": "des_throughput",     # which harness appended it
     "metric": "des_kernel_speedup",    # one metric per row
     "value": 1.63}                     # float

Appends are atomic at the line level (single ``write`` of one line,
``O_APPEND``), so concurrent benchmark runs interleave whole rows.
Unknown extra keys are preserved on read, and unparsable lines are
skipped with a count, so a hand-edited ledger degrades soft.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import subprocess
from datetime import datetime, timezone
from typing import Any, Dict, Iterable, List, Optional, Tuple

__all__ = [
    "DEFAULT_LEDGER_PATH",
    "git_sha",
    "host_fingerprint",
    "append_metrics",
    "read_ledger",
    "latest_diffs",
    "regression_direction",
    "regressions",
    "trend_table",
]

#: Default ledger location, relative to the repository root.
DEFAULT_LEDGER_PATH = os.path.join("results", "perf_ledger.jsonl")


def git_sha(cwd: Optional[str] = None) -> str:
    """The short HEAD sha, or ``"unknown"`` outside a git checkout."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=cwd, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else "unknown"


def host_fingerprint() -> str:
    """A stable 12-hex identifier of the measuring machine.

    Derived from node name, architecture, OS and Python implementation
    -- enough that rows from different CI runners or laptops never get
    compared as if they were the same hardware.
    """
    basis = "|".join((
        platform.node(),
        platform.machine(),
        platform.system(),
        platform.python_implementation(),
        str(os.cpu_count() or 0),
    ))
    return hashlib.sha256(basis.encode()).hexdigest()[:12]


def _utc_now() -> str:
    return datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


def append_metrics(metrics: Dict[str, float], benchmark: str,
                   path: str = DEFAULT_LEDGER_PATH,
                   cwd: Optional[str] = None) -> List[Dict[str, Any]]:
    """Append one row per metric; returns the rows written.

    Non-finite and non-numeric values are skipped rather than poisoning
    the history -- a benchmark that failed to measure should not write a
    row at all.
    """
    ts = _utc_now()
    sha = git_sha(cwd)
    host = host_fingerprint()
    rows = []
    for name, value in metrics.items():
        try:
            value = float(value)
        except (TypeError, ValueError):
            continue
        if value != value or value in (float("inf"), float("-inf")):
            continue
        rows.append({"ts": ts, "git_sha": sha, "host": host,
                     "benchmark": benchmark, "metric": name,
                     "value": value})
    if not rows:
        return rows
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    with open(path, "a") as handle:
        for row in rows:
            handle.write(json.dumps(row, sort_keys=True) + "\n")
    return rows


def read_ledger(path: str = DEFAULT_LEDGER_PATH
                ) -> Tuple[List[Dict[str, Any]], int]:
    """All parsable rows in append order, plus the skipped-line count."""
    rows: List[Dict[str, Any]] = []
    skipped = 0
    try:
        handle = open(path)
    except OSError:
        return rows, skipped
    with handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                row = json.loads(line)
            except json.JSONDecodeError:
                skipped += 1
                continue
            if not isinstance(row, dict) or "metric" not in row \
                    or "value" not in row:
                skipped += 1
                continue
            rows.append(row)
    return rows, skipped


def _by_metric(rows: Iterable[Dict[str, Any]]
               ) -> Dict[str, List[Dict[str, Any]]]:
    grouped: Dict[str, List[Dict[str, Any]]] = {}
    for row in rows:
        grouped.setdefault(str(row["metric"]), []).append(row)
    return grouped


def latest_diffs(rows: Iterable[Dict[str, Any]]
                 ) -> Dict[str, Dict[str, Any]]:
    """Latest vs. previous entry per metric.

    Returns ``{metric: {"latest", "previous", "delta", "pct"}}``;
    ``previous`` (and the deltas) are None for metrics with one row.
    """
    diffs: Dict[str, Dict[str, Any]] = {}
    for metric, history in _by_metric(rows).items():
        latest = history[-1]
        previous = history[-2] if len(history) >= 2 else None
        entry: Dict[str, Any] = {"latest": latest, "previous": previous,
                                 "delta": None, "pct": None,
                                 "samples": len(history)}
        if previous is not None:
            delta = latest["value"] - previous["value"]
            entry["delta"] = delta
            entry["pct"] = (delta / previous["value"] * 100.0
                            if previous["value"] else None)
        diffs[metric] = entry
    return diffs


def regression_direction(metric: str) -> int:
    """Which way a metric regresses: +1 if bigger is worse, -1 if smaller.

    Wall-clock metrics (any ``seconds`` name component, e.g.
    ``smoke_wall_seconds`` or ``scaleup_placement_build_seconds_p1024``)
    regress when they grow; rates, speedups and throughputs regress when
    they shrink.
    """
    return 1 if "seconds" in metric.split("_") else -1


def regressions(diffs: Dict[str, Dict[str, Any]],
                threshold_pct: float = 10.0) -> List[str]:
    """Metrics whose latest entry moved >threshold in the bad direction."""
    out = []
    for name, diff in diffs.items():
        pct = diff.get("pct")
        if pct is None:
            continue
        if pct * regression_direction(name) > threshold_pct:
            out.append(name)
    return sorted(out)


def _fmt(value: Optional[float], suffix: str = "") -> str:
    if value is None:
        return "--"
    return f"{value:+.3f}{suffix}" if suffix else f"{value:.4g}"


def trend_table(rows: Iterable[Dict[str, Any]],
                metric: Optional[str] = None, last: int = 8) -> str:
    """A markdown trend table, one section per metric.

    Each section lists the newest ``last`` rows (timestamp, sha, host,
    value) newest first, headed by the latest-vs-previous delta.
    """
    grouped = _by_metric(rows)
    if metric is not None:
        grouped = {name: history for name, history in grouped.items()
                   if name == metric}
    if not grouped:
        return "(perf ledger is empty)"
    diffs = latest_diffs(row for history in grouped.values()
                         for row in history)
    lines: List[str] = []
    for name in sorted(grouped):
        history = grouped[name]
        diff = diffs[name]
        delta = _fmt(diff["delta"])
        pct = _fmt(diff["pct"], "%") if diff["pct"] is not None else "--"
        lines.append(f"### {name}")
        lines.append("")
        lines.append(f"latest {history[-1]['value']:.4g} "
                     f"(delta vs previous: {delta}, {pct}; "
                     f"{diff['samples']} recorded)")
        lines.append("")
        lines.append("| when (UTC) | git | host | benchmark | value |")
        lines.append("|---|---|---|---|---|")
        for row in reversed(history[-last:]):
            lines.append(
                f"| {row.get('ts', '?')} | {row.get('git_sha', '?')} "
                f"| {row.get('host', '?')} | {row.get('benchmark', '?')} "
                f"| {row['value']:.6g} |")
        lines.append("")
    return "\n".join(lines).rstrip() + "\n"
