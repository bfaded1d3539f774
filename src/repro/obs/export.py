"""Exporters: JSONL span / metric dumps and Prometheus text rendering.

Artifacts written for one run:

* ``spans.jsonl`` -- one JSON object per closed span (trace id, span id,
  parent id, name, interval, wait/service attributes);
* ``metrics.jsonl`` -- one JSON object per registry instrument;
* ``metrics.prom`` -- the registry in the Prometheus text exposition
  format (timelines are rendered as their last sample, sketches as
  summaries).

The module also re-reads its own span dumps (:func:`load_jsonl`,
:func:`build_span_forest`, :func:`validate_span_forest`) so a test can
replay an export and check that every trace forms a well-nested tree.
"""

from __future__ import annotations

import json
import math
import os
import re
from typing import Dict, Iterator, List, Optional

from .registry import Counter, Gauge, MetricsRegistry, Timeline
from .sketch import QUANTILES, LatencySketch
from .spans import SpanLog
from .summary import why_table

__all__ = [
    "span_records",
    "metric_records",
    "write_spans_jsonl",
    "write_metrics_jsonl",
    "render_prometheus",
    "load_jsonl",
    "build_span_forest",
    "validate_span_forest",
    "chrome_trace",
    "chrome_events_from_phase_spans",
    "chrome_events_from_span_records",
    "validate_chrome_trace",
    "write_chrome_trace",
    "write_run_artifacts",
]


# -- JSONL ---------------------------------------------------------------

def span_records(log: SpanLog) -> Iterator[Dict]:
    """The retained spans of *log* as JSON-serializable dictionaries."""
    for entry in log.entries():
        record = dict(entry.details)
        record["closed_at"] = entry.time
        yield record


def metric_records(registry: MetricsRegistry) -> Iterator[Dict]:
    """Every registry instrument as a JSON-serializable dictionary."""
    for name, metric in registry.items():
        if isinstance(metric, LatencySketch):
            yield {"name": name, "type": "summary", **metric.to_dict()}
        else:
            yield metric.as_dict()


def write_spans_jsonl(log: SpanLog, path: str) -> int:
    """Dump the retained spans to *path*; returns the line count."""
    count = 0
    with open(path, "w") as handle:
        for record in span_records(log):
            handle.write(json.dumps(record, sort_keys=True))
            handle.write("\n")
            count += 1
    return count


def write_metrics_jsonl(registry: MetricsRegistry, path: str) -> int:
    """Dump the registry to *path*; returns the line count."""
    count = 0
    with open(path, "w") as handle:
        for record in metric_records(registry):
            handle.write(json.dumps(record, sort_keys=True))
            handle.write("\n")
            count += 1
    return count


def load_jsonl(path: str) -> List[Dict]:
    """Read back a JSONL dump."""
    records = []
    with open(path) as handle:
        for line in handle:
            line = line.strip()
            if line:
                records.append(json.loads(line))
    return records


def write_run_artifacts(out_dir: str, figure: str,
                        telemetries: Dict) -> List[str]:
    """Write ``spans.jsonl`` / ``metrics.jsonl`` / ``metrics.prom`` /
    ``summary.txt`` per traced ``(strategy, mpl)`` run into *out_dir*;
    returns one note per run written (latency-only runs are skipped)."""
    os.makedirs(out_dir, exist_ok=True)
    notes = []
    for (strategy, mpl), telemetry in sorted(telemetries.items()):
        if telemetry.spans is None:
            continue
        stem = os.path.join(out_dir, f"{figure}_{strategy}_mpl{mpl}")
        spans = write_spans_jsonl(telemetry.spans, f"{stem}.spans.jsonl")
        write_metrics_jsonl(telemetry.registry, f"{stem}.metrics.jsonl")
        with open(f"{stem}.metrics.prom", "w") as handle:
            handle.write(render_prometheus(telemetry.registry))
        with open(f"{stem}.summary.txt", "w") as handle:
            handle.write(why_table(telemetry.spans))
        notes.append(f"(wrote {stem}.{{spans.jsonl,metrics.jsonl,"
                     f"metrics.prom,summary.txt}}; {spans} spans)")
    return notes


# -- span replay -----------------------------------------------------------

def build_span_forest(records: List[Dict]) -> Dict[int, Dict[int, Dict]]:
    """Group span records into ``{trace_id: {span_id: record}}``."""
    forest: Dict[int, Dict[int, Dict]] = {}
    for record in records:
        forest.setdefault(record["trace"], {})[record["span"]] = record
    return forest


def validate_span_forest(records: List[Dict]) -> List[str]:
    """Structural checks on a span export; returns human-readable errors.

    A valid export has, per trace: unique span ids, exactly one root
    span (no parent), every other span's parent present, every child
    interval nested within its parent's interval, and no cycles.
    """
    errors: List[str] = []
    # Duplicate ids first: build_span_forest keeps only the last record
    # per (trace, span), so the per-trace checks below cannot see them.
    seen_ids = set()
    for record in records:
        key = (record["trace"], record["span"])
        if key in seen_ids:
            errors.append(f"trace {key[0]}: duplicate span id {key[1]}")
        seen_ids.add(key)
    for trace_id, spans in build_span_forest(records).items():
        roots = [s for s in spans.values() if s["parent"] is None]
        if len(roots) != 1:
            errors.append(f"trace {trace_id}: {len(roots)} root spans")
        for span in spans.values():
            if span["end"] < span["start"]:
                errors.append(
                    f"trace {trace_id} span {span['span']}: negative length")
            parent_id = span["parent"]
            if parent_id is None:
                continue
            parent = spans.get(parent_id)
            if parent is None:
                errors.append(f"trace {trace_id} span {span['span']}: "
                              f"missing parent {parent_id}")
                continue
            eps = 1e-9
            if (span["start"] < parent["start"] - eps
                    or span["end"] > parent["end"] + eps):
                errors.append(
                    f"trace {trace_id} span {span['span']} "
                    f"[{span['start']:.6f}, {span['end']:.6f}] escapes "
                    f"parent {parent_id} "
                    f"[{parent['start']:.6f}, {parent['end']:.6f}]")
            # Cycle check: walk to the root, bounded by the span count.
            seen = set()
            current = span
            while current is not None and current["parent"] is not None:
                if current["span"] in seen:
                    errors.append(f"trace {trace_id}: parent cycle at "
                                  f"span {current['span']}")
                    break
                seen.add(current["span"])
                current = spans.get(current["parent"])
    return errors


# -- Chrome trace (Catapult JSON / Perfetto) -------------------------------

#: Span attributes copied into a trace event's ``args`` when present.
_SPAN_ARG_KEYS = ("qtype", "resource", "wait", "service", "pages",
                  "sites", "truncated")


def chrome_events_from_phase_spans(spans: List[Dict],
                                   process_name: str = "wall-clock phases",
                                   ) -> List[Dict]:
    """Wall-clock phase spans as Catapult complete ("X") events.

    *spans* is the ``spans`` list of a
    :meth:`~repro.obs.phases.PhaseAccumulator.snapshot` -- epoch-second
    ``start``/``dur`` plus the recording ``pid`` -- and every distinct
    pid becomes its own track, so a ``--jobs N`` figure renders as N
    worker lanes in Perfetto.  Timestamps are rebased to the earliest
    span so traces start at t=0 regardless of wall epoch.
    """
    if not spans:
        return []
    base = min(span["start"] for span in spans)
    events: List[Dict] = []
    for pid in sorted({span.get("pid", 0) for span in spans}):
        events.append({
            "name": "process_name", "ph": "M", "pid": pid, "tid": 0,
            "args": {"name": f"{process_name} (pid {pid})"},
        })
    for span in spans:
        events.append({
            "name": span["name"],
            "cat": "phase",
            "ph": "X",
            "ts": (span["start"] - base) * 1e6,
            "dur": max(span["dur"], 0.0) * 1e6,
            "pid": span.get("pid", 0),
            "tid": span.get("depth", 0),
            "args": {"depth": span.get("depth", 0)},
        })
    return events


def chrome_events_from_span_records(records: List[Dict],
                                    pid: int = 0,
                                    process_name: str = "simulated time",
                                    ) -> List[Dict]:
    """Saved simulated-time span records as Catapult complete events.

    *records* come from a ``spans.jsonl`` export (:func:`load_jsonl`).
    Simulated seconds map to trace microseconds 1:1 (ts = start * 1e6)
    and every query trace gets its own thread lane, so one query's span
    tree stacks on one row.
    """
    events: List[Dict] = []
    if records:
        events.append({
            "name": "process_name", "ph": "M", "pid": pid, "tid": 0,
            "args": {"name": process_name},
        })
    for record in records:
        args = {key: record[key] for key in _SPAN_ARG_KEYS if key in record}
        args["span"] = record.get("span")
        args["parent"] = record.get("parent")
        events.append({
            "name": record["name"],
            "cat": record.get("qtype", "span"),
            "ph": "X",
            "ts": record["start"] * 1e6,
            "dur": max(record["end"] - record["start"], 0.0) * 1e6,
            "pid": pid,
            "tid": record["trace"],
            "args": args,
        })
    return events


def chrome_trace(events: List[Dict], metadata: Optional[Dict] = None) -> Dict:
    """Wrap trace events in the Catapult JSON object format.

    The result loads directly in Perfetto / ``chrome://tracing``.
    """
    payload = {"traceEvents": list(events), "displayTimeUnit": "ms"}
    if metadata:
        payload["otherData"] = dict(metadata)
    return payload


def validate_chrome_trace(payload: Dict) -> List[str]:
    """Structural checks on a Catapult trace; returns readable errors."""
    errors: List[str] = []
    events = payload.get("traceEvents")
    if not isinstance(events, list):
        return ["traceEvents missing or not a list"]
    if not any(event.get("ph") == "X" for event in events):
        errors.append("no complete ('X') events in trace")
    for index, event in enumerate(events):
        for key in ("name", "ph", "pid", "tid"):
            if key not in event:
                errors.append(f"event {index}: missing {key!r}")
        if event.get("ph") == "X":
            if not isinstance(event.get("ts"), (int, float)):
                errors.append(f"event {index}: non-numeric ts")
            if not isinstance(event.get("dur"), (int, float)) \
                    or event.get("dur", 0) < 0:
                errors.append(f"event {index}: bad dur")
    return errors


def write_chrome_trace(payload: Dict, path: str) -> int:
    """Write a Catapult trace to *path*; returns the event count."""
    with open(path, "w") as handle:
        json.dump(payload, handle)
    return len(payload.get("traceEvents", []))


# -- Prometheus text format ------------------------------------------------------

def _prom_name(name: str) -> str:
    """Sanitize a dotted metric name to ``[a-zA-Z_:][a-zA-Z0-9_:]*``.

    Every illegal character (dots, dashes, spaces, unicode) collapses to
    an underscore, and a leading digit gets an underscore prefix, so any
    registry name renders as a scrape-able metric name.
    """
    name = re.sub(r"[^a-zA-Z0-9_:]", "_", name)
    if not name or name[0].isdigit():
        name = "_" + name
    return name


def _prom_value(value: float) -> str:
    """A float in the exposition format's value syntax.

    The text format spells the specials ``NaN``, ``+Inf`` and ``-Inf``;
    ``repr(float('inf'))`` would emit ``inf``, which scrapers reject.
    NaN values reach us from real metrics -- a ratio with an empty
    denominator, for one.
    """
    if math.isnan(value):
        return "NaN"
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    return repr(float(value))


def render_prometheus(registry: MetricsRegistry,
                      prefix: str = "repro_") -> str:
    """The registry in the Prometheus text exposition format."""
    lines: List[str] = []
    for raw_name, metric in registry.items():
        name = prefix + _prom_name(raw_name)
        if isinstance(metric, Counter):
            lines.append(f"# TYPE {name} counter")
            lines.append(f"{name} {_prom_value(metric.value)}")
        elif isinstance(metric, Timeline):
            lines.append(f"# TYPE {name} gauge")
            last = metric.last
            lines.append(f"{name} {_prom_value(last[1] if last else 0.0)}")
        elif isinstance(metric, Gauge):
            lines.append(f"# TYPE {name} gauge")
            lines.append(f"{name} {_prom_value(metric.value)}")
        elif isinstance(metric, LatencySketch):
            lines.append(f"# TYPE {name} summary")
            for q in QUANTILES:
                lines.append(f'{name}{{quantile="{q:g}"}} '
                             f"{_prom_value(metric.quantile(q))}")
            lines.append(f"{name}_sum {_prom_value(metric.total)}")
            lines.append(f"{name}_count {metric.count}")
    return "\n".join(lines) + ("\n" if lines else "")
