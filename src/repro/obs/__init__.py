"""Simulation telemetry: metrics, trace spans, timelines, exporters.

The observability layer of the simulator.  The paper's §7 explains every
throughput curve by naming the saturated resource; this package makes
those explanations reproducible from a run:

* :mod:`~repro.obs.registry` -- hierarchical Counter / Gauge /
  LatencySketch / Timeline instruments (``node.3.disk.reads``);
* :mod:`~repro.obs.spans` -- per-query span trees with queue-wait vs.
  service-time per resource, stored column-wise in a bounded log;
* :mod:`~repro.obs.sampler` -- utilization timelines sampled at a
  configurable interval;
* :mod:`~repro.obs.export` -- JSONL and Prometheus-text exporters plus
  span-tree replay validation;
* :mod:`~repro.obs.summary` -- the paper-style "why" table (top-k
  resources by attributed time per query type);
* :mod:`~repro.obs.audit` -- the *static* placement-quality analyzer:
  per-processor heat maps, skew (max/mean, CV, Gini), achieved slice
  spread vs. M_i targets, per-query fan-out distributions -- no
  simulation involved;
* :mod:`~repro.obs.telemetry` -- the per-run bundle; pass
  ``Telemetry()`` to :class:`~repro.gamma.machine.GammaMachine`, or
  nothing for the near-zero-cost disabled default.

Everything above observes *simulated* time.  The wall-clock half of
the layer lives beside it:

* :mod:`~repro.obs.phases` -- nestable wall-clock phase timers
  (plan-compile, relation-build, placement-build, simulate, cache I/O)
  with peak-RSS/tracemalloc marks, recorded into results-v2 JSON;
* :mod:`~repro.obs.progress` -- live executor progress: a stderr
  status line or ``--progress jsonl`` machine stream, fed by run
  lifecycle events and parallel-worker heartbeats;
* the Chrome-trace/Perfetto exporter in :mod:`~repro.obs.export`
  (``repro trace``) rendering both halves as Catapult JSON.
"""

from .audit import (
    PlacementAudit,
    SkewStats,
    audit_digest,
    audit_placement,
    fragment_counts,
    gini_coefficient,
    skew_stats,
    slice_spreads,
)
from .export import (
    build_span_forest,
    chrome_events_from_phase_spans,
    chrome_events_from_span_records,
    chrome_trace,
    load_jsonl,
    metric_records,
    render_prometheus,
    span_records,
    validate_chrome_trace,
    validate_span_forest,
    write_chrome_trace,
    write_metrics_jsonl,
    write_spans_jsonl,
)
from . import phases
from .critpath import (
    chrome_events_from_critical_path,
    critical_paths,
    critpath_table,
    summarize_critical_paths,
)
from .phases import PhaseAccumulator
from .progress import NULL_PROGRESS, ProgressTracker, read_progress_jsonl
from .registry import Counter, MetricsRegistry, NULL_REGISTRY, NullRegistry
from .sampler import TimelineSampler
from .sketch import QUANTILES, LatencyRecorder, LatencySketch
from .spans import SPAN_KIND, QueryTrace, Span, SpanLog, UnknownQueryError
from .summary import dominant_resource, resource_breakdown, why_table
from .telemetry import NULL_TELEMETRY, Telemetry, TelemetrySpec

__all__ = [
    "Telemetry",
    "TelemetrySpec",
    "NULL_TELEMETRY",
    "MetricsRegistry",
    "NullRegistry",
    "NULL_REGISTRY",
    "Counter",
    "Span",
    "QueryTrace",
    "SpanLog",
    "SPAN_KIND",
    "UnknownQueryError",
    "LatencySketch",
    "LatencyRecorder",
    "QUANTILES",
    "critical_paths",
    "summarize_critical_paths",
    "critpath_table",
    "chrome_events_from_critical_path",
    "TimelineSampler",
    "span_records",
    "metric_records",
    "write_spans_jsonl",
    "write_metrics_jsonl",
    "render_prometheus",
    "load_jsonl",
    "build_span_forest",
    "validate_span_forest",
    "why_table",
    "dominant_resource",
    "resource_breakdown",
    "PlacementAudit",
    "SkewStats",
    "audit_placement",
    "audit_digest",
    "skew_stats",
    "gini_coefficient",
    "fragment_counts",
    "slice_spreads",
    "phases",
    "PhaseAccumulator",
    "ProgressTracker",
    "NULL_PROGRESS",
    "read_progress_jsonl",
    "chrome_trace",
    "chrome_events_from_phase_spans",
    "chrome_events_from_span_records",
    "validate_chrome_trace",
    "write_chrome_trace",
]
