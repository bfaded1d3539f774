"""Pin of a traced figure's span exports.

Span capture only observes the simulation, and its exports are what the
§7 explanations are read from: the per-span records, the "why" table
built from the running wait/service aggregates, and the critical-path
summary.  This test hashes all three for a small traced Figure 9 run and
compares against a digest recorded before the span store was rewritten,
so any change to what is stored, in what order, or to the float sums
behind the why table shows up as a hash mismatch.  Both executors must
give the same bytes.
"""

import hashlib
import json

import pytest

from repro.experiments import FIGURES, run_experiment
from repro.obs import (
    TelemetrySpec,
    critical_paths,
    critpath_table,
    span_records,
    summarize_critical_paths,
    why_table,
)

RECORDS = 13_819
DIGEST = "008b9a1bd04521ae17f1a821031508e9029e3ed136bdb9134c1ba4713f7e5da7"


def _export_digest(jobs):
    result = run_experiment(
        FIGURES["9"], num_sites=16, cardinality=8000, measured_queries=40,
        mpls=(1, 8), seed=13, strategies=("berd", "magic"), jobs=jobs,
        telemetry_spec=TelemetrySpec(trace=True, latency=True))
    digest = hashlib.sha256()
    count = 0
    for key in sorted(result.telemetries):
        spans = result.telemetries[key].spans
        records = list(span_records(spans))
        count += len(records)
        for record in records:
            digest.update(json.dumps(record, sort_keys=True).encode())
        digest.update(why_table(spans).encode())
        digest.update(critpath_table(
            summarize_critical_paths(critical_paths(records))).encode())
    return count, digest.hexdigest()


@pytest.mark.parametrize("jobs", [1, 2])
def test_span_exports_match_pinned_digest(jobs):
    assert _export_digest(jobs) == (RECORDS, DIGEST)
