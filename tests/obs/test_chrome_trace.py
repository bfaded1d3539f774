"""Chrome-trace (Catapult JSON / Perfetto) exporter and CLI tests.

The acceptance bar is structural: a trace built from real phase spans
and real simulated-time span records must pass
:func:`~repro.obs.export.validate_chrome_trace` -- the same checks the
``repro trace`` refuses to write a file without -- and load back as
valid JSON with one process track per worker pid.
"""

import json

import pytest

from repro.experiments import FIGURES, run_experiment
from repro.obs import (
    TelemetrySpec,
    chrome_events_from_phase_spans,
    chrome_events_from_span_records,
    chrome_trace,
    validate_chrome_trace,
    write_chrome_trace,
)
from repro.obs.export import span_records, write_spans_jsonl
from repro.cli import main

TINY = dict(cardinality=2_000, num_sites=4, measured_queries=5,
            mpls=(1,), seed=13, strategies=("range",))


@pytest.fixture(scope="module")
def tiny_result():
    return run_experiment(FIGURES["8a"], **TINY)


def _traced_telemetry():
    """The detached telemetry of the one traced TINY run."""
    result = run_experiment(FIGURES["8a"], telemetry_spec=TelemetrySpec(),
                            **TINY)
    return result.telemetries[("range", 1)]


class TestPhaseSpanEvents:
    def test_real_phase_spans_become_valid_trace(self, tiny_result):
        spans = tiny_result.phases["spans"]
        assert spans, "tiny run must record phase spans"
        events = chrome_events_from_phase_spans(spans)
        payload = chrome_trace(events, metadata={"figure": "8a"})
        assert validate_chrome_trace(payload) == []
        names = {e["name"] for e in events if e["ph"] == "X"}
        assert {"plan-compile", "simulate"} <= names
        # Timestamps rebase to the earliest span: the trace starts at 0.
        assert min(e["ts"] for e in events if e["ph"] == "X") == 0.0
        assert payload["otherData"]["figure"] == "8a"

    def test_one_metadata_track_per_pid(self):
        spans = [
            {"name": "simulate", "start": 10.0, "dur": 1.0, "pid": 7,
             "depth": 0},
            {"name": "simulate", "start": 11.0, "dur": 1.0, "pid": 9,
             "depth": 0},
        ]
        events = chrome_events_from_phase_spans(spans)
        meta = [e for e in events if e["ph"] == "M"]
        assert sorted(e["pid"] for e in meta) == [7, 9]

    def test_empty_spans_yield_empty_events(self):
        assert chrome_events_from_phase_spans([]) == []


class TestSimulatedSpanEvents:
    def test_telemetry_spans_become_valid_trace(self):
        telemetry = _traced_telemetry()
        records = list(span_records(telemetry.spans))
        assert records
        events = chrome_events_from_span_records(records, pid=42)
        payload = chrome_trace(events)
        assert validate_chrome_trace(payload) == []
        # Simulated seconds map to microseconds 1:1.
        xs = [e for e in events if e["ph"] == "X"]
        record = records[0]
        assert xs[0]["ts"] == pytest.approx(record["start"] * 1e6)
        assert all(e["pid"] == 42 for e in xs)
        # One thread lane per query trace.
        assert {e["tid"] for e in xs} == {r["trace"] for r in records}


class TestValidation:
    def test_rejects_missing_trace_events(self):
        assert validate_chrome_trace({}) == \
            ["traceEvents missing or not a list"]

    def test_rejects_trace_without_complete_events(self):
        payload = chrome_trace(
            [{"name": "m", "ph": "M", "pid": 0, "tid": 0}])
        assert any("no complete" in e for e in validate_chrome_trace(payload))

    def test_rejects_negative_duration(self):
        payload = chrome_trace([{"name": "x", "ph": "X", "pid": 0,
                                 "tid": 0, "ts": 0.0, "dur": -1.0}])
        assert any("bad dur" in e for e in validate_chrome_trace(payload))


class TestTraceCli:
    def test_results_and_spans_round_trip(self, tmp_path, tiny_result):
        from repro.experiments import save_figure_json
        results_path = str(tmp_path / "figure_8a.json")
        save_figure_json(tiny_result, results_path)

        telemetry = _traced_telemetry()
        spans_path = str(tmp_path / "run.spans.jsonl")
        write_spans_jsonl(telemetry.spans, spans_path)

        out = str(tmp_path / "trace.json")
        assert main(["trace", results_path,
                     "--spans", spans_path, "--out", out]) == 0
        with open(out) as handle:
            payload = json.load(handle)
        assert validate_chrome_trace(payload) == []
        # Both halves present: wall-clock phases and simulated spans.
        names = {e["name"] for e in payload["traceEvents"]
                 if e["ph"] == "X"}
        assert "simulate" in names
        assert len(payload["traceEvents"]) > 10

    def test_no_inputs_is_an_error(self, tmp_path):
        assert main(["trace", "--out", str(tmp_path / "t.json")]) == 2

    def test_write_chrome_trace_returns_event_count(self, tmp_path):
        payload = chrome_trace([{"name": "x", "ph": "X", "pid": 0,
                                 "tid": 0, "ts": 0.0, "dur": 1.0}])
        path = str(tmp_path / "t.json")
        assert write_chrome_trace(payload, path) == 1
        with open(path) as handle:
            assert json.load(handle) == payload
