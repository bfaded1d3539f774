"""Latency observatory: zero perturbation, results-v2 payload, CLI.

The load-bearing guarantee mirrors the executor observability suite:
latency capture must *observe* -- a figure regenerated with sketches on
must be bit-identical (series and spec digests) to one regenerated with
them off, under serial and parallel executors alike.  On top of that,
the ``latency`` payload itself must be identical between serial and
parallel runs, survive the results-v2 round trip, and stay bounded in
memory at the full 1,024-site machine scale.
"""

import json

import pytest

from repro.core import RangeStrategy
from repro.experiments import (
    FIGURES,
    figure_from_dict,
    figure_to_dict,
    run_experiment,
)
from repro.experiments.report import (
    audit_document,
    build_audit_report,
    latency_budget,
    render_html,
    render_markdown,
)
from repro.experiments.latency import (
    latency_payload,
    latency_table,
    recorders_from_payload,
)
from repro.cli import main
from tests.experiments.test_audit_report import assert_same_outline
from repro.gamma import GammaMachine
from repro.obs import Telemetry, TelemetrySpec
from repro.storage import make_wisconsin
from repro.workload import make_mix

TINY = dict(cardinality=2_000, num_sites=4, measured_queries=5,
            mpls=(1, 2), seed=13, strategies=("range",))
LATENCY_ONLY = TelemetrySpec(trace=False, timeline_interval=0.0,
                             latency=True)


def _series_payload(result):
    return json.dumps(
        {name: [run.to_json_dict() for run in runs]
         for name, runs in result.series.items()},
        sort_keys=True)


class TestZeroPerturbation:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_capture_bit_identical_to_dark_run(self, jobs):
        dark = run_experiment(FIGURES["8a"], jobs=jobs, **TINY)
        observed = run_experiment(FIGURES["8a"], jobs=jobs,
                                  telemetry_spec=LATENCY_ONLY, **TINY)
        assert _series_payload(dark) == _series_payload(observed)
        assert dark.spec_digests == observed.spec_digests
        assert dark.latency is None
        assert observed.latency is not None

    def test_serial_and_parallel_payloads_identical(self):
        serial = run_experiment(FIGURES["8a"], jobs=1,
                                telemetry_spec=LATENCY_ONLY, **TINY)
        parallel = run_experiment(FIGURES["8a"], jobs=2,
                                  telemetry_spec=LATENCY_ONLY, **TINY)
        assert json.dumps(serial.latency, sort_keys=True) \
            == json.dumps(parallel.latency, sort_keys=True)


class TestResultsRoundTrip:
    @pytest.fixture(scope="class")
    def result(self):
        return run_experiment(FIGURES["8a"], telemetry_spec=LATENCY_ONLY,
                              **TINY)

    def test_percentiles_present_per_figure_point(self, result):
        points = result.latency["points"]
        assert set(points) == {"range"}
        entries = points["range"]
        assert [entry["mpl"] for entry in entries] == [1, 2]
        for entry in entries:
            for summary in [entry["overall"], *entry["by_type"].values()]:
                assert {"count", "mean", "max", "p50", "p95",
                        "p99"} <= set(summary)
                assert summary["count"] > 0
                assert summary["p50"] <= summary["p95"] <= summary["p99"]
        merged = result.latency["merged"]["range"]["overall"]
        assert merged["count"] == sum(
            entry["overall"]["count"] for entry in entries)

    def test_latency_round_trips_results_v2(self, result):
        payload = json.loads(json.dumps(figure_to_dict(result),
                                        sort_keys=True))
        assert "latency" in payload
        restored = figure_from_dict(payload)
        assert restored.latency == result.latency

    def test_v2_files_without_latency_still_load(self):
        dark = run_experiment(FIGURES["8a"], **TINY)
        payload = figure_to_dict(dark)
        assert "latency" not in payload
        assert figure_from_dict(payload).latency is None

    def test_recorders_rebuild_from_payload(self, result):
        recorders = recorders_from_payload(result.latency)
        for mpl, recorder in recorders["range"]:
            entry = next(e for e in result.latency["points"]["range"]
                         if e["mpl"] == mpl)
            assert recorder.overall().summary() == entry["overall"]


class TestBoundedMemoryAtScale:
    def test_sketch_capacity_survives_1024_sites(self):
        # The full machine scale: 1,024 sites, latency-only capture.
        # Sketch capacity must stay at the configured bucket bound
        # regardless of how many queries (or sites) fed it.
        relation = make_wisconsin(4_096, correlation="low", seed=70)
        placement = RangeStrategy("unique1").partition(relation, 1024)
        telemetry = Telemetry(trace=False, timeline_interval=0.0,
                              latency=True)
        machine = GammaMachine(placement,
                               indexes={"unique1": False, "unique2": True},
                               seed=3, telemetry=telemetry)
        machine.run(make_mix("low-low", domain=4_096),
                    multiprogramming_level=2, measured_queries=6,
                    warmup_queries=1)
        recorder = telemetry.latency
        assert recorder is not None
        overall = recorder.overall()
        assert overall.count >= 6
        for sketch in [overall, *recorder.sketches.values()]:
            assert sketch.bucket_count <= sketch.max_buckets + 1


class TestPayloadHelpers:
    def _telemetries(self):
        out = {}
        for (strategy, mpl), values in {
            ("berd", 1): (0.1, 0.2), ("berd", 4): (0.4, 0.8),
            ("magic", 1): (0.05,), ("magic", 4): (0.2,),
        }.items():
            telemetry = Telemetry(trace=False, timeline_interval=0.0,
                                  latency=True)
            for index, value in enumerate(values):
                telemetry.latency.record("QA" if index % 2 == 0 else "QB",
                                         value)
            out[(strategy, mpl)] = telemetry
        return out

    def test_payload_none_without_capture(self):
        assert latency_payload({}) is None
        dark = Telemetry(trace=False, timeline_interval=0.0)
        assert latency_payload({("range", 1): dark}) is None

    def test_payload_sorted_points_and_merge(self):
        payload = latency_payload(self._telemetries())
        assert list(payload["points"]) == ["berd", "magic"]
        assert [e["mpl"] for e in payload["points"]["berd"]] == [1, 4]
        assert payload["merged"]["berd"]["overall"]["count"] == 4
        assert payload["relative_accuracy"] == pytest.approx(0.02)

    def test_table_and_budget_lines(self):
        payload = latency_payload(self._telemetries())
        table = latency_table(payload)
        assert "strategy berd" in table
        assert "strategy magic" in table
        assert "all mpls (all types)" in table
        assert "p99 ms" in table
        restricted = latency_table(payload, mpls=(4,))
        assert "mpl 1" not in restricted
        assert "mpl 4" in restricted
        budget = render_markdown(latency_budget(payload))
        # One row per strategy, at its highest captured MPL, in ms.
        assert "| berd | 4 |" in budget
        assert "| magic | 4 |" in budget
        assert "| berd | 1 |" not in budget
        assert "| mean ms | p50 ms | p95 ms | p99 ms | max ms |" in budget


class TestLatencyCli:
    @pytest.fixture(scope="class")
    def saved(self, tmp_path_factory):
        result = run_experiment(FIGURES["8a"], telemetry_spec=LATENCY_ONLY,
                                **TINY)
        path = tmp_path_factory.mktemp("latency") / "figure_8a.json"
        path.write_text(json.dumps(figure_to_dict(result)))
        return str(path)

    def test_offline_budget_table(self, saved, capsys):
        assert main(["latency", saved]) == 0
        out = capsys.readouterr().out
        assert "latency budget" in out
        assert "strategy range" in out

    def test_file_without_latency_reported(self, tmp_path, capsys):
        dark = run_experiment(FIGURES["8a"], **TINY)
        path = tmp_path / "dark.json"
        path.write_text(json.dumps(figure_to_dict(dark)))
        assert main(["latency", str(path)]) == 0
        assert "no latency payload" in capsys.readouterr().out

    def test_no_mode_prints_help(self, capsys):
        assert main(["latency"]) == 2
        assert "repro latency" in capsys.readouterr().out

    def test_spans_mode_prints_critical_paths(self, tmp_path, capsys):
        records = [
            {"trace": 1, "span": 0, "parent": None, "name": "query",
             "qtype": "QA", "start": 0.0, "end": 2.0},
            {"trace": 1, "span": 1, "parent": 0, "name": "node.disk",
             "qtype": "QA", "resource": "node.disk", "wait": 0.5,
             "service": 1.0, "start": 0.5, "end": 2.0},
        ]
        path = tmp_path / "run.spans.jsonl"
        path.write_text("".join(json.dumps(r) + "\n" for r in records))
        assert main(["latency", "--spans", str(path)]) == 0
        out = capsys.readouterr().out
        assert "critical paths from" in out
        assert "node.disk" in out

    def test_out_file_written(self, saved, tmp_path, capsys):
        out_path = tmp_path / "report.txt"
        assert main(["latency", saved, "--out", str(out_path)]) == 0
        capsys.readouterr()
        assert "latency budget" in out_path.read_text()


class TestAuditReportSections:
    def test_latency_budget_in_markdown_and_html(self):
        result = run_experiment(FIGURES["8a"], telemetry_spec=LATENCY_ONLY,
                                **TINY)
        report = build_audit_report(result, samples=50, sensitivity=False)
        assert report.latency == result.latency
        markdown = render_markdown(audit_document(report))
        assert "## Query latency budget (measured)" in markdown
        assert "range" in markdown
        assert "Query latency budget (measured)" in render_html(
            audit_document(report), "audit")
        assert_same_outline(report)

    def test_critical_path_tables_when_tracing(self):
        result = run_experiment(
            FIGURES["8a"],
            telemetry_spec=TelemetrySpec(trace=True, timeline_interval=0.0,
                                         latency=True),
            **TINY)
        report = build_audit_report(result, samples=50, sensitivity=False)
        assert "range" in report.critpath_tables
        assert "query type" in report.critpath_tables["range"]
        markdown = render_markdown(audit_document(report))
        assert "## Critical path: range" in markdown
        assert_same_outline(report)
