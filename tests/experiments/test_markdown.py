"""Tests for the markdown figure reports."""

import dataclasses
import json

import pytest

from repro.experiments import (
    FIGURES,
    figure_document,
    figure_to_dict,
    render_markdown,
    report_from_directory,
    run_experiment,
    save_figure_json,
)
from repro.obs import TelemetrySpec


@pytest.fixture(scope="module")
def small_result(small_figure_result):
    # Shared session-scoped run from tests/conftest.py.
    return small_figure_result


def _scoreboard_row(text, figure):
    return next(line for line in text.splitlines()
                if line.startswith(f"| Fig {figure} |"))


class TestBuildingBlocks:
    def test_scoreboard_row_shape(self, small_result, tmp_path):
        save_figure_json(small_result, str(tmp_path / "figure_8a.json"))
        row = _scoreboard_row(report_from_directory(str(tmp_path)), "8a")
        assert row.startswith("| Fig 8a |")
        assert row.count("|") == 5

    def test_series_table(self, small_result):
        section = render_markdown(figure_document(small_result))
        lines = [line for line in section.splitlines()
                 if line.startswith("|")]
        assert lines[0].startswith("| MPL |")
        assert len(lines) == 2 + 2  # header + separator + 2 MPL rows

    def test_series_table_mpl_filter(self, small_result):
        # The table lists exactly the MPLs the result holds.
        at_mpl_8 = dataclasses.replace(small_result, series={
            name: [run for run in runs if run.multiprogramming_level == 8]
            for name, runs in small_result.series.items()})
        table = render_markdown(figure_document(at_mpl_8))
        assert "| 8 |" in table
        assert "| 1 |" not in table

    def test_figure_section_complete(self, small_result):
        section = render_markdown(figure_document(small_result))
        assert "### Figure 8a" in section
        assert "8 processors" in section
        assert "Outcome" in section


class TestDirectoryReport:
    def test_report_roundtrip(self, small_result, tmp_path):
        save_figure_json(small_result, str(tmp_path / "figure_8a.json"))
        report = report_from_directory(str(tmp_path), title="Test report")
        assert report.startswith("# Test report")
        assert "Fig 8a" in report
        assert "### Figure 8a" in report

    def test_empty_directory_rejected(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            report_from_directory(str(tmp_path))

    def test_bad_file_skipped_with_note(self, small_result, tmp_path):
        save_figure_json(small_result, str(tmp_path / "figure_8a.json"))
        (tmp_path / "figure_zz.json").write_text(
            '{"format_version": 99}')
        # Structurally incomplete: a known figure and nothing else.
        (tmp_path / "figure_zy.json").write_text(
            '{"format_version": 2, "figure": "8a"}')
        # A run entry with an unknown key.
        payload = figure_to_dict(small_result)
        payload["series"]["range"][0]["bogus"] = 1
        (tmp_path / "figure_zx.json").write_text(json.dumps(payload))
        report = report_from_directory(str(tmp_path))
        assert "Skipped files" in report
        assert "figure_zz.json" in report
        assert "figure_zy.json: results file lacks the 'cardinality' key" \
            in report
        assert "figure_zx.json: bad run entry in series 'range'" in report
        assert "'bogus'" in report

    def test_non_figure_files_ignored(self, small_result, tmp_path):
        save_figure_json(small_result, str(tmp_path / "figure_8a.json"))
        (tmp_path / "notes.txt").write_text("irrelevant")
        report = report_from_directory(str(tmp_path))
        assert "notes.txt" not in report

    def test_latency_budget_when_captured(self, tmp_path):
        result = run_experiment(
            FIGURES["8a"], cardinality=2_000, num_sites=4,
            measured_queries=5, mpls=(1, 2), seed=13, strategies=("range",),
            telemetry_spec=TelemetrySpec(trace=False, timeline_interval=0.0,
                                         latency=True))
        (tmp_path / "figure_8a.json").write_text(
            json.dumps(figure_to_dict(result)))
        report = report_from_directory(str(tmp_path))
        assert "| strategy | MPL | queries | mean ms | p50 ms |" in report
        assert "| range | 2 |" in report
