"""Tests for the audit reports, ``repro audit``, and --audit wiring."""

import dataclasses
import html
import json
import os
import re

import pytest

from repro.experiments import (
    FIGURES,
    audit_document,
    audit_payload,
    build_audit_report,
    figure_from_dict,
    figure_to_dict,
    render_html,
    render_markdown,
    run_experiment,
    save_figure_json,
    write_report,
)
from repro.cli import build_parser, main


@pytest.fixture(scope="module")
def tiny_result():
    return run_experiment(FIGURES["8a"], cardinality=3_000, num_sites=8,
                          measured_queries=30, mpls=(1,), seed=7)


@pytest.fixture(scope="module")
def tiny_report(tiny_result):
    return build_audit_report(tiny_result, samples=60, sensitivity=False)


def _markdown(report):
    return render_markdown(audit_document(report))


def _html(report):
    return render_html(audit_document(report), "audit")


def _outline(markdown, page):
    """The ordered headings and table cells of both renderings."""
    md_headings = re.findall(r"^#+ (.*)$", markdown, flags=re.M)
    html_headings = [html.unescape(h)
                     for h in re.findall(r"<h\d>(.*?)</h\d>", page)]
    md_cells = [cell.strip() for line in markdown.splitlines()
                if line.startswith("| ")
                for cell in line.strip("|").split(" | ")]
    html_cells = [html.unescape(re.sub(r"<[^>]+>", "", cell))
                  for cell in re.findall(r"<t[hd][^>]*>(.*?)</t[hd]>",
                                         page)]
    return (md_headings, md_cells), (html_headings, html_cells)


def assert_same_outline(report):
    markdown_outline, html_outline = _outline(_markdown(report),
                                              _html(report))
    assert markdown_outline == html_outline


class TestReportContent:
    def test_markdown_sections(self, tiny_report):
        text = _markdown(tiny_report)
        assert text.startswith("# Placement audit: figure 8a")
        assert f"Audit digest: `{tiny_report.digest}`" in text
        for heading in ("Measured throughput", "Declustering skew",
                        "Per-query fan-out",
                        "MAGIC slice spread vs. M_i targets",
                        "Tuple heat maps"):
            assert heading in text, heading
        for strategy in ("range", "berd", "magic"):
            assert strategy in text
        # BERD's auxiliary index gets its own heat map.
        assert "Auxiliary index on `unique2`" in text

    def test_html_is_self_contained(self, tiny_report):
        html = _html(tiny_report)
        assert html.startswith("<!DOCTYPE html>")
        assert "<style>" in html
        assert "<script" not in html          # no external/runtime deps
        assert 'src="http' not in html
        assert tiny_report.digest in html

    def test_markdown_and_html_share_one_outline(self, tiny_report):
        assert_same_outline(tiny_report)
        # The HTML carries the notes the markdown explains sections with.
        page = _html(tiny_report)
        assert "Distinct processors per grid slice" in page
        assert "<h2>MAGIC slice spread vs. M_i targets</h2>" in page

    def test_write_report_artifacts(self, tiny_report, tmp_path):
        md_path, html_path = write_report(tiny_report, str(tmp_path))
        assert os.path.basename(md_path) == "audit_8a.md"
        assert os.path.basename(html_path) == "audit_8a.html"
        assert os.path.getsize(md_path) > 0
        assert os.path.getsize(html_path) > 0

    def test_sensitivity_section_optional(self, tiny_result, tiny_report):
        assert "Correlation sensitivity" not in _markdown(tiny_report)
        with_sensitivity = build_audit_report(tiny_result, samples=40,
                                              sensitivity=True)
        text = _markdown(with_sensitivity)
        assert "Correlation sensitivity" in text
        assert "| berd | high |" in text
        assert_same_outline(with_sensitivity)


class TestResultsV2Audit:
    """The audit digest rides along in the results-v2 JSON schema."""

    def test_audit_round_trips(self, tiny_result, tiny_report):
        payload = audit_payload(tiny_report)
        assert set(payload) == {"summary", "digest"}
        assert payload["digest"] == tiny_report.digest
        assert set(payload["summary"]) == {"range", "berd", "magic"}

        audited = dataclasses.replace(tiny_result, audit=payload)
        as_dict = figure_to_dict(audited)
        assert as_dict["audit"]["digest"] == tiny_report.digest
        # Survives an actual JSON encode/decode, not just dict identity.
        decoded = json.loads(json.dumps(as_dict))
        back = figure_from_dict(decoded)
        assert back.audit == payload

    def test_absent_audit_stays_absent(self, tiny_result):
        as_dict = figure_to_dict(tiny_result)
        assert "audit" not in as_dict
        assert figure_from_dict(as_dict).audit is None


class TestZeroPerturbation:
    def test_audit_flag_does_not_perturb_throughput(self, capsys, tmp_path):
        base = ["figure", "8a", "--cardinality", "3000",
                "--processors-count", "8", "--mpls", "1",
                "--measured", "30", "--seed", "7"]
        plain_dir = tmp_path / "plain"
        audited_dir = tmp_path / "audited"
        assert main(base + ["--save-json", str(plain_dir)]) == 0
        assert main(base + ["--save-json", str(audited_dir),
                            "--audit-out", str(tmp_path / "reports"),
                            "--audit-samples", "40"]) == 0

        plain = json.loads((plain_dir / "figure_8a.json").read_text())
        audited = json.loads((audited_dir / "figure_8a.json").read_text())
        # Bit-identical simulation: the audit is pure post-processing.
        assert plain["series"] == audited["series"]
        assert plain["spec_digests"] == audited["spec_digests"]
        assert "audit" not in plain
        assert set(audited["audit"]) == {"summary", "digest"}
        assert os.path.getsize(tmp_path / "reports" / "audit_8a.md") > 0
        assert os.path.getsize(tmp_path / "reports" / "audit_8a.html") > 0


class TestOfflineCli:
    def test_no_arguments_prints_help(self, capsys):
        assert main(["audit"]) == 2
        assert "repro audit" in capsys.readouterr().out

    def test_cached_run_audits_without_simulation(self, tiny_result,
                                                  tmp_path, monkeypatch,
                                                  capsys):
        path = str(tmp_path / "figure_8a.json")
        save_figure_json(tiny_result, path)

        class Boom:
            def __init__(self, *args, **kwargs):
                raise AssertionError("audit must not simulate")

        monkeypatch.setattr("repro.experiments.plan.GammaMachine", Boom)
        out_dir = tmp_path / "reports"
        code = main(["audit", path, "--out", str(out_dir),
                     "--samples", "50", "--no-sensitivity"])
        assert code == 0
        assert os.path.getsize(out_dir / "audit_8a.md") > 0
        assert os.path.getsize(out_dir / "audit_8a.html") > 0
        assert "audited" in capsys.readouterr().out

    def test_static_figure_audit(self, tmp_path, capsys):
        out_dir = tmp_path / "static"
        code = main(["audit", "--figure", "8a",
                     "--cardinality", "2000",
                     "--processors-count", "8",
                     "--samples", "40", "--no-sensitivity",
                     "--out", str(out_dir)])
        assert code == 0
        text = (out_dir / "audit_8a.md").read_text()
        assert "Placement audit: figure 8a" in text
        assert "2000 tuples on 8 processors" in text


class TestExplainTopK:
    def test_parser_default(self):
        args = build_parser().parse_args(["explain", "--figure", "8a"])
        assert args.top_k == 5

    def test_top_k_truncates_why_tables(self, capsys):
        code = main(["explain", "--figure", "8a", "--mpl", "2",
                     "--cardinality", "6000",
                     "--processors-count", "4",
                     "--measured", "30",
                     "--top-k", "1"])
        assert code == 0
        out = capsys.readouterr().out
        # 3 strategies x 2 query types, one resource row each.
        resource_rows = [line for line in out.splitlines()
                         if re.match(r"^\s+(node|sched)\.\S+\s+\d", line)]
        assert len(resource_rows) == 6
        # The elided remainder is summarized, not dropped silently.
        assert "(other)" in out
