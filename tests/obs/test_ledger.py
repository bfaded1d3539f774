"""Perf-regression ledger tests: append, read, diff, render, CLI."""

import json

import pytest

from repro.cli import main
from repro.obs.ledger import (
    append_metrics,
    git_sha,
    host_fingerprint,
    latest_diffs,
    read_ledger,
    regression_direction,
    regressions,
    trend_table,
)


@pytest.fixture
def ledger(tmp_path):
    return str(tmp_path / "perf_ledger.jsonl")


class TestAppend:
    def test_rows_carry_full_schema(self, ledger):
        rows = append_metrics({"speedup": 1.5}, "des_throughput",
                              path=ledger)
        assert len(rows) == 1
        row = rows[0]
        assert row["metric"] == "speedup"
        assert row["value"] == 1.5
        assert row["benchmark"] == "des_throughput"
        assert row["ts"].endswith("Z")
        assert len(row["host"]) == 12
        assert row["git_sha"]  # short sha here, "unknown" outside git
        with open(ledger) as handle:
            assert json.loads(handle.readline()) == row

    def test_appends_accumulate(self, ledger):
        append_metrics({"speedup": 1.5}, "bench", path=ledger)
        append_metrics({"speedup": 1.6}, "bench", path=ledger)
        rows, skipped = read_ledger(ledger)
        assert [r["value"] for r in rows] == [1.5, 1.6]
        assert skipped == 0

    def test_non_finite_and_non_numeric_skipped(self, ledger):
        rows = append_metrics(
            {"ok": 2.0, "nan": float("nan"), "inf": float("inf"),
             "text": "fast"}, "bench", path=ledger)
        assert [r["metric"] for r in rows] == ["ok"]

    def test_creates_parent_directory(self, tmp_path):
        path = str(tmp_path / "results" / "ledger.jsonl")
        append_metrics({"x": 1.0}, "bench", path=path)
        assert read_ledger(path)[0]

    def test_host_fingerprint_is_stable(self):
        assert host_fingerprint() == host_fingerprint()

    def test_git_sha_unknown_outside_checkout(self, tmp_path):
        assert git_sha(cwd=str(tmp_path)) == "unknown"


class TestRead:
    def test_missing_file_reads_empty(self, ledger):
        assert read_ledger(ledger) == ([], 0)

    def test_corrupt_lines_skipped_softly(self, ledger):
        append_metrics({"x": 1.0}, "bench", path=ledger)
        with open(ledger, "a") as handle:
            handle.write("{ truncated\n")
            handle.write('{"not": "a row"}\n')
        rows, skipped = read_ledger(ledger)
        assert len(rows) == 1
        assert skipped == 2


class TestDiffAndTrend:
    def test_latest_vs_previous(self, ledger):
        append_metrics({"speedup": 1.5}, "bench", path=ledger)
        append_metrics({"speedup": 1.8}, "bench", path=ledger)
        rows, _ = read_ledger(ledger)
        diffs = latest_diffs(rows)
        entry = diffs["speedup"]
        assert entry["latest"]["value"] == 1.8
        assert entry["previous"]["value"] == 1.5
        assert entry["delta"] == pytest.approx(0.3)
        assert entry["pct"] == pytest.approx(20.0)
        assert entry["samples"] == 2

    def test_single_row_has_no_previous(self, ledger):
        append_metrics({"speedup": 1.5}, "bench", path=ledger)
        rows, _ = read_ledger(ledger)
        entry = latest_diffs(rows)["speedup"]
        assert entry["previous"] is None
        assert entry["delta"] is None

    def test_trend_table_renders_markdown(self, ledger):
        append_metrics({"speedup": 1.5, "eps": 200_000}, "bench",
                       path=ledger)
        append_metrics({"speedup": 1.8}, "bench", path=ledger)
        rows, _ = read_ledger(ledger)
        table = trend_table(rows)
        assert "### speedup" in table
        assert "### eps" in table
        assert "| when (UTC) | git | host | benchmark | value |" in table
        assert "2 recorded" in table

    def test_metric_filter_and_empty_ledger(self, ledger):
        assert trend_table([]) == "(perf ledger is empty)"
        append_metrics({"a": 1.0, "b": 2.0}, "bench", path=ledger)
        rows, _ = read_ledger(ledger)
        table = trend_table(rows, metric="a")
        assert "### a" in table
        assert "### b" not in table


class TestPerfCli:
    def test_append_and_render(self, ledger, capsys):
        assert main(["perf", "--ledger", ledger,
                     "--append", "speedup=1.5"]) == 0
        assert main(["perf", "--ledger", ledger,
                     "--append", "speedup=1.8"]) == 0
        out = capsys.readouterr().out
        assert "### speedup" in out
        rows, _ = read_ledger(ledger)
        assert len(rows) == 2
        assert all(r["benchmark"] == "manual" for r in rows)

    def test_out_file(self, ledger, tmp_path):
        main(["perf", "--ledger", ledger, "--append", "x=1"])
        out = str(tmp_path / "trend.md")
        assert main(["perf", "--ledger", ledger, "--out", out]) == 0
        with open(out) as handle:
            assert "### x" in handle.read()

    def test_empty_ledger_still_exits_zero(self, ledger, capsys):
        assert main(["perf", "--ledger", ledger]) == 0
        assert "empty" in capsys.readouterr().out

    def test_bad_append_spec_rejected(self, ledger, capsys):
        with pytest.raises(SystemExit):
            main(["perf", "--ledger", ledger, "--append", "not-a-pair"])


class TestRegressionDirection:
    def test_seconds_metrics_regress_upward(self):
        assert regression_direction(
            "scaleup_placement_build_seconds_p1024") == 1
        assert regression_direction("smoke_wall_seconds") == 1

    def test_rate_metrics_regress_downward(self):
        assert regression_direction("scaleup_events_per_sec_p1024") == -1
        assert regression_direction("des_kernel_speedup") == -1

    def test_slower_build_flagged(self, ledger):
        append_metrics({"build_seconds": 10.0}, "bench", path=ledger)
        append_metrics({"build_seconds": 12.0}, "bench", path=ledger)
        rows, _ = read_ledger(ledger)
        assert regressions(latest_diffs(rows)) == ["build_seconds"]

    def test_faster_build_not_flagged(self, ledger):
        append_metrics({"build_seconds": 12.0}, "bench", path=ledger)
        append_metrics({"build_seconds": 6.0}, "bench", path=ledger)
        rows, _ = read_ledger(ledger)
        assert regressions(latest_diffs(rows)) == []

    def test_throughput_drop_flagged_rise_not(self, ledger):
        append_metrics({"eps": 100.0, "speedup": 1.0}, "bench", path=ledger)
        append_metrics({"eps": 80.0, "speedup": 2.0}, "bench", path=ledger)
        rows, _ = read_ledger(ledger)
        assert regressions(latest_diffs(rows)) == ["eps"]

    def test_cli_note_is_direction_aware(self, ledger, capsys):
        main(["perf", "--ledger", ledger, "--append", "wall_seconds=10"])
        capsys.readouterr()
        main(["perf", "--ledger", ledger, "--append", "wall_seconds=20"])
        err = capsys.readouterr().err
        assert "regression" in err
        assert "wall_seconds" in err


class TestStrictMode:
    def test_strict_exits_one_on_regression(self, ledger, capsys):
        main(["perf", "--ledger", ledger, "--append", "wall_seconds=10"])
        capsys.readouterr()
        assert main(["perf", "--ledger", ledger, "--strict",
                     "--append", "wall_seconds=20"]) == 1
        assert "regression" in capsys.readouterr().err

    def test_without_strict_regression_still_exits_zero(self, ledger,
                                                        capsys):
        main(["perf", "--ledger", ledger, "--append", "wall_seconds=10"])
        assert main(["perf", "--ledger", ledger,
                     "--append", "wall_seconds=20"]) == 0
        assert "regression" in capsys.readouterr().err

    def test_strict_without_regression_exits_zero(self, ledger, capsys):
        main(["perf", "--ledger", ledger, "--append", "wall_seconds=20"])
        assert main(["perf", "--ledger", ledger, "--strict",
                     "--append", "wall_seconds=10"]) == 0
        assert "regression" not in capsys.readouterr().err

    def test_strict_on_empty_ledger_exits_zero(self, ledger):
        assert main(["perf", "--ledger", ledger, "--strict"]) == 0
