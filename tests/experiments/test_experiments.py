"""Tests for the experiment harness (configs, runner, report, CLI)."""

import pytest

from repro.experiments import (
    ATTR_A,
    ATTR_B,
    FIGURES,
    average_processors_table,
    build_strategy,
    check_expectation,
    figure_document,
    processor_document,
    rebalance_worst_case,
    render_markdown,
    run_experiment,
)
from repro.cli import build_parser, main
from repro.experiments.runner import FigureResult


class TestConfigs:
    def test_every_paper_figure_present(self):
        assert set(FIGURES) == {"8a", "8b", "9", "10a", "10b",
                                "11a", "11b", "12a", "12b"}

    def test_shapes_match_paper(self):
        assert FIGURES["8a"].magic_shape == {ATTR_A: 62, ATTR_B: 61}
        assert FIGURES["10a"].magic_shape == {ATTR_A: 23, ATTR_B: 193}
        assert FIGURES["11a"].magic_shape == {ATTR_A: 193, ATTR_B: 23}
        assert FIGURES["12a"].magic_shape == {ATTR_A: 101, ATTR_B: 91}

    def test_correlations(self):
        assert FIGURES["8a"].correlation == "low"
        assert FIGURES["8b"].correlation == "high"

    def test_figure9_compares_berd_and_magic_only(self):
        assert FIGURES["9"].strategies == ("berd", "magic")
        assert FIGURES["9"].mix_name == "low-low-20"

    def test_mpls_cover_paper_axis(self):
        for config in FIGURES.values():
            assert config.mpls[0] == 1
            assert config.mpls[-1] == 64

    def test_describe(self):
        assert "8a" in FIGURES["8a"].describe()


class TestStrategyFactory:
    def test_all_names_buildable(self):
        config = FIGURES["8a"]
        for name in ("range", "hash", "berd", "magic", "magic-derived"):
            strategy = build_strategy(name, config, cardinality=10_000)
            assert strategy is not None

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            build_strategy("zigzag", FIGURES["8a"], 10_000)


class TestRunnerSmall:
    @pytest.fixture(scope="class")
    def small_result(self):
        return run_experiment(
            FIGURES["8a"], cardinality=10_000, num_sites=8,
            measured_queries=60, mpls=(1, 8), seed=5)

    def test_series_complete(self, small_result):
        assert set(small_result.series) == {"range", "berd", "magic"}
        for runs in small_result.series.values():
            assert [r.multiprogramming_level for r in runs] == [1, 8]
            assert all(r.throughput > 0 for r in runs)

    def test_throughput_lookup(self, small_result):
        value = small_result.throughput_at("magic", 8)
        assert value == small_result.series["magic"][1].throughput
        with pytest.raises(KeyError):
            small_result.throughput_at("magic", 99)

    def test_final_throughputs(self, small_result):
        finals = small_result.final_throughputs()
        assert set(finals) == {"range", "berd", "magic"}

    def test_format_figure_renders(self, small_result):
        text = render_markdown(figure_document(small_result))
        assert "Figure 8a" in text
        assert "MPL" in text
        assert "Outcome (" in text

    def test_check_expectation_returns_verdict(self, small_result):
        ok, detail = check_expectation(small_result)
        assert isinstance(ok, bool)
        assert "magic" in detail


class TestProcessorTable:
    def test_low_low_counts(self):
        table = average_processors_table(
            FIGURES["8a"], cardinality=20_000, num_sites=8, samples=100,
            seed=5)
        # range broadcasts QB to all 8 sites, localizes QA to 1.
        assert table["range"]["QB"] == 8.0
        assert table["range"]["QA"] == 1.0
        # MAGIC localizes both below the machine size.
        assert table["magic"]["average"] < 8.0
        text = render_markdown(processor_document(FIGURES["8a"], table))
        assert "range" in text and "magic" in text
        assert "| range | 1.00 | 8.00 |" in text


class TestRebalanceWorstCase:
    def test_paper_section4_shape(self):
        stats = rebalance_worst_case(num_sites=8, cardinality=8_000, grid=8)
        assert stats["empty_before"] >= stats["empty_after"]
        assert stats["spread_after"] <= stats["spread_before"]
        assert stats["swaps"] >= 0


class TestCli:
    def test_parser_accepts_figures(self):
        args = build_parser().parse_args(["figure", "8a", "--quick"])
        assert args.figure == "8a"
        assert args.quick

    def test_no_action_prints_help(self, capsys):
        assert main([]) == 2

    def test_rebalance_action(self, capsys):
        assert main(["rebalance"]) == 0
        out = capsys.readouterr().out
        assert "Section 4" in out

    def test_sweep_requires_values(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["sweep", "processors"])
        assert exit_info.value.code == 2

    def test_sweep_action(self, capsys):
        code = main(["sweep", "cpu_mips", "3000000",
                     "--quick", "--cardinality", "10000",
                     "--processors-count", "4"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Sweep over cpu_mips" in out

    def test_report_action(self, capsys, tmp_path):
        from repro.experiments import run_experiment, save_figure_json
        result = run_experiment(FIGURES["8a"], cardinality=10_000,
                                num_sites=4, measured_queries=40,
                                mpls=(1,), seed=5)
        save_figure_json(result, str(tmp_path / "figure_8a.json"))
        assert main(["report", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "Fig 8a" in out

    def test_save_json_flag(self, capsys, tmp_path):
        import os
        code = main(["figure", "8a", "--quick",
                     "--cardinality", "10000",
                     "--processors-count", "4",
                     "--save-json", str(tmp_path)])
        assert code == 0
        assert os.path.exists(tmp_path / "figure_8a.json")


class TestCliTelemetry:
    def test_trace_writes_artifacts(self, capsys, tmp_path):
        import os
        code = main(["figure", "8a", "--trace",
                     "--metrics-out", str(tmp_path),
                     "--cardinality", "10000",
                     "--processors-count", "4",
                     "--mpls", "2", "--measured", "30"])
        assert code == 0
        stem = tmp_path / "8a_range_mpl2"
        for suffix in (".spans.jsonl", ".metrics.jsonl", ".metrics.prom",
                       ".summary.txt"):
            assert os.path.exists(str(stem) + suffix)
        # The span dump replays as well-nested trees.
        from repro.obs import load_jsonl, validate_span_forest
        records = load_jsonl(str(stem) + ".spans.jsonl")
        assert records
        assert validate_span_forest(records) == []
        summary = (tmp_path / "8a_range_mpl2.summary.txt").read_text()
        assert "query type" in summary
        prom = (tmp_path / "8a_range_mpl2.metrics.prom").read_text()
        assert "# TYPE repro_" in prom

    def test_untraced_run_writes_nothing(self, capsys, tmp_path):
        import os
        out_dir = tmp_path / "never"
        code = main(["figure", "8a",
                     "--cardinality", "10000",
                     "--processors-count", "4",
                     "--mpls", "2", "--measured", "30"])
        assert code == 0
        assert not os.path.exists(out_dir)

    def test_explain_prints_breakdown(self, capsys):
        code = main(["explain", "--figure", "8a", "--mpl", "4",
                     "--cardinality", "10000",
                     "--processors-count", "4",
                     "--measured", "30"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Figure 8a at MPL 4" in out
        assert "query type QA" in out
        assert "bottleneck" in out
        assert "saturated resource" in out
        assert "scheduler CPU load by strategy" in out
