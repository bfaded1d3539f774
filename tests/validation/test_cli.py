"""``repro validate``: argument handling and the offline path.

Live-mode coverage (which simulates a whole tiny figure) lives in the
tier-2 conformance suite (``pytest -m conformance``).
"""

import pytest

from repro.experiments.config import FIGURES
from repro.experiments.results_io import save_figure_json
from repro.experiments.runner import FigureResult
from repro.gamma import RunResult
from repro.cli import build_parser, main


def _run(mpl, throughput):
    return RunResult(multiprogramming_level=mpl, throughput=throughput,
                     completed=100, elapsed_seconds=100.0 / throughput,
                     response_time_mean=mpl / throughput)


def _saved_figure(tmp_path, series, num_sites=4):
    result = FigureResult(config=FIGURES["8a"], cardinality=5000,
                          num_sites=num_sites, measured_queries=100,
                          series={s: [_run(m, t) for m, t in pts]
                                  for s, pts in series.items()})
    path = tmp_path / "fig8a.json"
    save_figure_json(result, str(path))
    return str(path)


CONFORMING = {
    "magic": [(1, 30.0), (8, 200.0), (24, 470.0)],
    "berd": [(1, 28.0), (8, 170.0), (24, 320.0)],
    "range": [(1, 29.0), (8, 150.0), (24, 230.0)],
}


class TestParser:
    def test_defaults(self):
        args = build_parser().parse_args(["validate", "--figure", "8a"])
        assert args.figure == "8a"
        assert args.cardinality == 8000
        assert args.num_sites == 16
        assert args.jobs == 1
        assert not args.oracles

    def test_unknown_figure_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["validate", "--figure", "99z"])

    def test_no_inputs_is_usage_error(self, capsys):
        assert main(["validate"]) == 2
        assert "usage" in capsys.readouterr().out.lower()


class TestOfflineValidation:
    def test_conforming_results_pass(self, tmp_path, capsys):
        path = _saved_figure(tmp_path, CONFORMING)
        report_path = tmp_path / "report.md"
        code = main(["validate", path, "--no-cost-model",
                     "--out", str(report_path)])
        assert code == 0
        report = report_path.read_text()
        assert report.startswith("# Conformance report")
        assert "**PASS**" in report
        assert f"offline {path}" in report
        # The same report was printed to stdout.
        assert "**PASS**" in capsys.readouterr().out

    def test_nonconforming_results_fail(self, tmp_path, capsys):
        # Range partitioning wins: the paper's figure-8a claim is broken.
        series = dict(CONFORMING,
                      range=[(1, 29.0), (8, 300.0), (24, 600.0)])
        code = main(["validate", _saved_figure(tmp_path, series),
                     "--no-cost-model"])
        assert code == 1
        assert "**FAIL**" in capsys.readouterr().out

    def test_cost_model_requires_mpl1(self, tmp_path, capsys):
        # Without an MPL=1 point the oracle reports, and fails, the
        # missing series rather than passing vacuously.
        series = {s: pts[1:] for s, pts in CONFORMING.items()}
        code = main(["validate", _saved_figure(tmp_path, series)])
        assert code == 1
        assert "mpl1-series" in capsys.readouterr().out
