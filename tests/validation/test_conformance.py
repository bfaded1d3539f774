"""Tier-2 paper-conformance suite (``pytest -m conformance``).

These tests simulate whole tiny figures and run the differential
oracles, so they take tens of seconds; tier-1 excludes them via the
default ``-m "not conformance"`` addopts.  The configuration mirrors
the CI ``conformance-smoke`` job and the ``repro validate`` defaults:
8000 tuples on 16 processors is the smallest machine on which the
paper's figure-8a ordering emerges.
"""

import pytest

from repro.experiments.config import FIGURES
from repro.experiments.results_io import load_figure_json, save_figure_json
from repro.experiments.runner import run_experiment
from repro.validation import (
    cost_model_oracle,
    degenerate_single_site_oracle,
    evaluate_trends,
    one_dimensional_magic_oracle,
    scaling_oracle,
)
from repro.cli import main

pytestmark = pytest.mark.conformance


@pytest.fixture(scope="module")
def tiny_8a():
    """Figure 8a at the smallest paper-conforming scale, fully checked."""
    return run_experiment(FIGURES["8a"], cardinality=8000, num_sites=16,
                          measured_queries=60, mpls=(1, 8, 24), seed=13,
                          check_invariants=True)


class TestFigureConformance:
    def test_trends_match_paper(self, tiny_8a):
        group = evaluate_trends(tiny_8a)
        assert group.passed, [str(c.name) for c in group.failures]

    def test_cost_model_agrees_at_mpl1(self, tiny_8a):
        group = cost_model_oracle(tiny_8a)
        assert group.passed, [c.detail for c in group.failures]
        # All six (strategy, query type) pairs were compared.
        assert len(group.checks) == 6

    def test_offline_revalidation_round_trip(self, tiny_8a, tmp_path):
        """A saved artifact validates identically long after the run."""
        path = tmp_path / "fig8a.json"
        save_figure_json(tiny_8a, str(path))
        reloaded = load_figure_json(str(path))
        assert evaluate_trends(reloaded).passed
        assert cost_model_oracle(reloaded).passed

    def test_cli_end_to_end_offline(self, tiny_8a, tmp_path, capsys):
        path = tmp_path / "fig8a.json"
        save_figure_json(tiny_8a, str(path))
        report = tmp_path / "report.md"
        assert main(["validate", str(path), "--out", str(report)]) == 0
        assert "**PASS**" in report.read_text()
        capsys.readouterr()


class TestDifferentialOracles:
    def test_single_processor_degeneracy(self):
        group = degenerate_single_site_oracle()
        assert group.passed, [c.detail for c in group.failures]

    def test_one_dimensional_magic_is_range(self):
        group = one_dimensional_magic_oracle()
        assert group.passed, [c.detail for c in group.failures]

    def test_cardinality_scaling(self):
        group = scaling_oracle()
        assert group.passed, [c.detail for c in group.failures]
