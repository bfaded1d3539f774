"""CLI coverage for ``repro profile`` (--json payload, --sort orders)."""

import json

import pytest

from repro.cli import build_parser, main
from repro.experiments.profile import profile_point

TINY = ["profile", "--cardinality", "2000", "--processors-count", "4",
        "--measured", "5", "--mpl", "2"]


class TestProfilePoint:
    def test_returns_stats_result_and_wall(self):
        stats, result, wall = profile_point(
            "8a", "range", mpl=2, cardinality=2_000, num_sites=4,
            measured=5, seed=13)
        assert result.throughput > 0
        assert wall > 0
        assert stats.stats  # cProfile saw the simulation


class TestCli:
    def test_default_sort_is_tottime(self):
        assert build_parser().parse_args(["profile"]).sort == "tottime"

    def test_header_reports_wall_seconds(self, capsys):
        assert main(TINY) == 0
        out = capsys.readouterr().out
        assert "wall " in out
        assert "top " in out

    @pytest.mark.parametrize("sort", ["tottime", "cumulative"])
    def test_json_payload_sorted_and_walled(self, tmp_path, sort, capsys):
        path = str(tmp_path / "profile.json")
        assert main(TINY + ["--sort", sort, "--top", "10",
                            "--json", path]) == 0
        with open(path) as handle:
            payload = json.load(handle)
        assert payload["sort"] == sort
        assert payload["wall_seconds"] > 0
        assert payload["throughput"] > 0
        assert len(payload["rows"]) == 10
        key = "cumtime" if sort == "cumulative" else sort
        values = [row[key] for row in payload["rows"]]
        assert values == sorted(values, reverse=True)
        # Per-function time can never exceed the whole run's wall time.
        assert values[0] <= payload["wall_seconds"] * 1.5

    def test_json_to_stdout(self, capsys):
        assert main(TINY + ["--json", "-"]) == 0
        out = capsys.readouterr().out
        payload = json.loads(out[out.index("{"):])
        assert "wall_seconds" in payload
