"""Tests for ASCII plotting and results serialization."""

import json
import os

import pytest

from repro.experiments import (
    ascii_plot,
    figure_from_dict,
    figure_to_csv,
    figure_to_dict,
    load_figure_json,
    plot_figure,
    save_figure_json,
)


@pytest.fixture(scope="module")
def small_result(small_figure_result):
    # Shared session-scoped run from tests/conftest.py.
    return small_figure_result


class TestAsciiPlot:
    def test_basic_render(self):
        series = {"magic": [(1, 10.0), (8, 50.0)],
                  "range": [(1, 8.0), (8, 20.0)]}
        text = ascii_plot(series, width=40, height=10)
        assert "M" in text
        assert "r" in text
        assert "legend" in text
        assert "MPL" in text

    def test_dimensions(self):
        series = {"magic": [(1, 10.0), (64, 100.0)]}
        text = ascii_plot(series, width=30, height=8)
        body = [line for line in text.splitlines() if "|" in line]
        assert len(body) == 8
        assert all(len(line.split("|", 1)[1]) == 30 for line in body)

    def test_overlapping_points_starred(self):
        series = {"a": [(1, 10.0)], "b": [(1, 10.0)]}
        text = ascii_plot(series, width=20, height=6,
                          marks={"a": "a", "b": "b"})
        assert "*" in text

    def test_y_axis_anchored_at_zero(self):
        text = ascii_plot({"a": [(1, 50.0), (2, 100.0)]},
                          width=20, height=6, marks={"a": "a"})
        assert " 0 |" in text or "0 |" in text

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            ascii_plot({})
        with pytest.raises(ValueError):
            ascii_plot({"a": []})

    def test_plot_figure_includes_title(self, small_result):
        text = plot_figure(small_result)
        assert "Figure 8a" in text
        assert "legend" in text


class TestResultsIo:
    def test_dict_roundtrip(self, small_result):
        payload = figure_to_dict(small_result)
        # Must survive JSON encoding.
        payload = json.loads(json.dumps(payload))
        restored = figure_from_dict(payload)
        assert restored.config.figure == "8a"
        assert set(restored.series) == set(small_result.series)
        for name in small_result.series:
            original = small_result.series[name]
            loaded = restored.series[name]
            assert [r.throughput for r in loaded] == \
                [r.throughput for r in original]
            assert [r.response_time_by_type for r in loaded] == \
                [r.response_time_by_type for r in original]

    def test_json_file_roundtrip(self, small_result, tmp_path):
        path = tmp_path / "fig8a.json"
        save_figure_json(small_result, str(path))
        restored = load_figure_json(str(path))
        assert restored.cardinality == small_result.cardinality
        assert restored.final_throughputs() == \
            small_result.final_throughputs()

    def test_version_checked(self, small_result):
        payload = figure_to_dict(small_result)
        payload["format_version"] = 99
        with pytest.raises(ValueError, match="format"):
            figure_from_dict(payload)

    def test_unknown_figure_rejected(self, small_result):
        payload = figure_to_dict(small_result)
        payload["figure"] = "17z"
        payload["format_version"] = 1
        with pytest.raises(ValueError, match="unknown figure"):
            figure_from_dict(payload)

    def test_committed_figure_with_legacy_ci_key_loads(self):
        # The committed files predate the dropped throughput_ci field.
        path = os.path.join(os.path.dirname(__file__), os.pardir,
                            os.pardir, "results", "figure_8a.json")
        with open(path) as handle:
            assert "throughput_ci" in handle.read()
        result = load_figure_json(path)
        assert result.config.figure == "8a"
        assert set(result.series) == {"range", "berd", "magic"}

    def test_csv_rows(self, small_result):
        text = figure_to_csv(small_result)
        lines = text.strip().splitlines()
        # header + 3 strategies x 2 MPLs
        assert len(lines) == 1 + 3 * 2
        assert lines[0].startswith("figure,strategy,mpl")
        assert any(line.startswith("8a,magic,8,") for line in lines)


class TestSeedEcho:
    def test_seed_round_trips_through_json(self, small_result, tmp_path):
        assert small_result.seed == 5
        payload = figure_to_dict(small_result)
        assert payload["seed"] == 5
        path = tmp_path / "8a.json"
        save_figure_json(small_result, str(path))
        # The artifact itself names the seed it was generated with.
        assert json.loads(path.read_text())["seed"] == 5
        restored = load_figure_json(str(path))
        assert restored.seed == 5

    def test_legacy_payload_without_seed_defaults(self, small_result):
        payload = figure_to_dict(small_result)
        del payload["seed"]
        restored = figure_from_dict(payload)
        assert restored.seed == 13
