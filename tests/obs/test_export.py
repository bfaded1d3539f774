"""Unit tests for the JSONL and Prometheus exporters."""

import re

import pytest

from repro.obs.export import _prom_name, _prom_value
from repro.obs import (
    LatencySketch,
    MetricsRegistry,
    load_jsonl,
    metric_records,
    render_prometheus,
    write_metrics_jsonl,
)


@pytest.fixture
def registry():
    registry = MetricsRegistry()
    registry.counter("node.0.disk.reads").inc(12)
    registry.gauge("sched.queries.in_flight").set(4)
    sketch = registry.sketch("disk.wait_seconds")
    sketch.record(0.005)
    sketch.record(0.05)
    timeline = registry.timeline("node.0.cpu.utilization")
    timeline.sample(1.0, 0.25)
    timeline.sample(2.0, 0.75)
    return registry


class TestJsonl:
    def test_metric_records_cover_all_instruments(self, registry):
        records = {r["name"]: r for r in metric_records(registry)}
        assert set(records) == {"node.0.disk.reads",
                                "sched.queries.in_flight",
                                "disk.wait_seconds",
                                "node.0.cpu.utilization"}
        assert records["node.0.disk.reads"]["value"] == 12
        assert records["disk.wait_seconds"]["type"] == "summary"
        assert records["disk.wait_seconds"]["count"] == 2
        # The record is the sketch's own lossless serialization.
        restored = LatencySketch.from_dict(records["disk.wait_seconds"])
        assert restored.max == pytest.approx(0.05)
        assert restored.quantile(0.5) == pytest.approx(0.005, rel=0.02)
        assert records["node.0.cpu.utilization"]["points"] == [[1.0, 0.25],
                                                               [2.0, 0.75]]

    def test_round_trip_through_file(self, registry, tmp_path):
        path = tmp_path / "metrics.jsonl"
        written = write_metrics_jsonl(registry, str(path))
        records = load_jsonl(str(path))
        assert written == len(records) == 4
        by_name = {r["name"]: r for r in records}
        assert by_name["sched.queries.in_flight"]["value"] == 4


class TestPrometheus:
    def test_rendering(self, registry):
        text = render_prometheus(registry)
        assert "# TYPE repro_node_0_disk_reads counter" in text
        assert "repro_node_0_disk_reads 12.0" in text
        assert "repro_sched_queries_in_flight 4.0" in text
        # Sketch: a summary with quantile lines plus sum and count.
        assert "# TYPE repro_disk_wait_seconds summary" in text
        quantiles = dict(re.findall(
            r'repro_disk_wait_seconds\{quantile="([0-9.]+)"\} (\S+)', text))
        assert list(quantiles) == ["0.5", "0.95", "0.99"]
        assert float(quantiles["0.5"]) == pytest.approx(0.005, rel=0.02)
        assert "repro_disk_wait_seconds_sum 0.055" in text
        assert "repro_disk_wait_seconds_count 2" in text
        # Timelines render as a gauge holding the last sample.
        assert "repro_node_0_cpu_utilization 0.75" in text

    def test_empty_registry(self):
        assert render_prometheus(MetricsRegistry()) == ""


class TestPrometheusEdgeCases:
    """The text exposition format's naming and value special cases."""

    def test_nan_value_renders_as_NaN(self):
        registry = MetricsRegistry()
        registry.gauge("throughput.ci_halfwidth").set(float("nan"))
        text = render_prometheus(registry)
        assert "repro_throughput_ci_halfwidth NaN" in text

    def test_infinities_render_with_sign(self):
        registry = MetricsRegistry()
        registry.gauge("ratio.up").set(float("inf"))
        registry.gauge("ratio.down").set(float("-inf"))
        text = render_prometheus(registry)
        assert "repro_ratio_up +Inf" in text
        assert "repro_ratio_down -Inf" in text
        # Never python's repr spellings, which scrapers reject.
        assert "inf\n" not in text

    def test_name_sanitization(self):
        assert _prom_name("node.0.disk-reads") == "node_0_disk_reads"
        assert _prom_name("node 0/disk%util") == "node_0_disk_util"
        assert _prom_name("9lives") == "_9lives"
        assert _prom_name("") == "_"
        assert _prom_name("already_ok:sum") == "already_ok:sum"

    def test_sanitized_names_are_legal_metric_names(self):
        legal = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
        for ugly in ("node.3.cpu", "7th-heaven", "a b c", "μs.per.op"):
            assert legal.match(_prom_name(ugly)), ugly

    def test_value_formatting(self):
        assert _prom_value(1.5) == "1.5"
        assert _prom_value(float("nan")) == "NaN"
        assert _prom_value(float("inf")) == "+Inf"
        assert _prom_value(float("-inf")) == "-Inf"

    def test_special_values_render_scrapeable_lines(self):
        registry = MetricsRegistry()
        registry.gauge("edge.nan").set(float("nan"))
        registry.gauge("edge.inf").set(float("inf"))
        for line in render_prometheus(registry).splitlines():
            if line.startswith("#"):
                continue
            name, value = line.rsplit(" ", 1)
            assert value in ("NaN", "+Inf", "-Inf") or float(value) == 0.0 \
                or value not in ("inf", "-inf", "nan")
