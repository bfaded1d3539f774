"""Unit tests for the metrics registry instruments."""

import pytest

from repro.obs import MetricsRegistry, NULL_REGISTRY, NullRegistry


@pytest.fixture
def registry():
    return MetricsRegistry()


class TestCounter:
    def test_increments(self, registry):
        counter = registry.counter("node.0.disk.reads")
        counter.inc()
        counter.inc(3)
        assert counter.value == 4

    def test_rejects_negative(self, registry):
        counter = registry.counter("c")
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_get_or_create_returns_same_instrument(self, registry):
        a = registry.counter("x")
        b = registry.counter("x")
        assert a is b

    def test_name_collision_across_types(self, registry):
        registry.counter("x")
        with pytest.raises(TypeError):
            registry.gauge("x")


class TestGauge:
    def test_set_holds_last_value(self, registry):
        gauge = registry.gauge("sched.queries.in_flight")
        gauge.set(7)
        gauge.set(3)
        assert gauge.value == 3


class TestSketch:
    def test_record_counts_and_sums(self, registry):
        sketch = registry.sketch("disk.wait_seconds")
        sketch.record(0.001)
        sketch.record(0.5)
        assert sketch.count == 2
        assert sketch.total == pytest.approx(0.501)
        assert sketch.mean == pytest.approx(0.2505)

    def test_quantiles_within_relative_accuracy(self, registry):
        sketch = registry.sketch("h")
        for value in (0.0, 0.05, 0.5, 5.0):
            sketch.record(value)
        # A zero wait lands in the zero bucket; the rest keep their
        # magnitude to within the sketch's relative accuracy.
        assert sketch.quantile(0.0) == 0.0
        assert sketch.quantile(0.5) == pytest.approx(0.05, rel=0.02)
        assert sketch.quantile(1.0) == pytest.approx(5.0, rel=0.02)
        assert sketch.min == 0.0
        assert sketch.max == pytest.approx(5.0)


class TestTimeline:
    def test_samples_kept_in_order(self, registry):
        timeline = registry.timeline("node.0.cpu.utilization")
        timeline.sample(0.0, 0.1)
        timeline.sample(0.5, 0.9)
        assert timeline.points == [(0.0, 0.1), (0.5, 0.9)]
        assert len(timeline) == 2
        assert timeline.last == (0.5, 0.9)

    def test_bounded_with_drop_accounting(self, registry):
        timeline = registry.timeline("t", capacity=2)
        for i in range(5):
            timeline.sample(float(i), 0.0)
        assert len(timeline) == 2
        assert timeline.dropped == 3
        assert [t for t, _ in timeline.points] == [3.0, 4.0]


class TestRegistry:
    def test_iteration_sorted_by_name(self, registry):
        registry.counter("b")
        registry.counter("a")
        assert [metric.name for metric in registry] == ["a", "b"]
        assert registry.names() == ["a", "b"]

    def test_reset_clears_instruments_but_keeps_them(self, registry):
        counter = registry.counter("c")
        counter.inc(5)
        timeline = registry.timeline("t")
        timeline.sample(0.0, 1.0)
        sketch = registry.sketch("s")
        sketch.record(0.25)
        registry.reset()
        assert counter.value == 0
        assert len(timeline) == 0
        assert sketch.count == 0 and not sketch.buckets
        assert registry.get("s") is sketch
        assert registry.get("c") is counter

    def test_get_unknown_returns_none(self, registry):
        assert registry.get("nope") is None


class TestNullRegistry:
    def test_disabled_flag(self):
        assert MetricsRegistry.enabled
        assert not NullRegistry.enabled

    def test_instruments_are_shared_noops(self):
        a = NULL_REGISTRY.counter("anything")
        b = NULL_REGISTRY.counter("else")
        assert a is b
        a.inc(10)
        assert a.value == 0

    def test_all_instrument_kinds_absorb_calls(self):
        NULL_REGISTRY.gauge("g").set(1)
        NULL_REGISTRY.sketch("h").record(1.0)
        NULL_REGISTRY.timeline("t").sample(0.0, 1.0)
        assert NULL_REGISTRY.gauge("g").value == 0.0
        assert NULL_REGISTRY.sketch("h").count == 0
        assert len(NULL_REGISTRY.timeline("t")) == 0
        assert list(NULL_REGISTRY) == []
