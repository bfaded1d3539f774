"""Unit tests for the measurement instruments."""

import pytest

from repro.des import Environment, Server, TallyMonitor, TimeWeightedMonitor


class TestTallyMonitor:
    def test_empty_stats_are_zero(self):
        m = TallyMonitor("empty")
        assert m.count == 0
        assert m.mean == 0.0

    def test_basic_stats(self):
        m = TallyMonitor()
        for v in [2.0, 4.0, 6.0]:
            m.record(v)
        assert m.count == 3
        assert m.mean == pytest.approx(4.0)
        assert m.total == pytest.approx(12.0)

    def test_reset_clears(self):
        m = TallyMonitor("rt")
        m.record(10)
        m.reset()
        assert m.count == 0
        assert m.name == "rt"

    def test_single_observation(self):
        m = TallyMonitor()
        m.record(5.0)
        assert m.mean == 5.0
        assert m.total == 5.0

    def test_negative_values_supported(self):
        m = TallyMonitor()
        for v in (-2.0, -4.0):
            m.record(v)
        assert m.mean == -3.0
        assert m.total == -6.0

    def test_stats_usable_after_reset(self):
        m = TallyMonitor()
        m.record(1.0)
        m.reset()
        m.record(9.0)
        assert m.count == 1
        assert m.mean == 9.0


class TestTimeWeightedMonitor:
    def test_constant_level(self):
        m = TimeWeightedMonitor(initial=3.0, now=0.0)
        assert m.time_average(10.0) == pytest.approx(3.0)

    def test_step_function(self):
        m = TimeWeightedMonitor(initial=0.0, now=0.0)
        m.observe(5.0, 2.0)   # level 0 for [0,5), 2 after
        assert m.time_average(10.0) == pytest.approx(1.0)

    def test_reset_restarts_window(self):
        m = TimeWeightedMonitor(initial=4.0, now=0.0)
        m.observe(10.0, 0.0)
        m.reset(10.0)
        assert m.time_average(20.0) == pytest.approx(0.0)

    def test_maximum_tracked(self):
        m = TimeWeightedMonitor(initial=1.0, now=0.0)
        m.observe(1.0, 5.0)
        m.observe(2.0, 2.0)
        assert m.maximum == 5.0

    def test_zero_span_returns_current(self):
        m = TimeWeightedMonitor(initial=7.0, now=0.0)
        assert m.time_average(0.0) == 7.0

    def test_simultaneous_observations_are_fine(self):
        m = TimeWeightedMonitor(initial=0.0, now=0.0)
        m.observe(5.0, 2.0)
        m.observe(5.0, 3.0)  # zero-width step contributes zero area
        assert m.time_average(10.0) == pytest.approx(1.5)

    def test_backwards_observation_rejected(self):
        m = TimeWeightedMonitor("queue", initial=0.0, now=0.0)
        m.observe(5.0, 2.0)
        with pytest.raises(ValueError, match="precedes"):
            m.observe(4.0, 3.0)
        # The failed observation must not have corrupted the average.
        assert m.time_average(10.0) == pytest.approx(1.0)

    def test_average_after_reset_mid_level(self):
        # Reset keeps the current level: a queue of 2 at reset time
        # averages 2 afterwards, not 0.
        m = TimeWeightedMonitor(initial=0.0, now=0.0)
        m.observe(5.0, 2.0)
        m.reset(10.0)
        assert m.current == 2.0
        assert m.time_average(20.0) == pytest.approx(2.0)
        assert m.maximum == 2.0  # pre-reset peak forgotten


class TestUtilizationMonitor:
    def test_measures_busy_fraction(self):
        env = Environment()
        res = Server(env)

        def job(env):
            yield res.hold(4)

        env.process(job(env))
        env.run()
        env.run(until=10)
        assert res.utilization() == pytest.approx(0.4)
