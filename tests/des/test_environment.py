"""Unit tests for the simulation environment and its run loops."""

import pytest

from repro.des import AgendaEmptyError, Environment, SimulationError


@pytest.fixture
def env():
    return Environment()


class TestClock:
    def test_initial_time_default(self):
        assert Environment().now == 0.0

    def test_initial_time_custom(self):
        assert Environment(initial_time=10.0).now == 10.0

    def test_run_until_time_advances_clock(self, env):
        env.run(until=50)
        assert env.now == 50

    def test_run_until_past_raises(self, env):
        env.run(until=10)
        with pytest.raises(ValueError):
            env.run(until=5)


class TestRunLoops:
    def test_run_until_event_returns_value(self, env):
        def proc(env):
            yield env.timeout(2)
            return "result"

        p = env.process(proc(env))
        assert env.run(until=p) == "result"

    def test_run_until_event_stops_promptly(self, env):
        log = []

        def short(env):
            yield env.timeout(1)
            log.append("short")

        def long(env):
            yield env.timeout(100)
            log.append("long")

        s = env.process(short(env))
        env.process(long(env))
        env.run(until=s)
        assert log == ["short"]
        assert env.now == 1

    def test_run_until_unreachable_event_raises(self, env):
        never = env.event()
        with pytest.raises(AgendaEmptyError, match="ran dry"):
            env.run(until=never)

    def test_agenda_dry_error_is_simulation_error(self, env):
        # Kernel errors share one hierarchy: callers can catch
        # SimulationError for any kernel-originated failure.
        with pytest.raises(SimulationError):
            env.run(until=env.event())

    def test_run_until_time_leaves_future_events(self, env):
        fired = []

        def proc(env):
            yield env.timeout(10)
            fired.append(env.now)

        env.process(proc(env))
        env.run(until=5)
        assert fired == []
        env.run()
        assert fired == [10.0]

    def test_peek_empty_agenda(self, env):
        assert env.peek() == float("inf")


class TestDeterminism:
    def test_interleaving_is_reproducible(self):
        def run_once():
            env = Environment()
            trace = []

            def worker(env, name, delays):
                for d in delays:
                    yield env.timeout(d)
                    trace.append((env.now, name))

            env.process(worker(env, "a", [1, 1, 1]))
            env.process(worker(env, "b", [1.5, 0.5, 1]))
            env.process(worker(env, "c", [2, 0, 1]))
            env.run()
            return trace

        assert run_once() == run_once()
