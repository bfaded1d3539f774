"""Unit tests for the DES event primitives."""

import pytest

from repro.des import AllOf, Environment, SimulationError


@pytest.fixture
def env():
    return Environment()


class TestEvent:
    def test_starts_untriggered(self, env):
        ev = env.event()
        assert not ev.triggered
        assert not ev.processed

    def test_succeed_sets_value(self, env):
        ev = env.event().succeed(42)
        assert ev.triggered
        env.run()
        assert ev.processed
        assert ev.value == 42

    def test_succeed_with_none_counts_as_triggered(self, env):
        ev = env.event().succeed(None)
        assert ev.triggered
        env.run()
        assert ev.value is None

    def test_double_succeed_raises(self, env):
        ev = env.event().succeed(1)
        with pytest.raises(SimulationError):
            ev.succeed(2)

    def test_fail_then_value_reraises(self, env):
        boom = RuntimeError("boom")
        ev = env.event().fail(boom)
        env.run()
        with pytest.raises(RuntimeError, match="boom"):
            _ = ev.value

    def test_fail_requires_exception(self, env):
        with pytest.raises(TypeError):
            env.event().fail("not an exception")

    def test_value_before_trigger_raises(self, env):
        with pytest.raises(SimulationError):
            _ = env.event().value

    def test_callback_registered_after_processing_still_fires(self, env):
        ev = env.event().succeed("x")
        env.run()
        seen = []
        ev._add_callback(lambda e: seen.append(e.value))
        env.run()
        assert seen == ["x"]


class TestTimeout:
    def test_fires_at_correct_time(self, env):
        times = []

        def proc(env):
            yield env.timeout(2.5)
            times.append(env.now)

        env.process(proc(env))
        env.run()
        assert times == [2.5]

    def test_zero_delay_allowed(self, env):
        def proc(env):
            yield env.timeout(0)
            return env.now

        p = env.process(proc(env))
        env.run()
        assert p.value == 0.0

    def test_negative_delay_rejected(self, env):
        with pytest.raises(ValueError):
            env.timeout(-1)

    def test_timeout_carries_value(self, env):
        def proc(env):
            got = yield env.timeout(1, value="payload")
            return got

        p = env.process(proc(env))
        env.run()
        assert p.value == "payload"

    def test_same_time_timeouts_fifo(self, env):
        order = []

        def proc(env, tag):
            yield env.timeout(5)
            order.append(tag)

        for tag in "abc":
            env.process(proc(env, tag))
        env.run()
        assert order == ["a", "b", "c"]


class TestProcess:
    def test_process_return_value(self, env):
        def proc(env):
            yield env.timeout(1)
            return "done"

        p = env.process(proc(env))
        env.run()
        assert p.value == "done"

    def test_waiting_on_another_process(self, env):
        def child(env):
            yield env.timeout(3)
            return 7

        def parent(env):
            value = yield env.process(child(env))
            return value * 2

        p = env.process(parent(env))
        env.run()
        assert p.value == 14
        assert env.now == 3

    def test_is_alive_lifecycle(self, env):
        def proc(env):
            yield env.timeout(1)

        p = env.process(proc(env))
        assert p.is_alive
        env.run()
        assert not p.is_alive

    def test_yield_non_event_raises(self, env):
        def proc(env):
            yield "not an event"

        env.process(proc(env))
        with pytest.raises(SimulationError, match="not an Event"):
            env.run()

    def test_yield_bare_float_sleeps(self, env):
        # Plain numbers are delays: equivalent to yielding
        # env.timeout(delay), minus the Timeout object.
        log = []

        def proc(env):
            got = yield 1.5
            log.append((env.now, got))
            got = yield 2  # integers take the slow lane, same semantics
            log.append((env.now, got))

        env.process(proc(env))
        env.run()
        assert log == [(1.5, None), (3.5, None)]

    def test_yield_bare_sleep_orders_like_timeout(self, env):
        # A bare sleep consumes one sequence number exactly as a
        # timeout would, so FIFO tie-breaking between the two styles
        # follows creation order.
        log = []

        def sleeper(env, tag):
            yield 1.0
            log.append(tag)

        def timeouter(env, tag):
            yield env.timeout(1.0)
            log.append(tag)

        env.process(sleeper(env, "a"))
        env.process(timeouter(env, "b"))
        env.process(sleeper(env, "c"))
        env.run()
        assert log == ["a", "b", "c"]

    def test_yield_negative_sleep_raises(self, env):
        def proc(env):
            yield -0.5

        env.process(proc(env))
        with pytest.raises(SimulationError, match="negative sleep"):
            env.run()

    def test_exception_in_process_propagates(self, env):
        def proc(env):
            yield env.timeout(1)
            raise ValueError("inner")

        env.process(proc(env))
        with pytest.raises(ValueError, match="inner"):
            env.run()

    def test_failed_event_raises_in_waiter(self, env):
        ev = env.event()

        def failer(env, ev):
            yield env.timeout(1)
            ev.fail(KeyError("k"))

        def waiter(env, ev):
            try:
                yield ev
            except KeyError:
                return "caught"

        env.process(failer(env, ev))
        w = env.process(waiter(env, ev))
        env.run()
        assert w.value == "caught"

    def test_non_generator_rejected(self, env):
        with pytest.raises(TypeError):
            env.process(lambda: None)


class TestConditions:
    def test_all_of_collects_values_in_order(self, env):
        def proc(env):
            t1 = env.timeout(3, value="slow")
            t2 = env.timeout(1, value="fast")
            values = yield env.all_of([t1, t2])
            return values

        p = env.process(proc(env))
        env.run()
        assert p.value == ["slow", "fast"]
        assert env.now == 3

    def test_all_of_empty_fires_immediately(self, env):
        def proc(env):
            values = yield env.all_of([])
            return values

        p = env.process(proc(env))
        env.run()
        assert p.value == []

    def test_all_of_propagates_failure(self, env):
        ev = env.event()

        def failer(env, ev):
            yield env.timeout(1)
            ev.fail(RuntimeError("child failed"))

        def waiter(env, ev):
            try:
                yield env.all_of([ev, env.timeout(10)])
            except RuntimeError:
                return env.now

        env.process(failer(env, ev))
        w = env.process(waiter(env, ev))
        env.run()
        assert w.value == 1

    def test_cross_environment_event_rejected(self, env):
        other = Environment()
        foreign = other.event()
        with pytest.raises(SimulationError):
            AllOf(env, [foreign])
