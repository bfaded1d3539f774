"""Property-based tests (hypothesis) for the DES kernel invariants."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.des import Environment, Server, Store, TimeWeightedMonitor


@given(delays=st.lists(st.floats(min_value=0, max_value=1e6,
                                 allow_nan=False, allow_infinity=False),
                       min_size=1, max_size=50))
def test_events_processed_in_nondecreasing_time_order(delays):
    """The clock never runs backwards, whatever the timeout pattern."""
    env = Environment()
    observed = []

    def proc(env, delay):
        yield env.timeout(delay)
        observed.append(env.now)

    for d in delays:
        env.process(proc(env, d))
    env.run()
    assert observed == sorted(observed)
    assert len(observed) == len(delays)


@given(delays=st.lists(st.floats(min_value=0, max_value=100,
                                 allow_nan=False, allow_infinity=False),
                       min_size=1, max_size=30))
def test_final_clock_equals_max_delay(delays):
    env = Environment()

    def proc(env, delay):
        yield env.timeout(delay)

    for d in delays:
        env.process(proc(env, d))
    env.run()
    assert env.now == max(delays)


@given(service_times=st.lists(st.floats(min_value=0.01, max_value=10,
                                       allow_nan=False, allow_infinity=False),
                             min_size=1, max_size=20))
@settings(max_examples=50)
def test_resource_work_conservation(service_times):
    """Every job completes, and with everything arriving at t=0 the
    makespan is exactly the sum of service times."""
    env = Environment()
    res = Server(env)
    completed = []

    def job(env, service):
        yield res.hold(service)
        completed.append(service)

    for s in service_times:
        env.process(job(env, s))
    env.run()
    assert sorted(completed) == sorted(service_times)
    assert env.now == sum(service_times)
    assert res.utilization() == pytest.approx(1.0)


@given(n_jobs=st.integers(min_value=1, max_value=25))
@settings(max_examples=50)
def test_resource_never_exceeds_capacity(n_jobs):
    env = Environment()
    res = Server(env)
    in_service = []

    def job(env):
        req = res.request()
        yield req
        in_service.append(res.count)
        yield env.timeout(1)
        res.release(req)

    for _ in range(n_jobs):
        env.process(job(env))
    env.run()
    assert in_service == [1] * n_jobs
    assert env.now == n_jobs


@given(items=st.lists(st.integers(), min_size=0, max_size=40))
def test_store_preserves_fifo_order(items):
    env = Environment()
    store = Store(env)
    received = []

    def producer(env):
        for item in items:
            store.put(item)
            yield env.timeout(0.1)

    def consumer(env):
        for _ in items:
            received.append((yield store.get()))

    env.process(producer(env))
    env.process(consumer(env))
    env.run()
    assert received == items


@given(
    steps=st.lists(
        st.tuples(st.floats(min_value=0.01, max_value=10, allow_nan=False),
                  st.floats(min_value=0, max_value=100, allow_nan=False)),
        min_size=1, max_size=30)
)
def test_time_weighted_average_bounded_by_extremes(steps):
    """The time average always lies between the min and max observed levels."""
    mon = TimeWeightedMonitor(initial=0.0, now=0.0)
    now = 0.0
    levels = [0.0]
    for dt, level in steps:
        now += dt
        mon.observe(now, level)
        levels.append(level)
    end = now + 1.0
    avg = mon.time_average(end)
    assert min(levels) - 1e-9 <= avg <= max(levels) + 1e-9
