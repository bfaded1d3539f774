"""``Server.hold`` against the request/sleep/release burst it replaces,
and prompt freeing of finished processes."""

import gc
import random

import pytest

from repro.des import Environment, Server, Store, TimeWeightedMonitor


def burst(server, duration, priority, use_hold, monitor=None):
    """One service burst; returns the time queued before the grant.

    On the request path, *monitor* (if given) is told of each change of
    the server's busy count.
    """
    if use_hold:
        wait = yield server.hold(duration, priority)
    else:
        req = server.request(priority)
        wait = yield req
        if monitor is not None:
            monitor.observe(server.env.now, 1)
        yield duration
        server.release(req)
        if monitor is not None:
            monitor.observe(server.env.now, server.count)
    return wait


def tie_model(use_hold, seed=7):
    """Integer durations on priority servers: nearly every entry ties
    with another on time, so any change of sequence numbers shows up as
    a reordered log.  Returns the log, the event count and each
    server's utilization (after a reset between the two runs); on the
    request path, also checks each utilization against a
    TimeWeightedMonitor fed the same busy-count changes."""
    rng = random.Random(seed)
    env = Environment()
    servers = [Server(env) for _ in range(3)]
    monitors = {server: TimeWeightedMonitor(f"s{index}")
                for index, server in enumerate(servers)}
    gate, stop = env.event(), env.event()
    log = []

    def worker(name, steps):
        for step in range(steps):
            server = servers[rng.randrange(len(servers))]
            wait = yield from burst(server, rng.randrange(4),
                                    rng.randrange(2), use_hold,
                                    monitors[server])
            log.append((env.now, name, step, wait))

    def waiter(name, event):
        yield event
        yield from worker(name, 3)

    def opener():
        yield 2
        gate.succeed()
        yield 3
        stop.succeed()

    for index in range(8):
        env.process(worker(f"w{index}", 6))
    env.process(waiter("gate-a", gate))   # two waiters: one entry,
    env.process(waiter("gate-b", gate))   # two callbacks
    env.process(waiter("stopper", stop))  # resumed by run()'s last entry
    env.process(opener())
    env.run(until=stop)
    for server in servers:  # some are busy here
        server.reset_stats()
        monitors[server].reset(env.now)
    # Pushed between the runs, at the boundary instant: it ties with the
    # grant the stopper's first burst leaves on the agenda.
    env.process(worker("late", 4))
    env.run()
    utilizations = [server.utilization() for server in servers]
    if not use_hold:
        assert utilizations == [monitors[server].time_average(env.now)
                                for server in servers]
    return log, env.events_scheduled, utilizations


def boundary_model(use_hold):
    """Each place where eliding a grant entry would not be exact, built
    so that eliding it there reorders the log or the event count."""
    env = Environment()
    server = Server(env)
    gate, stop = env.event(), env.event()
    log = []

    def holder(name, event):
        yield event
        wait = yield from burst(server, 0, 0, use_hold)
        log.append((env.now, name, wait))

    def ticker(name):
        yield 0
        log.append((env.now, name, None))

    def marker(name):
        log.append((env.now, name, None))
        yield 0

    def after(event, generator):
        yield event
        yield from generator

    def eager():
        # Something is pushed between claiming the server and yielding.
        if use_hold:
            claim = server.hold(1, 0)
            env.timeout(3)
            wait = yield claim
        else:
            claim = server.request()
            env.timeout(3)
            wait = yield claim
            yield 1
            server.release(claim)
        log.append((env.now, "eager", wait))

    def opener():
        yield 1
        gate.succeed()
        yield 1
        stop.succeed()
        yield 1
        env.process(eager())

    # The gate's entry has two callbacks; the ticker's sleep is pushed
    # after the holder's claim.
    env.process(holder("gate-holder", gate))
    env.process(after(gate, ticker("gate-ticker")))
    # The entry that ends run(until=stop) resumes this holder.
    env.process(holder("stop-holder", stop))
    env.process(opener())
    env.run(until=stop)
    env.process(marker("late"))  # pushed between the two runs
    env.run()
    return log, env.events_scheduled


class TestHoldMatchesRequest:
    def test_where_elision_is_not_exact(self):
        assert boundary_model(True) == boundary_model(False)

    @pytest.mark.parametrize("seed", [7, 11, 23])
    def test_same_log_events_and_monitors(self, seed):
        """Same log, event count and utilizations (the busy-time
        integral)."""
        requested = tie_model(use_hold=False, seed=seed)
        held = tie_model(use_hold=True, seed=seed)
        assert held[0] == requested[0]
        assert held[1] == requested[1]
        assert held[2] == requested[2]

    def test_step_loop_matches_run(self):
        """The invariant-checked loop steps one entry at a time with
        elision off; the outcome must not change."""
        class Clock:
            def on_event(self, when, now, seq):
                assert when >= now

        def drive(stepwise):
            env = Environment()
            server = Server(env)
            log = []

            def user(name, duration):
                wait = yield server.hold(duration)
                log.append((env.now, name, wait))

            for name, duration in (("a", 2), ("b", 0), ("c", 1)):
                env.process(user(name, duration))
            if stepwise:
                env.invariants = Clock()
            env.run()
            return log, env.events_scheduled

        assert drive(True) == drive(False) == (
            [(2.0, "a", 0.0), (2.0, "b", 2.0), (3.0, "c", 2.0)], 12)

    def test_hold_releases_before_resuming(self):
        env = Environment()
        server = Server(env)
        seen = []

        def user():
            yield server.hold(1.5)
            seen.append((env.now, server.count))

        env.process(user())
        env.run()
        assert seen == [(1.5, 0)]


def finite_model(use_hold):
    """Sixteen workers and a consumer, all of which finish."""
    env = Environment()
    cpu, nic, box = Server(env), Server(env), Store(env)

    def worker(index):
        yield from burst(cpu, 1.0 + index % 3, index % 2, use_hold)
        yield env.timeout(0.5)
        box.put(index)

    def consumer(count):
        for _ in range(count):
            yield box.get()
            yield from burst(nic, 0.25, 0, use_hold)

    workers = [env.process(worker(index)) for index in range(16)]
    env.process(consumer(16))
    env.run(until=env.all_of(workers))
    env.run()


@pytest.mark.parametrize("use_hold", [False, True])
def test_finished_processes_need_no_cycle_collector(use_hold):
    """A finished process is freed by reference counting alone."""
    gc.collect()
    gc.disable()
    try:
        finite_model(use_hold)
        assert gc.collect() == 0
    finally:
        gc.enable()
