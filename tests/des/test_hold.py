"""``Resource.hold`` against the request/sleep/release burst it replaces,
and prompt freeing of finished processes."""

import gc
import random

import pytest

from repro.des import (
    Environment,
    PriorityResource,
    Resource,
    SimulationError,
    Store,
    TimeWeightedMonitor,
)


def burst(resource, duration, priority, use_hold):
    """One service burst; returns the time queued before the grant."""
    if use_hold:
        wait = yield resource.hold(duration, priority)
    else:
        req = resource.request(priority)
        wait = yield req
        yield duration
        resource.release(req)
    return wait


def tie_model(use_hold, seed=7):
    """Integer durations on capacity-1 priority servers: nearly every
    entry ties with another on time, so any change of sequence numbers
    shows up as a reordered log."""
    rng = random.Random(seed)
    env = Environment()
    servers = [PriorityResource(env) for _ in range(3)]
    for index, server in enumerate(servers):
        server.monitor = TimeWeightedMonitor(f"s{index}")
    gate, stop = env.event(), env.event()
    log = []

    def worker(name, steps):
        for step in range(steps):
            server = servers[rng.randrange(len(servers))]
            wait = yield from burst(server, rng.randrange(4),
                                    rng.randrange(2), use_hold)
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
    # Pushed between the runs, at the boundary instant: it ties with the
    # grant the stopper's first burst leaves on the agenda.
    env.process(worker("late", 4))
    env.run()
    monitors = [(s.monitor.time_average(env.now), s.monitor.maximum)
                for s in servers]
    return log, env.events_scheduled, monitors


def boundary_model(use_hold):
    """Each place where eliding a grant entry would not be exact, built
    so that eliding it there reorders the log or the event count."""
    env = Environment()
    server = Resource(env)
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
        requested = tie_model(use_hold=False, seed=seed)
        held = tie_model(use_hold=True, seed=seed)
        assert held[0] == requested[0]
        assert held[1] == requested[1]
        assert held[2] == requested[2]

    def test_step_loop_matches_run(self):
        """step() turns elision off; the outcome must not change."""
        def drive(stepwise):
            env = Environment()
            server = Resource(env)
            log = []

            def user(name, duration):
                wait = yield server.hold(duration)
                log.append((env.now, name, wait))

            for name, duration in (("a", 2), ("b", 0), ("c", 1)):
                env.process(user(name, duration))
            if stepwise:
                while env.peek() != float("inf"):
                    env.step()
            else:
                env.run()
            return log, env.events_scheduled

        assert drive(True) == drive(False) == (
            [(2.0, "a", 0.0), (2.0, "b", 2.0), (3.0, "c", 2.0)], 12)

    def test_hold_releases_before_resuming(self):
        env = Environment()
        server = Resource(env)
        seen = []

        def user():
            yield server.hold(1.5)
            seen.append((env.now, server.count))

        env.process(user())
        env.run()
        assert seen == [(1.5, 0)]

    def test_interrupting_a_holder_raises(self):
        env = Environment()
        server = Resource(env)
        holders = [env.process(burst(server, 5.0, 0, True))
                   for _ in range(2)]
        env.run(until=1.0)
        for holder in holders:  # one in service, one queued
            with pytest.raises(SimulationError, match="hold"):
                holder.interrupt()


def finite_model(use_hold):
    """Sixteen workers and a consumer, all of which finish."""
    env = Environment()
    cpu, nic, box = PriorityResource(env), Resource(env), Store(env)

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
