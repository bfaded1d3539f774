"""Unit tests for the CPU module and the elevator disk manager."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.des import Environment
from repro.gamma import GAMMA_PARAMETERS, Cpu, Disk
from repro.gamma.disk import DiskRequest
from repro.gamma.cpu import DMA_PRIORITY
from repro.obs import MetricsRegistry


@pytest.fixture
def env():
    return Environment()


@pytest.fixture
def cpu(env):
    return Cpu(env, GAMMA_PARAMETERS)


class TestCpu:
    def test_execution_time_matches_mips(self, env, cpu):
        def proc(env):
            yield from cpu.execute(3_000_000)
            return env.now

        p = env.process(proc(env))
        env.run()
        assert p.value == pytest.approx(1.0)

    def test_zero_instructions_free(self, env, cpu):
        def proc(env):
            yield from cpu.execute(0)
            return env.now

        # A generator that never yields still needs one scheduling point.
        def wrapper(env):
            yield env.timeout(0)
            yield from cpu.execute(0)
            return env.now

        p = env.process(wrapper(env))
        env.run()
        assert p.value == 0.0

    def test_negative_instructions_rejected(self, env, cpu):
        def proc(env):
            yield from cpu.execute(-5)

        env.process(proc(env))
        with pytest.raises(ValueError):
            env.run()

    def test_fcfs_serialization(self, env, cpu):
        finish = []

        def job(env, tag):
            yield from cpu.execute(300_000)  # 0.1 s
            finish.append((tag, env.now))

        for tag in "ab":
            env.process(job(env, tag))
        env.run()
        assert finish == [("a", pytest.approx(0.1)),
                          ("b", pytest.approx(0.2))]

    def test_dma_jumps_queue(self, env, cpu):
        order = []

        def setup(env):
            env.process(holder(env))
            yield env.timeout(0.01)
            env.process(normal(env))
            env.process(dma(env))

        def holder(env):
            yield from cpu.execute(300_000)
            order.append("holder")

        def normal(env):
            yield from cpu.execute(300_000)
            order.append("normal")

        def dma(env):
            yield from cpu.execute(GAMMA_PARAMETERS.dma_instructions_per_page,
                                   priority=DMA_PRIORITY)
            order.append("dma")

        env.process(setup(env))
        env.run()
        assert order == ["holder", "dma", "normal"]

    def test_busy_seconds_accumulates(self, env, cpu):
        def proc(env):
            yield from cpu.execute(600_000)

        env.process(proc(env))
        env.run()
        assert cpu.busy_seconds == pytest.approx(0.2)

    def test_utilization_and_reset(self, env, cpu):
        def proc(env):
            yield from cpu.execute(3_000_000)

        env.process(proc(env))
        env.run()
        env.run(until=2.0)
        assert cpu.utilization() == pytest.approx(0.5)
        cpu.reset_stats()
        assert cpu.busy_seconds == 0.0


class TestDisk:
    def test_read_takes_positioning_plus_transfer(self, env, cpu):
        disk = Disk(env, GAMMA_PARAMETERS, cpu, seed=1)

        def proc(env):
            yield from disk.read(cylinder=100, num_pages=1)
            return env.now

        p = env.process(proc(env))
        env.run()
        # settle + seek(100) + latency(<=16.68ms) + transfer + DMA
        minimum = (0.002 + GAMMA_PARAMETERS.seek_seconds(100)
                   + GAMMA_PARAMETERS.page_transfer_seconds())
        assert p.value >= minimum
        assert p.value <= minimum + 0.01668 + 0.01

    def test_sequential_at_current_cylinder_skips_positioning(self, env, cpu):
        disk = Disk(env, GAMMA_PARAMETERS, cpu, seed=1)

        def proc(env):
            yield from disk.read(cylinder=50, num_pages=1)
            t_mid = env.now
            yield from disk.read(cylinder=50, num_pages=1, sequential=True)
            return env.now - t_mid

        p = env.process(proc(env))
        env.run()
        expected = (GAMMA_PARAMETERS.page_transfer_seconds()
                    + GAMMA_PARAMETERS.instructions_to_seconds(4000))
        assert p.value == pytest.approx(expected, rel=1e-6)

    def test_multi_page_stream(self, env, cpu):
        disk = Disk(env, GAMMA_PARAMETERS, cpu, seed=1)

        def proc(env):
            yield from disk.read(cylinder=0, num_pages=10, sequential=True)
            return env.now

        p = env.process(proc(env))
        env.run()
        transfer = 10 * GAMMA_PARAMETERS.page_transfer_seconds()
        dma = 10 * GAMMA_PARAMETERS.instructions_to_seconds(4000)
        # Arm starts at cylinder 0 and the read is sequential, so no
        # positioning is charged: exactly transfer + DMA time.
        assert p.value == pytest.approx(transfer + dma)

    def test_dma_interrupts_cpu(self, env, cpu):
        """Each transferred page charges the CPU 4000 instructions."""
        disk = Disk(env, GAMMA_PARAMETERS, cpu, seed=1)

        def proc(env):
            yield from disk.read(cylinder=0, num_pages=5, sequential=True)

        env.process(proc(env))
        env.run()
        assert cpu.busy_seconds == pytest.approx(
            5 * GAMMA_PARAMETERS.instructions_to_seconds(4000))

    def test_elevator_orders_by_cylinder(self, env, cpu):
        disk = Disk(env, GAMMA_PARAMETERS, cpu, seed=1)
        completions = []

        def submit_all(env):
            events = []
            # Occupy the disk, then queue out-of-order cylinders.
            first = disk.submit(cylinder=0, num_pages=1)
            for cyl in (500, 100, 300):
                ev = disk.submit(cylinder=cyl, num_pages=1)
                ev._add_callback(
                    lambda e, c=cyl: completions.append(c))
                events.append(ev)
            yield first
            for ev in events:
                yield ev

        env.process(submit_all(env))
        env.run()
        # Sweeping up from 0: 100, 300, 500.
        assert completions == [100, 300, 500]

    def test_sweep_reverses_at_end(self, env, cpu):
        disk = Disk(env, GAMMA_PARAMETERS, cpu, seed=1)
        completions = []

        def submit_all(env):
            first = disk.submit(cylinder=400, num_pages=1)
            yield env.timeout(0.001)
            events = [disk.submit(cylinder=c, num_pages=1)
                      for c in (600, 200)]
            for c, ev in zip((600, 200), events):
                ev._add_callback(lambda e, c=c: completions.append(c))
            yield first
            for ev in events:
                yield ev

        env.process(submit_all(env))
        env.run()
        # Head at 400 sweeping up: serve 600 first, then reverse to 200.
        assert completions == [600, 200]

    def test_invalid_requests_rejected(self, env, cpu):
        disk = Disk(env, GAMMA_PARAMETERS, cpu, seed=1)
        with pytest.raises(ValueError):
            disk.submit(cylinder=0, num_pages=0)
        with pytest.raises(ValueError):
            disk.submit(cylinder=10_000_000, num_pages=1)

    def test_wait_times_recorded(self, env, cpu):
        registry = MetricsRegistry()
        disk = Disk(env, GAMMA_PARAMETERS, cpu, seed=1, registry=registry)

        def proc(env):
            a = disk.submit(cylinder=10, num_pages=1)
            b = disk.submit(cylinder=20, num_pages=1)
            yield a
            yield b

        env.process(proc(env))
        env.run()
        waits = registry.get("disk.wait_seconds")
        assert waits.count == 2
        assert disk.requests_served == 2
        # The second request waited for the first's service.
        assert waits.max > 0


def _reference_pick(pending, current, sweep_up):
    """The elevator's scan before it took a lone request directly."""
    ahead = [r for r in pending
             if (r.cylinder >= current) == sweep_up or r.cylinder == current]
    if not ahead:
        sweep_up = not sweep_up
        ahead = pending
    chosen = min(ahead, key=lambda r: abs(r.cylinder - current))
    pending.remove(chosen)
    return chosen, sweep_up


CYLINDERS = st.integers(0, GAMMA_PARAMETERS.disk_geometry.cylinders - 1)


@given(start=CYLINDERS, sweep_up=st.booleans(),
       batches=st.lists(st.lists(st.one_of(CYLINDERS, st.sampled_from(
           [0, 1, GAMMA_PARAMETERS.disk_geometry.cylinders - 1])),
           min_size=1, max_size=4), min_size=1, max_size=25))
@settings(max_examples=200, deadline=None)
def test_pick_next_matches_reference_scan(start, sweep_up, batches):
    """Single and multi-request picks choose the request and set the
    sweep direction exactly as the full scan does, with the arm moving
    to each chosen cylinder in turn."""
    env = Environment()
    disk = Disk(env, GAMMA_PARAMETERS, Cpu(env, GAMMA_PARAMETERS))
    disk._current_cylinder = current = start
    disk._sweep_up = sweep_up
    for batch in batches:
        requests = [DiskRequest(cylinder=c, num_pages=1, sequential=False,
                                is_write=False, done=None, enqueued_at=0.0)
                    for c in batch]
        disk._pending = list(requests)
        reference = list(requests)
        while reference:
            expected, sweep_up = _reference_pick(reference, current,
                                                 sweep_up)
            assert disk._pick_next() is expected
            assert disk._sweep_up == sweep_up
            assert disk._pending == reference
            disk._current_cylinder = current = expected.cylinder
