"""Regression tests for DES kernel accounting bugs.

Each test here pins a behavior the original kernel got wrong (or never
exercised):

* ``Resource.release`` observed the utilization monitor twice when a
  queued request was granted in the same instant -- inflated sample
  counts; ``Server`` keeps one update of its busy-time integral per
  release;
* condition events over already-processed children had no coverage.
"""

import pytest

from repro.des import AllOf, Environment, Server


@pytest.fixture
def env():
    return Environment()


def _recorded(name):
    """A property over ``Server``'s *name* slot that logs every write."""
    slot = Server.__dict__[name]

    def write(self, value):
        self.writes.append((name, value))
        slot.__set__(self, value)

    return property(slot.__get__, write)


class _RecordingServer(Server):
    """Logs every write to the two fields of the busy-time integral."""

    __slots__ = ("writes",)

    _area = _recorded("_area")
    _busy_since = _recorded("_busy_since")

    def __init__(self, env):
        self.writes = []
        super().__init__(env)
        self.writes.clear()


class TestReleaseMonitorSampleCount:
    def test_release_with_regrant_samples_once(self, env):
        """A release that re-grants in the same instant is ONE sample.

        The original release observed the transient dip (holder gone)
        and then the re-grant separately, inflating sample counts; the
        server adds the finished burst to its integral once and restarts
        it at the re-grant.
        """
        res = _RecordingServer(env)

        def holder(env):
            req = res.request()
            yield req
            yield env.timeout(5)
            res.release(req)

        def waiter(env):
            yield env.timeout(1)
            req = res.request()
            yield req
            yield env.timeout(5)
            res.release(req)

        env.process(holder(env))
        env.process(waiter(env))
        env.run()
        # grant at t=0, queued request adds nothing, release+regrant at
        # t=5 (one integral update), final release at t=10.
        assert res.writes == [("_busy_since", 0.0), ("_area", 5.0),
                              ("_busy_since", 5.0), ("_area", 10.0)]
        assert res.utilization() == 1.0

    def test_uncontended_cycle_samples(self, env):
        res = _RecordingServer(env)

        def once(env):
            yield res.hold(3)

        env.process(once(env))
        env.run()
        assert res.writes == [("_busy_since", 0.0), ("_area", 3.0)]


class TestConditionsOverProcessedChildren:
    def test_allof_over_processed_events(self, env):
        first = env.timeout(1, value="one")
        second = env.timeout(2, value="two")
        env.run(until=5)
        assert first.processed and second.processed

        collected = []

        def waiter(env):
            values = yield AllOf(env, [first, second])
            collected.append((env.now, values))

        env.process(waiter(env))
        env.run()
        assert collected == [(5, ["one", "two"])]

    def test_allof_mixed_processed_and_pending(self, env):
        done = env.timeout(1, value="done")
        env.run(until=2)
        pending = env.timeout(3, value="pending")

        collected = []

        def waiter(env):
            values = yield AllOf(env, [done, pending])
            collected.append((env.now, values))

        env.process(waiter(env))
        env.run()
        assert collected == [(5, ["done", "pending"])]
