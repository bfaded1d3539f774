"""Unit tests for Server and Store."""

import pytest

from repro.des import Environment, Server, SimulationError, Store


@pytest.fixture
def env():
    return Environment()


def hold(env, server, duration, log, tag, priority=0):
    """A process that holds *server* for *duration* and logs (tag, start)."""
    yield server.hold(duration, priority)
    log.append((tag, env.now - duration))


class TestResource:
    def test_single_server_serializes(self, env):
        res = Server(env)
        log = []
        for tag in "abc":
            env.process(hold(env, res, 10, log, tag))
        env.run()
        assert log == [("a", 0), ("b", 10), ("c", 20)]

    def test_fcfs_order_preserved(self, env):
        res = Server(env)
        log = []

        def staggered(env, tag, arrive):
            yield env.timeout(arrive)
            yield res.hold(5)
            log.append(tag)

        for tag, arrive in [("first", 0), ("second", 1), ("third", 2)]:
            env.process(staggered(env, tag, arrive))
        env.run()
        assert log == ["first", "second", "third"]

    def test_grant_value_is_wait_time(self, env):
        res = Server(env)

        def first(env):
            yield res.hold(7)

        def second(env):
            wait = yield res.hold(1)
            return wait

        def requester(env):
            req = res.request()
            wait = yield req
            res.release(req)
            return wait

        env.process(first(env))
        p = env.process(second(env))
        r = env.process(requester(env))
        env.run()
        assert p.value == 7
        assert r.value == 8

    def test_double_release_raises(self, env):
        res = Server(env)

        def proc(env):
            req = res.request()
            yield req
            res.release(req)
            res.release(req)

        env.process(proc(env))
        with pytest.raises(SimulationError):
            env.run()

    def test_count_and_queue_length(self, env):
        res = Server(env)
        log = []
        for tag in "ab":
            env.process(hold(env, res, 10, log, tag))
        env.run(until=5)
        assert res.count == 1
        assert res.queue_length == 1


class TestPriorityResource:
    def test_lower_priority_number_served_first(self, env):
        res = Server(env)
        log = []

        def submit(env):
            # Occupy the server, then queue low before high priority.
            req = res.request(priority=1)
            yield req
            env.process(hold(env, res, 1, log, "low", priority=5))
            env.process(hold(env, res, 1, log, "high", priority=0))
            yield env.timeout(10)
            res.release(req)

        env.process(submit(env))
        env.run()
        assert [t for t, _ in log] == ["high", "low"]

    def test_fcfs_within_same_priority(self, env):
        res = Server(env)
        log = []

        def submit(env):
            req = res.request(priority=0)
            yield req
            for tag in ["x", "y", "z"]:
                env.process(hold(env, res, 1, log, tag, priority=3))
            yield env.timeout(10)
            res.release(req)

        env.process(submit(env))
        env.run()
        assert [t for t, _ in log] == ["x", "y", "z"]

    def test_non_preemptive(self, env):
        res = Server(env)
        log = []

        def low_then_high(env):
            req = res.request(priority=5)
            yield req
            log.append(("low-start", env.now))
            env.process(hold(env, res, 1, log, "high", priority=0))
            yield env.timeout(10)
            log.append(("low-end", env.now))
            res.release(req)

        env.process(low_then_high(env))
        env.run()
        assert log == [("low-start", 0), ("low-end", 10), ("high", 10)]

    def test_negative_priority_rejected(self, env):
        res = Server(env)
        res.hold(1)
        with pytest.raises(ValueError, match="priority"):
            res.hold(1, priority=-1)


class TestStore:
    def test_put_then_get(self, env):
        store = Store(env)
        store.put("msg")

        def proc(env):
            item = yield store.get()
            return item

        p = env.process(proc(env))
        env.run()
        assert p.value == "msg"

    def test_get_blocks_until_put(self, env):
        store = Store(env)

        def getter(env):
            item = yield store.get()
            return (item, env.now)

        def putter(env):
            yield env.timeout(5)
            store.put("late")

        g = env.process(getter(env))
        env.process(putter(env))
        env.run()
        assert g.value == ("late", 5)

    def test_fifo_item_order(self, env):
        store = Store(env)
        for i in range(5):
            store.put(i)

        def drain(env):
            items = []
            for _ in range(5):
                items.append((yield store.get()))
            return items

        p = env.process(drain(env))
        env.run()
        assert p.value == [0, 1, 2, 3, 4]

    def test_getters_served_in_order(self, env):
        store = Store(env)
        results = []

        def getter(env, tag):
            item = yield store.get()
            results.append((tag, item))

        env.process(getter(env, "first"))
        env.process(getter(env, "second"))

        def putter(env):
            yield env.timeout(1)
            store.put("a")
            store.put("b")

        env.process(putter(env))
        env.run()
        assert results == [("first", "a"), ("second", "b")]

    def test_len(self, env):
        store = Store(env)
        store.put(1)
        store.put(2)
        assert len(store) == 2
