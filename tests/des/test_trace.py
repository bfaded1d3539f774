"""Unit tests for the event tracer."""

import pytest

from repro.des import Environment, Tracer


@pytest.fixture
def env():
    return Environment()


class TestRecording:
    def test_timestamps_follow_clock(self, env):
        tracer = Tracer(env)

        def proc(env):
            tracer.record("start")
            yield env.timeout(5)
            tracer.record("end")

        env.process(proc(env))
        env.run()
        entries = list(tracer)
        assert [e.time for e in entries] == [0.0, 5.0]
        assert [e.kind for e in entries] == ["start", "end"]

    def test_sequence_monotone(self, env):
        tracer = Tracer(env)
        for _ in range(5):
            tracer.record("x")
        seqs = [e.sequence for e in tracer]
        assert seqs == sorted(seqs)
        assert len(set(seqs)) == 5

    def test_details_stored(self, env):
        tracer = Tracer(env)
        entry = tracer.record("disk.read", node=3, pages=2)
        assert entry.details == {"node": 3, "pages": 2}
        assert "node=3" in str(entry)

    def test_capacity_bound_and_eviction(self, env):
        tracer = Tracer(env, capacity=3)
        for i in range(5):
            tracer.record("e", i=i)
        assert len(tracer) == 3
        assert tracer.evicted == 2
        assert [e.details["i"] for e in tracer] == [2, 3, 4]
        # Counts include evicted entries.
        assert tracer.count("e") == 5

    def test_invalid_capacity(self, env):
        with pytest.raises(ValueError):
            Tracer(env, capacity=0)


class TestQuerying:
    def test_filter_by_kind(self, env):
        tracer = Tracer(env)
        tracer.record("a")
        tracer.record("b")
        tracer.record("a")
        assert len(list(tracer.query(kind="a"))) == 2

    def test_filter_by_time_window(self, env):
        tracer = Tracer(env)

        def proc(env):
            for t in range(4):
                tracer.record("tick")
                yield env.timeout(1)

        env.process(proc(env))
        env.run()
        assert len(list(tracer.query(since=1.0, until=2.0))) == 2

    def test_filter_by_details(self, env):
        tracer = Tracer(env)
        tracer.record("io", node=1)
        tracer.record("io", node=2)
        assert len(list(tracer.query(kind="io", node=2))) == 1

    def test_kinds_summary(self, env):
        tracer = Tracer(env)
        tracer.record("a")
        tracer.record("a")
        tracer.record("b")
        assert tracer.kinds() == {"a": 2, "b": 1}

    def test_clear(self, env):
        tracer = Tracer(env)
        tracer.record("a")
        tracer.clear()
        assert len(tracer) == 0
        assert tracer.kinds() == {}

    def test_render_limits_lines(self, env):
        tracer = Tracer(env)
        for i in range(10):
            tracer.record("line", i=i)
        text = tracer.render(limit=3)
        assert text.count("\n") == 2
        assert "i=9" in text


class TestEvictionAccounting:
    def test_per_kind_counts_survive_eviction(self, env):
        tracer = Tracer(env, capacity=4)
        for i in range(6):
            tracer.record("io", i=i)
        for i in range(4):
            tracer.record("net", i=i)
        # 10 recorded into capacity 4: the oldest 6 were evicted, but
        # per-kind totals still reflect everything recorded.
        assert len(tracer) == 4
        assert tracer.evicted == 6
        assert tracer.count("io") == 6
        assert tracer.count("net") == 4
        assert all(e.kind == "net" for e in tracer)

    def test_clear_resets_eviction_counter(self, env):
        tracer = Tracer(env, capacity=1)
        tracer.record("a")
        tracer.record("a")
        assert tracer.evicted == 1
        tracer.clear()
        assert tracer.evicted == 0
        assert tracer.count("a") == 0

    def test_query_sees_only_retained_entries(self, env):
        tracer = Tracer(env, capacity=2)
        for i in range(5):
            tracer.record("e", i=i)
        retained = [e.details["i"] for e in tracer.query(kind="e")]
        assert retained == [3, 4]


class TestQueryFiltering:
    def test_all_filters_combine(self, env):
        tracer = Tracer(env)

        def proc(env):
            for t in range(4):
                tracer.record("io", node=t % 2)
                tracer.record("cpu", node=t % 2)
                yield env.timeout(1)

        env.process(proc(env))
        env.run()
        hits = list(tracer.query(kind="io", since=1.0, until=3.0, node=1))
        assert [e.time for e in hits] == [1.0, 3.0]
        assert all(e.kind == "io" and e.details["node"] == 1 for e in hits)

    def test_detail_filter_skips_entries_without_key(self, env):
        tracer = Tracer(env)
        tracer.record("io", node=1)
        tracer.record("io")  # no node detail at all
        assert len(list(tracer.query(kind="io", node=1))) == 1
