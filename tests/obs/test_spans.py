"""Unit tests for query trace spans, plus the export replay check.

The last test is the acceptance check for the span subsystem: run a
traced machine, dump the spans to JSONL, read them back, and verify
every trace replays as a well-nested tree.
"""

import pickle

import pytest

from repro.core import RangeStrategy
from repro.des import Environment
from repro.gamma import GammaMachine
from repro.obs import (
    SPAN_KIND,
    SpanLog,
    Telemetry,
    UnknownQueryError,
    build_span_forest,
    load_jsonl,
    span_records,
    validate_span_forest,
    write_spans_jsonl,
)
from repro.storage import make_wisconsin
from repro.workload import make_mix


@pytest.fixture
def env():
    return Environment()


@pytest.fixture
def log(env):
    return SpanLog(env)


class TestQueryTrace:
    def test_root_span_opened_on_begin(self, log):
        trace = log.begin(1, "QA")
        assert trace.root.name == "query"
        assert trace.root.parent_id is None
        assert trace.open_spans == 1
        assert log.lookup(1) is trace

    def test_duplicate_begin_rejected(self, log):
        log.begin(1, "QA")
        with pytest.raises(ValueError):
            log.begin(1, "QA")

    def test_child_defaults_to_root_parent(self, log):
        trace = log.begin(1, "QA")
        child = trace.start("plan")
        assert child.parent_id == trace.root.span_id
        grandchild = trace.start("select.site", parent=child, node=3)
        assert grandchild.parent_id == child.span_id
        assert grandchild.attrs["node"] == 3

    def test_spans_emitted_only_on_finish(self, env, log):
        trace = log.begin(1, "QA")
        child = trace.start("plan")
        assert log.span_count() == 0
        trace.finish(child, sites=2)
        assert log.span_count() == 1
        entry = next(log.entries())
        assert entry.kind == SPAN_KIND
        assert entry.details["name"] == "plan"
        assert entry.details["sites"] == 2

    def test_end_closes_root_and_retires(self, env, log):
        trace = log.begin(7, "QB")
        env.run(until=2.0)
        log.end(7)
        assert log.lookup(7) is None
        assert trace.root is None
        assert log.finished == 1
        record = next(iter(span_records(log)))
        assert record["name"] == "query"
        assert record["start"] == 0.0
        assert record["end"] == 2.0

    def test_resource_leaf_interval_and_aggregate(self, env, log):
        trace = log.begin(1, "QA")
        env.run(until=1.0)
        trace.resource(trace.root, "node.disk", wait=0.3, service=0.5,
                       pages=2)
        record = next(iter(span_records(log)))
        assert record["start"] == pytest.approx(0.2)
        assert record["end"] == pytest.approx(1.0)
        assert record["wait"] == pytest.approx(0.3)
        assert record["service"] == pytest.approx(0.5)
        wait, service, count = log.resource_totals["QA"]["node.disk"]
        assert (wait, service, count) == (pytest.approx(0.3),
                                          pytest.approx(0.5), 1)

    def test_flush_truncates_in_flight_traces(self, env, log):
        trace = log.begin(1, "QA")
        site = trace.start("select.site")
        env.run(until=3.0)
        assert log.flush() == 1
        assert log.truncated == 1
        assert log.lookup(1) is None
        records = list(span_records(log))
        assert all(r["truncated"] for r in records)
        assert validate_span_forest(records) == []
        assert {r["name"] for r in records} == {"query", "select.site"}
        assert site.span_id in {r["span"] for r in records}

    def test_end_unknown_query_raises_structured_error(self, log):
        log.begin(1, "QA")
        log.begin(2, "QB")
        with pytest.raises(UnknownQueryError) as excinfo:
            log.end(99)
        # The message names the query and the log's state, and the
        # error stays a KeyError for callers guarding the old failure.
        assert "query 99" in str(excinfo.value)
        assert "2 trace(s)" in str(excinfo.value)
        assert excinfo.value.query_id == 99
        assert excinfo.value.active_traces == 2
        assert isinstance(excinfo.value, KeyError)

    def test_double_end_raises_structured_error(self, log):
        log.begin(1, "QA")
        log.end(1)
        with pytest.raises(UnknownQueryError):
            log.end(1)

    def test_reset_drops_history_keeps_active(self, env, log):
        trace = log.begin(1, "QA")
        trace.resource(trace.root, "node.cpu", wait=0.0, service=0.1)
        log.reset()
        assert log.span_count() == 0
        assert log.resource_totals == {}
        # The in-flight trace survives a window reset and can finish.
        assert log.lookup(1) is trace
        log.end(1)
        assert log.span_count() == 1


def straddling_run(env, log, warming):
    """Two queries close spans before reset(), one of them lives on."""
    log.warming = warming
    done, straddler = log.begin(1, "QA"), log.begin(2, "QB")
    for trace in (done, straddler):
        trace.resource(trace.root, "node.cpu", 0.0, 0.5)
        trace.finish(trace.start("plan"), sites=3)
    env.run(until=1.0)
    log.end(1)
    closed_in_warm_up = log.span_count()
    log.reset()
    env.run(until=2.0)
    site = straddler.start("select.site", node=4)
    straddler.resource(site, "node.disk", 0.25, 0.5, pages=2)
    straddler.finish(site, tuples=7)
    log.end(2)
    return closed_in_warm_up


class TestWarmUp:
    def test_warm_up_leaves_are_not_kept(self, env, log):
        assert straddling_run(env, log, warming=True) == 0
        assert not log.warming  # reset() ends the warm-up

    def test_straddling_query_exports_as_with_capture(self):
        outcomes = []
        for warming in (True, False):
            env = Environment()
            log = SpanLog(env)
            straddling_run(env, log, warming)
            outcomes.append((list(span_records(log)), log.span_count(),
                             log.resource_totals))
        assert outcomes[0] == outcomes[1]
        records = outcomes[0][0]
        # Ids 0-2 went to warm-up spans; the straddler keeps counting.
        assert [r["span"] for r in records] == [4, 3, 0]
        assert records[0]["parent"] == 3 and records[2]["name"] == "query"


class TestFlushAndDetach:
    def test_flush_emits_children_before_root(self, env, log):
        trace = log.begin(1, "QA")
        site = trace.start("select.site")
        deeper = trace.start("probe.site", parent=site)
        root = trace.root
        env.run(until=2.0)
        log.flush()
        # Emit order must be child-before-parent so the exported
        # stream replays as a well-nested tree: deepest span first,
        # the root (span id 0) last.
        emitted = [r["span"] for r in span_records(log)]
        assert emitted == [deeper.span_id, site.span_id, root.span_id]
        assert emitted[-1] == 0
        # The closed root no longer holds its trace in a cycle.
        assert trace.root is None

    def test_detached_log_pickle_round_trip(self, env, log):
        trace = log.begin(1, "QA")
        trace.resource(trace.root, "node.disk", wait=0.2, service=0.4)
        env.run(until=1.5)
        log.end(1)
        log.flush()
        log.detach()
        # The parallel-worker merge ships detached logs across process
        # boundaries: everything collected must survive pickling.
        clone = pickle.loads(pickle.dumps(log))
        assert clone.env is None
        assert clone.active == {}
        assert clone.finished == log.finished
        assert clone.resource_totals == log.resource_totals
        assert list(span_records(clone)) == list(span_records(log))

    def test_pickling_live_log_drops_env_and_active(self, env, log):
        log.begin(1, "QA")
        clone = pickle.loads(pickle.dumps(log))
        assert clone.env is None
        assert clone.active == {}


class TestEviction:
    def test_capacity_keeps_newest_spans(self, env):
        log = SpanLog(env, capacity=5)
        trace = log.begin(1, "QA")
        for i in range(12):
            env.run(until=float(i + 1))
            trace.resource(trace.root, "node.cpu", wait=0.25 * i,
                           service=0.5, pages=i)
        records = list(span_records(log))
        # Oldest evicted first, one at a time: the newest five remain,
        # in emit order, with their extra attributes.
        assert [r["span"] for r in records] == [8, 9, 10, 11, 12]
        assert [r["pages"] for r in records] == [7, 8, 9, 10, 11]
        assert log.span_count() == 12
        # The aggregate covers all twelve, summed in emit order.
        expected_wait = 0.0
        for i in range(12):
            expected_wait += 0.25 * i
        assert log.resource_totals["QA"]["node.cpu"] == [
            expected_wait, 0.5 * 12, 12]

    def test_capacity_bounds_retained_spans(self, env):
        log = SpanLog(env, capacity=3)
        trace = log.begin(1, "QA")
        for _ in range(4):
            trace.resource(trace.root, "node.cpu", wait=0.0, service=0.1)
        log.end(1)
        # 5 spans through capacity 3: bounded, eviction counted.
        assert log.span_count() == 5
        records = list(span_records(log))
        assert [r["span"] for r in records] == [3, 4, 0]
        assert all(r["qtype"] == "QA" for r in records)

    def test_invalid_capacity(self, env):
        with pytest.raises(ValueError):
            SpanLog(env, capacity=0)


class TestForestValidation:
    def test_detects_missing_parent(self):
        records = [
            {"trace": 1, "span": 0, "parent": None, "start": 0.0, "end": 2.0},
            {"trace": 1, "span": 5, "parent": 3, "start": 0.5, "end": 1.0},
        ]
        errors = validate_span_forest(records)
        assert any("missing parent" in e for e in errors)

    def test_detects_escaping_child(self):
        records = [
            {"trace": 1, "span": 0, "parent": None, "start": 0.0, "end": 1.0},
            {"trace": 1, "span": 1, "parent": 0, "start": 0.5, "end": 1.5},
        ]
        errors = validate_span_forest(records)
        assert any("escapes parent" in e for e in errors)

    def test_detects_multiple_roots(self):
        records = [
            {"trace": 1, "span": 0, "parent": None, "start": 0.0, "end": 1.0},
            {"trace": 1, "span": 1, "parent": None, "start": 0.0, "end": 1.0},
        ]
        errors = validate_span_forest(records)
        assert any("2 root spans" in e for e in errors)

    def test_detects_parent_cycle(self):
        records = [
            {"trace": 1, "span": 0, "parent": None, "start": 0.0, "end": 2.0},
            {"trace": 1, "span": 1, "parent": 2, "start": 0.1, "end": 1.0},
            {"trace": 1, "span": 2, "parent": 1, "start": 0.1, "end": 1.0},
        ]
        errors = validate_span_forest(records)
        assert any("parent cycle" in e for e in errors)

    def test_detects_duplicate_span_ids(self):
        # build_span_forest silently keeps the last record per id, so
        # the validator must catch duplicates on the raw record list.
        records = [
            {"trace": 1, "span": 0, "parent": None, "start": 0.0, "end": 2.0},
            {"trace": 1, "span": 1, "parent": 0, "start": 0.1, "end": 1.0},
            {"trace": 1, "span": 1, "parent": 0, "start": 0.2, "end": 0.9},
        ]
        errors = validate_span_forest(records)
        assert any("duplicate span id 1" in e for e in errors)

    def test_same_span_id_in_different_traces_is_fine(self):
        records = [
            {"trace": 1, "span": 0, "parent": None, "start": 0.0, "end": 1.0},
            {"trace": 2, "span": 0, "parent": None, "start": 0.0, "end": 1.0},
        ]
        assert validate_span_forest(records) == []

    def test_accepts_well_nested_tree(self):
        records = [
            {"trace": 1, "span": 0, "parent": None, "start": 0.0, "end": 2.0},
            {"trace": 1, "span": 1, "parent": 0, "start": 0.1, "end": 1.0},
            {"trace": 1, "span": 2, "parent": 1, "start": 0.2, "end": 0.9},
        ]
        assert validate_span_forest(records) == []


class TestMachineExportReplay:
    def test_traced_run_exports_well_nested_trees(self, tmp_path):
        relation = make_wisconsin(10_000, correlation="low", seed=70)
        placement = RangeStrategy("unique1").partition(relation, 4)
        telemetry = Telemetry()
        machine = GammaMachine(placement,
                               indexes={"unique1": False, "unique2": True},
                               seed=3, telemetry=telemetry)
        machine.run(make_mix("low-low", domain=10_000),
                    multiprogramming_level=4, measured_queries=80)

        path = tmp_path / "spans.jsonl"
        written = write_spans_jsonl(telemetry.spans, str(path))
        records = load_jsonl(str(path))
        assert written == len(records) > 0
        assert validate_span_forest(records) == []

        forest = build_span_forest(records)
        # Plenty of queries measured; each trace has one root named
        # "query" carrying the query type.
        assert len(forest) >= 80
        for spans in forest.values():
            roots = [s for s in spans.values() if s["parent"] is None]
            assert len(roots) == 1
            assert roots[0]["name"] == "query"
            assert roots[0]["qtype"] in {"QA", "QB"}
        # Resource leaves carry the wait/service split.
        leaves = [r for r in records if "resource" in r]
        assert leaves
        assert all(r["wait"] >= 0 and r["service"] >= 0 for r in leaves)
        labels = {r["resource"] for r in leaves}
        assert "node.cpu" in labels
        assert "node.disk" in labels
        assert "sched.cpu" in labels
