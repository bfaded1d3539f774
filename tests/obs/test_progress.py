"""Progress-stream tests: golden event sequences on a tiny 2-spec plan.

The ``--progress jsonl`` stream is the machine-facing contract: every
spec must reach exactly one terminal ``spec-finish`` event (status
``executed`` or ``cached``), framed by one ``plan-start`` and one
``plan-end``, in-process and on the process pool, on fresh, partly
cached and fully cached plans alike.  Terminal events are emitted by
the parent in plan order whatever ``jobs`` is, so everything except
heartbeat interleaving is asserted verbatim.
"""

import io

import pytest

from repro.experiments import FIGURES, ResultCache, run_experiment
from repro.obs.progress import (
    NULL_PROGRESS,
    ProgressTracker,
    read_progress_jsonl,
)

#: Two specs -- one strategy, two MPLs -- small enough to simulate in
#: well under a second.
TINY = dict(cardinality=2_000, num_sites=4, measured_queries=5,
            mpls=(1, 2), seed=13, strategies=("range",))


def _run_with_progress(jobs=1, cache=None, **overrides):
    buffer = io.StringIO()
    progress = ProgressTracker(stream=buffer, mode="jsonl")
    try:
        result = run_experiment(FIGURES["8a"], jobs=jobs, cache=cache,
                                progress=progress, **{**TINY, **overrides})
    finally:
        progress.close()
    return result, read_progress_jsonl(buffer.getvalue())


def _assert_terminal_exactly_once(events, total, statuses):
    """Every spec index gets exactly one spec-finish, in plan order."""
    assert events[0]["event"] == "plan-start"
    assert events[0]["total"] == total
    assert events[-1]["event"] == "plan-end"
    finishes = [e for e in events if e["event"] == "spec-finish"]
    assert [e["index"] for e in finishes] == list(range(total))
    assert [e["status"] for e in finishes] == statuses
    starts = [e for e in events if e["event"] == "spec-start"]
    assert sorted(e["index"] for e in starts) == list(range(total))
    assert events[-1]["executed"] == statuses.count("executed")
    assert events[-1]["cached"] == statuses.count("cached")


class TestGoldenSequences:
    def test_serial_two_spec_plan(self):
        result, events = _run_with_progress(jobs=1)
        _assert_terminal_exactly_once(events, 2, ["executed", "executed"])
        # Serial emits no heartbeats; the sequence is fully golden.
        assert [e["event"] for e in events] == [
            "plan-start", "spec-start", "spec-finish",
            "spec-start", "spec-finish", "plan-end"]
        assert events[0]["executor"] == "serial"
        assert events[0]["figure"] == "8a"
        finish = [e for e in events if e["event"] == "spec-finish"][0]
        assert finish["strategy"] == "range"
        assert finish["mpl"] == 1
        assert len(finish["spec"]) == 12
        assert finish["events"] > 0
        assert finish["sim_seconds"] > 0
        assert result.executed_runs == 2

    def test_parallel_two_spec_plan(self):
        result, events = _run_with_progress(jobs=2)
        _assert_terminal_exactly_once(events, 2, ["executed", "executed"])
        assert events[0]["executor"] == "process-pool"
        assert events[0]["jobs"] == 2
        # Workers heartbeat at phase boundaries and once at completion.
        beats = [e for e in events if e["event"] == "heartbeat"]
        assert beats, "parallel workers must push heartbeats"
        assert {b["phase"] for b in beats} & {"simulate", "worker-done"}
        for beat in beats:
            assert beat["pid"] > 0
            assert len(beat["spec"]) == 12
        done = [b for b in beats if b["phase"] == "worker-done"]
        assert all(b["events"] > 0 for b in done)
        assert result.executed_runs == 2

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_all_cache_hits_path(self, tmp_path, jobs):
        cache = ResultCache(str(tmp_path))
        run_experiment(FIGURES["8a"], cache=cache, **TINY)  # warm it
        result, events = _run_with_progress(jobs=jobs, cache=cache)
        _assert_terminal_exactly_once(events, 2, ["cached", "cached"])
        assert not [e for e in events if e["event"] == "heartbeat"]
        assert result.cached_runs == 2

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_partly_cached_plan_finishes_in_plan_order(self, tmp_path, jobs):
        """A cached spec between two simulated ones still finishes in
        its plan slot: the pool must not report it ahead of index 0."""
        cache = ResultCache(str(tmp_path))
        run_experiment(FIGURES["8a"], cache=cache,
                       **{**TINY, "mpls": (2,)})  # warm the middle MPL
        result, events = _run_with_progress(jobs=jobs, cache=cache,
                                            mpls=(1, 2, 4))
        _assert_terminal_exactly_once(events, 3,
                                      ["executed", "cached", "executed"])
        assert result.cached_runs == 1


class TestTrackerUnit:
    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError):
            ProgressTracker(stream=io.StringIO(), mode="fancy")

    def test_line_mode_overwrites_one_status_line(self):
        buffer = io.StringIO()
        progress = ProgressTracker(stream=buffer, mode="line")
        result = run_experiment(FIGURES["8a"], progress=progress, **TINY)
        out = buffer.getvalue()
        assert result.executed_runs == 2
        # Carriage-return rewrites, one final newline at plan end.
        assert out.count("\r") >= 3
        assert out.endswith("\n")
        assert "2 simulated, 0 cached" in out

    def test_eta_prices_cached_specs_at_zero(self):
        progress = ProgressTracker(stream=io.StringIO(), mode="jsonl")
        progress.plan_started(total=4, executor="serial", jobs=1)

        class FakeSpec:
            strategy = "range"
            multiprogramming_level = 1

            def digest(self):
                return "f" * 64

        assert progress.eta_seconds() is None  # nothing executed yet
        progress.spec_finished(FakeSpec(), 0, cached=False, wall_seconds=2.0)
        progress.spec_finished(FakeSpec(), 1, cached=True)
        # Two specs remain, priced at the 2.0 s mean of executed ones.
        assert progress.eta_seconds() == pytest.approx(4.0)

    def test_eta_tail_cannot_use_more_workers_than_specs(self):
        """One spec left on a 4-worker pool still takes a full mean
        wall -- the old ``/ jobs`` estimate claimed a quarter of it."""
        progress = ProgressTracker(stream=io.StringIO(), mode="jsonl")
        progress.plan_started(total=5, executor="process-pool", jobs=4)

        class FakeSpec:
            strategy = "range"
            multiprogramming_level = 1

            def digest(self):
                return "f" * 64

        for index in range(4):
            progress.spec_finished(FakeSpec(), index, cached=False,
                                   wall_seconds=2.0)
        assert progress.eta_seconds() == pytest.approx(2.0)
        # With plenty of specs left the pool-wide divisor still applies.
        wide = ProgressTracker(stream=io.StringIO(), mode="jsonl")
        wide.plan_started(total=9, executor="process-pool", jobs=4)
        wide.spec_finished(FakeSpec(), 0, cached=False, wall_seconds=2.0)
        assert wide.eta_seconds() == pytest.approx(8 * 2.0 / 4)

    def test_null_progress_accepts_everything(self):
        NULL_PROGRESS.plan_started(total=1, executor="serial", jobs=1)
        NULL_PROGRESS.heartbeat({})
        NULL_PROGRESS.plan_finished()
        assert NULL_PROGRESS.worker_queue() is None

    def test_read_progress_jsonl_accepts_str_stream_and_lines(self):
        raw = '{"event": "plan-end"}\n\n{"event": "plan-start"}\n'
        for source in (raw, io.StringIO(raw), raw.splitlines()):
            events = read_progress_jsonl(source)
            assert [e["event"] for e in events] == ["plan-end", "plan-start"]
