"""Tests for plan executors and the resumable result cache.

The determinism test is the contract ``--jobs N`` rests on: a parallel
run of the fig-8a smoke config must be *bit-identical* to serial,
because every seed derives from the RunSpec, never from worker state.
"""

import json
import math
import multiprocessing
import os
import pickle
import time

import pytest

from repro.experiments import (
    FIGURES,
    PlanExecutor,
    ResultCache,
    WorkerCrash,
    compile_figure,
    compile_point,
    figure_from_dict,
    figure_to_dict,
    run_experiment,
)
from repro.experiments import executor as executor_module
from repro.experiments.executor import _chunk_pending
from repro.obs import TelemetrySpec, phases

#: Start methods worth exercising here: fork covers the copy-on-write
#: memo path, spawn the per-worker initializer prewarm.  Filtered by
#: platform so the suite ports (macOS/Windows default to spawn).
START_METHODS = [method for method in ("fork", "spawn")
                 if method in multiprocessing.get_all_start_methods()]

#: The fig-8a smoke configuration the determinism guarantee is stated on.
SMOKE = dict(cardinality=10_000, num_sites=4, measured_queries=30,
             mpls=(1, 4), seed=5)


def _series_payload(result):
    """A figure's series as canonical JSON (NaN-tolerant bit comparison)."""
    return json.dumps(
        {name: [run.to_json_dict() for run in runs]
         for name, runs in result.series.items()},
        sort_keys=True)


class TestMakeExecutor:
    def test_serial_for_one_job(self):
        executor = PlanExecutor(1)
        assert executor.jobs == 1
        assert executor.name == "serial"

    def test_parallel_for_many(self):
        executor = PlanExecutor(3)
        assert executor.jobs == 3
        assert executor.name == "process-pool"

    def test_invalid_jobs_rejected(self):
        with pytest.raises(ValueError):
            PlanExecutor(0)


class TestParallelDeterminism:
    def test_jobs4_bit_identical_to_serial(self):
        serial = run_experiment(FIGURES["8a"], **SMOKE)
        parallel = run_experiment(FIGURES["8a"], jobs=4, **SMOKE)
        assert _series_payload(serial) == _series_payload(parallel)
        assert parallel.jobs == 4
        assert parallel.executor == "process-pool"
        assert serial.spec_digests == parallel.spec_digests

    def test_outcomes_arrive_in_plan_order(self):
        plan = compile_figure(FIGURES["8a"], cardinality=8_000, num_sites=4,
                              measured_queries=20, mpls=(1, 2), seed=5)
        outcomes = PlanExecutor(jobs=2).execute(plan)
        assert [o.spec for o in outcomes] == plan.specs()

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_parallel_telemetry_spec_returns_snapshots(self, jobs):
        plan = compile_figure(FIGURES["8a"], cardinality=8_000, num_sites=4,
                              measured_queries=20, mpls=(2,), seed=5,
                              strategies=("range",))
        (outcome,) = PlanExecutor(jobs=jobs).execute(
            plan, telemetry_spec=TelemetrySpec())
        assert outcome.telemetry is not None
        assert outcome.telemetry.env is None  # detached snapshot
        assert outcome.telemetry.spans.span_count() > 0
        # Snapshots survive a further pickle round trip.
        clone = pickle.loads(pickle.dumps(outcome.telemetry))
        assert clone.spans.span_count() == \
            outcome.telemetry.spans.span_count()


class TestStartMethods:
    """The parallel contract holds under every start method we can pin.

    Fork exercises parent prewarm + copy-on-write memo inheritance,
    spawn the per-worker initializer prewarm -- the path platforms
    without fork take.  The pool always starts with
    ``default_start_method()``, so spawn is reached by patching it.
    """

    KWARGS = dict(cardinality=8_000, num_sites=4, measured_queries=20,
                  mpls=(1, 2), seed=5)

    @pytest.fixture(scope="class")
    def serial_payload(self):
        return _series_payload(run_experiment(FIGURES["8a"], **self.KWARGS))

    @pytest.mark.parametrize("start_method", START_METHODS)
    def test_bit_identical_to_serial(self, start_method, serial_payload,
                                     monkeypatch):
        monkeypatch.setattr(executor_module, "default_start_method",
                            lambda: start_method)
        parallel = run_experiment(FIGURES["8a"], jobs=2, **self.KWARGS)
        assert _series_payload(parallel) == serial_payload
        assert parallel.process_cpu_seconds > 0

    @pytest.mark.skipif("fork" not in START_METHODS,
                        reason="fork unavailable on this platform")
    def test_fork_workers_inherit_warm_memos(self):
        """Under fork, every build happens in the parent prewarm --
        worker phase snapshots must contain no build phases at all."""
        from repro.experiments.plan import clear_memos
        clear_memos()  # force the prewarm to build, not hit
        plan = compile_figure(FIGURES["8a"], **self.KWARGS)
        acc = phases.push(phases.PhaseAccumulator())
        try:
            outcomes = PlanExecutor(jobs=2).execute(plan)
        finally:
            phases.pop(merge_into_parent=False)
        assert len(outcomes) == 6
        for outcome in outcomes:
            totals = outcome.phases["totals"]
            assert "relation-build" not in totals
            assert "placement-build" not in totals
            assert "simulate" in totals
        # The figure-level accumulator saw the parent-side prewarm:
        # one relation, one placement per strategy.
        assert acc.totals["relation-build"][1] == 1
        assert acc.totals["placement-build"][1] == 3


class TestChunking:
    """Unit contract of the deterministic chunked-dispatch planner."""

    def _pending(self, mpls=(1, 2, 4, 8), strategies=None):
        plan = compile_figure(FIGURES["8a"], cardinality=8_000, num_sites=4,
                              measured_queries=10, mpls=mpls, seed=5,
                              strategies=strategies)
        return list(enumerate(plan))

    def test_chunks_are_memo_local(self):
        for chunk in _chunk_pending(self._pending(), jobs=2):
            keys = {planned.spec.placement_key() for _, planned in chunk}
            assert len(keys) == 1

    def test_every_index_dispatched_exactly_once(self):
        pending = self._pending()
        chunks = _chunk_pending(pending, jobs=3)
        dispatched = sorted(index for chunk in chunks
                            for index, _ in chunk)
        assert dispatched == [index for index, _ in pending]

    def test_stragglers_first(self):
        chunks = _chunk_pending(self._pending(), jobs=2)
        max_mpls = [max(p.spec.multiprogramming_level for _, p in chunk)
                    for chunk in chunks]
        assert max_mpls == sorted(max_mpls, reverse=True)
        # ... and within a chunk the longest run leads too.
        for chunk in chunks:
            mpls = [p.spec.multiprogramming_level for _, p in chunk]
            assert mpls == sorted(mpls, reverse=True)

    def test_enough_chunks_to_feed_the_pool(self):
        pending = self._pending()
        for jobs in (2, 4, 8):
            chunks = _chunk_pending(pending, jobs)
            assert len(chunks) >= min(jobs, len(pending))

    def test_deterministic(self):
        pending = self._pending()
        first = _chunk_pending(pending, jobs=4)
        second = _chunk_pending(pending, jobs=4)
        assert [[index for index, _ in chunk] for chunk in first] == \
            [[index for index, _ in chunk] for chunk in second]

    def test_single_spec_plan(self):
        pending = self._pending(mpls=(2,), strategies=("range",))
        assert _chunk_pending(pending, jobs=4) == [pending]


@pytest.mark.skipif("fork" not in START_METHODS,
                    reason="test patches the parent and relies on fork "
                           "inheritance to ship the patch to workers")
class TestCrashContainment:
    def test_first_crash_cancels_pending_chunks(self, tmp_path, monkeypatch):
        """Crash on the first-dispatched spec of a 12-point plan: the
        parent must cancel not-yet-started chunks instead of simulating
        the remaining 11 points to completion first."""
        mpls = tuple(range(1, 13))
        plan = compile_figure(FIGURES["8a"], cardinality=8_000, num_sites=4,
                              measured_queries=10, mpls=mpls, seed=5,
                              strategies=("range",))
        marker_dir = str(tmp_path)
        crash_mpl = max(mpls)  # heads the first-submitted chunk

        def fake_run_one(planned, telemetry, check_invariants=False):
            mpl = planned.spec.multiprogramming_level
            if mpl == crash_mpl:
                raise RuntimeError("injected crash")
            time.sleep(0.2)
            open(os.path.join(marker_dir, f"ran-{mpl}"), "w").close()
            return "dummy-result", 0.2, 0.0

        monkeypatch.setattr(executor_module, "_run_one", fake_run_one)
        with pytest.raises(WorkerCrash, match="injected crash") as err:
            PlanExecutor(jobs=2).execute(plan)
        # The crash report names the offending spec.
        assert "mpl 12" in str(err.value)
        assert "strategy 'range'" in str(err.value)
        # 12 specs chunk into 4 chunks of 3 at jobs=2.  Without
        # containment all 11 non-crashing specs run; with it, at most
        # the chunks already in flight when the crash surfaced do.
        assert len(os.listdir(marker_dir)) <= 9


class TestWallAndCpuSeconds:
    def test_serial_accounting(self):
        result = run_experiment(FIGURES["8a"], **SMOKE)
        assert result.cpu_seconds > 0
        assert result.wall_seconds >= result.cpu_seconds * 0.5
        assert result.executed_runs == 6
        assert result.cached_runs == 0

    def test_process_cpu_seconds_recorded_and_round_trips(self):
        result = run_experiment(FIGURES["8a"], **SMOKE)
        assert result.process_cpu_seconds > 0
        payload = figure_to_dict(result)
        assert payload["process_cpu_seconds"] == result.process_cpu_seconds
        restored = figure_from_dict(json.loads(json.dumps(payload)))
        assert restored.process_cpu_seconds == result.process_cpu_seconds

    def test_pre_warm_pool_files_default_process_cpu(self):
        result = run_experiment(FIGURES["8a"], mpls=(1,),
                                strategies=("range",), cardinality=8_000,
                                num_sites=4, measured_queries=10, seed=5)
        payload = figure_to_dict(result)
        del payload["process_cpu_seconds"]
        assert figure_from_dict(payload).process_cpu_seconds == 0.0

    def test_jobs_echoed_into_saved_json(self):
        result = run_experiment(FIGURES["8a"], jobs=2, **SMOKE)
        payload = figure_to_dict(result)
        assert payload["executor"]["jobs"] == 2
        assert payload["executor"]["name"] == "process-pool"
        assert payload["cpu_seconds"] > 0
        assert payload["process_cpu_seconds"] > 0
        assert payload["wall_seconds"] > 0


class TestResultCache:
    def _planned(self, **overrides):
        kwargs = dict(multiprogramming_level=2, cardinality=8_000,
                      num_sites=4, measured_queries=20, seed=5)
        kwargs.update(overrides)
        return compile_point(FIGURES["8a"], "range", **kwargs)

    def test_put_get_round_trip(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        (outcome,) = PlanExecutor().execute(
            compile_figure(FIGURES["8a"], cardinality=8_000, num_sites=4,
                           measured_queries=20, mpls=(2,), seed=5,
                           strategies=("range",)), cache=cache)
        assert not outcome.cached
        restored = cache.get(outcome.spec)
        assert restored == outcome.result
        assert cache.hits == 1

    def test_miss_on_unknown_spec(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        assert cache.get(self._planned().spec) is None
        assert cache.misses == 1

    def test_corrupt_entry_counts_as_miss(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        plan = compile_figure(FIGURES["8a"], cardinality=8_000, num_sites=4,
                              measured_queries=20, mpls=(2,), seed=5,
                              strategies=("range",))
        PlanExecutor().execute(plan, cache=cache)
        path = cache.path_for(plan.specs()[0])
        with open(path, "w") as handle:
            handle.write("{ truncated")
        assert cache.get(plan.specs()[0]) is None

    @pytest.mark.parametrize("body", [None, [], 3, "result-list"],
                             ids=["null", "list", "number", "result-list"])
    def test_wrong_shape_entry_counts_as_miss(self, tmp_path, body):
        """Valid JSON that is not a cache entry is a miss, not a crash."""
        cache = ResultCache(str(tmp_path))
        plan = compile_figure(FIGURES["8a"], cardinality=8_000, num_sites=4,
                              measured_queries=20, mpls=(2,), seed=5,
                              strategies=("range",))
        PlanExecutor().execute(plan, cache=cache)
        spec = plan.specs()[0]
        path = cache.path_for(spec)
        if body == "result-list":
            with open(path) as handle:
                body = json.load(handle)
            body["result"] = []
        with open(path, "w") as handle:
            json.dump(body, handle)
        misses = cache.misses
        assert cache.get(spec) is None
        assert (cache.hits, cache.misses) == (0, misses + 1)

    def test_interrupted_sweep_resumes(self, tmp_path):
        """A killed run's completed points are skipped on re-run."""
        cache = ResultCache(str(tmp_path))
        first = run_experiment(FIGURES["8a"], cache=cache, **SMOKE)
        assert first.executed_runs == 6
        assert len(cache) == 6
        # Simulate a partially-complete cache: drop one entry.
        os.unlink(cache.path_for(compile_point(
            FIGURES["8a"], "magic", multiprogramming_level=4,
            cardinality=SMOKE["cardinality"], num_sites=SMOKE["num_sites"],
            measured_queries=SMOKE["measured_queries"],
            seed=SMOKE["seed"]).spec))
        second = run_experiment(FIGURES["8a"], cache=cache, **SMOKE)
        assert second.executed_runs == 1
        assert second.cached_runs == 5
        assert _series_payload(first) == _series_payload(second)

    def test_parallel_run_resumes_from_serial_cache(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        serial = run_experiment(FIGURES["8a"], cache=cache, **SMOKE)
        parallel = run_experiment(FIGURES["8a"], cache=cache, jobs=2,
                                  **SMOKE)
        assert parallel.executed_runs == 0
        assert parallel.cached_runs == 6
        assert _series_payload(serial) == _series_payload(parallel)

    def test_traced_runs_bypass_cache_reads(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        plan = compile_figure(FIGURES["8a"], cardinality=8_000, num_sites=4,
                              measured_queries=20, mpls=(2,), seed=5,
                              strategies=("range",))
        PlanExecutor().execute(plan, cache=cache)
        (outcome,) = PlanExecutor().execute(
            plan, cache=cache, telemetry_spec=TelemetrySpec())
        # Tracing needs a live simulation: the hit must not short-circuit.
        assert not outcome.cached
        assert outcome.telemetry is not None

    def test_different_measured_queries_do_not_alias(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        a = self._planned(measured_queries=20)
        b = self._planned(measured_queries=30)
        assert a.spec.digest() != b.spec.digest()
        assert cache.path_for(a.spec) != cache.path_for(b.spec)


class TestRunResultRoundTrip:
    """RunResult must cross pickle (executors) and JSON (cache) losslessly."""

    @pytest.fixture(scope="class")
    def result(self):
        planned = compile_point(FIGURES["8a"], "range",
                                multiprogramming_level=2,
                                cardinality=8_000, num_sites=4,
                                measured_queries=20, seed=5)
        from repro.experiments import execute_run
        return execute_run(planned.spec, planned.params)

    def test_pickle_round_trip(self, result):
        assert pickle.loads(pickle.dumps(result)) == result

    def test_json_round_trip(self, result):
        from repro.gamma import RunResult
        payload = json.loads(json.dumps(result.to_json_dict()))
        restored = RunResult.from_json_dict(payload)
        for field, value in result.to_json_dict().items():
            other = getattr(restored, field)
            if isinstance(value, float) and math.isnan(value):
                assert math.isnan(other)
            else:
                assert other == value
