"""Executor observability: zero perturbation, phases, worker crashes.

The load-bearing guarantee of the run observatory is that it *observes*:
a figure regenerated with progress streaming on must be bit-identical
-- series and spec digests -- to one regenerated with it off, in-process
and on the pool alike.
"""

import io
import json

import pytest

from repro.experiments import (
    FIGURES,
    PlanExecutor,
    compile_figure,
    figure_from_dict,
    figure_to_dict,
    run_experiment,
)
from repro.experiments.executor import WorkerCrash
from repro.obs.phases import PHASE_NAMES
from repro.obs.progress import ProgressTracker

TINY = dict(cardinality=2_000, num_sites=4, measured_queries=5,
            mpls=(1, 2), seed=13, strategies=("range",))


def _series_payload(result):
    return json.dumps(
        {name: [run.to_json_dict() for run in runs]
         for name, runs in result.series.items()},
        sort_keys=True)


class TestZeroPerturbation:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_observed_run_bit_identical_to_dark_run(self, jobs):
        dark = run_experiment(FIGURES["8a"], jobs=jobs, **TINY)
        progress = ProgressTracker(stream=io.StringIO(), mode="jsonl")
        try:
            observed = run_experiment(FIGURES["8a"], jobs=jobs,
                                      progress=progress, **TINY)
        finally:
            progress.close()
        assert _series_payload(dark) == _series_payload(observed)
        assert dark.spec_digests == observed.spec_digests


class TestPhaseAttribution:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_core_phases_recorded(self, jobs):
        # Fresh per-process memos: a relation/placement memo hit from an
        # earlier test in this process would legitimately skip the
        # build phases (that is the memo working as designed).
        from repro.experiments.plan import clear_memos
        clear_memos()
        result = run_experiment(FIGURES["8a"], jobs=jobs, **TINY)
        totals = result.phases["totals"]
        for name in ("plan-compile", "relation-build",
                     "placement-build", "simulate"):
            assert name in totals, f"missing phase {name!r} at jobs={jobs}"
            assert totals[name]["seconds"] >= 0.0
            assert totals[name]["count"] >= 1
        assert set(totals) <= set(PHASE_NAMES)
        # Simulation facts for events/sec reporting.
        assert result.phases["counters"]["events"] > 0
        assert result.phases["counters"]["sim_seconds"] > 0
        mem = result.phases["memory"]
        assert mem["peak_rss_kb"] is None or mem["peak_rss_kb"] > 0

    def test_serial_and_parallel_count_same_events(self):
        serial = run_experiment(FIGURES["8a"], jobs=1, **TINY)
        parallel = run_experiment(FIGURES["8a"], jobs=2, **TINY)
        assert serial.phases["counters"]["events"] == \
            parallel.phases["counters"]["events"]

    def test_phases_round_trip_results_v2(self):
        result = run_experiment(FIGURES["8a"], **TINY)
        payload = json.loads(json.dumps(figure_to_dict(result),
                                        sort_keys=True))
        restored = figure_from_dict(payload)
        assert restored.phases == result.phases

    def test_v2_files_without_phases_still_load(self):
        result = run_experiment(FIGURES["8a"], **TINY)
        payload = figure_to_dict(result)
        del payload["phases"]
        assert figure_from_dict(payload).phases is None

    def test_parallel_outcome_carries_worker_snapshot(self):
        plan = compile_figure(FIGURES["8a"], **TINY)
        from repro.obs import phases as phases_module
        phases_module.push(phases_module.PhaseAccumulator())
        try:
            outcomes = PlanExecutor(jobs=2).execute(plan)
        finally:
            phases_module.pop(merge_into_parent=False)
        assert all(o.phases is not None for o in outcomes)
        assert all("simulate" in o.phases["totals"] for o in outcomes)


class TestWorkerCrash:
    def test_crash_carries_digest_and_traceback(self):
        plan = compile_figure(FIGURES["8a"], **TINY)
        # Corrupt one spec so the worker fails deep inside the build.
        bad = plan.runs[1].spec
        object.__setattr__(bad, "strategy", "no-such-strategy")
        with pytest.raises(WorkerCrash) as info:
            PlanExecutor(jobs=2).execute(plan)
        message = str(info.value)
        assert bad.digest() in message
        assert "no-such-strategy" in message
        assert "worker traceback" in message
        assert "Traceback (most recent call last)" in message
        assert "worker pid" in message
