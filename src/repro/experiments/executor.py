"""The plan executor: runs a :class:`~repro.experiments.plan.RunPlan`.

One executor serves every parallelism level.  Given a plan it returns
one :class:`ExecutionOutcome` per planned run, *in plan order*, and its
parent loop does the same four things whatever ``jobs`` is:

* reads each spec from the optional
  :class:`~repro.experiments.cache.ResultCache` -- skipped when
  telemetry or the invariant checker is on, since a cached result has
  no spans and was not checked by this run;
* writes every freshly simulated result through to the cache;
* assembles the outcomes;
* emits the progress events of :mod:`~repro.obs.progress`: a
  ``spec-start``/``spec-finish`` pair per spec in plan order, cached
  specs included.

Only how the pending (uncached) runs are simulated depends on
``jobs``:

* ``jobs == 1``: in-process, in plan order, with no heartbeats.
* ``jobs > 1``: on a **warm process pool** started with
  :func:`default_start_method`.  Under fork the parent first
  *prewarms* every distinct relation/placement the pending specs need
  (:func:`~repro.experiments.plan.prewarm`), so workers inherit the
  populated memos copy-on-write -- a grid of runs over one figure
  shares almost all of its expensive state, so only the simulations
  themselves cost CPU.  Where fork is unavailable a per-worker
  initializer prewarms once per *process* instead.  Dispatch is
  **chunked**: specs are grouped by
  :meth:`~repro.experiments.plan.RunSpec.placement_key` so each chunk
  stays memo-local, and chunks are submitted longest-MPL-first so the
  stragglers schedule early.  Workers push phase-boundary heartbeats
  over the progress tracker's queue.  Determinism is structural: every
  seed derives from the :class:`~repro.experiments.plan.RunSpec`,
  never from worker state.

Telemetry is requested with a picklable
:class:`~repro.obs.telemetry.TelemetrySpec`: each run builds its own
live telemetry from it and returns it as a detached, environment-free
snapshot, in-process or not.

Every simulated run records its wall-clock phases (relation-build,
placement-build, simulate, telemetry-detach) into its own
:mod:`~repro.obs.phases` accumulator; the snapshot rides on the outcome
and is merged into the installed figure-level accumulator, next to the
parent's own cache-read/cache-write phases.  All of this is strictly
observational: results are bit-identical with it on or off.
"""

from __future__ import annotations

import contextlib
import multiprocessing
import os
import time
import traceback
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from ..gamma import RunResult
from ..obs import Telemetry, TelemetrySpec, phases
from ..obs.progress import NULL_PROGRESS
from .cache import ResultCache
from .plan import PlannedRun, RunPlan, RunSpec, execute_run, prewarm

__all__ = ["ExecutionOutcome", "PlanExecutor", "default_start_method",
           "WorkerCrash"]

#: Target number of chunks per worker: enough slack that an unlucky
#: chunk-to-worker assignment cannot idle half the pool, few enough
#: that per-task dispatch overhead stays negligible.
_CHUNKS_PER_WORKER = 2

#: One simulated run as the parent receives it: (result, wall seconds,
#: CPU seconds, detached telemetry or None, phase snapshot).
_Entry = Tuple[RunResult, float, float, Optional[Telemetry], Dict]


class WorkerCrash(RuntimeError):
    """A parallel worker died; carries the worker traceback and spec.

    A bare exception re-raised from a pickled future says nothing about
    *which* of a 63-point grid crashed or where in the worker it
    happened.  The worker wraps any failure in this type with the
    offending :class:`RunSpec` digest, the (strategy, MPL) coordinates,
    its pid, and the full formatted traceback, all embedded in the
    message so the object pickles losslessly back to the parent.

    On the first crash the parent cancels every not-yet-started chunk
    (``pool.shutdown(cancel_futures=True)``) before re-raising, so a
    broken sweep stops promptly instead of simulating the rest of the
    plan to completion first.
    """


@dataclass
class ExecutionOutcome:
    """One executed (or cache-satisfied) planned run."""

    spec: RunSpec
    result: RunResult
    #: Wall seconds this simulation took wherever it ran (0.0 if cached).
    wall_seconds: float = 0.0
    #: Process CPU seconds (``time.process_time`` delta) the run cost in
    #: the process that simulated it.  On an oversubscribed host wall
    #: time inflates with time-slicing while this stays honest, which
    #: is what the parallel benchmark's work-amplification bound is
    #: stated on.
    cpu_seconds: float = 0.0
    #: True when the result was loaded from the cache, not simulated.
    cached: bool = False
    #: Detached telemetry snapshot, when telemetry was requested.
    telemetry: Optional[Telemetry] = None
    #: Wall-clock phase snapshot of this run's simulation, from the
    #: process that ran it (None if cached).
    phases: Optional[Dict] = None


def default_start_method() -> str:
    """The multiprocessing start method the process pool uses.

    ``fork`` wherever the platform offers it: forked workers inherit
    the parent's prewarmed relation/placement memos copy-on-write, so
    the pool is warm for free.  Elsewhere (spawn-only platforms) the
    per-worker initializer prewarms instead.  Pinning this explicitly
    also insulates the executor from interpreter-default changes
    (Python 3.14 stops defaulting to fork on Linux).
    """
    methods = multiprocessing.get_all_start_methods()
    return "fork" if "fork" in methods else multiprocessing.get_start_method()


def _run_one(planned: PlannedRun, telemetry: Optional[Telemetry],
             check_invariants: bool = False
             ) -> Tuple[RunResult, float, float]:
    started = time.perf_counter()
    cpu_started = time.process_time()
    result = execute_run(planned.spec, planned.params, telemetry=telemetry,
                         check_invariants=check_invariants)
    return (result, time.perf_counter() - started,
            time.process_time() - cpu_started)


def _simulate(planned: PlannedRun, telemetry_spec: Optional[TelemetrySpec],
              check_invariants: bool, listener=None) -> _Entry:
    """Simulate one planned run under its own phase accumulator."""
    acc = phases.push(phases.PhaseAccumulator(listener=listener))
    try:
        telemetry = (telemetry_spec.build()
                     if telemetry_spec is not None else None)
        result, wall, cpu = _run_one(planned, telemetry,
                                     check_invariants=check_invariants)
        if telemetry is not None:
            with phases.phase("telemetry-detach"):
                telemetry.detach()
    finally:
        phases.pop(merge_into_parent=False)
    return result, wall, cpu, telemetry, acc.snapshot()


def _pool_initializer(representatives: Sequence[PlannedRun]) -> None:
    """Per-worker warmup for start methods that do not inherit memos.

    Spawn/forkserver workers begin with empty per-process memos; this
    builds each distinct relation/placement once per *process* (not
    once per task) before the first chunk arrives.  Failures are
    deliberately non-fatal (``strict=False``): a spec that cannot build
    dies inside ``_worker_execute_chunk`` instead, where it is wrapped
    in a :class:`WorkerCrash` with full context rather than taking the
    whole pool down as a bare ``BrokenProcessPool``.
    """
    phases.reset()
    prewarm(representatives, strict=False)


def _crash(spec: RunSpec, exc: BaseException) -> WorkerCrash:
    # Chained causes may not pickle (arbitrary third-party exceptions);
    # embed everything as text instead.
    return WorkerCrash(
        f"worker pid {os.getpid()} failed on run spec "
        f"{spec.digest()} (figure {spec.figure}, strategy "
        f"{spec.strategy!r}, mpl {spec.multiprogramming_level}): "
        f"{type(exc).__name__}: {exc}\n"
        f"--- worker traceback ---\n{traceback.format_exc()}")


def _heartbeat(progress_queue, payload: Dict) -> None:
    try:
        progress_queue.put(payload)
    except Exception:
        pass  # progress must never kill a simulation


def _worker_execute_chunk(chunk: Sequence[PlannedRun],
                          telemetry_spec: Optional[TelemetrySpec],
                          check_invariants: bool = False,
                          progress_queue=None) -> List[_Entry]:
    """Top-level worker entry point (must be picklable by name).

    Simulates one memo-local chunk of planned runs and returns one
    entry per run, in chunk order.
    """
    # Fork-start workers inherit the parent's installed accumulator
    # stack as junk state; drop it before collecting anything.
    phases.reset()
    pid = os.getpid()
    entries = []
    for planned in chunk:
        spec = planned.spec
        try:
            fields = {"spec": spec.digest()[:12], "strategy": spec.strategy,
                      "mpl": spec.multiprogramming_level, "pid": pid}
            listener = None
            if progress_queue is not None:
                def listener(name: str, action: str, elapsed: float,
                             fields=fields) -> None:
                    if action == "start":
                        _heartbeat(progress_queue, {
                            **fields, "phase": name,
                            "wall_seconds": round(elapsed, 6)})

            entry = _simulate(planned, telemetry_spec, check_invariants,
                              listener)
            if progress_queue is not None:
                counters = entry[4]["counters"]
                _heartbeat(progress_queue, {
                    **fields, "phase": "worker-done",
                    "wall_seconds": round(entry[1], 6),
                    "events": int(counters.get("events", 0)),
                    "sim_clock": round(counters.get("sim_seconds", 0.0), 6)})
            entries.append(entry)
        except BaseException as exc:
            raise _crash(spec, exc) from None
    return entries


class PlanExecutor:
    """Runs a plan in-process (``jobs == 1``) or on a warm pool.

    Results are bit-identical at any ``jobs`` and under any start
    method; only :attr:`name` ("serial" or "process-pool", echoed into
    progress events, cache entries and saved artifacts) and the wall
    clock differ.
    """

    def __init__(self, jobs: int = 1):
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        self.jobs = jobs
        self.name = "serial" if jobs == 1 else "process-pool"

    def execute(self, plan: RunPlan,
                cache: Optional[ResultCache] = None,
                telemetry_spec: Optional[TelemetrySpec] = None,
                check_invariants: bool = False,
                progress=None,
                ) -> List[ExecutionOutcome]:
        progress = progress if progress is not None else NULL_PROGRESS
        acc = phases.current()
        progress.plan_started(len(plan), executor=self.name, jobs=self.jobs,
                              figure=_plan_figure(plan))
        read_cache = (cache is not None and telemetry_spec is None
                      and not check_invariants)
        outcomes: List[Optional[ExecutionOutcome]] = []
        pending: List[Tuple[int, PlannedRun]] = []
        for index, planned in enumerate(plan):
            hit = None
            if read_cache:
                with phases.phase("cache-read"):
                    hit = cache.get(planned.spec)
            if hit is None:
                pending.append((index, planned))
                outcomes.append(None)
            else:
                outcomes.append(ExecutionOutcome(
                    spec=planned.spec, result=hit, cached=True))

        if self.jobs == 1:
            simulated = ((index, _simulate(planned, telemetry_spec,
                                           check_invariants))
                         for index, planned in pending)
        else:
            simulated = self._on_pool(pending, telemetry_spec,
                                      check_invariants, progress)
        with contextlib.closing(simulated):
            for index, planned in enumerate(plan):
                progress.spec_started(planned.spec, index)
                # Runs finish in any order on the pool; store each as it
                # arrives and report this spec once its own run is in.
                while outcomes[index] is None:
                    done, (result, wall, cpu, telemetry, snapshot) = \
                        next(simulated)
                    spec = plan.runs[done].spec
                    if cache is not None:
                        with phases.phase("cache-write"):
                            cache.put(spec, result, executor=self.name,
                                      jobs=self.jobs)
                    if acc is not None:
                        acc.merge(snapshot)
                    outcomes[done] = ExecutionOutcome(
                        spec=spec, result=result, wall_seconds=wall,
                        cpu_seconds=cpu, telemetry=telemetry,
                        phases=snapshot)
                outcome = outcomes[index]
                counters = (outcome.phases or {}).get("counters", {})
                progress.spec_finished(
                    planned.spec, index, cached=outcome.cached,
                    wall_seconds=outcome.wall_seconds,
                    events=counters.get("events"),
                    sim_seconds=counters.get("sim_seconds"))
        progress.plan_finished()
        return outcomes

    def _on_pool(self, pending, telemetry_spec, check_invariants,
                 progress) -> Iterator[Tuple[int, _Entry]]:
        """Simulate *pending* on the pool, yielding runs as they finish."""
        start_method = default_start_method()
        pool_kwargs: Dict = {
            "max_workers": self.jobs,
            "mp_context": multiprocessing.get_context(start_method),
        }
        if start_method == "fork":
            # Build every distinct relation/placement in the parent
            # BEFORE the pool exists: forked workers inherit the warm
            # memos copy-on-write and never rebuild.  Non-strict --
            # a spec that cannot build crashes inside its worker with
            # full WorkerCrash context instead of here.
            prewarm([planned for _, planned in pending], strict=False)
        else:
            # Spawn-style workers inherit nothing; prewarm once per
            # worker process via the pool initializer.  One planned run
            # per distinct placement key is enough to warm both memos.
            representatives: Dict[Tuple, PlannedRun] = {}
            for _, planned in pending:
                representatives.setdefault(planned.spec.placement_key(),
                                           planned)
            pool_kwargs.update(
                initializer=_pool_initializer,
                initargs=(tuple(representatives.values()),))

        heartbeat_queue = progress.worker_queue()
        with ProcessPoolExecutor(**pool_kwargs) as pool:
            futures = {
                pool.submit(_worker_execute_chunk,
                            tuple(planned for _, planned in chunk),
                            telemetry_spec, check_invariants,
                            heartbeat_queue): chunk
                for chunk in _chunk_pending(pending, self.jobs)
            }
            try:
                for future in as_completed(futures):
                    for (index, _), entry in zip(futures[future],
                                                 future.result()):
                        yield index, entry
            except BaseException:
                # First crash (or interrupt) wins: drop every chunk that
                # has not started yet so the sweep stops promptly
                # instead of simulating the rest of the plan first.
                pool.shutdown(cancel_futures=True)
                raise


def _chunk_pending(pending: Sequence[Tuple[int, PlannedRun]], jobs: int
                   ) -> List[List[Tuple[int, PlannedRun]]]:
    """Group pending runs into memo-local, straggler-first chunks.

    Specs are grouped by :meth:`RunSpec.placement_key` (a chunk never
    mixes placements, so a cold worker builds at most one), ordered
    within each group by descending MPL, and groups are split so the
    whole plan yields roughly ``_CHUNKS_PER_WORKER * jobs`` chunks --
    enough slack for the pool to balance.  Chunks are then submitted
    longest-MPL-first: the high-MPL points dominate a figure's wall
    time, so scheduling them early keeps the tail short.  Everything
    here is deterministic (stable sorts, first-appearance group order).
    """
    groups: Dict[Tuple, List[Tuple[int, PlannedRun]]] = {}
    for index, planned in pending:
        groups.setdefault(planned.spec.placement_key(), []).append(
            (index, planned))
    target = max(len(groups), min(len(pending), _CHUNKS_PER_WORKER * jobs))
    size = max(1, -(-len(pending) // target))  # ceil division
    chunks: List[List[Tuple[int, PlannedRun]]] = []
    for group in groups.values():
        group.sort(key=lambda entry: (
            -entry[1].spec.multiprogramming_level, entry[0]))
        for start in range(0, len(group), size):
            chunks.append(group[start:start + size])
    chunks.sort(key=lambda chunk: (
        -max(entry[1].spec.multiprogramming_level for entry in chunk),
        chunk[0][0]))
    return chunks


def _plan_figure(plan: RunPlan) -> Optional[str]:
    """The figure name a plan regenerates (None for an empty plan)."""
    return plan.runs[0].spec.figure if len(plan) else None
