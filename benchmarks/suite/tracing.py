"""Benchmark-side tracing of the program's layers.

:class:`Tracer` patches module and class attributes at the program's
layer boundaries with wrappers that record ``perf_counter`` spans, and
restores every original on :meth:`Tracer.uninstall`.  Inside
``GammaMachine.run`` it also runs cProfile and sums self time by source
module (des, gamma.<module>, storage, obs, core, workload, builtins), so
the simulate phase breaks down into layers too.

Spans stay in memory.  Forked pool workers inherit the installed
wrappers; each worker appends what it recorded to its own file in the
spool directory whenever a worker-level span closes, and the tracing
process merges those files with :meth:`Tracer.collect`.
"""

from __future__ import annotations

import cProfile
import json
import os
import time
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional


def layer_of(filename: str) -> str:
    """The layer a profiled function belongs to, from its source file."""
    if filename == "~":
        return "builtins"  # C functions: numpy, heapq, dict/list methods
    path = filename.replace("\\", "/")
    marker = path.rfind("/repro/")
    if marker < 0:
        return "other"  # stdlib and third-party Python code
    parts = path[marker + len("/repro/"):].split("/")
    if parts[0] == "gamma" and len(parts) > 1:
        return "gamma." + parts[1].rsplit(".", 1)[0]
    return parts[0].rsplit(".", 1)[0]


def span_totals(spans: List[Dict]) -> Dict[str, float]:
    """Summed span seconds by span name."""
    sums: Dict[str, float] = {}
    for span in spans:
        sums[span["name"]] = sums.get(span["name"], 0.0) + \
            span["end"] - span["start"]
    return sums


class Tracer:
    """Spans, profile buckets and counters for one traced child run."""

    def __init__(self, workload: str, spool_dir: str):
        self.workload = workload
        self.spool_dir = spool_dir
        self.spans: List[Dict] = []
        #: layer -> cProfile self seconds inside GammaMachine.run
        self.profile: Dict[str, float] = {}
        #: summed counters (rebalancer effort, entry-exchange moves)
        self.counters: Dict[str, float] = {}
        #: maxima (load spread)
        self.peaks: Dict[str, float] = {}
        self._stack: List[Dict] = []
        self._serial = 0
        self._patches: List[tuple] = []
        self._fork_depth: Optional[int] = None
        self._installed = False

    # -- recording ---------------------------------------------------------

    @contextmanager
    def span(self, name: str, point: Optional[str] = None):
        parent = self._stack[-1] if self._stack else None
        if point is None and parent is not None:
            point = parent["point"]
        self._serial += 1
        record = {"id": f"{os.getpid()}:{self._serial}", "name": name,
                  "start": time.perf_counter(), "end": None,
                  "parent": parent["id"] if parent else None,
                  "pid": os.getpid(), "workload": self.workload,
                  "point": point}
        self._stack.append(record)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()
            self.spans.append(record)
            if self._fork_depth is not None and \
                    len(self._stack) == self._fork_depth:
                self._spool()

    def add_span(self, name: str, start: float, end: float) -> None:
        """Record a span measured before the tracer existed."""
        self._serial += 1
        self.spans.append({"id": f"{os.getpid()}:{self._serial}",
                           "name": name, "start": start, "end": end,
                           "parent": None, "pid": os.getpid(),
                           "workload": self.workload, "point": None})

    def count(self, **values: float) -> None:
        for name, value in values.items():
            self.counters[name] = self.counters.get(name, 0.0) + value

    def peak(self, **values: float) -> None:
        for name, value in values.items():
            self.peaks[name] = max(self.peaks.get(name, value), value)

    def add_profile(self, profiler: cProfile.Profile) -> None:
        profiler.create_stats()
        for (filename, _, _), stat in profiler.stats.items():
            layer = layer_of(filename)
            self.profile[layer] = self.profile.get(layer, 0.0) + stat[2]

    # -- fork support ------------------------------------------------------

    def _after_fork(self) -> None:
        if not self._installed:
            return
        # A forked worker starts empty: what the parent recorded so far
        # is the parent's to report.  Open parent spans stay on the
        # stack so worker spans name their cause.
        self.spans, self.profile = [], {}
        self.counters, self.peaks = {}, {}
        self._fork_depth = len(self._stack)

    def _spool(self) -> None:
        line = json.dumps({"spans": self.spans, "profile": self.profile,
                           "counters": self.counters, "peaks": self.peaks})
        path = os.path.join(self.spool_dir, f"{os.getpid()}.jsonl")
        with open(path, "a") as handle:
            handle.write(line + "\n")
        self.spans, self.profile = [], {}
        self.counters, self.peaks = {}, {}

    def collect(self) -> None:
        """Merge what forked workers spooled into this tracer."""
        if not os.path.isdir(self.spool_dir):
            return
        for name in sorted(os.listdir(self.spool_dir)):
            with open(os.path.join(self.spool_dir, name)) as handle:
                for line in handle:
                    chunk = json.loads(line)
                    self.spans.extend(chunk["spans"])
                    for layer, seconds in chunk["profile"].items():
                        self.profile[layer] = \
                            self.profile.get(layer, 0.0) + seconds
                    self.count(**chunk["counters"])
                    self.peak(**chunk["peaks"])

    # -- patching ----------------------------------------------------------

    def _patch(self, owner, attr: str,
               make: Callable[[Callable], Callable]) -> None:
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def _timed(self, owner, attr: str, name: str,
               after: Optional[Callable] = None,
               point: Optional[Callable] = None) -> None:
        tracer = self

        def make(original):
            def wrapper(*args, **kwargs):
                label = point(*args) if point is not None else None
                with tracer.span(name, point=label):
                    result = original(*args, **kwargs)
                if after is not None:
                    after(result, *args)
                return result
            wrapper.__wrapped__ = original
            return wrapper

        self._patch(owner, attr, make)

    def install(self) -> None:
        """Wrap the program's layer entry points (idempotent per tracer)."""
        if self._installed:
            return
        from repro.core import BerdStrategy, MagicStrategy, RangeStrategy
        from repro.core import magic, rebalance
        from repro.experiments import ResultCache, executor, plan
        from repro.gamma import GammaMachine

        tracer = self

        def spread(placement, *_):
            sizes = placement.cardinalities()
            tracer.peak(load_spread=float(sizes.max() - sizes.min()))

        def rebalanced(swaps, *_):
            stats = rebalance.last_rebalance_stats
            tracer.count(rebalance_iterations=stats["iterations"],
                         rebalance_widenings=stats["widenings"],
                         rebalance_delta_builds=stats["delta_builds"],
                         rebalance_pairs_evaluated=stats["pairs_evaluated"],
                         rebalance_swaps=swaps)

        def spec_point(spec, *_):
            return (f"{spec.strategy}.p{spec.num_sites}"
                    f".mpl{spec.multiprogramming_level}")

        self._timed(plan, "make_wisconsin", "storage.relation_build")
        self._timed(RangeStrategy, "partition", "core.range_partition",
                    after=spread)
        self._timed(BerdStrategy, "partition", "core.berd_partition",
                    after=spread)
        self._timed(MagicStrategy, "partition", "core.magic_partition",
                    after=spread)
        self._timed(magic, "build_from_shape", "core.directory")
        self._timed(magic, "assign_entries", "core.assign")
        self._timed(magic, "rebalance_assignment", "core.rebalance",
                    after=rebalanced)
        self._timed(magic, "entry_exchange", "core.entry_exchange",
                    after=lambda moves, *_: tracer.count(
                        entry_exchange_moves=moves))
        self._timed(magic, "materialize_fragments", "core.materialize")
        self._timed(executor, "prewarm", "experiments.prewarm")
        self._timed(executor, "execute_run", "experiments.execute_run",
                    point=spec_point)
        self._timed(ResultCache, "get", "experiments.cache_read")
        self._timed(ResultCache, "put", "experiments.cache_write")
        self._timed(GammaMachine, "__init__", "gamma.build")

        def profiled_run(original):
            def run(machine, *args, **kwargs):
                with tracer.span("gamma.run"):
                    profiler = cProfile.Profile()
                    profiler.enable()
                    try:
                        result = original(machine, *args, **kwargs)
                    finally:
                        profiler.disable()
                tracer.add_profile(profiler)
                return result
            run.__wrapped__ = original
            return run

        self._patch(GammaMachine, "run", profiled_run)
        os.register_at_fork(after_in_child=self._after_fork)
        self._installed = True

    def uninstall(self) -> None:
        """Put every patched attribute back, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        self._installed = False

    def covered_seconds(self) -> float:
        """Seconds of this process's timeline inside any top-level span."""
        pid = os.getpid()
        return sum(span["end"] - span["start"] for span in self.spans
                   if span["pid"] == pid and span["parent"] is None)
