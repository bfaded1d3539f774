"""Live executor progress: status line, JSONL event stream, heartbeats.

Long figure regenerations used to run in total silence; this module
gives every plan execution a lifecycle feed:

* ``plan-start`` -- once, with the total spec count and executor shape;
* ``spec-start`` / ``spec-finish`` -- one pair per spec, emitted by
  the parent in plan order whatever ``jobs`` is, cached specs
  included: ``spec-start`` when the parent reaches the spec (just
  before simulating it in-process, or while waiting for it from the
  pool), then the terminal ``spec-finish``, exactly once per spec,
  with ``status: executed | cached``.  Index ``i`` finishes before
  index ``i + 1`` starts, so the stream is deterministic modulo
  heartbeat interleaving;
* ``heartbeat`` -- a pool worker crossed a wall-clock phase boundary
  (relation-build, simulate, ...); carries the spec digest, phase,
  pid, worker wall seconds, and -- once simulation finished -- agenda
  events processed and the final simulated clock (in-process runs
  send none);
* ``plan-end`` -- once, with executed/cached totals.

Two renderings share the feed: ``mode="line"`` keeps one
carriage-return status line on the stream (completed/total, events/sec
over the simulate phase, and a cache-aware ETA that prices cached specs
at zero), and ``mode="jsonl"`` writes every event as one JSON object
per line for machines (the ``--progress jsonl`` CLI flag).

Parallel heartbeats travel over a ``multiprocessing.Manager`` queue --
the only queue flavor that survives being pickled into
``ProcessPoolExecutor`` task arguments -- and are drained by a
background thread in the parent.  Progress is strictly observational:
executors behave identically with or without a tracker attached
(bit-identical series and digests, asserted in the suite).
"""

from __future__ import annotations

import json
import queue as queue_module
import threading
import time
from typing import Any, Dict, IO, List, Optional

__all__ = ["ProgressTracker", "ProgressEvent", "NULL_PROGRESS",
           "NullProgress", "read_progress_jsonl"]

#: Poll timeout for the heartbeat drain thread (seconds).
_DRAIN_POLL = 0.05

ProgressEvent = Dict[str, Any]


def _spec_fields(spec) -> Dict[str, Any]:
    """The identifying fields of a RunSpec worth echoing per event."""
    return {
        "spec": spec.digest()[:12],
        "strategy": spec.strategy,
        "mpl": spec.multiprogramming_level,
    }


class ProgressTracker:
    """Renders plan-execution lifecycle events to a stream.

    ``stream`` defaults to ``sys.stderr`` so the report on stdout stays
    machine-clean.  The tracker is reusable across plans in one session
    (counters reset at ``plan-start``), but not thread-safe for
    concurrent *plans*; within one plan the heartbeat drain thread and
    the executor thread synchronize on an internal lock.
    """

    def __init__(self, stream: Optional[IO[str]] = None,
                 mode: str = "line"):
        if mode not in ("line", "jsonl"):
            raise ValueError(f"unknown progress mode {mode!r}")
        if stream is None:
            import sys
            stream = sys.stderr
        self.stream = stream
        self.mode = mode
        self._lock = threading.Lock()
        self._queue = None
        self._manager = None
        self._drainer: Optional[threading.Thread] = None
        self._stop_drain = threading.Event()
        self._reset_counters()

    def _reset_counters(self) -> None:
        self.total = 0
        self.executed = 0
        self.cached = 0
        self.jobs = 1
        self._started = time.perf_counter()
        self._executed_wall = 0.0
        self._events = 0.0
        self._sim_wall = 0.0
        self._line_dirty = False

    # -- lifecycle events (called by executors) ----------------------------

    def plan_started(self, total: int, executor: str, jobs: int,
                     figure: Optional[str] = None) -> None:
        self._reset_counters()
        self.total = total
        self.jobs = max(1, jobs)
        event = {"event": "plan-start", "total": total,
                 "executor": executor, "jobs": jobs}
        if figure is not None:
            event["figure"] = figure
        self._emit(event)

    def spec_started(self, spec, index: int) -> None:
        self._emit({"event": "spec-start", "index": index,
                    **_spec_fields(spec)})

    def spec_finished(self, spec, index: int, cached: bool,
                      wall_seconds: float = 0.0,
                      events: Optional[float] = None,
                      sim_seconds: Optional[float] = None) -> None:
        with self._lock:
            if cached:
                self.cached += 1
            else:
                self.executed += 1
                self._executed_wall += wall_seconds
                if events:
                    self._events += events
                    self._sim_wall += wall_seconds
        event = {"event": "spec-finish", "index": index,
                 "status": "cached" if cached else "executed",
                 "wall_seconds": round(wall_seconds, 6),
                 **_spec_fields(spec)}
        if events is not None:
            event["events"] = int(events)
        if sim_seconds is not None:
            event["sim_seconds"] = round(sim_seconds, 6)
        self._emit(event)

    def plan_finished(self) -> None:
        self.drain()
        self._emit({"event": "plan-end", "executed": self.executed,
                    "cached": self.cached,
                    "wall_seconds": round(
                        time.perf_counter() - self._started, 6)})
        if self.mode == "line" and self._line_dirty:
            self.stream.write("\n")
            self.stream.flush()
            self._line_dirty = False

    # -- heartbeats (parallel workers) -------------------------------------

    def worker_queue(self):
        """A picklable queue workers push heartbeats into (lazy).

        Also starts the drain thread that forwards queued heartbeats to
        the stream; :meth:`drain` / :meth:`close` stop it.
        """
        if self._queue is None:
            import multiprocessing
            self._manager = multiprocessing.Manager()
            self._queue = self._manager.Queue()
            self._stop_drain.clear()
            self._drainer = threading.Thread(target=self._drain_loop,
                                             name="progress-drain",
                                             daemon=True)
            self._drainer.start()
        return self._queue

    def _drain_loop(self) -> None:
        while not self._stop_drain.is_set():
            self._drain_once(timeout=_DRAIN_POLL)

    def _drain_once(self, timeout: Optional[float] = None) -> bool:
        try:
            payload = self._queue.get(timeout=timeout) if timeout \
                else self._queue.get_nowait()
        except (queue_module.Empty, OSError, EOFError):
            return False
        self.heartbeat(payload)
        return True

    def heartbeat(self, payload: Dict[str, Any]) -> None:
        """One worker-side phase-boundary report."""
        self._emit({"event": "heartbeat", **payload})

    def drain(self) -> None:
        """Stop the drain thread and flush any queued heartbeats."""
        if self._drainer is not None:
            self._stop_drain.set()
            self._drainer.join(timeout=5.0)
            self._drainer = None
        if self._queue is not None:
            while self._drain_once():
                pass

    def close(self) -> None:
        """Release the manager process backing the heartbeat queue."""
        self.drain()
        if self._manager is not None:
            self._manager.shutdown()
            self._manager = None
            self._queue = None

    # -- rendering ---------------------------------------------------------

    def _emit(self, event: ProgressEvent) -> None:
        with self._lock:
            if self.mode == "jsonl":
                self.stream.write(json.dumps(event, sort_keys=True))
                self.stream.write("\n")
            else:
                self.stream.write("\r" + self._status_line(event))
                self._line_dirty = True
            self.stream.flush()

    def _status_line(self, event: ProgressEvent) -> str:
        done = self.executed + self.cached
        parts = [f"[{done}/{self.total}]"] if self.total else []
        parts.append(f"{self.executed} simulated, {self.cached} cached")
        if event.get("event") == "heartbeat":
            parts.append(f"pid {event.get('pid')}: {event.get('phase')}")
        if self._sim_wall > 0 and self._events:
            parts.append(f"{self._events / self._sim_wall / 1000:.0f}k ev/s")
        eta = self.eta_seconds()
        if eta is not None:
            parts.append(f"eta {eta:.0f}s")
        line = " | ".join(parts)
        # Pad so a shorter line fully overwrites the previous one.
        return f"{line:<78}"

    def eta_seconds(self) -> Optional[float]:
        """Cache-aware remaining-wall estimate.

        Cached specs complete in effectively zero time, so only specs
        expected to simulate are priced -- at the mean wall of the
        executed ones so far, divided by the worker count.  The tail of
        a plan cannot use more workers than it has specs left (one spec
        remaining runs on one worker however large the pool), hence the
        ``min``.  None until at least one spec has actually simulated.
        """
        if self.executed == 0 or self.total == 0:
            return None
        remaining = self.total - self.executed - self.cached
        if remaining <= 0:
            return 0.0
        mean_wall = self._executed_wall / self.executed
        return remaining * mean_wall / min(self.jobs, remaining)


class NullProgress:
    """Shared do-nothing tracker (progress off)."""

    def plan_started(self, *args, **kwargs) -> None: pass
    def spec_started(self, *args, **kwargs) -> None: pass
    def spec_finished(self, *args, **kwargs) -> None: pass
    def plan_finished(self) -> None: pass
    def heartbeat(self, payload) -> None: pass
    def drain(self) -> None: pass
    def close(self) -> None: pass

    def worker_queue(self):
        return None


NULL_PROGRESS = NullProgress()


def read_progress_jsonl(stream_or_lines) -> List[ProgressEvent]:
    """Parse a ``--progress jsonl`` stream back into event dicts."""
    if hasattr(stream_or_lines, "read"):
        lines = stream_or_lines.read().splitlines()
    elif isinstance(stream_or_lines, str):
        lines = stream_or_lines.splitlines()
    else:
        lines = list(stream_or_lines)
    return [json.loads(line) for line in lines if line.strip()]
