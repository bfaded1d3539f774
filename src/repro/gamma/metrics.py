"""Run-level measurement for the Gamma machine.

The paper's evaluation criterion is *throughput* (queries per second) as
a function of the multiprogramming level, measured in steady state.  We
additionally collect per-query-type response times and resource
utilizations, which §7 uses to explain each result.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..des import Environment, Event, TallyMonitor

__all__ = ["RunMetrics", "RunResult", "NodeUsageView"]


class NodeUsageView:
    """Array-backed accessors over a node list's cumulative counters.

    At P=1024 sites, per-node telemetry (one sampler closure and one
    ``resource_usage()`` dict entry per counter per node per tick) costs
    thousands of Python-level reads per sample.  This view gathers each
    counter family into one NumPy array per call, so aggregate consumers
    (imbalance spread probes, mean-utilization rates, usage totals) pay
    a single probe regardless of machine size.  The reads are the same
    cumulative counters the per-node probes use; nothing about the
    simulation is touched.
    """

    __slots__ = ("_nodes", "_buffered")

    def __init__(self, nodes):
        self._nodes = list(nodes)
        self._buffered = [n for n in self._nodes
                          if n.buffer_pool is not None]

    def __len__(self) -> int:
        return len(self._nodes)

    def cpu_busy(self) -> np.ndarray:
        """Per-node cumulative CPU busy-seconds."""
        nodes = self._nodes
        return np.fromiter((n.cpu.busy_seconds for n in nodes),
                           dtype=np.float64, count=len(nodes))

    def disk_busy(self) -> np.ndarray:
        """Per-node cumulative disk busy-seconds."""
        nodes = self._nodes
        return np.fromiter((n.disk.busy_seconds for n in nodes),
                           dtype=np.float64, count=len(nodes))

    def disk_queue(self) -> np.ndarray:
        """Per-node instantaneous disk queue length."""
        nodes = self._nodes
        return np.fromiter((n.disk.queue_length for n in nodes),
                           dtype=np.float64, count=len(nodes))

    def buffer_hits_total(self) -> float:
        """Machine-wide cumulative buffer-pool hits."""
        return float(sum(n.buffer_pool.hits for n in self._buffered))

    def buffer_accesses_total(self) -> float:
        """Machine-wide cumulative buffer-pool hits + misses."""
        return float(sum(n.buffer_pool.hits + n.buffer_pool.misses
                         for n in self._buffered))


class RunMetrics:
    """Online statistics during a simulation run."""

    def __init__(self, env: Environment, latency=None):
        self.env = env
        self.completed_total = 0
        self.completed_window = 0
        self.window_start = env.now
        self.response_times: Dict[str, TallyMonitor] = {}
        self._watchers: List[Tuple[int, Event]] = []
        # Optional obs.sketch.LatencyRecorder: the same response times
        # that feed the TallyMonitors, as quantile sketches.
        self._latency = latency

    def record_completion(self, query_type: str, response_time: float) -> None:
        """Record one finished query."""
        self.completed_total += 1
        self.completed_window += 1
        monitor = self.response_times.get(query_type)
        if monitor is None:
            monitor = TallyMonitor(query_type)
            self.response_times[query_type] = monitor
        monitor.record(response_time)
        if self._latency is not None:
            self._latency.record(query_type, response_time)
        for count, event in list(self._watchers):
            if self.completed_total >= count and not event.triggered:
                event.succeed(self.completed_total)
                self._watchers.remove((count, event))

    def on_completion_count(self, count: int) -> Event:
        """Event fired when total completions reach *count*."""
        event = Event(self.env)
        if self.completed_total >= count:
            event.succeed(self.completed_total)
        else:
            self._watchers.append((count, event))
        return event

    def reset_window(self) -> None:
        """Start the measurement window (end of warm-up)."""
        self.completed_window = 0
        self.window_start = self.env.now
        for monitor in self.response_times.values():
            monitor.reset()

    def throughput(self) -> float:
        """Queries per second over the current window."""
        elapsed = self.env.now - self.window_start
        if elapsed <= 0:
            return 0.0
        return self.completed_window / elapsed

    def mean_response_time(self, query_type: Optional[str] = None) -> float:
        """Mean response time of one type, or overall when None."""
        if query_type is not None:
            monitor = self.response_times.get(query_type)
            return monitor.mean if monitor else 0.0
        total = sum(m.total for m in self.response_times.values())
        count = sum(m.count for m in self.response_times.values())
        return total / count if count else 0.0


@dataclass(frozen=True)
class RunResult:
    """Summary of one (strategy, mix, correlation, MPL) simulation run."""

    multiprogramming_level: int
    throughput: float
    completed: int
    elapsed_seconds: float
    response_time_mean: float
    response_time_by_type: Dict[str, float] = field(default_factory=dict)
    cpu_utilization: float = 0.0
    disk_utilization: float = 0.0
    scheduler_cpu_utilization: float = 0.0
    messages_sent: int = 0

    def to_json_dict(self) -> Dict:
        """A JSON-serializable dictionary that round-trips losslessly.

        Results cross process boundaries (parallel executors pickle
        them) and session boundaries (the result cache and saved figure
        artifacts store them as JSON); both transports must reproduce
        the dataclass exactly.
        """
        return asdict(self)

    @classmethod
    def from_json_dict(cls, payload: Dict) -> "RunResult":
        """Rebuild a result from :meth:`to_json_dict` output.

        Files and cache entries written before the throughput confidence
        interval was dropped carry a ``throughput_ci`` key; it is ignored.
        """
        payload = {k: v for k, v in payload.items() if k != "throughput_ci"}
        return cls(**payload)

    def __str__(self) -> str:
        by_type = ", ".join(f"{k}={v * 1000:.1f}ms"
                            for k, v in sorted(self.response_time_by_type.items()))
        return (f"MPL={self.multiprogramming_level:3d} "
                f"throughput={self.throughput:7.2f} q/s "
                f"rt={self.response_time_mean * 1000:7.1f}ms ({by_type}) "
                f"cpu={self.cpu_utilization:.2f} disk={self.disk_utilization:.2f}")
