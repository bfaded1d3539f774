"""Whole-machine assembly and the run API (Figure 7).

:class:`GammaMachine` wires together P operator nodes (CPU + elevator
disk + NIC + operator manager), the dedicated scheduler node hosting the
Query Manager / Query Scheduler / System Catalog, the fully connected
network, and a terminal pool, then runs a closed-loop experiment and
reports throughput, response times and utilizations.

Typical use::

    placement = MagicStrategy(...).partition(relation, 32)
    machine = GammaMachine(placement, indexes={"unique1": False,
                                               "unique2": True})
    result = machine.run(source, multiprogramming_level=16,
                         measured_queries=500)
    print(result.throughput)
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..core.strategy import Placement
from ..des import Environment
from ..obs.telemetry import NULL_TELEMETRY, Telemetry
from ..storage.pages import DiskLayout
from .catalog import SystemCatalog
from .cpu import Cpu
from .metrics import NodeUsageView, RunMetrics, RunResult
from .network import Network
from .node import OperatorNode
from .params import GAMMA_PARAMETERS, SimulationParameters
from .scheduler import QueryScheduler
from .terminal import QuerySource, TerminalPool

__all__ = ["GammaMachine", "PER_NODE_TELEMETRY_LIMIT"]

#: Above this many operator nodes, telemetry switches from per-node
#: probes/gauges/usage entries to machine-wide aggregates: at P=1024 a
#: per-node scheme costs ~4 probe closures and ~4 dict entries per node
#: per sampler tick (and thousands of registry series), which makes
#: timelines unusable long before the simulation itself slows down.
#: Aggregates (mean utilization, imbalance spread, totals) ride the
#: array-backed :class:`~repro.gamma.metrics.NodeUsageView` instead.
PER_NODE_TELEMETRY_LIMIT = 64


class GammaMachine:
    """A simulated Gamma configuration loaded with one declustered relation.

    Parameters
    ----------
    placement:
        The declustered relation (decides routing and per-site fragments).
    indexes:
        attribute -> clustered? for the indexes built at every site (the
        paper: non-clustered on A, clustered on B).
    params:
        Simulation parameters (defaults to Table 2).
    seed:
        Root seed for disk latencies and physical placement randomness.
    telemetry:
        An unbound :class:`~repro.obs.telemetry.Telemetry` to collect
        metrics, spans and utilization timelines for this run; ``None``
        (the default) installs the shared no-op telemetry, whose only
        hot-loop cost is one attribute check per instrumented call.
    invariants:
        An optional :class:`~repro.validation.InvariantChecker`
        enforcing conservation laws during the run (queries terminate
        exactly once, busy time <= elapsed time, messages are not
        lost, ...).  Like telemetry it is pure bookkeeping: simulated
        results are bit-identical with or without it.
    """

    def __init__(self, placement: Placement, indexes: Dict[str, bool],
                 params: SimulationParameters = GAMMA_PARAMETERS,
                 seed: int = 0, telemetry: Optional[Telemetry] = None,
                 invariants=None, fault_plan=None):
        if placement.num_sites != params.num_processors:
            params = params.with_overrides(
                num_processors=placement.num_sites)
        self.params = params
        self.placement = placement
        self.env = Environment()
        self.telemetry = (telemetry if telemetry is not None
                          else NULL_TELEMETRY).bind(self.env)
        self.invariants = invariants
        if invariants is not None:
            invariants.attach_environment(self.env)
            if self.telemetry.enabled:
                invariants.bind_registry(self.telemetry.registry)
        self.network = Network(self.env, params,
                               registry=self.telemetry.registry,
                               invariants=invariants)
        self.catalog = SystemCatalog(params)

        self.faults = None
        if fault_plan is not None:
            # Imported lazily: repro.dynamics depends on repro.gamma, so
            # a module-level import here would be circular.
            from ..dynamics.faults import FaultController
            self.faults = FaultController(self.env, fault_plan)

        self.nodes: List[OperatorNode] = [
            OperatorNode(self.env, node_id, params, self.network,
                         self.catalog, seed=seed * 1000 + node_id,
                         telemetry=self.telemetry, invariants=invariants,
                         faults=self.faults)
            for node_id in range(placement.num_sites)
        ]
        self.scheduler_node_id = placement.num_sites
        self.scheduler_cpu = Cpu(self.env, params, name="sched-cpu",
                                 obs_label="sched.cpu")
        scheduler_endpoint = self.network.attach(self.scheduler_node_id,
                                                 self.scheduler_cpu,
                                                 obs_label="sched.nic")
        self.scheduler = QueryScheduler(
            self.env, params, self.scheduler_node_id, scheduler_endpoint,
            self.network, self.catalog, telemetry=self.telemetry,
            invariants=invariants, faults=self.faults)
        if self.faults is not None:
            self.faults.bind_scheduler(scheduler_endpoint.mailbox.put)
            self.faults.start()
        if invariants is not None:
            invariants.watch_resource("sched.cpu",
                                      lambda: self.scheduler_cpu.busy_seconds)
            invariants.watch_in_flight(lambda: self.scheduler.in_flight)

        self._layouts = [DiskLayout(params.disk_geometry)
                         for _ in self.nodes]
        self.catalog.register(placement, indexes, self._layouts)

        self.metrics = RunMetrics(self.env, latency=self.telemetry.latency)
        self.usage_view = NodeUsageView(self.nodes)
        self._seed = seed
        if self.telemetry.sampler is not None:
            self._register_probes(self.telemetry.sampler)

    def add_relation(self, placement: Placement,
                     indexes: Dict[str, bool]) -> None:
        """Load a further declustered relation onto the same machine.

        The new relation's fragments and indexes are allocated after the
        existing ones on each node's disk; queries address relations by
        name, so a workload can mix both.
        """
        if placement.num_sites != len(self.nodes):
            raise ValueError(
                f"placement spans {placement.num_sites} sites, machine "
                f"has {len(self.nodes)}")
        self.catalog.register(placement, indexes, self._layouts)

    # -- running experiments ----------------------------------------------

    def run(self, source: QuerySource, multiprogramming_level: int,
            measured_queries: int = 500,
            warmup_queries: Optional[int] = None) -> RunResult:
        """Run a closed-loop experiment and return its summary.

        ``warmup_queries`` completions are discarded (default: one per
        terminal, at least 32) before the measurement window opens; the
        run ends after ``measured_queries`` further completions.
        """
        if measured_queries <= 0:
            raise ValueError("measured_queries must be positive")
        if warmup_queries is None:
            warmup_queries = max(multiprogramming_level, 32)

        terminals = TerminalPool(self.env, self.scheduler, source,
                                 self.metrics, seed=self._seed)
        terminals.start(multiprogramming_level)
        if self.telemetry.spans is not None:
            # begin_window() drops warm-up spans: do not capture them.
            self.telemetry.spans.warming = True

        self.env.run(until=self.metrics.on_completion_count(warmup_queries))
        self._reset_all_stats()
        self.metrics.reset_window()
        if self.invariants is not None:
            self.invariants.begin_window(self.env.now)
        if self.telemetry.enabled:
            # Warm-up telemetry is transient-state noise: drop it and
            # start the utilization sampler at the window boundary.
            self.telemetry.begin_window()
        self.env.run(until=self.metrics.on_completion_count(
            warmup_queries + measured_queries))
        if self.telemetry.enabled:
            # Force-close spans of queries interrupted mid-flight so
            # the exported trace trees replay cleanly.
            self.telemetry.end_window()
            self._record_load_balance()

        result = self._summarize(multiprogramming_level)
        if self.invariants is not None:
            # Audit the end-of-run balances after the summary is built so
            # a violation never leaves a half-summarized machine behind.
            self.invariants.finalize()
        return result

    def _reset_all_stats(self) -> None:
        for node in self.nodes:
            node.reset_stats()
        self.scheduler_cpu.reset_stats()
        self.network.reset_stats()

    # -- resource usage (shared by summary and utilization timelines) -----

    def resource_usage(self) -> Dict[str, float]:
        """Cumulative busy-seconds (and counts) per machine resource.

        One source of truth for "where did time go".  Up to
        :data:`PER_NODE_TELEMETRY_LIMIT` nodes this carries one entry
        per node counter; above it, per-node keys would dominate every
        snapshot (4,096+ entries at P=1024), so the dict degrades to
        machine-wide totals backed by :class:`NodeUsageView`.
        """
        usage = {
            "sched.cpu.busy_seconds": self.scheduler_cpu.busy_seconds,
            "net.bytes": float(self.network.bytes_sent),
        }
        if len(self.nodes) > PER_NODE_TELEMETRY_LIMIT:
            view = self.usage_view
            usage["nodes.cpu.busy_seconds.total"] = float(
                view.cpu_busy().sum())
            usage["nodes.disk.busy_seconds.total"] = float(
                view.disk_busy().sum())
            usage["nodes.buffer.hits.total"] = view.buffer_hits_total()
            usage["nodes.buffer.accesses.total"] = (
                view.buffer_accesses_total())
            return usage
        for node in self.nodes:
            prefix = f"node.{node.node_id}"
            usage[f"{prefix}.cpu.busy_seconds"] = node.cpu.busy_seconds
            usage[f"{prefix}.disk.busy_seconds"] = node.disk.busy_seconds
            if node.buffer_pool is not None:
                usage[f"{prefix}.buffer.hits"] = float(node.buffer_pool.hits)
                usage[f"{prefix}.buffer.misses"] = float(
                    node.buffer_pool.misses)
        return usage

    def _record_load_balance(self) -> None:
        """Per-node busy-time shares as end-of-window gauges.

        ``_reset_all_stats`` zeroed the counters at the window boundary,
        so these are measurement-window shares: each node's fraction of
        the machine's total node-CPU busy time, plus the max/mean ratio
        the audit layer reports as runtime load imbalance.
        """
        registry = self.telemetry.registry
        busy = [node.cpu.busy_seconds for node in self.nodes]
        total = sum(busy)
        if len(self.nodes) <= PER_NODE_TELEMETRY_LIMIT:
            for node, seconds in zip(self.nodes, busy):
                registry.gauge(f"node.{node.node_id}.cpu.busy_share").set(
                    seconds / total if total else 0.0)
        mean = total / len(busy) if busy else 0.0
        registry.gauge("nodes.cpu.busy_share.max_over_mean").set(
            max(busy) / mean if mean else 0.0)

    def _register_probes(self, sampler) -> None:
        """Wire per-resource utilization timelines onto the sampler.

        Machine-wide probes are always registered; per-node probes only
        up to :data:`PER_NODE_TELEMETRY_LIMIT` nodes.  Beyond that the
        per-node timelines are replaced by machine-wide aggregates
        (mean CPU/disk utilization, total disk queue, overall buffer
        hit rate) so a P=1024 run samples a handful of array-backed
        probes per tick instead of ~4,000 closures.
        """
        view = self.usage_view
        sampler.add_rate_probe(
            "sched.cpu.utilization",
            lambda: self.scheduler_cpu.busy_seconds)
        sampler.add_array_spread_probe("nodes.cpu.imbalance", view.cpu_busy)
        sampler.add_rate_probe(
            "net.link.bytes_per_second",
            lambda: float(self.network.bytes_sent))
        sampler.add_level_probe(
            "sched.queries.in_flight", lambda: self.scheduler.in_flight)
        if len(self.nodes) > PER_NODE_TELEMETRY_LIMIT:
            num_nodes = len(self.nodes)
            sampler.add_rate_probe(
                "nodes.cpu.utilization.mean",
                lambda: float(view.cpu_busy().sum()) / num_nodes)
            sampler.add_rate_probe(
                "nodes.disk.utilization.mean",
                lambda: float(view.disk_busy().sum()) / num_nodes)
            sampler.add_level_probe(
                "nodes.disk.queue.total",
                lambda: float(view.disk_queue().sum()))
            sampler.add_ratio_probe(
                "nodes.buffer.hit_rate",
                view.buffer_hits_total, view.buffer_accesses_total)
            return
        for node in self.nodes:
            prefix = f"node.{node.node_id}"
            cpu, disk = node.cpu, node.disk
            sampler.add_rate_probe(
                f"{prefix}.cpu.utilization",
                lambda cpu=cpu: cpu.busy_seconds)
            sampler.add_rate_probe(
                f"{prefix}.disk.utilization",
                lambda disk=disk: disk.busy_seconds)
            sampler.add_level_probe(
                f"{prefix}.disk.queue", lambda disk=disk: disk.queue_length)
            if node.buffer_pool is not None:
                pool = node.buffer_pool
                sampler.add_ratio_probe(
                    f"{prefix}.buffer.hit_rate",
                    lambda pool=pool: float(pool.hits),
                    lambda pool=pool: float(pool.hits + pool.misses))

    def _summarize(self, multiprogramming_level: int) -> RunResult:
        now = self.env.now
        elapsed = now - self.metrics.window_start
        # Summed per node in machine order with Python-float addition:
        # the usage dict no longer carries per-node keys on big
        # machines, and a NumPy pairwise sum would round differently.
        cpu_util = sum(n.cpu.utilization() for n in self.nodes) \
            / len(self.nodes)
        disk_util = sum(n.disk.busy_seconds for n in self.nodes) \
            / (len(self.nodes) * elapsed) if elapsed > 0 else 0.0
        return RunResult(
            multiprogramming_level=multiprogramming_level,
            throughput=self.metrics.throughput(),
            completed=self.metrics.completed_window,
            elapsed_seconds=elapsed,
            response_time_mean=self.metrics.mean_response_time(),
            response_time_by_type={
                name: monitor.mean
                for name, monitor in self.metrics.response_times.items()},
            cpu_utilization=cpu_util,
            disk_utilization=disk_util,
            scheduler_cpu_utilization=self.scheduler_cpu.utilization(),
            messages_sent=self.network.messages_sent)
