"""The Operator Manager: select-operator execution at one site (paper §5).

"An Operator manager is responsible for modeling the relational
operators (e.g., select).  This manager repeatedly issues requests to
the CPU, Disk and Network Interface managers to perform its particular
operation."

One manager runs per node; it drains the node's mailbox and spawns an
execution process per request, so multiple operators of concurrent
queries share the node's CPU and disk exactly as in Gamma.

A selection with an index proceeds as:

1. operator start-up CPU burst (process creation, catalog lookups);
2. B-tree descent and qualifying-page reads, random or sequential
   according to the index's access plan (a zero-match site still pays
   the descent -- the wasted work the paper emphasizes);
3. per-page buffer-manager CPU (14,600 instructions, Table 2) and
   per-result-tuple processing CPU;
4. result packets (36 tuples each) and a final done message back to the
   scheduler.

BERD probe requests (step 1 of its two-step paradigm) run the same way
against the site's auxiliary B-tree and answer with a probe reply.
"""

from __future__ import annotations

import random

from ..des import Environment
from ..obs.telemetry import NULL_TELEMETRY
from ..storage.btree import IndexAccessPlan
from .catalog import SystemCatalog
from .cpu import NORMAL_PRIORITY, Cpu
from .disk import Disk
from .messages import (
    AuxInsertRequest,
    InsertRequest,
    OperatorDone,
    ProbeReply,
    ProbeRequest,
    ResultPacket,
    SelectRequest,
)
from .network import Network, NetworkEndpoint
from .params import SimulationParameters

__all__ = ["OperatorManager"]


class OperatorManager:
    """Executes selection and probe operators at one site."""

    def __init__(self, env: Environment, node_id: int,
                 params: SimulationParameters, cpu: Cpu, disk: Disk,
                 endpoint: NetworkEndpoint, network: Network,
                 catalog: SystemCatalog, seed: int = 0,
                 buffer_pool=None, telemetry=NULL_TELEMETRY, faults=None):
        self.telemetry = telemetry
        # Optional FaultController (repro.dynamics.faults); None on the
        # static path, so every check below short-circuits.
        self.faults = faults
        self.env = env
        self.node_id = node_id
        self.params = params
        self.cpu = cpu
        self.disk = disk
        self.endpoint = endpoint
        self.network = network
        self.catalog = catalog
        self.buffer_pool = buffer_pool
        self._rng = random.Random(seed)
        self.selects_executed = 0
        self.probes_executed = 0
        # Per-node completion counters for the load-balance audit; the
        # null registry hands back shared no-ops, so the per-operator
        # increments below cost nothing with telemetry off.
        self._selects_counter = telemetry.registry.counter(
            f"node.{node_id}.ops.selects")
        self._probes_counter = telemetry.registry.counter(
            f"node.{node_id}.ops.probes")
        # Per-page CPU burst lengths, precomputed with the same division
        # cpu.execute() performs so the service times are bit-identical.
        self._hit_service = (params.buffer_hit_instructions
                             / params.cpu_instructions_per_second)
        self._read_service = (params.read_page_instructions
                              / params.cpu_instructions_per_second)
        self._startup_service = (params.operator_startup_instructions
                                 / params.cpu_instructions_per_second)
        env.process(self._dispatch_loop())

    def _dispatch_loop(self):
        while True:
            message = yield self.endpoint.mailbox.get()
            if (self.faults is not None
                    and not isinstance(message, tuple)
                    and self.faults.is_down(self.node_id)):
                # The site is dead: the request is lost and the
                # scheduler's detection timeout will surface an abort.
                self.faults.abort_request(message, self.node_id)
                continue
            if isinstance(message, SelectRequest):
                self.env.process(self._execute_select(message))
            elif isinstance(message, ProbeRequest):
                self.env.process(self._execute_probe(message))
            elif isinstance(message, (InsertRequest, AuxInsertRequest)):
                self.env.process(self._execute_insert(message))
            elif isinstance(message, tuple):
                # Bulk-load batch (see repro.gamma.loader): the network
                # already charged delivery; the loader models the
                # destination-side work explicitly.
                continue
            else:
                raise TypeError(
                    f"operator node {self.node_id} cannot handle "
                    f"{type(message).__name__}")

    # -- select execution ------------------------------------------------------

    def _perform_reads(self, relation: str, plan: IndexAccessPlan,
                       sequential_source: str = "base",
                       attribute: str = "", span=None):
        """Issue the plan's disk reads and buffer-manager CPU.

        The per-page CPU burst holds the CPU directly (see
        :meth:`_buffered_page`).
        """
        aux = sequential_source == "aux"
        cpu = self.cpu
        service = self._read_service
        for _ in range(plan.random_reads):
            if aux:
                cylinder = self.catalog.aux_read_cylinder(
                    relation, self.node_id, attribute, self._rng)
            else:
                cylinder = self.catalog.random_read_cylinder(
                    relation, self.node_id, self._rng)
            yield self.disk.submit(cylinder, 1, sequential=False, span=span)
            wait = yield cpu._hold(service, NORMAL_PRIORITY)
            cpu.busy_seconds += service
            if span is not None:
                span.trace.resource(span, cpu.obs_label, wait, service)
        if plan.sequential_reads:
            if aux:
                cylinder = self.catalog.aux_sequential_run_cylinder(
                    relation, self.node_id, attribute,
                    plan.sequential_reads, self._rng)
            else:
                cylinder = self.catalog.sequential_run_cylinder(
                    relation, self.node_id, plan.sequential_reads, self._rng)
            yield self.disk.submit(cylinder, plan.sequential_reads,
                                   sequential=True, span=span)
            yield from self.cpu.execute(
                plan.sequential_reads * self.params.read_page_instructions,
                span=span)

    def _buffered_page(self, key: str, cylinder: int, span=None):
        """Access one page through the buffer pool (hit: CPU only).

        The CPU burst holds the CPU directly rather than through
        cpu.execute(): one generator and its resume hops per page
        otherwise.
        """
        cpu = self.cpu
        if self.buffer_pool.access(key):
            service = self._hit_service
        else:
            yield self.disk.submit(cylinder, 1, sequential=False, span=span)
            service = self._read_service
        wait = yield cpu._hold(service, NORMAL_PRIORITY)
        cpu.busy_seconds += service
        if span is not None:
            span.trace.resource(span, cpu.obs_label, wait, service)

    def _perform_reads_buffered(self, relation: str, attribute: str,
                                plan: IndexAccessPlan, index,
                                position: float, aux: bool = False,
                                span=None):
        """The explicit-buffer-pool read path: every page consults LRU."""
        catalog = self.catalog
        site = self.node_id
        # Full sequential scans carry no index (index is None).
        leaf_pages = (0 if index is None or index.clustered
                      else index.leaf_pages)
        namespace = f"aux-{attribute}" if aux else attribute
        index_keys = catalog.index_page_keys(
            relation, site, namespace, plan.descent_reads, plan.leaf_reads,
            position, leaf_pages)
        if aux:
            index_cylinder = catalog.aux_read_cylinder(
                relation, site, attribute, self._rng)
        else:
            index_cylinder = catalog.random_read_cylinder(
                relation, site, self._rng)
        for key in index_keys:
            yield from self._buffered_page(key, index_cylinder, span=span)

        for _ in range(plan.data_random_reads):
            key, cylinder = catalog.random_data_page(relation, site,
                                                     self._rng)
            yield from self._buffered_page(key, cylinder, span=span)

        if plan.data_sequential_reads:
            if aux:
                keys = [(relation, site, "aux-data", attribute, i)
                        for i in range(plan.data_sequential_reads)]
                cylinder = catalog.aux_sequential_run_cylinder(
                    relation, site, attribute, plan.data_sequential_reads,
                    self._rng)
            else:
                keys, cylinder = catalog.data_run_pages(
                    relation, site, plan.data_sequential_reads, position)
            misses = [k for k in keys if not self.buffer_pool.access(k)]
            hits = len(keys) - len(misses)
            if hits:
                yield from self.cpu.execute(
                    hits * self.params.buffer_hit_instructions, span=span)
            if misses:
                yield self.disk.submit(cylinder, len(misses),
                                       sequential=True, span=span)
                yield from self.cpu.execute(
                    len(misses) * self.params.read_page_instructions,
                    span=span)

    def _execute_select(self, request: SelectRequest):
        trace = (self.telemetry.lookup(request.query_id)
                 if self.telemetry.enabled else None)
        span = trace.start("select.site",
                           node=self.node_id) if trace else None
        cpu = self.cpu
        service = self._startup_service
        wait = yield cpu._hold(service, NORMAL_PRIORITY)
        cpu.busy_seconds += service
        if span is not None:
            span.trace.resource(span, cpu.obs_label, wait, service)

        plan, index = self.catalog.select_plan(
            request.relation, self.node_id, request.attribute,
            request.matches)
        if self.buffer_pool is not None:
            yield from self._perform_reads_buffered(
                request.relation, request.attribute, plan, index,
                request.position, span=span)
        else:
            yield from self._perform_reads(request.relation, plan, span=span)

        # Predicate evaluation on examined-but-rejected tuples (full
        # scans only), then per-result processing.
        rejected = plan.tuples_examined - plan.tuples_returned
        if rejected:
            yield from self.cpu.execute(
                rejected * self.params.instructions_per_scanned_tuple,
                span=span)
        if plan.tuples_returned:
            yield from self.cpu.execute(
                plan.tuples_returned
                * self.params.instructions_per_result_tuple, span=span)

        # A site that died while the operator was reading ships nothing:
        # the work in flight is lost with it.
        if self.faults is not None and self.faults.is_down(self.node_id):
            self.faults.abort_request(request, self.node_id)
            if trace:
                trace.finish(span, tuples=0)
            return

        # Ship the results to the submitting host, a packet at a time,
        # then report completion to the scheduler.
        remaining = plan.tuples_returned
        while remaining > 0:
            batch = min(remaining, self.params.tuples_per_packet)
            payload = max(batch * self.params.tuple_bytes,
                          self.params.control_message_bytes)
            yield from self.network.deliver_external(self.node_id, payload,
                                                     span=span)
            remaining -= batch
        self.selects_executed += 1
        self._selects_counter.inc()
        yield from self.network.deliver(
            self.node_id, request.reply_to,
            self.params.control_message_bytes,
            OperatorDone(query_id=request.query_id, site=self.node_id,
                         tuples_returned=plan.tuples_returned),
            span=span)
        if trace:
            trace.finish(span, tuples=plan.tuples_returned)

    # -- insert execution (extension) -----------------------------------------

    def _execute_insert(self, request):
        """Add one tuple (or auxiliary entry) to the local fragment.

        Read-modify-write of the target data page plus an index-update
        CPU burst per local index.  Auxiliary inserts (BERD maintenance)
        touch the auxiliary extent instead and update its single B-tree.
        """
        trace = (self.telemetry.lookup(request.query_id)
                 if self.telemetry.enabled else None)
        span = trace.start("insert.site",
                           node=self.node_id) if trace else None
        yield from self.cpu.execute(self.params.operator_startup_instructions,
                                    span=span)
        aux = isinstance(request, AuxInsertRequest)
        if aux:
            cylinder = self.catalog.aux_read_cylinder(
                request.relation, self.node_id, request.attribute,
                self._rng)
            index_count = 1
        else:
            cylinder = self.catalog.random_read_cylinder(
                request.relation, self.node_id, self._rng)
            index_count = max(
                len(self.catalog.entry(request.relation).indexes), 1)
        yield from self.disk.read(cylinder, 1, sequential=False, span=span)
        yield from self.cpu.execute(self.params.read_page_instructions,
                                    span=span)
        yield from self.disk.write(cylinder, 1, sequential=True, span=span)
        yield from self.cpu.execute(self.params.write_page_instructions,
                                    span=span)
        yield from self.cpu.execute(
            index_count * self.params.index_update_instructions, span=span)
        if self.faults is not None and self.faults.is_down(self.node_id):
            self.faults.abort_request(request, self.node_id)
            if trace:
                trace.finish(span)
            return
        yield from self.network.deliver(
            self.node_id, request.reply_to,
            self.params.control_message_bytes,
            OperatorDone(query_id=request.query_id, site=self.node_id,
                         tuples_returned=0),
            span=span)
        if trace:
            trace.finish(span)

    # -- BERD probe execution -----------------------------------------------------

    def _execute_probe(self, request: ProbeRequest):
        trace = (self.telemetry.lookup(request.query_id)
                 if self.telemetry.enabled else None)
        span = trace.start("probe.site",
                           node=self.node_id) if trace else None
        cpu = self.cpu
        service = self._startup_service
        wait = yield cpu._hold(service, NORMAL_PRIORITY)
        cpu.busy_seconds += service
        if span is not None:
            span.trace.resource(span, cpu.obs_label, wait, service)

        aux = self.catalog.aux_btree(request.relation, self.node_id,
                                     request.attribute)
        plan = aux.range_lookup(request.matches)
        if self.buffer_pool is not None:
            yield from self._perform_reads_buffered(
                request.relation, request.attribute, plan, aux,
                request.position, aux=True, span=span)
        else:
            yield from self._perform_reads(request.relation, plan,
                                           sequential_source="aux",
                                           attribute=request.attribute,
                                           span=span)
        if plan.tuples_examined:
            yield from self.cpu.execute(
                plan.tuples_examined
                * self.params.instructions_per_index_entry, span=span)

        if self.faults is not None and self.faults.is_down(self.node_id):
            self.faults.abort_request(request, self.node_id)
            if trace:
                trace.finish(span)
            return
        self.probes_executed += 1
        self._probes_counter.inc()
        yield from self.network.deliver(
            self.node_id, request.reply_to,
            self.params.control_message_bytes,
            ProbeReply(query_id=request.query_id, site=self.node_id),
            span=span)
        if trace:
            trace.finish(span)
