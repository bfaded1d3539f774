"""The Query Manager and Query Scheduler (paper §5).

"The Query Manager constructs a query plan for executing a multi-site
query.  The Query Scheduler coordinates the execution of the operators
of a multi-site query."

Both live on the dedicated scheduler node (Figure 7).  For each query:

1. the query manager plans it and localizes execution by consulting the
   catalog's partitioning information (paying plan + localization CPU);
2. for BERD queries on a secondary attribute, the scheduler first runs
   the *probe phase*: it ships probe requests to the auxiliary-index
   site(s) and waits for every reply -- the sequential first step of §2;
3. the scheduler ships a select request to each target site (each send
   costs scheduler CPU and NIC time -- this linear-in-sites overhead is
   MAGIC's "cost of participation" CP);
4. it collects result packets and done messages from every site, then
   completes the query back to the submitting terminal.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from ..core.strategy import Placement, RangePredicate
from ..des import Environment, Event
from ..obs.telemetry import NULL_TELEMETRY
from .catalog import SystemCatalog
from .messages import (
    AuxInsertRequest,
    InsertRequest,
    OperatorAbort,
    OperatorDone,
    ProbeReply,
    ProbeRequest,
    ResultPacket,
    SelectRequest,
)
from .network import Network, NetworkEndpoint
from .params import SimulationParameters

__all__ = ["QueryScheduler", "QueryHandle"]


@dataclass
class QueryHandle:
    """Tracks one in-flight query; ``completion`` fires when it finishes."""

    query_id: int
    query_type: str
    completion: Event
    submitted_at: float
    pending_probes: int = 0
    pending_done: int = 0
    probes_complete: Optional[Event] = None
    tuples_returned: int = 0
    sites_used: int = 0
    #: Span tree of this query (None unless telemetry tracing is on).
    trace: Optional[object] = None
    #: Fault-injection bookkeeping (all untouched on the static path).
    #: Sites whose select/insert work aborted and is not yet resolved.
    failed_sites: list = field(default_factory=list)
    #: At most one retry round per query (guarantees exactly-once
    #: termination even under repeated failures).
    retried: bool = False
    #: True once any part of the answer was lost (unrecovered abort or
    #: an aborted probe phase).
    degraded: bool = False
    #: What _run_query dispatched, kept only when faults are active so
    #: the scheduler can re-issue selects to recovered sites.
    retry_ctx: Optional[Tuple] = None


class QueryScheduler:
    """Plans, localizes and coordinates selection queries."""

    def __init__(self, env: Environment, params: SimulationParameters,
                 node_id: int, endpoint: NetworkEndpoint, network: Network,
                 catalog: SystemCatalog, telemetry=NULL_TELEMETRY,
                 invariants=None, faults=None):
        self.env = env
        # Optional FaultController (repro.dynamics.faults); None on the
        # static path.
        self.faults = faults
        self.params = params
        self.node_id = node_id
        self.endpoint = endpoint
        self.network = network
        self.catalog = catalog
        self.telemetry = telemetry
        # Optional conservation observer (repro.validation): every issue /
        # termination is reported so dropped or double completions surface.
        self.invariants = invariants
        self._completed_counter = telemetry.registry.counter(
            "sched.queries.completed")
        self._queries: Dict[int, QueryHandle] = {}
        self._next_id = 0
        env.process(self._dispatch_loop())

    # -- submission --------------------------------------------------------

    def submit(self, relation: str, query_type: str,
               predicate: RangePredicate) -> QueryHandle:
        """Enter a query into the system; returns its handle."""
        self._next_id += 1
        handle = QueryHandle(query_id=self._next_id, query_type=query_type,
                             completion=Event(self.env),
                             submitted_at=self.env.now)
        if self.telemetry.enabled:
            handle.trace = self.telemetry.begin_query(handle.query_id,
                                                      query_type)
        if self.invariants is not None:
            self.invariants.on_query_issued(handle.query_id, query_type,
                                            self.env.now)
        self._queries[handle.query_id] = handle
        self.env.process(self._run_query(handle, relation, predicate))
        return handle

    def submit_insert(self, relation: str, values: Dict[str, int],
                      query_type: str = "INSERT") -> QueryHandle:
        """Insert one tuple; returns a handle like :meth:`submit`.

        The tuple goes to its home site; BERD placements additionally
        update one auxiliary fragment per secondary attribute (the
        sequential-maintenance cost the read-only paper never charges
        them for).
        """
        self._next_id += 1
        handle = QueryHandle(query_id=self._next_id, query_type=query_type,
                             completion=Event(self.env),
                             submitted_at=self.env.now)
        if self.telemetry.enabled:
            handle.trace = self.telemetry.begin_query(handle.query_id,
                                                      query_type)
        if self.invariants is not None:
            self.invariants.on_query_issued(handle.query_id, query_type,
                                            self.env.now)
        self._queries[handle.query_id] = handle
        self.env.process(self._run_insert(handle, relation, values))
        return handle

    def _run_insert(self, handle: QueryHandle, relation: str,
                    values: Dict[str, int]):
        cpu = self.endpoint.cpu
        trace = handle.trace
        placement = self.catalog.entry(relation).placement
        plan_span = trace.start("plan") if trace else None
        yield from cpu.execute(self.params.query_plan_instructions,
                               span=plan_span)
        yield from cpu.execute(
            self.catalog.localization_instructions(relation),
            span=plan_span)
        if trace:
            trace.finish(plan_span)

        home = placement.site_for_tuple(values)
        targets = [(home, None)]
        aux_site_for = getattr(placement, "aux_site_for", None)
        if aux_site_for is not None:
            for attribute in placement.auxiliaries:
                if attribute in values:
                    targets.append(
                        (aux_site_for(attribute, values[attribute]),
                         attribute))

        handle.pending_done = len(targets)
        handle.sites_used = len({site for site, _ in targets})
        domain = max(placement.relation.cardinality, 1)
        dispatch_span = trace.start("dispatch",
                                    sites=len(targets)) if trace else None
        batch = []
        for site, attribute in targets:
            if attribute is None:
                message = InsertRequest(
                    query_id=handle.query_id, site=site, relation=relation,
                    reply_to=self.node_id)
            else:
                message = AuxInsertRequest(
                    query_id=handle.query_id, site=site, relation=relation,
                    attribute=attribute, reply_to=self.node_id,
                    position=min(values[attribute] / domain, 0.999999))
            batch.append((site, message))
        yield from self.network.multicast(
            self.node_id, batch, self.params.control_message_bytes,
            span=dispatch_span)
        if trace:
            trace.finish(dispatch_span)

    # -- coordination -----------------------------------------------------------

    def _run_query(self, handle: QueryHandle, relation: str,
                   predicate: RangePredicate):
        cpu = self.endpoint.cpu
        trace = handle.trace
        placement = self.catalog.entry(relation).placement

        # Query manager: plan + localize.
        plan_span = trace.start("plan") if trace else None
        yield from cpu.execute(self.params.query_plan_instructions,
                               span=plan_span)
        yield from cpu.execute(
            self.catalog.localization_instructions(relation),
            span=plan_span)
        decision = placement.route(predicate)
        handle.sites_used = decision.site_count
        if trace:
            trace.finish(plan_span, sites=decision.site_count)

        # Predicate position within the domain, for buffer-pool page ids.
        domain = max(placement.relation.cardinality, 1)
        position = min(max(predicate.low / domain, 0.0), 0.999999)

        # BERD step 1: probe the auxiliary index, wait for every reply.
        if decision.is_two_phase:
            probe_span = trace.start(
                "probe", sites=len(decision.probe_sites)) if trace else None
            handle.pending_probes = len(decision.probe_sites)
            handle.probes_complete = Event(self.env)
            yield from self.network.multicast(
                self.node_id,
                ((site, ProbeRequest(query_id=handle.query_id, site=site,
                                     relation=relation,
                                     attribute=predicate.attribute,
                                     matches=matches, reply_to=self.node_id,
                                     position=position))
                 for site, matches in zip(decision.probe_sites,
                                          decision.probe_matches)),
                self.params.control_message_bytes, span=probe_span)
            yield handle.probes_complete
            if trace:
                trace.finish(probe_span)

        # Step 2: the selection proper on each target site.
        targets = decision.target_sites
        if targets:
            counts = placement.qualifying_counts(predicate).tolist()
            clustered = self.catalog.entry(relation).indexes.get(
                predicate.attribute, False)
            handle.pending_done = len(targets)
            if self.faults is not None:
                handle.retry_ctx = (relation, predicate.attribute,
                                    clustered, counts, position)
            dispatch_span = trace.start(
                "dispatch", sites=len(targets)) if trace else None
            # A generator, not a list: each request is built when its
            # send begins, so a 1,024-site fan-out holds one at a time.
            yield from self.network.multicast(
                self.node_id,
                ((site, SelectRequest(query_id=handle.query_id, site=site,
                                      relation=relation,
                                      attribute=predicate.attribute,
                                      clustered_index=clustered,
                                      matches=counts[site],
                                      reply_to=self.node_id,
                                      position=position))
                 for site in targets),
                self.params.control_message_bytes, span=dispatch_span)
            if trace:
                trace.finish(dispatch_span)
            # Completion is triggered by the dispatch loop when the last
            # done message arrives.
        else:
            self._finish(handle)

    def _finish(self, handle: QueryHandle) -> None:
        del self._queries[handle.query_id]
        if handle.degraded and self.faults is not None:
            self.faults.degraded_queries += 1
        self._completed_counter.inc()
        if self.invariants is not None:
            self.invariants.on_query_terminated(handle.query_id,
                                                self.env.now)
        if handle.trace is not None:
            self.telemetry.end_query(handle.query_id)
        # No value: the handle holds its completion event, so the handle
        # as the value would be a cycle only the cycle collector frees.
        handle.completion.succeed()

    # -- fault handling ----------------------------------------------------

    def _settle_failed(self, handle: QueryHandle) -> None:
        """All outstanding work resolved, but some sites aborted.

        If any failed site has recovered by detection time and this
        query has not yet retried, re-dispatch the lost selects there
        (one retry round, after a short backoff).  Sites still down --
        and any query without a retryable context (inserts) -- degrade:
        the query completes with that part of the answer missing.
        """
        faults = self.faults
        recovered = [s for s in handle.failed_sites
                     if not faults.is_down(s)]
        can_retry = (handle.retry_ctx is not None and recovered
                     and not handle.retried)
        if can_retry:
            still_down = [s for s in handle.failed_sites
                          if faults.is_down(s)]
            if still_down:
                handle.degraded = True
            handle.retried = True
            handle.failed_sites = []
            handle.pending_done = len(recovered)
            faults.retries += 1
            self.env.process(self._retry_selects(handle, recovered))
        else:
            handle.degraded = True
            self._finish(handle)

    def _retry_selects(self, handle: QueryHandle, sites):
        if self.faults.plan.retry_backoff_seconds > 0:
            yield self.faults.plan.retry_backoff_seconds
        relation, attribute, clustered, counts, position = handle.retry_ctx
        yield from self.network.multicast(
            self.node_id,
            ((site, SelectRequest(query_id=handle.query_id, site=site,
                                  relation=relation, attribute=attribute,
                                  clustered_index=clustered,
                                  matches=counts[site],
                                  reply_to=self.node_id,
                                  position=position))
             for site in sites),
            self.params.control_message_bytes)

    # -- incoming messages -------------------------------------------------------

    def _dispatch_loop(self):
        while True:
            message = yield self.endpoint.mailbox.get()
            handle = self._queries.get(message.query_id)
            if handle is None:
                continue  # late packet of an already-finished query
            if isinstance(message, ProbeReply):
                handle.pending_probes -= 1
                if handle.pending_probes == 0:
                    handle.probes_complete.succeed()
            elif isinstance(message, OperatorDone):
                handle.tuples_returned += message.tuples_returned
                handle.pending_done -= 1
                if handle.pending_done == 0:
                    if handle.failed_sites:
                        self._settle_failed(handle)
                    else:
                        self._finish(handle)
            elif isinstance(message, OperatorAbort):
                if message.kind == "probe":
                    # The probe phase degrades rather than retries: the
                    # auxiliary answer for that site is simply missing.
                    handle.degraded = True
                    handle.pending_probes -= 1
                    if handle.pending_probes == 0:
                        handle.probes_complete.succeed()
                else:
                    handle.failed_sites.append(message.site)
                    handle.pending_done -= 1
                    if handle.pending_done == 0:
                        self._settle_failed(handle)
            elif isinstance(message, ResultPacket):
                pass  # delivery costs already charged by the network
            else:
                raise TypeError(
                    f"scheduler cannot handle {type(message).__name__}")

    @property
    def in_flight(self) -> int:
        return len(self._queries)
