"""Network interfaces and the global communication network (paper §5).

"The Network Interface manager enforces a FCFS protocol for access to
the global communications network.  The Network module currently models
a fully connected network."

A message send therefore costs:

* CPU handling on the sender (protocol instructions);
* the sender NIC held for the Table 2 send time (0.6 ms at 100 bytes,
  5.6 ms at 8 KB, linear in between);
* the receiver NIC held for the same duration (fully connected network:
  no shared-medium contention, only endpoint serialization);
* CPU handling on the receiver, after which the message lands in the
  receiver's mailbox.

The sender NIC is released before the receiver NIC is requested, so no
hold-and-wait cycle (and hence no deadlock) can occur.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict

from ..des import Environment, Server, Store
from ..obs.registry import NULL_REGISTRY
from .cpu import NORMAL_PRIORITY, Cpu
from .params import SimulationParameters

__all__ = ["Network", "NetworkEndpoint"]


@dataclass(slots=True)
class NetworkEndpoint:
    """One node's attachment: its CPU, NIC and incoming mailbox."""

    node_id: int
    cpu: Cpu
    nic: Server
    mailbox: Store
    #: Resource name traced queries book NIC wait/occupancy under.
    obs_label: str = "node.nic"


class Network:
    """Fully connected interconnect between endpoints."""

    __slots__ = ("env", "params", "_endpoints", "messages_sent",
                 "bytes_sent", "_msg_counter", "_byte_counter",
                 "_latency_seconds", "_bandwidth", "_handling_service",
                 "invariants")

    def __init__(self, env: Environment, params: SimulationParameters,
                 registry=NULL_REGISTRY, invariants=None):
        self.env = env
        self.params = params
        self._endpoints: Dict[int, NetworkEndpoint] = {}
        self.messages_sent = 0
        self.bytes_sent = 0
        # With the null registry the counters are None and skipped
        # entirely: two no-op method calls per message are measurable
        # at figure scale.
        if registry is NULL_REGISTRY:
            self._msg_counter = self._byte_counter = None
        else:
            self._msg_counter = registry.counter("net.messages")
            self._byte_counter = registry.counter("net.bytes")
        # Per-message constants, computed once: both params methods cost
        # a call chain per message otherwise, and the divisor form keeps
        # occupancy bit-identical to network_occupancy_seconds().
        self._latency_seconds = params.network_latency_seconds()
        self._bandwidth = params.network_bandwidth_bytes_per_second()
        # Handling burst, precomputed with the same division
        # cpu.execute() performs so the service time is bit-identical.
        self._handling_service = (params.message_handling_instructions
                                  / params.cpu_instructions_per_second)
        # Optional conservation observer (repro.validation): counts every
        # send and completed delivery so lost messages are detectable.
        self.invariants = invariants

    def attach(self, node_id: int, cpu: Cpu,
               obs_label: str = "node.nic") -> NetworkEndpoint:
        """Register a node and return its endpoint."""
        if node_id in self._endpoints:
            raise ValueError(f"node {node_id} already attached")
        endpoint = NetworkEndpoint(
            node_id=node_id, cpu=cpu,
            nic=Server(self.env),
            mailbox=Store(self.env), obs_label=obs_label)
        self._endpoints[node_id] = endpoint
        return endpoint

    def endpoint(self, node_id: int) -> NetworkEndpoint:
        try:
            return self._endpoints[node_id]
        except KeyError:
            raise KeyError(f"no node {node_id} attached") from None

    def send(self, src: int, dst: int, num_bytes: int, message: Any) -> None:
        """Fire-and-forget: spawn the delivery process for one message."""
        self.env.process(self.deliver(src, dst, num_bytes, message))

    def deliver_external(self, src: int, num_bytes: int, span=None):
        """Process generator: ship a message out of the simulated machine.

        Result tuples stream to the submitting host (Gamma's VAX front
        end), which is outside the 32-processor system: the sender pays
        its CPU handling and NIC occupancy, but no receiver inside the
        machine is contended.
        """
        sender = self.endpoint(src)
        self.messages_sent += 1
        self.bytes_sent += num_bytes
        if self._msg_counter is not None:
            self._msg_counter.inc()
            self._byte_counter.inc(num_bytes)
        if self.invariants is not None:
            # The external host is outside the machine: the message is
            # considered delivered the moment it leaves (no receiver to
            # lose it).
            self.invariants.on_message_sent(src, -1)
            self.invariants.on_message_delivered(-1)
        yield from sender.cpu.execute(
            self.params.message_handling_instructions, span=span)
        occupancy = num_bytes / self._bandwidth
        wait = yield sender.nic.hold(occupancy)
        if span is not None:
            span.trace.resource(span, sender.obs_label, wait, occupancy)
        yield self._latency_seconds

    def deliver(self, src: int, dst: int, num_bytes: int, message: Any,
                span=None):
        """Process generator: full delivery path of one message.

        The CPU handling bursts and NIC occupancies hold their servers
        directly rather than through helper generators: message
        delivery is the single hottest compound operation in the
        model, and every ``yield from`` level is traversed again on
        each of the delivery's event resumes.
        """
        endpoints = self._endpoints
        sender = endpoints[src]
        receiver = endpoints[dst]
        self.messages_sent += 1
        self.bytes_sent += num_bytes
        counter = self._msg_counter
        if counter is not None:
            counter.inc()
            self._byte_counter.inc(num_bytes)
        invariants = self.invariants
        if invariants is not None:
            invariants.on_message_sent(src, dst)

        # Nothing in the model interrupts a delivery, so every server
        # is claimed with a hold and the delays are bare-float sleeps.
        handling = self._handling_service
        cpu = sender.cpu
        wait = yield cpu._hold(handling, NORMAL_PRIORITY)
        cpu.busy_seconds += handling
        if span is not None:
            span.trace.resource(span, cpu.obs_label, wait, handling)

        if src != dst:
            occupancy = num_bytes / self._bandwidth
            wait = yield sender.nic.hold(occupancy)
            if span is not None:
                span.trace.resource(span, sender.obs_label, wait, occupancy)
            # Fixed protocol latency: a pure delay, no resource held.
            yield self._latency_seconds
            wait = yield receiver.nic.hold(occupancy)
            if span is not None:
                span.trace.resource(span, receiver.obs_label, wait,
                                    occupancy)
            cpu = receiver.cpu
            wait = yield cpu._hold(handling, NORMAL_PRIORITY)
            cpu.busy_seconds += handling
            if span is not None:
                span.trace.resource(span, cpu.obs_label, wait, handling)

        if invariants is not None:
            invariants.on_message_delivered(dst)
        receiver.mailbox.put(message)

    def multicast(self, src: int, pairs, num_bytes: int, span=None):
        """Process generator: ship one message to each destination in turn.

        ``pairs`` is an iterable of ``(dst, message)``, consumed one pair
        per delivery, so a generator builds each message only when its
        send begins.  Semantically this is exactly ``for dst, m in pairs:
        yield from deliver(src, dst, num_bytes, m)`` -- the same endpoint
        holds in the same order, the same simulated timings, one event
        sequence -- but the scheduler's P-site broadcasts run it as a
        single batched generator: the per-message setup (endpoint
        lookups, counter/invariant checks, the occupancy division) is
        hoisted out of the per-destination loop, which at P=1024 sites
        removes a few thousand attribute walks per query without
        perturbing the model.
        """
        endpoints = self._endpoints
        sender = endpoints[src]
        sender_cpu = sender.cpu
        sender_nic = sender.nic
        counter = self._msg_counter
        invariants = self.invariants
        occupancy = num_bytes / self._bandwidth
        handling = self._handling_service
        latency = self._latency_seconds
        for dst, message in pairs:
            receiver = endpoints[dst]
            self.messages_sent += 1
            self.bytes_sent += num_bytes
            if counter is not None:
                counter.inc()
                self._byte_counter.inc(num_bytes)
            if invariants is not None:
                invariants.on_message_sent(src, dst)

            wait = yield sender_cpu._hold(handling, NORMAL_PRIORITY)
            sender_cpu.busy_seconds += handling
            if span is not None:
                span.trace.resource(span, sender_cpu.obs_label, wait,
                                    handling)

            if src != dst:
                wait = yield sender_nic.hold(occupancy)
                if span is not None:
                    span.trace.resource(span, sender.obs_label, wait,
                                        occupancy)
                yield latency
                wait = yield receiver.nic.hold(occupancy)
                if span is not None:
                    span.trace.resource(span, receiver.obs_label, wait,
                                        occupancy)
                cpu = receiver.cpu
                wait = yield cpu._hold(handling, NORMAL_PRIORITY)
                cpu.busy_seconds += handling
                if span is not None:
                    span.trace.resource(span, cpu.obs_label, wait, handling)

            if invariants is not None:
                invariants.on_message_delivered(dst)
            receiver.mailbox.put(message)

    def reset_stats(self) -> None:
        self.messages_sent = 0
        self.bytes_sent = 0
