"""The batched multicast path must be indistinguishable from deliver().

The scheduler's insert/probe/select fan-outs (one control message per
site, 1,024 of them on the big machine) go through
:meth:`Network.multicast`, which hoists the per-destination lookups out
of the loop.  The simulated behavior -- event timings, CPU and NIC
charges, counters, mailbox contents and order -- must be *identical* to
issuing the same :meth:`Network.deliver` calls back to back, or the
32-site figures would shift.
"""

import pytest

from repro.core import RangePredicate, RangeStrategy
from repro.des import Environment, Store
from repro.gamma import GAMMA_PARAMETERS, Cpu, GammaMachine, Network
from repro.gamma import scheduler as scheduler_module
from repro.gamma.messages import SelectRequest

NUM_NODES = 5


def make_net(env):
    network = Network(env, GAMMA_PARAMETERS)
    for node in range(NUM_NODES):
        network.attach(node, Cpu(env, GAMMA_PARAMETERS, name=f"cpu{node}"))
    return network


def run_fanout(send):
    """Run one fan-out via *send* and snapshot everything observable."""
    env = Environment()
    net = make_net(env)
    finished = []

    def sender(env):
        yield from send(net, env)
        finished.append(env.now)

    env.process(sender(env))
    env.run()
    return {
        "finished": finished,
        "messages_sent": net.messages_sent,
        "bytes_sent": net.bytes_sent,
        "cpu_busy": [net.endpoint(i).cpu.busy_seconds
                     for i in range(NUM_NODES)],
        "mailboxes": [list(net.endpoint(i).mailbox._items)
                      for i in range(NUM_NODES)],
        "now": env.now,
    }


PAIRS = [(dst, f"msg-{dst}") for dst in (1, 3, 0, 4, 2)]
NUM_BYTES = 512


class TestMulticastEquivalence:
    def test_matches_sequential_deliver(self):
        def via_deliver(net, env):
            for dst, message in PAIRS:
                yield from net.deliver(0, dst, NUM_BYTES, message)

        def via_multicast(net, env):
            yield from net.multicast(0, PAIRS, NUM_BYTES)

        assert run_fanout(via_multicast) == run_fanout(via_deliver)

    def test_self_delivery_in_batch(self):
        pairs = [(0, "self"), (2, "other"), (0, "self-again")]

        def via_deliver(net, env):
            for dst, message in pairs:
                yield from net.deliver(0, dst, 64, message)

        def via_multicast(net, env):
            yield from net.multicast(0, pairs, 64)

        assert run_fanout(via_multicast) == run_fanout(via_deliver)

    def test_empty_batch_is_noop(self):
        def via_multicast(net, env):
            yield from net.multicast(0, [], NUM_BYTES)

        snap = run_fanout(via_multicast)
        assert snap["messages_sent"] == 0
        assert snap["now"] == 0
        assert all(not box for box in snap["mailboxes"])

    def test_counters_accumulate_per_destination(self):
        def via_multicast(net, env):
            yield from net.multicast(0, PAIRS, NUM_BYTES)

        snap = run_fanout(via_multicast)
        assert snap["messages_sent"] == len(PAIRS)
        assert snap["bytes_sent"] == len(PAIRS) * NUM_BYTES

    def test_concurrent_multicasts_interleave_like_delivers(self):
        """Two senders fanning out at once: NIC serialization must match."""
        def run(concurrent_send):
            env = Environment()
            net = make_net(env)
            done = []

            def sender(env, src):
                yield from concurrent_send(net, src)
                done.append((src, env.now))

            env.process(sender(env, 0))
            env.process(sender(env, 1))
            env.run()
            return done, net.bytes_sent

        def multicast(net, src):
            yield from net.multicast(
                src, [(d, (src, d)) for d in range(NUM_NODES)], 4096)

        def deliver(net, src):
            for d in range(NUM_NODES):
                yield from net.deliver(src, d, 4096, (src, d))

        assert run(multicast) == run(deliver)


class TestStreamedFanOut:
    def test_select_built_when_its_send_begins(self, monkeypatch,
                                               wisconsin_factory):
        """A P-site QB fan-out holds one request at a time, not P."""
        sites = 16
        built, built_at_arrival = [], []

        def counting_request(**fields):
            built.append(fields["site"])
            return SelectRequest(**fields)

        put = Store.put

        def spy(self, item):
            if isinstance(item, SelectRequest):
                built_at_arrival.append(len(built))
            put(self, item)

        monkeypatch.setattr(scheduler_module, "SelectRequest",
                            counting_request)
        monkeypatch.setattr(Store, "put", spy)
        placement = RangeStrategy("unique1").partition(
            wisconsin_factory(8_000, seed=5), sites)
        machine = GammaMachine(placement,
                               indexes={"unique1": False, "unique2": True},
                               seed=5)
        handle = machine.scheduler.submit(
            "R", "QB", RangePredicate("unique2", 100, 199))
        machine.env.run(until=handle.completion)
        assert handle.sites_used == sites
        assert built_at_arrival[0] == 1
        assert sorted(built) == list(range(sites))
        assert len(built_at_arrival) == sites
