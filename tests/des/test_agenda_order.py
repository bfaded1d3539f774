"""The two-level agenda: a heap plus a FIFO of entries due now.

Entries pushed for the current instant under the newest sequence number
go to ``Environment._ready``; everything else goes to the heap, and each
run loop pops whichever first entry is smaller.  These tests drive
random models that mix every kind of due-now entry with zero-delay heap
entries and check that

* every FIFO append carries ``env._now`` and ``env._seq`` (so the FIFO
  is sorted by ``(time, seq)``);
* the plain run loops and the invariant-checked loop (no hold elision,
  ``agenda.order`` checked on every pop) give the same log and
  ``events_scheduled``;
* ``peek()`` is the earliest pending entry while FIFO entries wait;
* a hold is never elided while a FIFO entry is pending.
"""

from collections import deque

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.des import Environment, Server, Store
from repro.des import events as kernel
from repro.validation.invariants import InvariantChecker


class CheckedFifo(deque):
    """A due-now FIFO that asserts each append is due now and newest,
    and records the sequence numbers of the hold grants appended."""

    def __init__(self, env, entries=()):
        super().__init__(entries)
        self.env = env
        self.grant_seqs = set()

    def append(self, entry):
        assert entry[0] == self.env._now, (entry, self.env._now)
        assert entry[1] == self.env._seq, (entry, self.env._seq)
        if entry[2] is kernel._start_hold:
            self.grant_seqs.add(entry[1])
        super().append(entry)


def install_checked_fifo(env):
    env._ready = fifo = CheckedFifo(env, env._ready)
    return fifo


def earliest(env):
    """Firing time of the earliest pending entry, by brute force."""
    return min([entry[0] for entry in env._agenda]
               + [entry[0] for entry in env._ready], default=float("inf"))


class GrantLog:
    """Records the sequence numbers of hold grant entries pushed to the
    heap (``_start_hold`` dispatches) while installed."""

    def __init__(self):
        self.seqs = set()
        self._heappush = kernel.heappush

    def push(self, heap, entry):
        if entry[2] is kernel._start_hold:
            self.seqs.add(entry[1])
        self._heappush(heap, entry)

    def __enter__(self):
        kernel.heappush = self.push
        return self

    def __exit__(self, *exc):
        kernel.heappush = self._heappush


OPS = st.one_of(
    st.just(("sleep0",)),
    st.just(("timeout0",)),
    st.tuples(st.just("sleep"), st.sampled_from([0.5, 1.0])),
    st.just(("succeed",)),
    st.just(("again",)),
    st.tuples(st.just("put"), st.integers(0, 1)),
    st.tuples(st.just("get"), st.integers(0, 1)),
    st.tuples(st.just("hold"), st.integers(0, 1), st.sampled_from([0.0, 1.0]),
              st.integers(0, 1)),
    st.just(("peek",)),
)
PROGRAMS = st.lists(st.lists(OPS, max_size=8), min_size=1, max_size=6)
SCHEDULES = st.one_of(
    st.just(("all",)),
    st.tuples(st.just("number"), st.sampled_from([0.0, 0.5, 1.0, 2.0])),
    st.tuples(st.just("event"), st.sampled_from([0.0, 0.5, 1.0, 2.0])),
)


def run_model(programs, schedule, checked):
    """Run one random model; returns its log, ``events_scheduled`` and
    the reserved grant seqs of holds elided while a FIFO entry waited."""
    env = Environment()
    if checked:
        InvariantChecker().attach_environment(env)
    fifo = install_checked_fifo(env)
    servers = [Server(env), Server(env)]
    stores = [Store(env), Store(env)]
    log = []
    holds = []   # (reserved grant seq, FIFO pending when yielded)

    def check_peek():
        assert env.peek() == earliest(env)

    def proc(name, program):
        last = None
        for step, op in enumerate(program):
            kind = op[0]
            value = None
            if kind == "sleep0":
                value = yield 0.0
            elif kind == "timeout0":
                value = yield env.timeout(0)
            elif kind == "sleep":
                value = yield op[1]
            elif kind == "succeed" or (kind == "again" and last is None):
                last = env.event()
                last.succeed(step)
                value = yield last
            elif kind == "again":
                value = yield last  # processed: a dispatch entry
            elif kind == "put":
                stores[op[1]].put((name, step))
            elif kind == "get":
                value = yield stores[op[1]].get()
            elif kind == "hold":
                hold = servers[op[1]].hold(op[2], op[3])
                holds.append((hold._grant_seq, bool(env._ready)))
                value = yield hold
            else:
                check_peek()
            log.append((env.now, name, step, value))

    for name, program in enumerate(programs):
        env.process(proc(name, program))
    with GrantLog() as grants:
        if schedule[0] == "number":
            env.run(until=schedule[1])
            check_peek()
        elif schedule[0] == "event":
            env.run(until=env.timeout(schedule[1]))
            check_peek()
        env.run()
    check_peek()
    pushed = grants.seqs | fifo.grant_seqs
    elided_while_pending = [seq for seq, pending in holds
                            if seq and pending and seq not in pushed]
    return log, env.events_scheduled, elided_while_pending


@given(programs=PROGRAMS, schedule=SCHEDULES)
@settings(max_examples=300, deadline=None)
def test_checked_loop_matches_plain_loops(programs, schedule):
    plain = run_model(programs, schedule, checked=False)
    checked = run_model(programs, schedule, checked=True)
    assert plain[:2] == checked[:2]
    assert plain[2] == [] and checked[2] == []


def test_peek_sees_pending_fifo_entries():
    env = Environment()
    install_checked_fifo(env)
    seen = []

    def proc():
        yield env.timeout(2.0)
        env.event().succeed()          # FIFO entry at t=2
        env.timeout(0.5)               # heap entry at t=2.5
        seen.append((len(env._ready), len(env._agenda), env.peek()))

    env.process(proc())
    assert env.peek() == 0.0           # the bootstrap dispatch waits
    env.run()
    assert seen == [(1, 1, 2.0)]
    assert env.peek() == float("inf")


def test_hold_not_elided_while_fifo_entry_pending():
    """A hold yielded with a wake-up already in the FIFO must push its
    grant entry (to the FIFO, its seq still being the newest) rather
    than elide it."""
    def model(checked):
        env = Environment()
        if checked:
            InvariantChecker().attach_environment(env)
        fifo = install_checked_fifo(env)
        server = Server(env)
        store = Store(env)
        log = []

        def waiter():
            item = yield store.get()
            log.append((env.now, "got", item))

        def holder():
            store.put("x")             # wakes waiter: a FIFO entry
            wait = yield server.hold(1.0)
            log.append((env.now, "held", wait))

        env.process(waiter())
        env.process(holder())
        with GrantLog() as grants:
            env.run()
        return log, env.events_scheduled, len(fifo.grant_seqs), grants.seqs

    plain, checked = model(False), model(True)
    assert plain[:2] == checked[:2] == (
        [(0.0, "got", "x"), (1.0, "held", 0.0)], 7)
    assert plain[2] == 1 and plain[3] == set()


def test_stale_in_place_grant_goes_to_the_heap():
    """An in-place grant whose reserved seq is no longer the newest
    joins the heap and still precedes the later FIFO entries."""
    def model(checked):
        env = Environment()
        if checked:
            InvariantChecker().attach_environment(env)
        install_checked_fifo(env)
        server = Server(env)
        gate = env.event()
        log = []

        def waiter():
            yield gate
            log.append((env.now, "woke", server.count))
            yield server.hold(1.0)
            log.append((env.now, "waiter held"))

        def holder():
            yield 0.5
            hold = server.hold(1.0)    # reserves a seq
            gate.succeed()             # a newer FIFO entry
            wait = yield hold          # grant must go to the heap
            log.append((env.now, "holder held", wait))

        env.process(waiter())
        env.process(holder())
        with GrantLog() as grants:
            env.run()
        return log, env.events_scheduled, len(grants.seqs)

    plain, checked = model(False), model(True)
    assert plain[:2] == checked[:2]
    assert plain[0] == [(0.5, "woke", 1), (1.5, "holder held", 0.0),
                        (2.5, "waiter held")]
    assert plain[2] == 1
