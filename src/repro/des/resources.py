"""Shared resources for simulation processes.

Two primitives cover everything the Gamma model needs:

* :class:`Server` -- one server, non-preemptive, FIFO within priority
  classes; lower class numbers are served first.  Every CPU, NIC and
  disk-arm claim in the model is a :meth:`Server.hold`.  The paper's CPU
  is "FCFS non-preemptive ... except for byte transfers to/from the
  disk's FIFO buffer": DMA transfers claim the CPU in a lower class, so
  they are served ahead of any queued normal work without preempting
  the claim in service.
* :class:`Store` -- an unbounded FIFO of items with blocking ``get``; the
  message queue of every manager process.

Hot-path design
---------------
``hold`` (and ``request``) grant in place -- no queue round-trip -- when
the server is idle, the overwhelmingly common case in the Gamma model.
The grant value is exactly what the queued path computes, so simulated
results do not depend on which path ran.  ``hold(duration)`` is the
whole claim-serve-release burst as one kernel call
(:class:`~repro.des.events.Hold`).
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, List, Optional

from .environment import Environment
from .events import _PENDING, Event, Hold, SimulationError, _start_hold

__all__ = ["Request", "Server", "Store"]


class Request(Event):
    """A claim on a :class:`Server` from :meth:`Server.request`; fires
    with the time it queued once the server is granted to it."""

    __slots__ = ("resource", "enqueued_at")


class Server:
    """One server with non-preemptive priority-then-FIFO queueing.

    Claims are :class:`~repro.des.events.Hold` events from :meth:`hold`.
    :meth:`request` and :meth:`release` claim and free the server in two
    steps; they are the reference semantics a hold reproduces.

    The server integrates its own busy time for :meth:`utilization`
    with the float operations of a time-weighted busy-count monitor:
    ``area += now - busy_since`` at each release and ``area = 0.0``,
    ``start = now`` at :meth:`reset_stats`.
    """

    __slots__ = ("env", "_user", "_queues", "_waiting", "_busy_since",
                 "_area", "_start")

    def __init__(self, env: Environment):
        self.env = env
        #: The claim in service, or None when idle.
        self._user: Optional[Event] = None
        #: One FIFO per priority class, index = class; grown by the
        #: first wait in a class, so a server nobody queues at holds none.
        self._queues: List[Deque[Event]] = []
        self._waiting = 0
        self._busy_since = env._now
        self._area = 0.0
        self._start = env._now

    # -- public API -------------------------------------------------------

    @property
    def count(self) -> int:
        """1 while a claim holds the server, else 0."""
        return 0 if self._user is None else 1

    @property
    def queue_length(self) -> int:
        """Number of claims waiting for the server."""
        return self._waiting

    def hold(self, duration: float, priority: int = 0) -> Hold:
        """Claim the server for *duration*, then release it.

        ``wait = yield server.hold(d)`` must be yielded at once by the
        holding process; it resumes after the release with the time it
        queued before the grant.  *priority* is a class number >= 0.
        """
        env = self.env
        hold = Hold.__new__(Hold)
        hold.env = env
        hold._exception = None
        hold._processed = False
        hold.resource = self
        hold.duration = duration
        if self._user is None:
            # Granted in place with no wait; the grant entry's sequence
            # number is reserved here, and the entry is pushed (or
            # elided) when the hold is yielded.
            self._user = hold
            self._busy_since = env._now
            hold._value = 0.0
            env._seq += 1
            hold._grant_seq = env._seq
        else:
            hold._value = _PENDING
            hold._grant_seq = 0
            self._enqueue(hold, priority)
        return hold

    def request(self, priority: int = 0) -> Request:
        """Claim the server; the returned event fires when granted,
        with the time queued.  Free it with :meth:`release`."""
        env = self.env
        req = Request(env)
        req.resource = self
        if self._user is None:
            self._user = req
            self._busy_since = env._now
            req.succeed(0.0)
        else:
            self._enqueue(req, priority)
        return req

    def release(self, claim: Event) -> None:
        """Free the server held by *claim* and grant it to the next
        waiting claim, if any."""
        if claim is not self._user:
            raise SimulationError(f"{claim!r} does not hold this server")
        env = self.env
        now = env._now
        self._area += now - self._busy_since
        if self._waiting:
            for queue in self._queues:
                if queue:
                    nxt = queue.popleft()
                    break
            self._waiting -= 1
            self._user = nxt
            self._busy_since = now
            # Inlined succeed(now - enqueued_at): queued claims are
            # untriggered by construction.  A hold is granted by a
            # dispatch entry straight to _start_hold, with no event
            # processing.  Either entry joins the environment's FIFO.
            nxt._value = now - nxt.enqueued_at
            env._seq += 1
            if type(nxt) is Hold:
                env._ready.append((now, env._seq, _start_hold, nxt))
            else:
                env._ready.append((now, env._seq, None, nxt))
        else:
            self._user = None

    def utilization(self) -> float:
        """Busy fraction of the time since the last :meth:`reset_stats`
        (or creation)."""
        now = self.env._now
        span = now - self._start
        busy = self._user is not None
        if span <= 0:
            return 1.0 if busy else 0.0
        if busy:
            return (self._area + (now - self._busy_since)) / span
        return self._area / span

    def reset_stats(self) -> None:
        """Restart the busy-time integral now (end of warm-up)."""
        now = self.env._now
        self._area = 0.0
        self._start = now
        self._busy_since = now

    # -- internals ----------------------------------------------------------

    def _enqueue(self, claim: Event, priority: int) -> None:
        claim.enqueued_at = self.env._now
        queues = self._queues
        if priority >= len(queues):
            queues.extend(deque() for _ in range(priority + 1 - len(queues)))
        elif priority < 0:
            raise ValueError(f"priority must be >= 0, got {priority!r}")
        queues[priority].append(claim)
        self._waiting += 1


class Store:
    """An unbounded FIFO of items with blocking ``get``.

    ``put`` never blocks.  ``get`` returns an event that fires with the
    oldest item as soon as one is available (immediately if the store is
    non-empty).  Items are delivered in put-order to getters in get-order.
    """

    __slots__ = ("env", "_items", "_getters")

    def __init__(self, env: Environment):
        self.env = env
        self._items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()

    def __len__(self) -> int:
        return len(self._items)

    def put(self, item: Any) -> None:
        """Add *item*; wakes the oldest waiting getter, if any."""
        if self._getters:
            # Inlined getter.succeed(item): a queued getter is
            # untriggered by construction.
            getter = self._getters.popleft()
            getter._value = item
            env = self.env
            env._seq += 1
            env._ready.append((env._now, env._seq, None, getter))
        else:
            self._items.append(item)

    def get(self) -> Event:
        """Event firing with the next item (FIFO)."""
        # Built without Event.__init__ (and, when an item is ready,
        # without Event.succeed): one get per delivered message makes
        # these two frames visible in figure-scale profiles.
        env = self.env
        event = Event.__new__(Event)
        event.env = env
        event.callbacks = []
        event._exception = None
        event._processed = False
        items = self._items
        if items:
            event._value = items.popleft()
            env._seq += 1
            env._ready.append((env._now, env._seq, None, event))
        else:
            event._value = _PENDING
            self._getters.append(event)
        return event
