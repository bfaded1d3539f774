"""Shared resources for simulation processes.

Three primitives cover everything the Gamma model needs:

* :class:`Resource` -- a server pool with FCFS queueing (the disk arm, a
  network wire).
* :class:`PriorityResource` -- FCFS within priority classes; lower numbers
  are served first.  The paper's CPU is "FCFS non-preemptive ... except for
  byte transfers to/from the disk's FIFO buffer": we model that by granting
  DMA transfers a higher priority class, so they are served ahead of any
  queued normal work without preempting the request in service.
* :class:`Store` -- an unbounded FIFO of items with blocking ``get``; the
  message queue of every manager process.

Hot-path design
---------------
``request`` and ``hold`` grant immediately -- no queue round-trip --
when a server is free and nobody waits (the overwhelmingly common case
in the Gamma model, where most CPU bursts and NIC holds find the server
idle).  The grant value and monitor observation are identical to the
queued path's, so simulated results do not depend on which path ran.
``hold(duration)`` is the whole claim-serve-release burst as one kernel
call (:class:`~repro.des.events.Hold`); the Gamma model claims every
server this way.
:class:`PriorityResource` cancels queued requests by tombstoning their
heap entry (O(1)) instead of scanning and re-heapifying (O(n)); the
tombstones are skipped lazily when the scheduler pops the next grant.
"""

from __future__ import annotations

from collections import deque
from heapq import heappop, heappush
from typing import Any, Deque, Dict, List, Optional

from .environment import Environment
from .events import (_PENDING, NORMAL, Event, Hold, SimulationError,
                     _start_hold)

__all__ = ["Request", "Resource", "PriorityResource", "Store"]


class Request(Event):
    """A pending or granted claim on a :class:`Resource`.

    Usable as a context manager so that the resource is always released::

        with cpu.request() as req:
            yield req            # wait for the grant
            yield env.timeout(service_time)
        # released here
    """

    __slots__ = ("resource", "priority", "enqueued_at")

    def __init__(self, resource: "Resource", priority: int):
        # Inlined Event.__init__: requests are created once per service
        # burst, right on the hot path.
        env = resource.env
        self.env = env
        self.callbacks = []
        self._value = _PENDING
        self._exception = None
        self._processed = False
        self.resource = resource
        self.priority = priority
        self.enqueued_at = env._now

    def __enter__(self) -> "Request":
        return self

    def __exit__(self, exc_type, exc_val, exc_tb) -> None:
        self.resource.release(self)

    @property
    def wait_time(self) -> float:
        """Time spent queued before the grant (valid once granted)."""
        return self.value  # the grant value is the wait duration


class Resource:
    """A pool of ``capacity`` identical servers with FCFS queueing."""

    __slots__ = ("env", "capacity", "_users", "_queue", "_waiting",
                 "monitor")

    def __init__(self, env: Environment, capacity: int = 1):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity!r}")
        self.env = env
        self.capacity = capacity
        self._users: List[Request] = []
        self._queue: Deque[Request] = deque()
        #: Live queued requests; kept in sync by _enqueue/_pop_next/
        #: _discard so the hot paths never measure the queue itself
        #: (PriorityResource's queue also holds tombstones).
        self._waiting = 0
        # Monitoring hooks (populated lazily by des.monitor.UtilizationMonitor).
        self.monitor = None

    # -- public API -------------------------------------------------------

    @property
    def count(self) -> int:
        """Number of requests currently holding the resource."""
        return len(self._users)

    @property
    def queue_length(self) -> int:
        """Number of requests waiting for a grant."""
        return self._waiting

    def request(self, priority: int = 0) -> Request:
        """Claim one server; the returned event fires when granted."""
        # Request.__init__ inlined (the constructor stays equivalent
        # for direct instantiation): one burst, one frame.
        env = self.env
        req = Request.__new__(Request)
        req.env = env
        req.callbacks = []
        req._value = _PENDING
        req._exception = None
        req._processed = False
        req.resource = self
        req.priority = priority
        req.enqueued_at = env._now
        if self._admit(req):
            env._seq += 1
            heappush(env._agenda, (env._now, NORMAL, env._seq, req))
        return req

    def hold(self, duration: float, priority: int = 0) -> Hold:
        """Claim one server for *duration*, then release it.

        ``wait = yield res.hold(d)`` must be yielded at once by the
        holding process; it resumes after the release with the time it
        queued before the grant.  A holding process cannot be
        interrupted.
        """
        env = self.env
        hold = Hold.__new__(Hold)
        hold.env = env
        hold._value = _PENDING
        hold._exception = None
        hold._processed = False
        hold.resource = self
        hold.priority = priority
        hold.enqueued_at = env._now
        hold.duration = duration
        if self._admit(hold):
            # The grant entry's sequence number, reserved here; the
            # entry is pushed (or elided) when the hold is yielded.
            env._seq += 1
            hold._grant_seq = env._seq
        else:
            hold._grant_seq = 0
            hold.callbacks = [_start_hold]
        return hold

    def _admit(self, req: Event) -> bool:
        """Grant *req* in place if a server is free and nobody is queued
        ahead (True; the caller schedules the grant), else queue it."""
        users = self._users
        if not self._waiting and len(users) < self.capacity:
            # Inlined succeed(): the request is known untriggered.  The
            # grant value (the wait duration) is exactly what the queued
            # path would compute: now - enqueued_at == 0.0.
            users.append(req)
            req._value = 0.0
            monitor = self.monitor
            if monitor is not None:
                # TimeWeightedMonitor.observe inlined: the simulation
                # clock never runs backwards inside the event loop, so
                # the method's backwards guard is unreachable here.
                now = self.env._now
                monitor._area += monitor._level * (now
                                                   - monitor._last_change)
                level = len(users)
                monitor._level = level
                monitor._last_change = now
                if level > monitor._max:
                    monitor._max = level
            return True
        self._enqueue(req)
        # With every server busy (the usual reason to queue) there is
        # nothing to grant; skip the call.
        if len(users) < self.capacity and self._grant_next():
            self._note_change()
        return False

    def release(self, request: Request) -> None:
        """Return the server held by *request* to the pool.

        Releasing an ungranted request cancels it (removes it from the
        queue); releasing twice is an error.
        """
        users = self._users
        try:
            users.remove(request)
        except ValueError:
            if self._discard(request):
                return
            if request.triggered:
                raise SimulationError("request released twice") from None
            raise SimulationError(  # pragma: no cover - defensive
                "request does not belong to this resource") from None
        if self._waiting:
            self._grant_next()
        # One observation per state transition: the release and any
        # same-instant re-grant collapse into a single sample at the
        # settled level (the original design double-observed the
        # transient dip, inflating monitor sample counts).
        monitor = self.monitor
        if monitor is not None:
            # TimeWeightedMonitor.observe inlined, as in request().
            now = self.env._now
            monitor._area += monitor._level * (now - monitor._last_change)
            level = len(users)
            monitor._level = level
            monitor._last_change = now
            if level > monitor._max:
                monitor._max = level

    # -- queue discipline (overridden by PriorityResource) -----------------

    def _enqueue(self, request: Request) -> None:
        self._queue.append(request)
        self._waiting += 1

    def _pop_next(self) -> Optional[Request]:
        if self._queue:
            self._waiting -= 1
            return self._queue.popleft()
        return None

    def _discard(self, request: Request) -> bool:
        try:
            self._queue.remove(request)
        except ValueError:
            return False
        self._waiting -= 1
        return True

    # -- internals ----------------------------------------------------------

    def _grant_next(self) -> bool:
        """Grant waiting requests while servers are free; True if any.

        The queue pop is written out inline (instead of calling
        :meth:`_pop_next`) because nearly every release of a contended
        resource lands here; :class:`PriorityResource` overrides this
        with the tombstone-skipping equivalent.
        """
        granted = False
        users = self._users
        capacity = self.capacity
        env = self.env
        queue = self._queue
        while queue and len(users) < capacity:
            nxt = queue.popleft()
            self._waiting -= 1
            users.append(nxt)
            # Inlined succeed(now - enqueued_at): queued requests are
            # untriggered by construction.
            nxt._value = env._now - nxt.enqueued_at
            env._seq += 1
            heappush(env._agenda, (env._now, NORMAL, env._seq, nxt))
            granted = True
        return granted

    def _note_change(self) -> None:
        monitor = self.monitor
        if monitor is not None:
            monitor.observe(self.env._now, len(self._users))


class PriorityResource(Resource):
    """A :class:`Resource` serving lower ``priority`` values first.

    Within one priority class the discipline remains FCFS.  Grants are
    non-preemptive: an in-service request always completes.

    Cancellation (releasing a still-queued request) tombstones the heap
    entry in O(1) -- the entry's request slot is set to ``None`` and
    skipped when it surfaces at the heap root -- instead of the O(n)
    scan plus re-heapify of the original design.  ``queue_length``
    counts live entries only.
    """

    __slots__ = ("_pqueue", "_pentries", "_pseq")

    def __init__(self, env: Environment, capacity: int = 1):
        super().__init__(env, capacity)
        #: Heap of mutable ``[priority, seq, request-or-None]`` entries.
        self._pqueue: List[List] = []
        #: Live request -> its heap entry, for O(1) tombstoning.
        self._pentries: Dict[Request, List] = {}
        self._pseq = 0

    def _enqueue(self, request: Request) -> None:
        self._pseq += 1
        entry = [request.priority, self._pseq, request]
        self._pentries[request] = entry
        heappush(self._pqueue, entry)
        self._waiting += 1

    def _pop_next(self) -> Optional[Request]:
        pqueue = self._pqueue
        while pqueue:
            req = heappop(pqueue)[2]
            if req is not None:
                del self._pentries[req]
                self._waiting -= 1
                return req
        return None

    def _discard(self, request: Request) -> bool:
        entry = self._pentries.pop(request, None)
        if entry is None:
            return False
        entry[2] = None  # lazy deletion: skipped by _pop_next
        self._waiting -= 1
        return True

    def _grant_next(self) -> bool:
        """The base grant loop with the tombstone skip written inline."""
        granted = False
        users = self._users
        capacity = self.capacity
        env = self.env
        pqueue = self._pqueue
        pentries = self._pentries
        while pqueue and len(users) < capacity:
            nxt = heappop(pqueue)[2]
            if nxt is None:
                continue  # tombstone of a cancelled request
            del pentries[nxt]
            self._waiting -= 1
            users.append(nxt)
            nxt._value = env._now - nxt.enqueued_at
            env._seq += 1
            heappush(env._agenda, (env._now, NORMAL, env._seq, nxt))
            granted = True
        return granted


class Store:
    """An unbounded FIFO of items with blocking ``get``.

    ``put`` never blocks.  ``get`` returns an event that fires with the
    oldest item as soon as one is available (immediately if the store is
    non-empty).  Items are delivered in put-order to getters in get-order.

    A get event must be waited on promptly: a getter whose callback list
    is empty at ``put`` time (its waiter was interrupted mid-wait, so
    nothing can ever consume the value) is treated as abandoned and
    skipped, keeping the item for the next live getter instead of
    silently losing the message.
    """

    __slots__ = ("env", "_items", "_getters")

    def __init__(self, env: Environment):
        self.env = env
        self._items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()

    def __len__(self) -> int:
        return len(self._items)

    def put(self, item: Any) -> None:
        """Add *item*; wakes the oldest *live* waiting getter, if any."""
        getters = self._getters
        while getters:
            getter = getters.popleft()
            if getter.callbacks:
                # Inlined getter.succeed(item): a queued getter is
                # untriggered by construction.
                getter._value = item
                env = self.env
                env._seq += 1
                heappush(env._agenda, (env._now, NORMAL, env._seq, getter))
                return
            # Orphaned getter (interrupted waiter): drop it and keep
            # looking -- succeeding it would make the item vanish.
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
            heappush(env._agenda, (env._now, NORMAL, env._seq, event))
        else:
            event._value = _PENDING
            self._getters.append(event)
        return event

    def peek_all(self) -> List[Any]:
        """Snapshot of queued items (oldest first); for inspection/tests."""
        return list(self._items)
