"""Synchronisation primitives built on events.

``Resource``
    Counted FIFO resource (link occupancy, DMA engines, media channels).

``Store``
    Unbounded FIFO of Python objects with blocking ``get`` (mailboxes,
    request queues between driver layers).

``Signal``
    Broadcast edge: ``wait()`` returns an event triggered by the next
    ``fire()``.  Used to model "something changed, re-check your state"
    wakeups such as doorbell writes and CQ-memory watchpoints without
    busy-poll event storms.
"""

from __future__ import annotations

import typing as t
from collections import deque
from heapq import heappush

from .events import NORMAL, Event, _PENDING

if t.TYPE_CHECKING:  # pragma: no cover
    from .core import Simulator


class Request(Event):
    """A pending claim on a :class:`Resource`; triggers when granted."""

    __slots__ = ("resource",)

    def __init__(self, sim: "Simulator", resource: "Resource") -> None:
        # hot-path: inline Event field init (no Event.__init__ frame).
        self.sim = sim
        self.callbacks = []
        self._value = _PENDING
        self._ok = True
        self._processed = False
        self._defused = False
        self.resource = resource

    def __enter__(self) -> "Request":
        return self

    def __exit__(self, *exc: t.Any) -> None:
        self.resource.release(self)


class Resource:
    """A counted resource with strict FIFO granting.

    Usage from a process::

        req = resource.request()
        yield req
        try:
            ...  # hold the resource
        finally:
            resource.release(req)

    Callers that hold units for a fixed time and never cancel (link
    occupancy: several links per TLP) use *counted holds* instead:
    :meth:`take` / :func:`take_all` claim a free unit without allocating
    a :class:`Request` or scheduling a grant event, :meth:`give` /
    :func:`giver` return it.  Both styles share one free count and one
    FIFO of waiters; the invariant is *waiters non-empty implies no free
    unit*, so a free unit can always be claimed on the spot.
    """

    def __init__(self, sim: "Simulator", capacity: int = 1) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.sim = sim
        self.capacity = capacity
        #: deterministic creation index — use this (never ``id()``) as a
        #: canonical lock-ordering key, or runs stop being reproducible
        self.order = sim._next_resource_order()
        self._free = capacity
        self._waiting: deque[Request] = deque()

    @property
    def count(self) -> int:
        """Number of units currently held."""
        return self.capacity - self._free

    @property
    def queued(self) -> int:
        """Number of requests waiting for a grant."""
        return len(self._waiting)

    def take(self) -> bool:
        """Counted hold: claim a unit now if one is free (no event)."""
        if self._free:
            self._free -= 1
            return True
        return False

    def give(self) -> None:
        """Return one held unit: the oldest waiter gets it, else it is
        free again.  A granted request's unit may be returned this way
        instead of through :meth:`release`."""
        if self._waiting:
            # Same zero-delay NORMAL grant event, same fresh sequence
            # number, as an uncontended request() schedules.
            nxt = self._waiting.popleft()
            nxt._value = nxt
            sim = self.sim
            heappush(sim._queue,
                     (sim._now, NORMAL, next(sim._sequence), nxt))
        elif self._free < self.capacity:
            self._free += 1
        else:
            raise RuntimeError("give() without a unit held")

    def request(self) -> Request:
        # hot-path: Request construction is flattened (no Event.__init__
        # frame) and the uncontended grant inlines succeed(req) minus
        # the double-trigger guard a fresh event cannot need.
        sim = self.sim
        req = Request.__new__(Request)
        req.sim = sim
        req.callbacks = []
        req._ok = True
        req._processed = False
        req._defused = False
        req.resource = self
        if self._free:
            self._free -= 1
            req._value = req
            heappush(sim._queue,
                     (sim._now, NORMAL, next(sim._sequence), req))
        else:
            req._value = _PENDING
            self._waiting.append(req)
        return req

    def release(self, request: Request) -> None:
        """Return a granted request's unit, or cancel a waiting one."""
        if request.resource is not self:
            raise RuntimeError("releasing a request not issued here")
        request.resource = None     # released at most once
        if request._value is _PENDING:
            self._waiting.remove(request)
        else:
            self.give()

    def acquire(self) -> t.Generator[Event, t.Any, Request]:
        """Convenience sub-generator: ``req = yield from res.acquire()``."""
        req = self.request()
        yield req
        return req


def take_all(resources: t.Sequence[Resource]) -> bool:
    """Claim one unit of every resource, or none: True iff all were free."""
    # hot-path: one call per TLP instead of one per link
    for resource in resources:
        if not resource._free:
            return False
    for resource in resources:
        resource._free -= 1
    return True


def giver(resources: t.Sequence[Resource]) -> t.Callable[[Event], None]:
    """A reusable timer callback that returns one unit to each of
    ``resources``, in order (built once per occupancy plan, so a hold's
    release allocates nothing)."""
    def give_all(_event: Event) -> None:
        # hot-path
        for resource in resources:
            if resource._waiting:
                resource.give()
            else:
                resource._free += 1
    return give_all


class Store:
    """Unbounded FIFO of items with blocking ``get``."""

    def __init__(self, sim: "Simulator") -> None:
        self.sim = sim
        self._items: deque[t.Any] = deque()
        self._getters: deque[Event] = deque()

    def __len__(self) -> int:
        return len(self._items)

    def put(self, item: t.Any) -> None:
        """Deposit an item, waking the oldest waiting getter if any."""
        # hot-path: inline succeed on the fresh getter event (same
        # ordering — zero-delay NORMAL push with a fresh sequence number).
        if self._getters:
            ev = self._getters.popleft()
            if ev._value is not _PENDING:
                raise RuntimeError(f"{ev!r} already triggered")
            ev._value = item
            sim = self.sim
            heappush(sim._queue,
                     (sim._now, NORMAL, next(sim._sequence), ev))
        else:
            self._items.append(item)

    def get(self) -> Event:
        """Event that triggers with the next available item."""
        # hot-path
        sim = self.sim
        ev = Event.__new__(Event)
        ev.sim = sim
        ev.callbacks = []
        ev._ok = True
        ev._processed = False
        ev._defused = False
        if self._items:
            ev._value = self._items.popleft()
            heappush(sim._queue,
                     (sim._now, NORMAL, next(sim._sequence), ev))
        else:
            ev._value = _PENDING
            self._getters.append(ev)
        return ev

    def try_get(self) -> t.Any | None:
        """Non-blocking pop; None when empty."""
        return self._items.popleft() if self._items else None


class Signal:
    """Broadcast wakeup edge.

    ``wait()`` hands back an event; the next ``fire(value)`` triggers all
    outstanding waits.  Each wait observes at most one fire — callers that
    must not miss edges should re-arm before re-checking state, i.e.::

        while not condition():
            ev = signal.wait()
            yield ev
    """

    def __init__(self, sim: "Simulator") -> None:
        self.sim = sim
        self._waiters: list[Event] = []
        self.fires = 0

    def wait(self) -> Event:
        ev = Event(self.sim)
        self._waiters.append(ev)
        return ev

    def fire(self, value: t.Any = None) -> None:
        self.fires += 1
        waiters, self._waiters = self._waiters, []
        for ev in waiters:
            ev.succeed(value)
