"""Synchronisation primitives built on events.

``Resource``
    Counted FIFO resource (link occupancy, DMA engines, media channels).

``HoldPlan``
    Several resources held for fixed times as one claim (a TLP's links).

``Store``
    Unbounded FIFO of Python objects with blocking ``get`` (mailboxes,
    request queues between driver layers).

``Signal``
    Broadcast edge: ``wait()`` returns an event triggered by the next
    ``fire()``.  Used to model "something changed, re-check your state"
    wakeups such as doorbell writes and CQ-memory watchpoints without
    busy-poll event storms.  ``wait(blocked)`` hands ``fire()`` the
    re-check itself, so a waiter that would only park again costs a
    predicate call instead of a wake event and a process switch.
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

    Callers that hold units for a fixed time (link occupancy: several
    links per TLP) use *counted holds* instead: :meth:`take` claims a
    free unit without allocating a :class:`Request` or scheduling a
    grant event, :meth:`give` returns it, and a :class:`HoldPlan` does
    both for a whole set.  Both styles share one free count and one
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


class HoldPlan:
    """Fixed-time occupancy of several FIFO resources at once (a TLP's
    links), from ``(resource, hold_ns)`` pairs; built once per set.
    ``resources`` is in acquisition (creation: canonical, deadlock-free)
    order; ``timers`` has one ``(hold_ns, release callback, timer)`` per
    distinct hold, ascending — the last hold, ``fill``, is the longest.
    The timers are the plan's own (events.py); a claim that overlaps the
    one before it (capacity > 1) finds them armed and uses fresh events."""

    __slots__ = ("sim", "resources", "timers", "fill")

    def __init__(self, sim: "Simulator", pairs: t.Iterable[tuple]) -> None:
        pairs = sorted(pairs, key=lambda pair: pair[0].order)
        holds = sorted({hold for _resource, hold in pairs})
        self.sim = sim
        self.resources = tuple(resource for resource, _hold in pairs)
        self.timers = tuple(
            (hold, _giver(tuple(r for r, h in pairs if h == hold)), Event(sim))
            for hold in holds)
        for _hold, _give, timer in self.timers:     # idle until armed
            timer.callbacks = timer._value = None
        self.fill = holds[-1]

    def take(self) -> Event | None:
        """Claim every resource now if all are free (no grant event) and
        start the release timers, else claim nothing (None).  Returns
        the last timer for the caller to ride like a ``sim.sleep``: it
        fires once ``fill`` has elapsed, after its releases."""
        # hot-path: one call per TLP, not one per link
        resources = self.resources
        for resource in resources:
            if not resource._free:
                return None
        for resource in resources:
            resource._free -= 1
        sim = self.sim
        for hold, give, timer in self.timers:
            if timer.callbacks is None:
                timer.callbacks = [give]
                timer._processed = False
                heappush(sim._queue, (sim._now + hold, NORMAL,
                                      next(sim._sequence), timer))
            else:
                timer = sim.timeout(hold)
                timer.callbacks.append(give)
        return timer

    def hold(self, boot: Event | None = None) -> Event:
        """:meth:`take`, or queue FIFO for what is busy (:class:`Hold`);
        either way the event fires once ``fill`` has elapsed.  With
        ``boot``, start claiming when that (pending) event is processed."""
        # hot-path
        timer = self.take() if boot is None else None
        return timer or Hold(self, boot)


def _giver(resources: tuple[Resource, ...]) -> t.Callable[[Event], None]:
    """Release-timer callback returning one unit to each of
    ``resources``, in order (prebuilt: a release allocates nothing)."""
    def give_all(_event: Event) -> None:
        # hot-path
        for resource in resources:
            if resource._waiting:
                resource.give()
            else:
                resource._free += 1
    return give_all


class Hold(Event):
    """A :meth:`HoldPlan.hold` that must wait: a record that walks the
    plan's resources in order from plain callbacks — a free one is
    claimed by count, a busy one queued for with a :class:`Request`
    whose grant resumes the walk — and then starts the release timers.
    Never queued itself: subscribers run from the last timer's event."""

    __slots__ = ("plan", "_index", "_request")

    def __init__(self, plan: HoldPlan, boot: Event | None) -> None:
        Event.__init__(self, plan.sim)
        self.plan = plan
        self._index = 0     # resources[:_index] held or, the last, awaited
        self._request = None
        if boot is None:
            self._claim(None)
        else:
            boot.callbacks.append(self._claim)

    def _claim(self, _grant: Event | None) -> None:
        # hot-path
        plan = self.plan
        index = self._index
        for resource in plan.resources[index:]:
            index += 1
            if resource._free:
                resource._free -= 1
                continue
            req = Request.__new__(Request)
            req.sim = plan.sim
            req.callbacks = [self._claim]
            req._value = _PENDING
            req._ok = True
            req._processed = False
            req._defused = False
            req.resource = resource
            resource._waiting.append(req)
            self._request = req
            self._index = index
            return
        self._request = None
        sim = plan.sim
        for hold, give, timer in plan.timers:       # as HoldPlan.take
            if timer.callbacks is None:
                timer.callbacks = [give]
                timer._processed = False
                heappush(sim._queue, (sim._now + hold, NORMAL,
                                      next(sim._sequence), timer))
            else:
                timer = sim.timeout(hold)
                timer.callbacks.append(give)
        timer.callbacks.append(self._fire)

    def _fire(self, _timer: Event) -> None:
        # hot-path
        callbacks, self.callbacks = self.callbacks, None
        self._value = None
        self._processed = True
        for callback in callbacks:
            callback(self)

    def cancel(self) -> None:
        """Abandon the claim: leave the FIFO and give back every unit
        taken so far (:meth:`Process.interrupt` does, for the event its
        target is parked on).  A no-op once everything is held — the
        release timers own the units by then."""
        req, self._request = self._request, None
        if req is not None:
            req.callbacks = []      # a grant already queued wakes nobody
            *held, awaited = self.plan.resources[:self._index]
            awaited.release(req)
            for resource in held:
                resource.give()


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


class _GatedWait(Event):
    """A :meth:`Signal.wait` that carries its ``blocked`` predicate."""

    __slots__ = ("blocked",)


class _Sweep(Event):
    """One queue entry standing for a run of consecutive gated waiters.

    Unlike every other event it may be dispatched more than once: each
    dispatch wakes at most one waiter and re-queues the rest of the
    batch under the sweep's original ``(time, NORMAL, seq)`` key.
    """

    __slots__ = ("batch", "index", "seq")


class Signal:
    """Broadcast wakeup edge.

    ``wait()`` hands back an event; the next ``fire(value)`` triggers all
    outstanding waits.  Each wait observes at most one fire — callers that
    must not miss edges should re-arm before re-checking state, i.e.::

        while not condition():
            ev = signal.wait()
            yield ev

    A waiter whose whole reaction to a wake-up would be to evaluate
    ``condition()``, find it false and wait again may pass that test as
    ``wait(blocked)``: ``fire()`` then evaluates ``blocked()`` in the
    waiter's place and, while it holds, leaves the waiter parked — same
    event, same position relative to the other waiters — without
    resuming its process.  What every other process observes is what
    the loop above produces; only the wake events of the losers are
    gone (docs/performance.md, "Order preservation").  The contract for
    ``blocked``:

    * it is pure: no state change, no RNG draw, nothing scheduled;
    * it answers "woken now, I would come straight back to *this*
      wait" — if a wake-up could take the process anywhere else
      (another wait, a counter increment), it must return False;
    * it reads only state a parked loser cannot change, and it includes
      the shutdown condition, so whatever must release the waiter
      (a completion, a lifted clamp, a stop) makes it return False.

    Pass ``blocked`` only for a wait the process yields directly; a
    waiter nobody is subscribed to when its turn comes (its process was
    interrupted) is dropped instead of re-parked.
    """

    def __init__(self, sim: "Simulator") -> None:
        self.sim = sim
        self._waiters: list[Event] = []
        #: some entry of ``_waiters`` may be a :class:`_GatedWait`
        self._gated = False
        self.fires = 0

    @property
    def waiting(self) -> int:
        """Number of waits the next ``fire()`` will look at."""
        return len(self._waiters)

    def wait(self, blocked: t.Callable[[], bool] | None = None) -> Event:
        if blocked is None:
            ev = Event(self.sim)
        else:
            ev = _GatedWait(self.sim)
            ev.blocked = blocked
            self._gated = True
        self._waiters.append(ev)
        return ev

    def fire(self, value: t.Any = None) -> None:
        self.fires += 1
        waiters, self._waiters = self._waiters, []
        if self._gated:
            self._gated = False
            self._fire_gated(waiters, value)
            return
        for ev in waiters:
            ev.succeed(value)

    def _fire_gated(self, waiters: list[Event], value: t.Any) -> None:
        """Wake a batch that holds gated waiters: one wake event per
        ungated waiter, as in :meth:`fire`, and one :class:`_Sweep` per
        run of consecutive gated ones, in waiter order."""
        sim = self.sim
        batch: list[_GatedWait] | None = None
        for ev in waiters:
            if type(ev) is not _GatedWait:
                batch = None
                ev.succeed(value)
            elif batch is None:
                batch = [ev]
                sweep = _Sweep(sim)
                sweep.callbacks = [self._sweep]
                sweep._value = value
                sweep.batch = batch
                sweep.index = 0
                sweep.seq = next(sim._sequence)
                heappush(sim._queue, (sim._now, NORMAL, sweep.seq, sweep))
            else:
                batch.append(ev)

    def _sweep(self, sweep: _Sweep) -> None:
        """Dispatch of a sweep: stand in for the batch's wake events.

        Waiters are taken oldest first.  One whose predicate holds is
        appended to ``_waiters`` — where its process would have parked a
        fresh wait had it been resumed.  The first one whose predicate
        fails is processed the way the run loop processes a wake event,
        and the rest of the batch goes back on the queue under the same
        key: nothing NORMAL at this instant can sort between two wake
        events of one fire (their sequence numbers were consecutive),
        but the URGENT boot of a process the winner spawned does run
        before the next waiter is looked at, as it always did.
        """
        # hot-path: one pass per completion over every parked submitter
        batch = sweep.batch
        index = sweep.index
        end = len(batch)
        repark = self._waiters.append
        # Guards seen to hold in this dispatch: pure, and nothing runs before
        # the winner ends it, so an equal guard has the same verdict.
        holding: set = set()
        while index < end:
            ev = batch[index]
            index += 1
            callbacks = ev.callbacks
            if not callbacks:
                continue        # nobody left to wake: drop, don't re-park
            blocked = ev.blocked
            if blocked in holding:
                repark(ev)
                continue
            if blocked():
                holding.add(blocked)
                repark(ev)
                self._gated = True
                continue
            if index < end:
                sim = self.sim
                sweep.index = index
                sweep.callbacks = [self._sweep]
                sweep._processed = False
                heappush(sim._queue, (sim._now, NORMAL, sweep.seq, sweep))
            ev._value = sweep._value
            ev.callbacks = None
            ev._processed = True
            for callback in callbacks:
                callback(ev)
            return
