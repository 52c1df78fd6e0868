"""Synchronisation primitives built on events.

``Resource``
    Counted FIFO resource; ``request()``/``release()`` hold it for an
    unknown length (block-device tags, admin lock, media channels).

``HoldPlan``
    Resources held for fixed times as one claim: every link hold (a
    TLP's PCIe links, an InfiniBand direction).

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

from .events import Event, _PENDING

if t.TYPE_CHECKING:  # pragma: no cover
    from .core import Simulator

#: ``Event.__new__`` bound once, for the builds that set an event's
#: fields inline: one bytecode less per build than the attribute lookup
_new = Event.__new__
#: a record's step: what runs when the event it waits on is dispatched
Step = t.Callable[[Event], None]


class Request(Event):
    """A pending claim on a :class:`Resource`; triggers when granted.

    A granted request's value is the request itself, read through
    :attr:`value`; what is stored is ``None``, so a grant is no
    reference cycle to outlive its holder (the resumed process receives
    that ``None``)."""

    __slots__ = ("resource",)

    @property
    def value(self) -> "Request":
        if self._value is _PENDING:
            raise RuntimeError("event value is not yet available")
        return self


class Resource:
    """A counted resource with strict FIFO granting.

    A hold of unknown length is a request, from a process::

        req = resource.request()
        yield req
        try:
            ...  # hold the resource
        finally:
            resource.release(req)

    A fixed-time hold — every link, PCIe or InfiniBand — is a
    :class:`HoldPlan` instead: it claims free units by count, with no
    :class:`Request` and no grant event, and its release timers return
    them (:meth:`take` and :meth:`give` do the same for one unit).
    Both styles share one free count and one FIFO of waiters; the
    invariant is *waiters non-empty implies no free unit*, so a free
    unit can always be claimed on the spot.
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
            # Same zero-delay NORMAL grant event, at the same place in
            # the queue, as an uncontended request() schedules.
            nxt = self._waiting.popleft()
            nxt._value = None
            sim = self.sim
            at = sim._at
            if sim._now in at:
                at[sim._now].append(nxt)
            else:
                sim._push(nxt, 0)
        elif self._free < self.capacity:
            self._free += 1
        else:
            raise RuntimeError("give() without a unit held")

    def request(self) -> Request:
        # hot-path: Request construction is flattened (no Event.__init__
        # frame) and the uncontended grant inlines succeed(req) minus
        # the double-trigger guard a fresh event cannot need.
        sim = self.sim
        req = _new(Request)
        req.sim = sim
        req.callbacks = []
        req._ok = True
        req._processed = False
        req._defused = False
        req.resource = self
        if self._free:
            self._free -= 1
            req._value = None
            at = sim._at
            if sim._now in at:
                at[sim._now].append(req)
            else:
                sim._push(req, 0)
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


class HoldPlan:
    """Fixed-time occupancy of FIFO resources as one claim, the one way
    a link is held (a TLP's PCIe links, an InfiniBand direction), from
    ``(resource, hold_ns)`` pairs; built once per set.
    ``resources`` is in acquisition (creation: canonical, deadlock-free)
    order; ``timers`` has one ``(hold_ns, release callback, timer)`` per
    distinct hold, ascending — the last hold, ``fill``, is the longest;
    ``early`` and ``last`` split them, for :meth:`Hold._claim`.  The
    timers are the plan's own (events.py); a claim that overlaps the one
    before it (capacity > 1) finds them armed and uses fresh events."""

    __slots__ = ("sim", "resources", "timers", "early", "last", "fill")

    def __init__(self, sim: "Simulator", pairs: t.Iterable[tuple]) -> None:
        pairs = sorted(pairs, key=lambda pair: pair[0].order)
        holds = sorted({hold for _resource, hold in pairs})
        self.sim = sim
        self.resources = tuple(resource for resource, _hold in pairs)
        self.timers = timers = tuple(
            (hold, _giver(sim, tuple(r for r, h in pairs if h == hold)),
             Event(sim))
            for hold in holds)
        for _hold, _give, timer in timers:          # idle until armed
            timer.callbacks = timer._value = None
        self.early, self.last = timers[:-1], timers[-1]
        self.fill = holds[-1]

    def take(self, step: Step | None = None) -> Event | None:
        """Claim every resource now if all are free (no grant event) and
        start the release timers, else claim nothing (None).  Returns
        the last timer, which fires once ``fill`` has elapsed, after its
        releases: it runs ``step``, or the caller waits on it at once."""
        # hot-path: one call per TLP, not one per link
        resources = self.resources
        for resource in resources:
            if not resource._free:
                return None
        for resource in resources:
            resource._free -= 1
        sim = self.sim
        at = sim._at
        for hold, give, timer in self.timers:
            if timer.callbacks is None:
                timer.callbacks = [give]
                timer._processed = False
                when = sim._now + hold
                if when in at:
                    at[when].append(timer)
                else:
                    at[when] = [timer]
                    heappush(sim._times, when)
            else:
                timer = sim.timeout(hold)
                timer.callbacks = [give]
        if step:
            timer.callbacks = [give, step]      # the fill, born subscribed
        return timer

    def hold(self, step: Step | None = None) -> Event:
        """:meth:`take`, or queue FIFO for what is busy (:class:`Hold`);
        either way the event fires once ``fill`` has elapsed (``step``:
        born subscribed)."""
        # hot-path
        return self.take(step) or Hold(self, step)


def _giver(sim: "Simulator",
           resources: tuple[Resource, ...]) -> t.Callable[[Event], None]:
    """Release-timer callback returning one unit to each of
    ``resources``, in order (prebuilt: a release allocates nothing)."""
    at = sim._at

    def give_all(_event: Event) -> None:
        # hot-path: Resource.give inline — the oldest waiter's grant is
        # the same zero-delay NORMAL push, at the same place in the queue
        for resource in resources:
            waiting = resource._waiting
            if waiting:
                grant = waiting.popleft()
                grant._value = None
                now = sim._now
                if now in at:
                    at[now].append(grant)
                else:
                    sim._push(grant, 0)
            else:
                resource._free += 1
    return give_all


class Hold(Event):
    """A :meth:`HoldPlan.hold` that must wait: a record that walks the
    plan's resources in order from plain callbacks — a free one is
    claimed by count, a busy one queued for with the hold's one grant
    :class:`Request`, armed again for each busy link, whose dispatch
    resumes the walk — and then starts the release timers.  Never
    queued itself: :meth:`_held` runs from the last timer's event and
    fires the subscribers.  A subclass that is an event of its own (a
    posted write, :mod:`repro.pcie.fabric`; :class:`Record`) sets
    ``plan``, ``_index`` and ``_grant`` and starts the walk — with
    :meth:`_claim` inline, or subscribed to a boot event — and overrides
    :meth:`_held`."""

    __slots__ = ("plan", "_index", "_grant")

    def __init__(self, plan: HoldPlan, step: Step | None = None) -> None:
        # hot-path: Event's fields inline (no Event.__init__ frame)
        self.sim = plan.sim
        self.callbacks = [step] if step else []
        self._value = _PENDING
        self._ok = True
        self._processed = False
        self._defused = False
        self.plan = plan
        self._index = 0     # resources[:_index] held or, the last, awaited
        self._grant = None
        self._claim(None)

    def _claim(self, _grant: Event | None) -> None:
        # hot-path
        plan = self.plan
        index = self._index
        for resource in plan.resources[index:]:
            index += 1
            if resource._free:
                resource._free -= 1
                continue
            grant = self._grant
            if grant is None:
                grant = self._grant = _new(Request)
                grant.sim = plan.sim
                grant._ok = True
                grant._defused = False
            # (re-)arm: a grant seen before was dispatched into this call
            grant.callbacks = [self._claim]
            grant._value = _PENDING
            grant._processed = False
            grant.resource = resource
            resource._waiting.append(grant)
            self._index = index
            return
        sim = plan.sim
        at = sim._at
        for hold, give, timer in plan.early:        # as HoldPlan.take
            if timer.callbacks is None:
                timer.callbacks = [give]
                timer._processed = False
                when = sim._now + hold
                if when in at:
                    at[when].append(timer)
                else:
                    at[when] = [timer]
                    heappush(sim._times, when)
            else:
                sim.timeout(hold).callbacks = [give]
        hold, give, timer = plan.last           # the fill: no test per timer
        if timer.callbacks is None:
            timer.callbacks = [give, self._held]
            timer._processed = False
            when = sim._now + hold
            if when in at:
                at[when].append(timer)
            else:
                at[when] = [timer]
                heappush(sim._times, when)
        else:
            sim.timeout(hold).callbacks = [give, self._held]

    def _held(self, _timer: Event) -> None:
        """Everything held and the pipe filled: fire the subscribers."""
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
        grant's last dispatch is behind it, and the release timers own
        the units by then — and when called again."""
        grant, self._grant = self._grant, None
        if grant is not None and not grant._processed:
            grant.callbacks = []    # a grant already queued wakes nobody
            *held, awaited = self.plan.resources[:self._index]
            awaited.release(grant)
            for resource in held:
                resource.give()


class Record(Hold):
    """A transaction or loop walked from plain callbacks, one step per
    event it waits for, that is itself the event its waiter yields.

    * Construction sets the event fields (pending; ``step``, its
      waiter's, born subscribed), ``_grant`` and an idle owned timer
      (``_timer``, events.py).  Given ``boot``, it also
      arms that timer on the URGENT lane with ``boot`` as the first
      step: it runs at this instant, after the rest of the constructing
      callback and ahead of every NORMAL event still due.
    * A delay, :meth:`_arm`, pushes the owned timer to the end of its
      instant's list, as ``sim.timeout`` does.
    * A hold of unknown length, :meth:`_take`, claims a unit with the
      owned timer as its grant event, queued as ``request()`` queues one.
    * Links: :meth:`HoldPlan.take` with the step, born on the fill
      timer; else the record walks the plan as its own :class:`Hold`
      (``plan``, ``_index``, ``_step`` set, then :meth:`_claim`) and
      :meth:`_held` runs ``_step`` from the last release timer.
      ``_step`` is the step's function, not a bound method, which would
      make the record a reference cycle.
    * It ends with :meth:`_end` (queued for its subscribers, processed
      on the spot with none), :meth:`_deliver` or :meth:`_fail`
      (subscribers run inline) or,
      where a later waiter may still subscribe before the end is
      dispatched, ``succeed()``."""

    __slots__ = ("_timer", "_step")

    def __init__(self, sim: "Simulator", boot: Step | None = None,
                 step: Step | None = None) -> None:
        # hot-path: one per command, request, read and WQE
        self.sim = sim
        self.callbacks = [step] if step else []
        self._value = _PENDING
        self._ok = True
        self._processed = False
        self._defused = False
        self._grant = None
        self._timer = timer = _new(Event)
        timer.sim = sim
        timer._value = None
        timer._ok = True
        timer._defused = False
        if boot:
            timer.callbacks = [boot]
            timer._processed = False
            sim._urgent.append(timer)
        else:
            timer.callbacks = None

    def _end(self, value: t.Any = None) -> None:
        """End the walk with ``value``.  With subscribers the record is
        queued, as ``succeed()`` queues it; with none it is processed
        on the spot, as a detached process ends (docs/performance.md,
        "Order preservation", rule 1)."""
        # hot-path
        self._value = value
        if self.callbacks:
            sim = self.sim
            at = sim._at
            if sim._now in at:
                at[sim._now].append(self)
            else:
                sim._push(self, 0)
        else:
            self.callbacks = None
            self._processed = True

    def _kick(self, step: t.Callable[[Event], None]) -> None:
        """Run ``step`` at this instant from the URGENT lane, where
        :meth:`Process.interrupt` delivers, on an event of its own: the
        owned timer may be armed."""
        kick = Event(self.sim)
        kick.callbacks = [step]
        self.sim._urgent.append(kick)

    def _arm(self, delay: int, step: t.Callable[[Event], None]) -> None:
        """Run ``step`` once ``delay`` has elapsed: the owned timer,
        armed and pushed to the end of its instant's list."""
        # hot-path: Timeout's push, inline
        timer = self._timer
        timer.callbacks = [step]
        timer._processed = False
        sim = self.sim
        when = sim._now + delay
        at = sim._at
        if when in at:
            at[when].append(timer)
        else:
            at[when] = [timer]
            heappush(sim._times, when)

    def _take(self, resource: Resource, step: Step) -> None:
        """Run ``step`` holding one unit of ``resource``, a hold of
        unknown length (a block-device tag): a free unit is claimed with
        the grant event :meth:`Resource.request` pushes — the owned
        timer, at the end of this instant's list — else the owned timer
        queues FIFO as that grant, pushed by :meth:`Resource.give`.  The
        unit goes back with ``resource.give()``."""
        # hot-path
        timer = self._timer
        timer.callbacks = [step]
        timer._processed = False
        if resource._free:
            resource._free -= 1
            sim = self.sim
            at = sim._at
            if sim._now in at:
                at[sim._now].append(timer)
            else:
                sim._push(timer, 0)
        else:
            resource._waiting.append(timer)

    def _held(self, fill: Event) -> None:
        """A queued leg holds its links and its pipe has filled."""
        self._step(self, fill)

    def _deliver(self, value: t.Any) -> None:
        """End the walk with ``value``, its subscribers run now, inline:
        the end of a record whose last step is an event of its own, so
        that queueing the record too would add one."""
        callbacks, self.callbacks = self.callbacks, None
        self._value = value
        self._processed = True
        for callback in callbacks:
            callback(self)

    def _fail(self, exc: BaseException) -> None:
        """End the walk with ``exc``: the subscribers run now, inline,
        and a waiting process sees it raised at its ``yield``.  The
        record is never queued, so nothing raises out of the run loop."""
        self._ok = False
        self._deliver(exc)

    def cancel(self) -> None:
        """The waiter left (:meth:`Process.interrupt`): stop.  A leg
        still queueing leaves the FIFO and gives back what it took
        (:meth:`Hold.cancel`); a running delay is disarmed — its timer
        still fires, into nothing — and ``callbacks`` becomes None,
        which a link step that fires later reads as "stop".
        Idempotent: an interrupt detaches twice."""
        Hold.cancel(self)
        timer = self._timer
        if timer.callbacks:
            timer.callbacks = []
        self.callbacks = None


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
        # ordering — a zero-delay NORMAL push).
        if self._getters:
            ev = self._getters.popleft()
            if ev._value is not _PENDING:
                raise RuntimeError(f"{ev!r} already triggered")
            ev._value = item
            sim = self.sim
            at = sim._at
            if sim._now in at:
                at[sim._now].append(ev)
            else:
                sim._push(ev, 0)
        else:
            self._items.append(item)

    def get(self, step: Step | None = None) -> Event:
        """Event that triggers with the next available item, and runs
        ``step`` when given."""
        # hot-path
        sim = self.sim
        ev = _new(Event)
        ev.sim = sim
        ev.callbacks = [step] if step else []
        ev._ok = True
        ev._processed = False
        ev._defused = False
        if self._items:
            ev._value = self._items.popleft()
            at = sim._at
            if sim._now in at:
                at[sim._now].append(ev)
            else:
                sim._push(ev, 0)
        else:
            ev._value = _PENDING
            self._getters.append(ev)
        return ev

    def try_get(self) -> t.Any | None:
        """Non-blocking pop; None when empty."""
        return self._items.popleft() if self._items else None


class _GatedWait(Event):
    """A :meth:`Signal.wait` with a guard, parked in a :class:`_Run`."""

    __slots__ = ("run",)

    def cancel(self) -> None:
        """Leave the run, parked or in a sweep's batch (what
        :meth:`Process.interrupt` does for the wait its target is on)."""
        run, self.run = self.run, None
        if run is not None:
            run.remove(self)


class _Run(deque):
    """Consecutive gated waits whose guards compare equal to ``guard``,
    oldest first; an interrupted member has left."""

    __slots__ = ("guard",)


class _Sweep(Event):
    """One queue entry standing for a stretch of consecutive runs.

    Unlike every other event it may be dispatched more than once: each
    dispatch wakes at most one waiter and re-queues the rest of the
    batch on the queue's front lane — behind URGENT events, ahead of
    every NORMAL event still due at this instant.
    """

    __slots__ = ("batch", "index")


class Signal:
    """Broadcast wakeup edge.

    ``wait()`` hands back an event (``wait(blocked, step)``: born
    subscribed); the next ``fire(value)`` triggers all outstanding waits.  Each wait observes at most one fire — callers that
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

    Gated waits park in *runs*: a wait joins the run of the wait parked
    just before it when their guards compare equal, and a fire costs one
    guard call and one list operation per run, however long.  A run
    whose guard holds re-parks whole, behind whoever parked since the
    fire; else its oldest wait wins and the rest is looked at again.

    Pass ``blocked`` only for a wait the process yields directly: an
    interrupted process takes its wait out of its run at the interrupt
    (``waiting`` drops there and then); a wait nobody subscribed to is
    dropped when its turn to win comes.
    """

    def __init__(self, sim: "Simulator") -> None:
        self.sim = sim
        #: ungated waits and runs of gated ones, in park order
        self._waiters: list[Event | _Run] = []
        #: some entry of ``_waiters`` is a :class:`_Run`
        self._gated = False
        self.fires = 0

    @property
    def waiting(self) -> int:
        """Number of waits the next ``fire()`` will look at: ungated
        waits plus the members of every parked run."""
        return sum(len(entry) if type(entry) is _Run else 1
                   for entry in self._waiters)

    def wait(self, blocked: t.Callable[[], bool] | None = None,
             step: Step | None = None) -> Event:
        ev = Event(self.sim) if blocked is None else _GatedWait(self.sim)
        if step:
            ev.callbacks = [step]
        if blocked is not None:
            run = self._waiters[-1] if self._gated else None
            if type(run) is not _Run or run.guard != blocked:
                run = _Run()
                run.guard = blocked
                self._gated = True
                self._waiters.append(run)
            ev.run = run
            run.append(ev)
            return ev
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

    def _fire_gated(self, waiters: list[Event | _Run], value: t.Any) -> None:
        """Wake a batch that holds runs: one wake event per ungated
        waiter, as in :meth:`fire`, and one :class:`_Sweep` per stretch
        of consecutive runs, in park order."""
        sim = self.sim
        batch: list[_Run] | None = None
        for entry in waiters:
            if type(entry) is not _Run:
                batch = None
                entry.succeed(value)
            elif batch is None:
                batch = [entry]
                sweep = _Sweep(sim)
                sweep.callbacks = [self._sweep]
                sweep._value = value
                sweep.batch = batch
                sweep.index = 0
                at = sim._at
                if sim._now in at:
                    at[sim._now].append(sweep)
                else:
                    sim._push(sweep, 0)
            else:
                batch.append(entry)

    def _sweep(self, sweep: _Sweep) -> None:
        """Dispatch of a sweep: stand in for the batch's wake events.

        Runs are taken oldest first, one guard call each.  One whose
        guard holds goes to the end of ``_waiters`` as it is — where its
        members' processes would have parked fresh waits, in this order,
        had they been resumed.  The oldest wait of the first run whose
        guard fails is processed the way the run loop processes a wake
        event, and the rest of the batch goes back on the queue's front
        lane: nothing NORMAL at this instant can sort between two wake
        events of one fire (they were pushed back to back), but the
        URGENT boot of a process the winner spawned does run before the
        next waiter is looked at, as it always did — so the next
        dispatch asks the run's guard afresh.
        """
        # hot-path: one pass per completion, over runs and not waiters
        batch = sweep.batch
        index = sweep.index
        end = len(batch)
        while index < end:
            run = batch[index]
            if not run:
                index += 1      # everyone in it was interrupted
                continue
            if run.guard():
                self._waiters.append(run)
                self._gated = True
                index += 1
                continue
            ev = run.popleft()
            callbacks = ev.callbacks
            if not callbacks:
                continue        # never subscribed to: drop, ask again
            if not run:
                index += 1
            if index < end:
                sweep.index = index
                sweep.callbacks = [self._sweep]
                sweep._processed = False
                self.sim._front.append(sweep)
            ev._value = sweep._value
            ev.callbacks = None
            ev._processed = True
            for callback in callbacks:
                callback(ev)
            return
