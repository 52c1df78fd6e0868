"""The discrete-event simulator core.

A calendar event queue (after Brown, "Calendar queues", CACM 1988),
keyed on ``(time, priority, FIFO position)``.  Time is integer
nanoseconds (see :mod:`repro.units`); ties are broken by push order,
which makes the ordering total and deterministic and keeps whole-cluster
simulations bit-reproducible for a given seed.  Three structures hold
it:

* ``_times`` — a heap of the *distinct* instants that have NORMAL
  events, one entry per instant however many events it holds;
* ``_at`` — instant -> FIFO list of its NORMAL events;
* ``_urgent`` — the URGENT events of the current instant, FIFO.  Every
  URGENT event is pushed for the current instant (process boots,
  interrupts, the fabric's queueing boots).

plus ``_front``, the *front lane*: one :class:`~repro.sim.resources.
_Sweep` continuation at a time, which sorts behind every URGENT event
and ahead of every NORMAL event still due at this instant (it stands in
for a wake event pushed before all of them).

A NORMAL push is one ``list.append`` when its instant already has events,
one ``heappush`` when it opens one.  The run loop walks an instant's
list with ``for``, so NORMAL events pushed for the current instant while
it runs are appended to the list being walked and dispatched in push
order; after each event it drains the URGENT lane, then the front lane.
That is exactly the order of the binary heap of ``(time, priority,
sequence number)`` tuples this replaced — sequence numbers were handed
out at push time and only ever grew, so within one ``(instant,
priority)`` they *were* push order (docs/performance.md, "One heap entry
per instant").

The ``run`` loops inline the per-event dispatch (rather than calling
:meth:`Simulator.step`) and hoist the queue into locals: a 4 KiB read is
~45 events, a 64 KiB one ~150 (docs/performance.md), so attribute
lookups in this loop are a measurable fraction of wall-clock.  Each
``run`` mode has its own copy, so that only ``run(until=event)`` pays
for its stop check and its count of the instant's events taken.
"""

from __future__ import annotations

import typing as t
from collections import deque
from heapq import heappop, heappush
from itertools import count

from .events import AllOf, AnyOf, Event, Timeout, _as_int_delay
from .probe import Probe
from .process import Process
from .rng import RngRegistry

__all__ = ["Simulator"]


class Simulator:
    """Owns the clock, the event queue and per-component RNG streams.

    Typical use::

        sim = Simulator(seed=7)

        def worker(sim):
            yield sim.timeout(100)
            return "done"

        proc = sim.process(worker(sim))
        sim.run()
        assert proc.value == "done"
    """

    def __init__(self, seed: int = 0) -> None:
        self._now: int = 0
        #: the event queue (module docstring)
        self._times: list[int] = []
        self._at: dict[int, list[Event]] = {}
        self._urgent: deque[Event] = deque()
        self._front: deque[Event] = deque()
        self._resource_sequence = count()
        self._active_process: Process | None = None
        self.rng = RngRegistry(seed)
        #: where observers attach (:mod:`repro.sim.probe`)
        self.probe = Probe()
        #: total events dispatched (perf telemetry; deterministic per run)
        self.events_processed: int = 0

    def _next_resource_order(self) -> int:
        """Deterministic creation index for Resources (lock ordering)."""
        return next(self._resource_sequence)

    # -- clock ---------------------------------------------------------------

    @property
    def now(self) -> int:
        """Current simulation time in nanoseconds."""
        return self._now

    @property
    def active_process(self) -> Process | None:
        return self._active_process

    # -- event factories -------------------------------------------------------

    def event(self) -> Event:
        return Event(self)

    def timeout(self, delay: int, value: t.Any = None) -> Timeout:
        return Timeout(self, delay, value)

    def process(self, generator: t.Generator,
                detached: bool = False) -> Process:
        """Start a new process from a generator (``detached``: see
        :class:`~repro.sim.process.Process`)."""
        return Process(self, generator, detached=detached)

    def any_of(self, events: t.Iterable[Event]) -> AnyOf:
        return AnyOf(self, events)

    def all_of(self, events: t.Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    # -- scheduling -------------------------------------------------------------

    def _schedule(self, event: Event, delay: int = 0) -> None:
        if delay:
            if type(delay) is not int:
                delay = _as_int_delay(delay)
            if delay < 0:
                raise ValueError(f"cannot schedule into the past (delay={delay})")
        self._push(event, delay)

    def _push(self, event: Event, delay: int) -> None:
        """Raw NORMAL enqueue for callers that have already validated
        ``delay``: at the end of its instant's list.  (The hot paths
        inline it, ``at[when].append(event)`` when the instant has a
        list; an URGENT event is appended to ``_urgent``.)"""
        when = self._now + delay
        at = self._at
        if when in at:
            at[when].append(event)
        else:
            at[when] = [event]
            heappush(self._times, when)

    # -- execution ----------------------------------------------------------------

    def peek(self) -> int | None:
        """Time of the next scheduled event, or None if the queue is empty."""
        if self._urgent or self._front:
            return self._now
        return self._times[0] if self._times else None

    def step(self) -> None:
        """Process exactly one event."""
        if self._urgent:
            event = self._urgent.popleft()
        elif self._front:
            event = self._front.popleft()
        else:
            when = self._times[0]
            events = self._at[when]
            event = events.pop(0)
            if not events:
                del self._at[when]
                heappop(self._times)
            self._now = when
        self.events_processed += 1
        event._process()

    def _consumed(self, when: int, taken: int) -> None:
        """A run left instant ``when`` — already popped off ``_times`` —
        after the first ``taken`` events of its list (a callback raised;
        ``run(until=event)`` stopping does the same inline): drop those
        and put the instant back if any are left, so that the next run
        starts where this one ended."""
        events = self._at[when]
        del events[:taken]
        if events:
            heappush(self._times, when)
        else:
            del self._at[when]

    def run(self, until: int | Event | None = None) -> t.Any:
        """Run until the queue drains, a deadline passes, or an event fires.

        ``until`` may be an absolute time (int) or an :class:`Event`; when
        it is an event, its value is returned (exceptions propagate).
        """
        # The dispatch below is Event._process inlined, once for an
        # instant's list and once for the lanes drained after each of its
        # events.  A callback may arm the event again (an owned timer, see
        # events.py): after the callback loop only ``_ok``/``_defused``
        # are read.  An instant leaves ``_times`` as its walk starts and
        # ``_at`` once walked; a run that leaves it part-way hands what it
        # took to _consumed.  Lanes left over from before the run are
        # stepped through first.
        times = self._times
        at = self._at
        urgent = self._urgent
        front = self._front
        pop = heappop
        if until is None:
            dispatched = lanes = start = when = 0
            try:
                while urgent or front:
                    self.step()
                while times:
                    when = pop(times)
                    self._now = when
                    start = dispatched
                    for event in at[when]:
                        dispatched += 1
                        callbacks = event.callbacks
                        event.callbacks = None
                        event._processed = True
                        for callback in callbacks:
                            callback(event)
                        if not event._ok and not event._defused:
                            raise t.cast(BaseException, event._value)
                        while urgent or front:
                            event = urgent.popleft() if urgent else front.popleft()
                            lanes += 1
                            callbacks = event.callbacks
                            event.callbacks = None
                            event._processed = True
                            for callback in callbacks:
                                callback(event)
                            if not event._ok and not event._defused:
                                raise t.cast(BaseException, event._value)
                    del at[when]
            except BaseException:
                if dispatched - start:
                    self._consumed(when, dispatched - start)
                raise
            finally:
                self.events_processed += dispatched + lanes
            return None

        if isinstance(until, Event):
            stop = until
            if stop.processed:
                if not stop.ok:
                    stop.defuse()
                    raise t.cast(BaseException, stop._value)
                return stop._value
            done: list[Event] = []
            if stop.callbacks is None:
                raise RuntimeError("cannot run until an event without callbacks")
            stop.callbacks.append(done.append)
            dispatched = taken = when = 0
            try:
                while (urgent or front) and not done:
                    self.step()
                while times and not done:
                    when = pop(times)
                    self._now = when
                    for event in at[when]:
                        taken += 1
                        callbacks = event.callbacks
                        event.callbacks = None
                        event._processed = True
                        for callback in callbacks:
                            callback(event)
                        if not event._ok and not event._defused:
                            raise t.cast(BaseException, event._value)
                        if done:
                            break
                        while urgent or front:
                            event = urgent.popleft() if urgent else front.popleft()
                            dispatched += 1
                            callbacks = event.callbacks
                            event.callbacks = None
                            event._processed = True
                            for callback in callbacks:
                                callback(event)
                            if not event._ok and not event._defused:
                                raise t.cast(BaseException, event._value)
                            if done:
                                break
                        else:
                            continue
                        break       # done, in the lanes
                    else:           # the instant's list is walked
                        del at[when]
                        dispatched += taken
                        taken = 0
            finally:
                self.events_processed += dispatched + taken
                if taken:               # _consumed, minus the call
                    events = at[when]
                    del events[:taken]
                    if events:
                        heappush(times, when)
                    else:
                        del at[when]
            if not done:
                raise RuntimeError(
                    "simulation ran out of events before the target event fired")
            if not stop.ok:
                stop.defuse()
                raise t.cast(BaseException, stop._value)
            return stop._value

        deadline = int(until)
        if deadline < self._now:
            raise ValueError(
                f"until={deadline} is in the past (now={self._now})")
        dispatched = lanes = start = when = 0
        try:
            while urgent or front:
                self.step()
            while times and times[0] <= deadline:
                when = pop(times)
                self._now = when
                start = dispatched
                for event in at[when]:
                    dispatched += 1
                    callbacks = event.callbacks
                    event.callbacks = None
                    event._processed = True
                    for callback in callbacks:
                        callback(event)
                    if not event._ok and not event._defused:
                        raise t.cast(BaseException, event._value)
                    while urgent or front:
                        event = urgent.popleft() if urgent else front.popleft()
                        lanes += 1
                        callbacks = event.callbacks
                        event.callbacks = None
                        event._processed = True
                        for callback in callbacks:
                            callback(event)
                        if not event._ok and not event._defused:
                            raise t.cast(BaseException, event._value)
                del at[when]
        except BaseException:
            if dispatched - start:
                self._consumed(when, dispatched - start)
            raise
        finally:
            self.events_processed += dispatched + lanes
        self._now = deadline
        return None
