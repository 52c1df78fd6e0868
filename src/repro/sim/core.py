"""The discrete-event simulator core.

A binary-heap event queue keyed on ``(time, priority, sequence)``.  Time is
integer nanoseconds (see :mod:`repro.units`); the monotonically increasing
sequence number makes the ordering total and deterministic, which keeps
whole-cluster simulations bit-reproducible for a given seed.

The ``run`` loops inline the per-event dispatch (rather than calling
:meth:`Simulator.step`) and hoist the queue and ``heappop`` into locals:
a 4 KiB read is ~45 events, a 64 KiB one ~150 (docs/performance.md), so
attribute lookups in this loop are a measurable fraction of wall-clock.
None of the fast paths change *which* events run or in what order —
every entry still receives a fresh sequence number from the same
counter, so traces and telemetry exports stay bit-identical.
"""

from __future__ import annotations

import typing as t
from heapq import heappop, heappush
from itertools import count

from .events import (NORMAL, URGENT, AllOf, AnyOf, Event, Timeout,
                     _as_int_delay)
from .probe import Probe
from .process import Process
from .rng import RngRegistry

__all__ = ["Simulator", "NORMAL", "URGENT"]


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
        self._queue: list[tuple[int, int, int, Event]] = []
        self._sequence = count()
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

    def sleep(self, delay: int) -> Event:
        """:meth:`timeout` for ``yield sim.sleep(ns)``, minus the
        allocation: a running process gets its own timer armed again —
        the same queue entry (instant, priority, a fresh sequence
        number) — so it yields the result at once and neither keeps it
        nor hands it to ``any_of``/``all_of`` (staticcheck rule
        ``sleep-discipline``; :meth:`timeout` is the event for those).
        Outside a process, or while that timer is still armed (a sleep
        never yielded, or interrupted and not yet off the queue), the
        result is a plain :class:`Timeout`."""
        # hot-path
        process = self._active_process
        if process is not None and type(delay) is int and delay >= 0:
            timer = process._timer
            if timer.callbacks is None:
                timer.callbacks = []
                timer._processed = False
                heappush(self._queue, (self._now + delay, NORMAL,
                                       next(self._sequence), timer))
                return timer
        return Timeout(self, delay)

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

    def _schedule(self, event: Event, delay: int = 0, priority: int = NORMAL) -> None:
        if delay:
            if type(delay) is not int:
                delay = _as_int_delay(delay)
            if delay < 0:
                raise ValueError(f"cannot schedule into the past (delay={delay})")
            heappush(self._queue, (self._now + delay, priority,
                                   next(self._sequence), event))
        else:
            heappush(self._queue, (self._now, priority,
                                   next(self._sequence), event))

    def _push(self, event: Event, delay: int, priority: int = NORMAL) -> None:
        """Raw enqueue for callers that have already validated ``delay``."""
        heappush(self._queue, (self._now + delay, priority,
                               next(self._sequence), event))

    # -- execution ----------------------------------------------------------------

    def peek(self) -> int | None:
        """Time of the next scheduled event, or None if the queue is empty."""
        return self._queue[0][0] if self._queue else None

    def step(self) -> None:
        """Process exactly one event."""
        when, _prio, _seq, event = heappop(self._queue)
        assert when >= self._now, "event queue ordering violated"
        self._now = when
        self.events_processed += 1
        event._process()

    def run(self, until: int | Event | None = None) -> t.Any:
        """Run until the queue drains, a deadline passes, or an event fires.

        ``until`` may be an absolute time (int) or an :class:`Event`; when
        it is an event, its value is returned (exceptions propagate).
        """
        # The dispatch below is Event._process inlined.  A callback may
        # arm the event again (an owned timer, see events.py): after the
        # callback loop only ``_ok``/``_defused`` are read.
        queue = self._queue
        pop = heappop
        dispatched = 0
        if until is None:
            try:
                while queue:
                    when, _prio, _seq, event = pop(queue)
                    self._now = when
                    dispatched += 1
                    callbacks = event.callbacks
                    event.callbacks = None
                    event._processed = True
                    for callback in callbacks:
                        callback(event)
                    if not event._ok and not event._defused:
                        raise t.cast(BaseException, event._value)
            finally:
                self.events_processed += dispatched
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
            try:
                while queue and not done:
                    when, _prio, _seq, event = pop(queue)
                    self._now = when
                    dispatched += 1
                    callbacks = event.callbacks
                    event.callbacks = None
                    event._processed = True
                    for callback in callbacks:
                        callback(event)
                    if not event._ok and not event._defused:
                        raise t.cast(BaseException, event._value)
            finally:
                self.events_processed += dispatched
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
        try:
            while queue and queue[0][0] <= deadline:
                when, _prio, _seq, event = pop(queue)
                self._now = when
                dispatched += 1
                callbacks = event.callbacks
                event.callbacks = None
                event._processed = True
                for callback in callbacks:
                    callback(event)
                if not event._ok and not event._defused:
                    raise t.cast(BaseException, event._value)
        finally:
            self.events_processed += dispatched
        self._now = deadline
        return None
