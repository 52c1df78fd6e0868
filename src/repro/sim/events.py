"""Event primitives for the discrete-event kernel.

The design follows the classic SimPy shape: an :class:`Event` is a
one-shot occurrence with a value (or an exception), and a list of
callbacks invoked when the simulator processes it.  Processes
(:mod:`repro.sim.process`) suspend by yielding events.

Events deliberately carry *no* timing information themselves — scheduling
is owned by :class:`repro.sim.core.Simulator`, whose queue orders events
by ``(instant, priority, FIFO position)``: a push lands behind every
event already due at the same instant and priority.

One-shot for everyone but an owner: a *timer* — the sleep timer of a
:class:`~repro.sim.process.Process`, a release timer of a
:class:`~repro.sim.resources.HoldPlan`, the timer of a transaction
:class:`~repro.sim.resources.Record` — is a plain event whose outcome
never changes (``None``, ok) and which its one owner arms again whenever
it is idle.  Idle is ``callbacks is None`` (never armed, or dispatched);
arming is ``callbacks = [...]``, ``_processed = False`` and one push to
the end of its instant's list — legal inside the timer's own dispatch,
where the run loop has already detached the callback list and goes on to
read only ``_ok``/``_defused``.  An owner that finds its timer armed
uses a fresh event instead; whoever is handed a timer waits on it at
once and keeps no reference (staticcheck rule ``sleep-discipline``).  A
process's sleep timer is armed already subscribed with the process's
resume, so the yield that follows appends nothing.

The constructors and :meth:`Event._process` are the innermost loops of
the whole simulator (every timeout, resource grant and process switch
passes through them), so they trade a little repetition for speed:
``Timeout.__init__`` initialises fields inline instead of chaining to
``Event.__init__``, and the hot methods test ``_value is _PENDING``
directly instead of going through the ``triggered`` property.
"""

from __future__ import annotations

import typing as t
from heapq import heappush

if t.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .core import Simulator

_PENDING = object()

#: Priority for ordinary events.  (Lives here rather than in ``core`` so
#: the process machinery can import it without a circular import.)
NORMAL = 1
#: Priority for "urgent" bookkeeping events processed before normal ones
#: scheduled at the same instant (used by the process machinery).
URGENT = 0


def _as_int_delay(delay: t.Any) -> int:
    """Validate a delay: integer nanoseconds only (units discipline).

    Fractional delays used to be truncated silently via ``int(delay)``,
    which hid unit bugs (a ``1.5`` meant as microseconds became 1 ns);
    now they are rejected outright.  Integral floats and numpy integers
    are converted losslessly.
    """
    d = int(delay)
    if d != delay:
        raise ValueError(
            f"non-integral delay {delay!r}: simulated time is integer "
            f"nanoseconds (see repro.units)")
    return d


class Event:
    """A one-shot occurrence that processes can wait on.

    Lifecycle: *pending* -> *triggered* (value set, scheduled on the event
    queue) -> *processed* (callbacks ran).  Triggering twice is an error;
    this catches double-completion bugs in device models early.
    """

    __slots__ = ("sim", "callbacks", "_value", "_ok", "_processed", "_defused")

    def __init__(self, sim: "Simulator") -> None:
        self.sim = sim
        self.callbacks: list[t.Callable[["Event"], None]] | None = []
        self._value: t.Any = _PENDING
        self._ok: bool = True
        self._processed = False
        self._defused = False

    # -- state ------------------------------------------------------------

    @property
    def triggered(self) -> bool:
        """True once the event has a value and is scheduled."""
        return self._value is not _PENDING

    @property
    def processed(self) -> bool:
        """True once callbacks have run."""
        return self._processed

    @property
    def ok(self) -> bool:
        """True when the event succeeded (valid only once triggered)."""
        return self._ok

    @property
    def value(self) -> t.Any:
        if self._value is _PENDING:
            raise RuntimeError("event value is not yet available")
        return self._value

    # -- triggering ---------------------------------------------------------

    def succeed(self, value: t.Any = None, delay: int = 0) -> "Event":
        """Trigger the event successfully, scheduling callbacks after
        ``delay`` nanoseconds."""
        if self._value is not _PENDING:
            raise RuntimeError(f"{self!r} already triggered")
        if delay:
            if type(delay) is not int:
                delay = _as_int_delay(delay)
            if delay < 0:
                raise ValueError(
                    f"cannot schedule into the past (delay={delay})")
        self._ok = True
        self._value = value
        sim = self.sim
        at = sim._at
        # at the end of the instant's NORMAL list; zero-delay (grants,
        # hand-offs, fires) finds the current instant's list during a run
        when = sim._now + delay
        if when in at:
            at[when].append(self)
        else:
            at[when] = [self]
            heappush(sim._times, when)
        return self

    def fail(self, exception: BaseException, delay: int = 0) -> "Event":
        """Trigger the event with an exception.

        A failed event that nobody waits on re-raises at the end of the
        simulation run unless :meth:`defuse` was called — silent failure
        of device model processes would otherwise corrupt measurements.
        """
        if not isinstance(exception, BaseException):
            raise TypeError("fail() requires an exception instance")
        if self._value is not _PENDING:
            raise RuntimeError(f"{self!r} already triggered")
        self._ok = False
        self._value = exception
        self.sim._schedule(self, delay)
        return self

    def trigger(self, event: "Event") -> None:
        """Mirror another (triggered) event's outcome onto this one."""
        if event._ok:
            self.succeed(event._value)
        else:
            event.defuse()
            self.fail(t.cast(BaseException, event._value))

    def defuse(self) -> None:
        """Mark a failed event as handled so it will not re-raise."""
        self._defused = True

    # -- internal ----------------------------------------------------------

    def _process(self) -> None:
        """Run callbacks (invoked by the simulator core)."""
        callbacks, self.callbacks = self.callbacks, None
        self._processed = True
        assert callbacks is not None
        for callback in callbacks:
            callback(self)
        if not self._ok and not self._defused:
            raise t.cast(BaseException, self._value)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "processed" if self._processed else (
            "triggered" if self._value is not _PENDING else "pending")
        return f"<{type(self).__name__} {state} at {id(self):#x}>"

    # -- composition --------------------------------------------------------

    def __or__(self, other: "Event") -> "AnyOf":
        return AnyOf(self.sim, [self, other])

    def __and__(self, other: "Event") -> "AllOf":
        return AllOf(self.sim, [self, other])


class Timeout(Event):
    """An event that fires ``delay`` nanoseconds after creation.

    ``delay`` must be integral (integer nanoseconds); fractional delays
    raise :class:`ValueError` instead of being truncated.
    """

    __slots__ = ("delay",)

    def __init__(self, sim: "Simulator", delay: int, value: t.Any = None) -> None:
        # hot-path: inline field init; Event.__init__ is deliberately
        # not chained (one call frame per CQ poll tick adds up).
        if type(delay) is not int:
            delay = _as_int_delay(delay)
        if delay < 0:
            raise ValueError(f"negative timeout delay: {delay}")
        self.sim = sim
        self.callbacks = []
        self._value = value
        self._ok = True
        self._processed = False
        self._defused = False
        self.delay = delay
        sim._push(self, delay)


class Condition(Event):
    """Base for :class:`AnyOf` / :class:`AllOf` composite waits."""

    __slots__ = ("events", "_remaining")

    def __init__(self, sim: "Simulator", events: t.Iterable[Event]) -> None:
        super().__init__(sim)
        self.events = tuple(events)
        for ev in self.events:
            if ev.sim is not sim:
                raise ValueError("cannot mix events from different simulators")
        self._remaining = len(self.events)
        if not self.events:
            self.succeed(self._collect())
            return
        for ev in self.events:
            if ev.processed:
                self._check(ev)
            elif ev.callbacks is not None:
                ev.callbacks.append(self._check)
        # If still pending after scanning, we wait for callbacks.

    def _collect(self) -> dict[Event, t.Any]:
        return {ev: ev._value for ev in self.events if ev.processed and ev.ok}

    def _check(self, event: Event) -> None:  # pragma: no cover - abstract
        raise NotImplementedError

    def _on_failure(self, event: Event) -> None:
        if not self.triggered:
            event.defuse()
            self.fail(t.cast(BaseException, event._value))


class AnyOf(Condition):
    """Triggers when the first constituent event does."""

    __slots__ = ()

    def _check(self, event: Event) -> None:
        if self.triggered:
            return
        if not event.ok:
            self._on_failure(event)
            return
        self.succeed(self._collect())


class AllOf(Condition):
    """Triggers when every constituent event has been processed."""

    __slots__ = ()

    def _check(self, event: Event) -> None:
        if self.triggered:
            return
        if not event.ok:
            self._on_failure(event)
            return
        self._remaining -= 1
        if self._remaining == 0:
            self.succeed(self._collect())
