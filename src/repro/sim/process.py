"""Generator-coroutine processes.

A :class:`Process` drives a generator: each value the generator yields must
be an :class:`~repro.sim.events.Event`; the process suspends until that
event is processed, then resumes with the event's value (or the event's
exception thrown into the generator).  The process itself is an event that
triggers when the generator returns, carrying the generator's return value.
"""

from __future__ import annotations

import typing as t

from .events import Event, _PENDING
from .resources import Hold, _GatedWait

if t.TYPE_CHECKING:  # pragma: no cover
    from .core import Simulator


class Interrupt(Exception):
    """Raised inside a process when :meth:`Process.interrupt` is called."""

    @property
    def cause(self) -> t.Any:
        return self.args[0] if self.args else None


class Process(Event):
    """An event-yielding coroutine scheduled on the simulator.

    ``detached=True`` marks a fire-and-forget spawn: if the generator
    returns while nobody has subscribed, the process reads ``processed``
    at once and no completion event is queued (it would have run no
    callback).  A callback appended before the end, or a failure, goes
    through the queue like any other process.
    """

    __slots__ = ("_generator", "_target", "_timer", "name", "_detached")

    def __init__(self, sim: "Simulator", generator: t.Generator,
                 name: str | None = None, detached: bool = False) -> None:
        try:
            generator.send, generator.throw
        except AttributeError:
            raise TypeError(
                f"process requires a generator, got {generator!r}") from None
        # hot-path: inline Event field init (every command and block
        # request spawns a process, so construction is on the data path).
        self.sim = sim
        self.callbacks = []
        self._value = _PENDING
        self._ok = True
        self._processed = False
        self._defused = False
        self._generator = generator
        self._detached = detached
        self.name = name or getattr(generator, "__name__", "process")
        # Kick off at the current instant, ahead of normal events, so a
        # newly spawned process observes the state that existed when it
        # was spawned (the URGENT lane of the queue).  The boot event is
        # the first arming of the timer Simulator.sleep() arms for this
        # process from then on, subscribed with _resume (events.py).
        self._timer = self._target = boot = Event.__new__(Event)
        boot.sim = sim
        boot.callbacks = [self._resume]
        boot._value = None
        boot._ok = True
        boot._processed = False
        boot._defused = False
        sim._urgent.append(boot)

    @property
    def is_alive(self) -> bool:
        return not self.triggered

    def interrupt(self, cause: t.Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current instant.

        The interrupt is delivered asynchronously via an urgent event so
        interrupting from within another process is safe.
        """
        if self.triggered:
            raise RuntimeError(f"{self!r} has already terminated")
        if self.sim.active_process is self:
            raise RuntimeError("a process cannot interrupt itself")
        kick = Event(self.sim)
        kick._ok = False
        kick._value = Interrupt(cause)
        kick.defuse()
        self._detach()      # now: nothing due at this instant resumes it
        kick.callbacks.append(self._interrupted)
        self.sim._urgent.append(kick)

    def _detach(self) -> None:
        """Unsubscribe from the event the process is parked on.  A
        :class:`Hold` — a bare one, or a transaction record walking for
        this waiter — and a gated wait are cancelled: what they took
        never comes back otherwise, and the transaction stops where a
        coroutine would have.  Every ``cancel`` is idempotent, since an
        interrupt detaches twice; a posted write's does nothing."""
        target = self._target
        if target.callbacks is not None:
            try:
                target.callbacks.remove(self._resume)
            except ValueError:
                pass
            if isinstance(target, Hold) or type(target) is _GatedWait:
                target.cancel()

    def _interrupted(self, kick: Event) -> None:
        """Deliver an :class:`Interrupt`, unless one delivered earlier
        at this instant ended the process; if that one left it parked on
        another event, that event must not resume it a second time."""
        if self._value is _PENDING:
            self._detach()
            self._resume(kick)

    def _unsubscribe_timer(self) -> None:
        """The process parks on something other than its armed sleep
        timer, or ends: a ``sleep()`` it did not yield (staticcheck rule
        ``sleep-discipline``) must not resume it when the timer fires."""
        try:
            self._timer.callbacks.remove(self._resume)
        except ValueError:
            pass

    # -- driving the generator ------------------------------------------------

    def _resume(self, event: Event) -> None:
        # hot-path: every yield in every process funnels through here,
        # so the generator is hoisted and the yielded target is probed
        # with attribute access instead of isinstance (non-events
        # surface as AttributeError on the error path).  No bound
        # method is built per call: ``send`` is called as a method, and
        # ``self._resume`` only to subscribe to an event other than the
        # process's own timer.
        sim = self.sim
        generator = self._generator
        sim._active_process = self
        while True:
            try:
                if event._ok:
                    target = generator.send(event._value)
                else:
                    event._defused = True
                    target = generator.throw(
                        t.cast(BaseException, event._value))
            except StopIteration as stop:
                if self._timer.callbacks:
                    self._unsubscribe_timer()
                if self._detached and not self.callbacks:
                    self._value = stop.value
                    self._processed = True
                    self.callbacks = None
                else:
                    self.succeed(stop.value)
                break
            except BaseException as exc:
                if self._timer.callbacks:
                    self._unsubscribe_timer()
                self.fail(exc)
                break

            try:
                if target._processed:
                    # Already done: loop immediately with its outcome.
                    event = target
                    continue
                callbacks = target.callbacks
            except AttributeError:
                exc = RuntimeError(
                    f"process {self.name!r} yielded a non-event: {target!r}")
                try:
                    generator.throw(exc)
                except StopIteration as stop:
                    self.succeed(stop.value)
                except BaseException as err:
                    self.fail(err)
                break

            if callbacks is None:  # pragma: no cover - defensive
                raise RuntimeError("target event is being processed")
            if target is not self._timer:   # else sleep() subscribed us
                callbacks.append(self._resume)
                if self._timer.callbacks:
                    self._unsubscribe_timer()
            self._target = target
            break
        sim._active_process = None
