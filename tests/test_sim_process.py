"""Unit tests for process semantics (spawning, returns, interrupts)."""

import heapq
import itertools
import os

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.sim import Event, Interrupt, Signal, Simulator
from repro.sim.events import NORMAL, URGENT


@pytest.fixture()
def sim():
    return Simulator(seed=3)


class TestProcessBasics:
    def test_return_value_is_event_value(self, sim):
        def proc(sim):
            yield sim.timeout(1)
            return {"answer": 42}

        p = sim.process(proc(sim))
        sim.run()
        assert p.value == {"answer": 42}

    def test_process_requires_generator(self, sim):
        with pytest.raises(TypeError):
            sim.process(lambda: None)  # type: ignore[arg-type]

    def test_yielding_non_event_raises_inside_process(self, sim):
        seen = []

        def proc(sim):
            try:
                yield "not an event"
            except RuntimeError as exc:
                seen.append("caught")
                raise

        p = sim.process(proc(sim))
        with pytest.raises(RuntimeError):
            sim.run()
        assert seen == ["caught"]

    def test_process_waits_on_other_process(self, sim):
        def child(sim):
            yield sim.timeout(30)
            return "child-done"

        def parent(sim):
            result = yield sim.process(child(sim))
            return ("parent-saw", result, sim.now)

        p = sim.process(parent(sim))
        sim.run()
        assert p.value == ("parent-saw", "child-done", 30)

    def test_exception_propagates_to_waiter(self, sim):
        def child(sim):
            yield sim.timeout(5)
            raise OSError("device gone")

        def parent(sim):
            try:
                yield sim.process(child(sim))
            except OSError as exc:
                return f"handled: {exc}"

        p = sim.process(parent(sim))
        sim.run()
        assert p.value == "handled: device gone"

    def test_spawn_order_preserved_at_same_instant(self, sim):
        order = []

        def proc(sim, tag):
            order.append(tag)
            yield sim.timeout(0)
            order.append(tag + 10)

        sim.process(proc(sim, 0))
        sim.process(proc(sim, 1))
        sim.run()
        assert order == [0, 1, 10, 11]

    def test_is_alive(self, sim):
        def proc(sim):
            yield sim.timeout(10)

        p = sim.process(proc(sim))
        assert p.is_alive
        sim.run()
        assert not p.is_alive

    def test_waiting_on_already_finished_process(self, sim):
        def quick(sim):
            yield sim.timeout(1)
            return "early"

        p = sim.process(quick(sim))
        sim.run()

        def late(sim):
            value = yield p
            return value

        q = sim.process(late(sim))
        sim.run()
        assert q.value == "early"


class TestInterrupt:
    def test_interrupt_delivers_cause(self, sim):
        log = []

        def sleeper(sim):
            try:
                yield sim.timeout(1_000_000)
            except Interrupt as intr:
                log.append((sim.now, intr.cause))

        def interrupter(sim, victim):
            yield sim.timeout(100)
            victim.interrupt("wake-up")

        victim = sim.process(sleeper(sim))
        sim.process(interrupter(sim, victim))
        sim.run()
        assert log == [(100, "wake-up")]

    def test_interrupting_finished_process_raises(self, sim):
        def quick(sim):
            yield sim.timeout(1)

        p = sim.process(quick(sim))
        sim.run()
        with pytest.raises(RuntimeError):
            p.interrupt()

    def test_interrupted_process_can_continue(self, sim):
        def sleeper(sim):
            try:
                yield sim.timeout(500)
            except Interrupt:
                pass
            yield sim.timeout(50)
            return sim.now

        def interrupter(sim, victim):
            yield sim.timeout(10)
            victim.interrupt()

        victim = sim.process(sleeper(sim))
        sim.process(interrupter(sim, victim))
        sim.run()
        assert victim.value == 60

    @pytest.mark.parametrize("at", [40, 100], ids=["mid-sleep", "due-instant"])
    def test_interrupted_sleeper_is_resumed_exactly_once(self, at):
        """``sleep()`` arms the process's timer already subscribed with its
        resume.  Interrupted out of it — earlier, or at the very instant
        it is due, ahead of it — the process wakes once for the interrupt
        and never for the stale timer, as with a plain timeout."""
        def run(factory_name):
            sim = Simulator(seed=1)
            wakes = []

            def interrupter(victim_box):
                yield sim.timeout(at)
                victim_box[0].interrupt()

            def sleeper():
                factory = getattr(sim, factory_name)
                try:
                    yield factory(100)
                    wakes.append((sim.now, "timer"))
                except Interrupt:
                    wakes.append((sim.now, "interrupt"))
                for delay in (7, 200):
                    yield factory(delay)
                    wakes.append((sim.now, "slept"))

            box = []
            sim.process(interrupter(box))       # its wake sorts first
            box.append(sim.process(sleeper()))
            sim.run()
            return wakes, sim.events_processed

        wakes, processed = run("sleep")
        assert wakes == [(at, "interrupt"), (at + 7, "slept"),
                         (at + 207, "slept")]
        assert run("timeout") == (wakes, processed)

    @pytest.mark.parametrize("ending", ["returns", "raises"])
    def test_a_sleep_never_yielded_does_not_wake_a_finished_process(
            self, ending):
        """A process that arms its timer with ``sleep()`` and ends without
        yielding it is not resumed when the timer fires."""
        sim = Simulator(seed=1)

        def body():
            yield sim.sleep(3)
            sim.sleep(5)
            if ending == "raises":
                raise ValueError("done")
            return "done"

        proc = sim.process(body())
        if ending == "raises":
            proc.defuse()
        sim.run()
        assert sim.now == 8
        assert proc.ok is (ending == "returns")


class TestDetached:
    """``detached=True``: a fire-and-forget process whose end nobody
    observes queues no completion event; anything observable is as for a
    normal process."""

    @staticmethod
    def _body(sim, log):
        yield sim.timeout(10)
        log.append("end")
        return "v"

    def test_unobserved_end_adds_no_queue_entry(self, sim):
        plain, detached = [], []
        sim.process(self._body(sim, plain))
        sim.run()
        assert sim.events_processed == 3    # boot, timeout, completion
        proc = sim.process(self._body(sim, detached), detached=True)
        sim.run()
        assert sim.events_processed == 5    # boot and timeout only
        assert sim.peek() is None
        assert proc.processed and not proc.is_alive
        assert proc.ok and proc.value == "v"

        def late(sim):
            return (yield proc)             # already processed: no wait

        assert sim.run(until=sim.process(late(sim))) == "v"

    @pytest.mark.parametrize("subscribe", ["callback", "waiter"])
    def test_subscriber_sees_same_time_and_position(self, subscribe):
        """A subscriber present when the body ends is served through
        the queue: same instant, same place among same-instant events,
        same event count as for a normal process."""
        def trace(detached):
            sim = Simulator(seed=3)
            log = []

            def neighbour(sim, tag):
                yield sim.timeout(10)
                log.append(tag)
                yield sim.timeout(0)
                log.append(tag + "-later")

            def waiter(sim, proc):
                log.append(("waited", (yield proc), sim.now))

            sim.process(neighbour(sim, "a"))
            proc = sim.process(self._body(sim, log), detached=detached)
            if subscribe == "callback":
                proc.callbacks.append(
                    lambda ev: log.append(("cb", ev.value, sim.now)))
            else:
                sim.process(waiter(sim, proc))
            sim.process(neighbour(sim, "b"))
            sim.run()
            return log, sim.events_processed

        assert trace(detached=True) == trace(detached=False)

    def test_failure_still_fails_the_run(self, sim):
        def doomed(sim):
            yield sim.timeout(5)
            raise ValueError("device model bug")

        sim.process(doomed(sim), detached=True)
        with pytest.raises(ValueError, match="device model bug"):
            sim.run()
        assert sim.now == 5


# --- kernel differential: the calendar queue against a tuple heap ----------

#: examples per run; CI's main job runs the marked test with more
KERNEL_EXAMPLES = int(os.environ.get("REPRO_KERNEL_EXAMPLES", "100"))


class TupleHeapSim(Simulator):
    """Reference kernel: the binary heap of ``(time, priority, sequence,
    event)`` tuples that the calendar queue replaced, dispatching through
    :meth:`step` — one event per pop.  The package's hot paths append to
    ``_at[when]``, ``_urgent`` and ``_front`` directly; here those are
    views that push onto the heap under the old key.  A sweep's
    continuation (``_front``) reuses the sequence number of its first
    push, as the old ``_Sweep.seq`` did."""

    def __init__(self, seed: int = 0) -> None:
        super().__init__(seed)
        self.heap: list = []
        self.sequence = itertools.count()
        self.first_seq: dict = {}
        sim = self

        class Instant:
            def __init__(self, when):
                self.when = when

            def append(self, event):
                sim._heap_push(self.when, NORMAL, event)

        class Instants:
            def __contains__(self, when):
                return True

            def __getitem__(self, when):
                return Instant(when)

        class Lane:
            def __init__(self, priority, reuse):
                self.priority, self.reuse = priority, reuse

            def append(self, event):
                sim._heap_push(sim._now, self.priority, event, self.reuse)

        self._at, self._times = Instants(), None
        self._urgent, self._front = Lane(URGENT, False), Lane(NORMAL, True)

    def _heap_push(self, when, priority, event, reuse=False):
        seq = self.first_seq[event] if reuse else next(self.sequence)
        self.first_seq.setdefault(event, seq)
        heapq.heappush(self.heap, (when, priority, seq, event))

    def _push(self, event, delay, priority=NORMAL):
        self._heap_push(self._now + delay, priority, event)

    def peek(self):
        return self.heap[0][0] if self.heap else None

    def step(self):
        when, _prio, _seq, event = heapq.heappop(self.heap)
        self._now = when
        self.events_processed += 1
        event._process()

    def run(self, until=None):
        if until is None:
            while self.heap:
                self.step()
        elif isinstance(until, Event):
            if until.processed:
                if not until.ok:
                    until.defuse()
                    raise until._value
                return until._value
            if until.callbacks is None:
                raise RuntimeError("cannot run until an event without callbacks")
            done: list = []
            until.callbacks.append(done.append)
            while self.heap and not done:
                self.step()
            if not done:
                raise RuntimeError("simulation ran out of events")
            if not until.ok:
                until.defuse()
                raise until._value
            return until._value
        else:
            if until < self._now:
                raise ValueError("until is in the past")
            while self.heap and self.heap[0][0] <= until:
                self.step()
            self._now = until


_delays = st.sampled_from([0, 0, 1, 2, 5])
_fire = st.tuples(st.just("fire"), st.integers(0, 1))
# signal, gated, program the winner spawns (-1: none)
_wait = st.tuples(st.just("wait"), st.integers(0, 1), st.booleans(),
                  st.integers(-1, 4))
_ops = st.one_of(
    st.tuples(st.just("sleep"), _delays),
    st.tuples(st.just("timeout"), _delays),
    st.tuples(st.just("spawn"), st.integers(0, 4)),
    _fire, _fire, _wait, _wait,
    # signal, waiters parked in one gated run, program each winner
    # runs, delay before a process spawned with them fires the signal
    st.tuples(st.just("crowd"), st.integers(0, 1), st.integers(2, 4),
              st.integers(-1, 4), _delays),
    st.tuples(st.just("interrupt"), st.integers(0, 9)),
    st.tuples(st.just("trigger"), st.integers(0, 2), _delays),
    st.tuples(st.just("await"), st.integers(0, 2)),
    st.tuples(st.just("join"), st.integers(0, 9)),
    st.tuples(st.just("boom"), _delays),
    st.tuples(st.just("raise")),
)
_driver = st.one_of(
    st.tuples(st.just("run")),
    st.tuples(st.just("until"), st.integers(0, 6)),
    st.tuples(st.just("until_proc"), st.integers(0, 9)),
    st.tuples(st.just("until_event"), st.integers(0, 2)),
    st.tuples(st.just("step"), st.integers(1, 6)),
)


def _play(sim_class, programs, roots, driver):
    """Run one random schedule; returns the ``(time, tag)`` dispatch
    trace, ``events_processed`` and the final clock."""
    sim = sim_class(seed=5)
    trace: list = []
    procs: list = []
    signals = [Signal(sim), Signal(sim)]
    events = [sim.event() for _ in range(3)]
    ticks = [0]
    # one guard object per signal, so gated waits park in runs; signal
    # 0's never holds, so a fire wakes its runs waiter by waiter through
    # the sweep's continuation (the front lane)
    guards = [lambda: False, lambda: ticks[0] % 3 != 0]
    spawns = [0]

    def spawn(index, first=()):
        if spawns[0] < 32:
            spawns[0] += 1
            pid = len(procs)
            ops = programs[index % len(programs)] if index >= 0 else []
            procs.append(sim.process(body(pid, list(first) + ops)))

    def boom(_ev):
        trace.append((sim.now, "boom"))
        raise KeyError("boom")

    def body(pid, ops):
        for k, op in enumerate(ops):
            ticks[0] += 1
            kind = op[0]
            trace.append((sim.now, (pid, k, kind)))
            try:
                if kind == "sleep":
                    yield sim.sleep(op[1])
                elif kind == "timeout":
                    yield sim.timeout(op[1])
                elif kind == "spawn":
                    spawn(op[1])
                elif kind == "fire":
                    signals[op[1]].fire((pid, k))
                elif kind == "wait":
                    _kind, which, gated, child = op
                    yield signals[which].wait(guards[which] if gated else None)
                    if child >= 0:
                        spawn(child)
                elif kind == "crowd":
                    _kind, which, n, child, delay = op
                    for _ in range(n):
                        spawn(child, [("wait", which, True, -1)])
                    spawn(-1, [("sleep", delay), ("fire", which)])
                elif kind == "interrupt":
                    target = procs[op[1] % len(procs)]
                    if target.is_alive and target is not sim.active_process:
                        target.interrupt((pid, k))
                elif kind == "trigger":
                    if not events[op[1]].triggered:
                        events[op[1]].succeed((pid, k), delay=op[2])
                elif kind == "await":
                    yield events[op[1]]
                elif kind == "join":
                    target = procs[op[1] % len(procs)]
                    if target is not sim.active_process:
                        yield target
                elif kind == "boom":
                    ev = sim.event()
                    ev.callbacks.append(boom)
                    ev.succeed(delay=op[1])
            except Exception as exc:        # Interrupt, a joined failure
                trace.append((sim.now, (pid, k, type(exc).__name__)))
            if kind == "raise":
                raise RuntimeError((pid, k))
            trace.append((sim.now, (pid, k, "woke")))
        return pid

    def drive(action):
        kind = action[0]
        if kind == "run":
            sim.run()
        elif kind == "until":
            sim.run(until=sim.now + action[1])
        elif kind == "until_proc":
            sim.run(until=procs[action[1] % len(procs)])
        elif kind == "until_event":
            sim.run(until=events[action[1]])
        else:
            for _ in range(action[1]):
                if sim.peek() is None:
                    break
                sim.step()

    for index in roots:
        spawn(index)
    for action in list(driver) + [("run",)] * 40:
        try:
            drive(action)
        except Exception as exc:            # a raising callback, a stop
            trace.append((sim.now, ("raised", type(exc).__name__)))
        trace.append((sim.now, ("peek", sim.peek())))
        if action == ("run",) and sim.peek() is None:
            break
    return trace, sim.events_processed, sim.now


@pytest.mark.kernel_differential
@settings(max_examples=KERNEL_EXAMPLES, deadline=None, database=None,
          derandomize=True, suppress_health_check=[HealthCheck.too_slow])
@given(programs=st.lists(st.lists(_ops, max_size=12), min_size=1, max_size=5),
       roots=st.lists(st.integers(0, 4), min_size=1, max_size=6),
       driver=st.lists(_driver, max_size=6))
def test_calendar_queue_dispatches_like_the_tuple_heap(programs, roots, driver):
    """Same random schedule, both kernels: identical ``(time, tag)``
    dispatch traces, ``events_processed`` and clock."""
    assert _play(Simulator, programs, roots, driver) == \
        _play(TupleHeapSim, programs, roots, driver)
