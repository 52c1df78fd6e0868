"""Unit tests for Resource / Store / Signal primitives."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.sim import (Event, Interrupt, Resource, Signal, Simulator, Store,
                       giver, take_all)


@pytest.fixture()
def sim():
    return Simulator(seed=5)


class TestResource:
    def test_capacity_one_serialises(self, sim):
        res = Resource(sim, capacity=1)
        spans = []

        def worker(sim, tag):
            req = res.request()
            yield req
            start = sim.now
            yield sim.timeout(100)
            res.release(req)
            spans.append((tag, start, sim.now))

        for tag in range(3):
            sim.process(worker(sim, tag))
        sim.run()
        assert spans == [(0, 0, 100), (1, 100, 200), (2, 200, 300)]

    def test_capacity_n_allows_parallelism(self, sim):
        res = Resource(sim, capacity=2)
        finished = []

        def worker(sim, tag):
            req = res.request()
            yield req
            yield sim.timeout(100)
            res.release(req)
            finished.append((tag, sim.now))

        for tag in range(4):
            sim.process(worker(sim, tag))
        sim.run()
        assert finished == [(0, 100), (1, 100), (2, 200), (3, 200)]

    def test_fifo_grant_order(self, sim):
        res = Resource(sim, capacity=1)
        grants = []

        def worker(sim, tag, arrive):
            yield sim.timeout(arrive)
            req = res.request()
            yield req
            grants.append(tag)
            yield sim.timeout(50)
            res.release(req)

        for tag, arrive in [(0, 0), (1, 5), (2, 10), (3, 12)]:
            sim.process(worker(sim, tag, arrive))
        sim.run()
        assert grants == [0, 1, 2, 3]

    def test_release_cancels_waiting_request(self, sim):
        res = Resource(sim, capacity=1)
        holder = res.request()  # granted instantly
        waiter = res.request()
        assert res.queued == 1
        res.release(waiter)  # cancel before grant
        assert res.queued == 0
        res.release(holder)
        assert res.count == 0

    def test_release_foreign_request_raises(self, sim):
        res1 = Resource(sim, capacity=1)
        res2 = Resource(sim, capacity=1)
        req = res1.request()
        with pytest.raises(RuntimeError):
            res2.release(req)

    def test_capacity_validation(self, sim):
        with pytest.raises(ValueError):
            Resource(sim, capacity=0)

    def test_acquire_subgenerator(self, sim):
        res = Resource(sim, capacity=1)
        out = []

        def worker(sim):
            req = yield from res.acquire()
            out.append(sim.now)
            yield sim.timeout(10)
            res.release(req)

        sim.process(worker(sim))
        sim.process(worker(sim))
        sim.run()
        assert out == [0, 10]

    def test_context_manager_releases(self, sim):
        res = Resource(sim, capacity=1)
        order = []

        def worker(sim, tag):
            with res.request() as req:
                yield req
                order.append(tag)
                yield sim.timeout(20)

        sim.process(worker(sim, "a"))
        sim.process(worker(sim, "b"))
        sim.run()
        assert order == ["a", "b"]
        assert res.count == 0


class TestCountedHolds:
    """take()/give() and take_all()/giver() hold units by count — no
    Request, no grant event — on the same free count and FIFO as
    request()/release()."""

    def test_take_all_is_all_or_nothing(self, sim):
        a, b = Resource(sim, 1), Resource(sim, 2)
        assert take_all((a, b))
        assert (a.count, b.count) == (1, 1)
        assert not take_all((b, a))         # a is busy: b stays untouched
        assert (a.count, b.count) == (1, 1)
        assert sim.peek() is None           # no event was scheduled
        giver((a, b))(None)
        assert (a.count, b.count) == (0, 0)

    def test_giver_hands_over_to_waiters_in_fifo_order(self, sim):
        res = Resource(sim, 1)
        assert res.take()
        first, second = res.request(), res.request()
        release = giver((res,))
        release(None)
        assert first.triggered and not second.triggered
        assert res.count == 1 and res.queued == 1
        release(None)                       # first's unit, returned by count
        assert second.triggered and res.queued == 0
        release(None)
        assert res.count == 0
        with pytest.raises(RuntimeError):
            res.give()                      # nothing is held any more

    def test_release_twice_raises(self, sim):
        res = Resource(sim, 1)
        req = res.request()
        res.release(req)
        with pytest.raises(RuntimeError, match="not issued here"):
            res.release(req)
        assert res.count == 0

    @settings(max_examples=200, deadline=None)
    @given(capacity=st.integers(1, 3),
           ops=st.lists(st.tuples(
               st.sampled_from(["request", "take", "give", "release",
                                "foreign"]),
               st.integers(0, 7)), max_size=40))
    def test_mixed_holds_match_reference_model(self, capacity, ops):
        sim = Simulator(seed=1)
        res, other = Resource(sim, capacity), Resource(sim, 1)
        counted = 0             # units held by take()
        granted, waiting = [], []   # requests, oldest first

        def unit_returned():
            if waiting:             # FIFO hand-over, never a free unit
                granted.append(waiting.pop(0))

        for op, pick in ops:
            free = capacity - counted - len(granted)
            if op == "request":
                req = res.request()
                (granted if free else waiting).append(req)
            elif op == "take":
                assert res.take() == bool(free)
                counted += bool(free)
            elif op == "give" and counted:
                res.give()
                counted -= 1
                unit_returned()
            elif op == "release" and granted + waiting:
                req = (granted + waiting)[pick % len(granted + waiting)]
                res.release(req)
                if req in waiting:
                    waiting.remove(req)     # cancel-while-waiting
                else:
                    granted.remove(req)
                    unit_returned()
                with pytest.raises(RuntimeError, match="not issued here"):
                    res.release(req)
            elif op == "foreign":
                with pytest.raises(RuntimeError, match="not issued here"):
                    res.release(other.request())
            assert res.count == counted + len(granted) <= capacity
            assert res.queued == len(waiting)
            assert not waiting or res.count == capacity
            assert all(req.triggered for req in granted)
            assert not any(req.triggered for req in waiting)
        sim.run()                           # every grant event is sound
        assert all(req.processed and req.value is req for req in granted)


class TestStore:
    def test_put_then_get(self, sim):
        store = Store(sim)
        store.put("x")
        got = []

        def getter(sim):
            got.append((yield store.get()))

        sim.process(getter(sim))
        sim.run()
        assert got == ["x"]

    def test_get_blocks_until_put(self, sim):
        store = Store(sim)
        got = []

        def getter(sim):
            item = yield store.get()
            got.append((sim.now, item))

        def putter(sim):
            yield sim.timeout(40)
            store.put("late")

        sim.process(getter(sim))
        sim.process(putter(sim))
        sim.run()
        assert got == [(40, "late")]

    def test_fifo_ordering_of_items_and_getters(self, sim):
        store = Store(sim)
        got = []

        def getter(sim, tag):
            item = yield store.get()
            got.append((tag, item))

        sim.process(getter(sim, 0))
        sim.process(getter(sim, 1))

        def putter(sim):
            yield sim.timeout(1)
            store.put("first")
            store.put("second")

        sim.process(putter(sim))
        sim.run()
        assert got == [(0, "first"), (1, "second")]

    def test_try_get(self, sim):
        store = Store(sim)
        assert store.try_get() is None
        store.put(1)
        assert len(store) == 1
        assert store.try_get() == 1
        assert store.try_get() is None


class WakeAllSignal:
    """The Signal before gated waits, kept as the reference: every
    fire() wakes every waiter and ``blocked`` is ignored, so each loser
    resumes its process, re-checks and parks a fresh wait."""

    def __init__(self, sim):
        self.sim = sim
        self._waiters = []

    def wait(self, blocked=None):
        ev = Event(self.sim)
        self._waiters.append(ev)
        return ev

    def fire(self, value=None):
        waiters, self._waiters = self._waiters, []
        for ev in waiters:
            ev.succeed(value)


class Turnstile:
    """Shared state for gated-wait tests: waiter *tag* gets through once
    ``tokens >= need`` (taking them) or the turnstile is closed."""

    def __init__(self, sim, signal):
        self.sim = sim
        self.signal = signal
        self.tokens = 0
        self.open = True
        self.trace = []         # (time, tag) per waiter that got through
        self.resumes = 0        # wake-ups that reached a waiter's process
        self.procs = {}
        self.parked = set()     # tags suspended at the signal right now

    def park(self, tag, need=1, gated=True, on_win=None):
        def blocked():
            return self.open and self.tokens < need

        def body():
            try:
                while blocked():
                    self.parked.add(tag)
                    yield self.signal.wait(blocked if gated else None)
                    self.parked.discard(tag)
                    self.resumes += 1
            except Interrupt:
                self.trace.append((self.sim.now, tag, "interrupted"))
                return
            if not self.open:
                self.trace.append((self.sim.now, tag, "closed"))
                return
            self.tokens -= need
            self.trace.append((self.sim.now, tag))
            if on_win is not None:
                on_win()

        self.procs[tag] = self.sim.process(body())

    def interrupt(self, tag):
        if tag in self.parked:
            self.parked.discard(tag)
            self.procs[tag].interrupt()

    def give(self, n=1, fire=True):
        self.tokens += n
        if fire:
            self.signal.fire()

    def spawn_give(self, n=1):
        """What a winner does to hand on: a new process, whose URGENT
        boot adds tokens (no fire)."""
        def booted():
            self.tokens += n
            return
            yield   # pragma: no cover - generator marker
        self.sim.process(booted())


class TestSignal:
    def test_fire_wakes_all_waiters(self, sim):
        sig = Signal(sim)
        woken = []

        def waiter(sim, tag):
            value = yield sig.wait()
            woken.append((tag, sim.now, value))

        for tag in range(3):
            sim.process(waiter(sim, tag))

        def firer(sim):
            yield sim.timeout(25)
            sig.fire("edge")

        sim.process(firer(sim))
        sim.run()
        assert woken == [(0, 25, "edge"), (1, 25, "edge"), (2, 25, "edge")]

    def test_each_wait_sees_one_fire(self, sim):
        sig = Signal(sim)
        counts = []

        def waiter(sim):
            seen = 0
            for _ in range(2):
                yield sig.wait()
                seen += 1
            counts.append(seen)

        def firer(sim):
            for _ in range(2):
                yield sim.timeout(10)
                sig.fire()

        sim.process(waiter(sim))
        sim.process(firer(sim))
        sim.run()
        assert counts == [2]
        assert sig.fires == 2

    def test_fire_with_no_waiters_is_noop(self, sim):
        sig = Signal(sim)
        sig.fire()
        assert sig.fires == 1

    @pytest.fixture()
    def gate(self, sim):
        return Turnstile(sim, Signal(sim))

    def test_losers_never_resume_and_cost_no_event(self, sim, gate):
        for tag in range(50):
            gate.park(tag, need=2)
        sim.run()
        before = sim.events_processed
        for _ in range(10):
            gate.give(1)            # 1 < 2: nobody can run
            gate.tokens = 0
            sim.run()
        assert gate.resumes == 0 and gate.trace == []
        assert sim.events_processed - before == 10      # one sweep a fire
        assert gate.signal.waiting == 50

    def test_fifo_among_winners(self, sim, gate):
        for tag in range(4):
            gate.park(tag)
        sim.run()
        gate.give(3)
        sim.run()
        assert gate.trace == [(0, 0), (0, 1), (0, 2)]
        assert gate.resumes == 3 and gate.signal.waiting == 1

    def test_newcomer_parks_ahead_of_reparked_losers(self, sim, gate):
        gate.park("old-a", need=3)
        gate.park("old-b", need=3)
        sim.run()
        gate.give(1)                # fire: both lose at the sweep ...
        gate.park("new", need=3)    # ... which runs after this boot
        sim.run()
        assert gate.resumes == 0
        gate.tokens = 3
        gate.signal.fire()
        sim.run()
        assert [entry[1] for entry in gate.trace] == ["new"]

    def test_mixed_gated_and_ungated_dispatch_in_waiter_order(self, sim,
                                                              gate):
        for tag, gated in enumerate([True, True, False, True, False]):
            gate.park(tag, gated=gated)
        sim.run()
        before = sim.events_processed
        gate.give(5)
        sim.run()
        assert gate.trace == [(0, tag) for tag in range(5)]
        # sweep(0,1) + its continuation, wake(2), sweep(3), wake(4),
        # and the five processes' own completion events
        assert sim.events_processed - before == 5 + 5

    def test_reentrant_fire_from_a_winner(self, sim, gate):
        gate.park("loser", need=5)
        gate.park("winner", on_win=lambda: gate.give(6))
        gate.park("behind")
        sim.run()
        gate.give(1)
        sim.run()
        # The winner's fire() sees only the loser re-parked so far; the
        # rest of the first batch still goes before that second batch.
        assert [entry[1] for entry in gate.trace] == [
            "winner", "behind", "loser"]

    def test_urgent_spawn_by_a_winner_runs_before_next_waiter(self, sim,
                                                              gate):
        gate.park("first", on_win=gate.spawn_give)
        gate.park("second")
        sim.run()
        gate.give(1)
        sim.run()
        assert [entry[1] for entry in gate.trace] == ["first", "second"]

    def test_closing_releases_everyone_in_park_order(self, sim, gate):
        for tag in range(3):
            gate.park(tag, need=9)
        sim.run()
        gate.open = False
        gate.signal.fire()
        sim.run()
        assert gate.trace == [(0, tag, "closed") for tag in range(3)]
        assert gate.signal.waiting == 0

    def test_fire_value_reaches_a_gated_winner(self, sim):
        sig = Signal(sim)
        got = []

        def waiter():
            got.append((yield sig.wait(lambda: False)))

        sim.process(waiter())
        sim.run()
        sig.fire("edge")
        sim.run()
        assert got == ["edge"]

    def test_interrupted_waiters_are_not_pinned(self, sim, gate):
        """Lifecycle: a waiter whose process was interrupted is dropped
        at the next sweep, not re-parked for the length of the clamp."""
        gate.park("resident", need=9)
        sim.run()
        baseline = gate.signal.waiting
        for cycle in range(300):
            gate.park(cycle, need=9)
            sim.run()
            assert gate.signal.waiting == baseline + 1
            gate.interrupt(cycle)
            gate.signal.fire()
            sim.run()
            assert gate.signal.waiting == baseline
        assert gate.resumes == 0
        assert len(gate.trace) == 300

    @settings(max_examples=300, deadline=None)
    @given(steps=st.lists(st.one_of(
        st.tuples(st.just("park"), st.integers(1, 3), st.booleans(),
                  st.sampled_from([None, "refire", "spawn", "give"])),
        st.tuples(st.just("give"), st.integers(1, 3), st.booleans()),
        st.tuples(st.just("fire")),
        st.tuples(st.just("interrupt"), st.integers(0, 40)),
        st.tuples(st.just("advance"), st.integers(1, 5)),
        st.tuples(st.just("close"))), max_size=40))
    @example(steps=[("park", 1, True, "spawn"), ("park", 1, True, None),
                    ("give", 1, True)])
    @example(steps=[("park", 2, True, None), ("park", 1, True, "give"),
                    ("park", 2, True, None), ("give", 1, True)])
    @example(steps=[("park", 3, True, None), ("park", 1, True, "refire"),
                    ("park", 1, False, None), ("park", 1, True, None),
                    ("give", 2, True), ("park", 1, True, None),
                    ("give", 3, False), ("fire",)])
    def test_matches_wake_all_reference(self, steps):
        def play(signal_type):
            sim = Simulator(seed=1)
            gate = Turnstile(sim, signal_type(sim))
            on_win = {None: None, "refire": gate.signal.fire,
                      "spawn": gate.spawn_give,
                      "give": lambda: gate.give(2)}

            def driver():
                for step in steps:
                    op = step[0]
                    if op == "park":
                        gate.park(len(gate.procs), need=step[1],
                                  gated=step[2], on_win=on_win[step[3]])
                        # let it boot and park; a fire() just before
                        # this step still has its wake events queued
                        yield sim.timeout(0)
                    elif op == "give":
                        gate.give(step[1], fire=step[2])
                    elif op == "fire":
                        gate.signal.fire()
                    elif op == "interrupt" and gate.procs:
                        gate.interrupt(step[1] % len(gate.procs))
                    elif op == "advance":
                        yield sim.timeout(step[1])
                    elif op == "close":
                        gate.open = False
                        gate.signal.fire()
                yield sim.timeout(1)
                gate.open = False       # let every process finish
                gate.signal.fire()

            sim.process(driver())
            sim.run()
            return gate.trace, sim.now

        assert play(Signal) == play(WakeAllSignal)
