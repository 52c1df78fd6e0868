"""Unit tests for Resource / Store / Signal primitives."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.sim import (Event, HoldPlan, Interrupt, Resource, Signal,
                       Simulator, Store)
from repro.sim.resources import Hold

from .hostcost import cost


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


class TestCountedHolds:
    """take()/give() and HoldPlan.take() hold units by count — no
    Request, no grant event — on the same free count and FIFO as
    request()/release()."""

    def test_take_all_is_all_or_nothing(self, sim):
        a, b = Resource(sim, 1), Resource(sim, 2)
        assert HoldPlan(sim, [(a, 30), (b, 30)]).take() is not None
        assert (a.count, b.count) == (1, 1)
        assert sim.peek() == 30             # one shared release timer
        # a is busy: b stays untouched and nothing more is scheduled
        assert HoldPlan(sim, [(b, 5), (a, 5)]).take() is None
        assert (a.count, b.count) == (1, 1)
        sim.run()
        assert (sim.now, sim.events_processed) == (30, 1)
        assert (a.count, b.count) == (0, 0)

    def test_giver_hands_over_to_waiters_in_fifo_order(self, sim):
        res = Resource(sim, 1)
        plan = HoldPlan(sim, [(res, 10)])
        assert plan.take() is not None
        first, second = res.request(), res.request()
        sim.run(until=10)                   # the release timer fires
        assert first.triggered and not second.triggered
        assert res.count == 1 and res.queued == 1
        res.give()                          # first's unit, returned by count
        assert second.triggered and res.queued == 0
        res.give()
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


def occupy_reference(plan, owners, tag):
    """Link occupancy as a generator: ``Fabric._occupy`` as it stood
    before :class:`HoldPlan` (commit 8585d81), kept as the reference.
    Its ``take_all`` shortcut is the loop finding every unit free.  It
    leaked when interrupted; the ``except`` is what it owed."""
    held, req = [], None
    try:
        for resource in plan.resources:
            if not resource.take():
                req = resource.request()
                owners[req] = tag
                yield req
                req = None
            held.append(resource)
    except Interrupt:
        if req is not None:
            resource.release(req)
        for resource in held:
            resource.give()
        raise
    for hold, give, _timer in plan.timers:
        timer = plan.sim.timeout(hold)  # subscribed before the yield: no sleep
        timer.callbacks.append(give)
    yield timer


#: link indices per path: 0 and 5 are one path; 0, 1 and 4 share their
#: first link; 0 and 2 share their last; 3 touches nothing of 2's; 6 and
#: 7 end on link 5, the one with two units
PATHS = ((0, 1, 2), (0, 3), (4, 2), (3,), (0, 4, 1), (0, 1, 2),
         (0, 5), (3, 5))


def play_holds(schedule, reference):
    """Run holders ``(start, paths, hold times, cancel delay | None)``
    through the primitive or the reference generator; a holder occupies
    its paths one after the other, a zero-delay step apart (a TLP's
    request and completion legs).  Returns one log, in order of
    occurrence, of what each holder saw, every release by holder and
    link, and every distinct state of the links — units held and who
    queues, oldest first — plus the event count."""
    sim = Simulator(seed=3)
    links = [Resource(sim) for _ in range(5)] + [Resource(sim, capacity=2)]
    log = []
    owners, tags = {}, {}       # Request -> tag (reference); plan -> tag

    def who(req):
        if req in owners:
            return owners[req]
        return tags[req.callbacks[0].__self__.plan]

    def logged(tag, group, give):
        def release(event):
            log.extend((sim.now, tag, "released", links.index(resource))
                       for resource in group)
            give(event)
        return release

    def plan_for(tag, path, holds):
        pairs = [(links[i], hold) for i, hold in zip(PATHS[path], holds)]
        plan = HoldPlan(sim, pairs)
        plan.timers = tuple(
            (hold, logged(tag, [r for r, h in pairs if h == hold], give),
             timer)
            for hold, give, timer in plan.timers)
        tags[plan] = tag
        return plan

    def holder(tag, start, plans):
        try:
            yield sim.timeout(start)
            for plan in plans:
                if reference:
                    yield from occupy_reference(plan, owners, tag)
                else:
                    yield plan.hold()
                log.append((sim.now, tag, "filled"))
                yield sim.timeout(0)
        except Interrupt:
            pass

    def canceller(tag, proc, at):
        # The primitive gives up its claim inside interrupt(), the
        # reference when the Interrupt reaches it, one URGENT event
        # later: log here, ahead of both.
        yield sim.timeout(at)
        if proc.is_alive:
            log.append((sim.now, tag, "cancelled"))
            proc.interrupt()

    for tag, (start, paths, holds, cancel) in enumerate(schedule):
        proc = sim.process(holder(
            tag, start, [plan_for(tag, path, holds) for path in paths]))
        if cancel is not None:
            sim.process(canceller(tag, proc, start + cancel))
    state = None
    while sim.peek() is not None:
        sim.step()
        was, state = state, tuple(
            (link.count, tuple(who(req) for req in link._waiting))
            for link in links)
        if state != was:
            log.append((sim.now, state))
    assert all(link.count == 0 and not link.queued for link in links)
    return log, sim.events_processed


class TestHoldPlan:
    def test_plan_orders_resources_and_groups_equal_holds(self, sim):
        a, b, c = Resource(sim), Resource(sim), Resource(sim)
        plan = HoldPlan(sim, [(c, 9), (a, 4), (b, 9)])
        assert plan.resources == (a, b, c)          # creation order
        assert [hold for hold, _give, _timer in plan.timers] == [4, 9]
        assert plan.fill == 9

    def test_queued_hold_claims_in_order_and_rides_the_last_timer(self, sim):
        a, b = Resource(sim), Resource(sim)
        assert b.take()                             # someone else's unit
        hold = HoldPlan(sim, [(a, 10), (b, 30)]).hold()
        fired = []
        hold.callbacks.append(lambda ev: fired.append((sim.now, ev.ok)))
        assert (a.count, b.queued) == (1, 1)        # a taken, queued at b
        assert sim.peek() is None                   # and nothing scheduled
        sim.run(until=7)
        b.give()
        sim.run()
        # grant at 7, then a's timer at 17 and b's at 37: three events
        assert fired == [(37, True)] and hold.processed
        assert sim.events_processed == 3
        assert (a.count, b.count) == (0, 0)

    def test_cancel_leaves_the_fifo_and_returns_what_it_took(self, sim):
        a, b, c = Resource(sim), Resource(sim), Resource(sim)
        assert c.take()
        hold = HoldPlan(sim, [(a, 5), (b, 5), (c, 5)]).hold()
        assert (a.count, b.count, c.queued) == (1, 1, 1)
        hold.cancel()
        assert (a.count, b.count, c.count, c.queued) == (0, 0, 1, 0)
        hold.cancel()                               # idempotent
        c.give()
        assert sim.peek() is None                   # nothing was started

    def test_cancel_between_grant_and_dispatch_passes_the_unit_on(self, sim):
        a = Resource(sim)
        assert a.take()
        plan = HoldPlan(sim, [(a, 5)])
        first, second = plan.hold(), plan.hold()
        a.give()                    # first's grant is on the queue now
        first.cancel()
        assert a.count == 1 and a.queued == 0       # handed to second
        sim.run()
        assert second.processed and not first.triggered
        assert a.count == 0

    def test_cancel_once_everything_is_held_is_a_noop(self, sim):
        a = Resource(sim)
        assert a.take()
        hold = HoldPlan(sim, [(a, 5)]).hold()
        a.give()
        sim.run(until=1)            # granted: the release timer runs
        hold.cancel()
        assert a.count == 1
        sim.run()
        assert a.count == 0 and hold.processed

    def test_interrupted_waiter_does_not_leak_the_resource(self, sim):
        """A holds the link, B queues and is interrupted, C comes later:
        C must get the link.  (Before ``Hold.cancel`` B's dead request
        stayed in the FIFO and was granted the link forever.)"""
        first = Resource(sim)       # taken by B before it queues
        link = Resource(sim)
        done = {}

        def user(tag, start, pairs):
            try:
                yield sim.timeout(start)
                yield HoldPlan(sim, pairs).hold()
                done[tag] = sim.now
            except Interrupt:
                done[tag] = "interrupted"

        sim.process(user("a", 0, [(link, 1000)]))
        b = sim.process(user("b", 10, [(first, 50), (link, 50)]))
        sim.process(user("c", 100, [(link, 40)]))
        sim.run(until=20)
        assert (first.count, link.queued) == (1, 1)
        b.interrupt()
        sim.run()
        assert done == {"a": 1000, "b": "interrupted", "c": 1040}
        assert (first.count, link.count, link.queued) == (0, 0, 0)

    def test_overlapping_holds_of_one_plan_release_both(self, sim):
        """Two units, one plan: a claim that finds the plan's release
        timer still armed by the claim before it runs on a fresh event,
        straight (``take``) or after queueing (``Hold``)."""
        pair = Resource(sim, capacity=2)
        plan = HoldPlan(sim, [(pair, 10)])
        fired = []

        def claim(tag):
            event = plan.hold()
            event.callbacks.append(lambda _ev: fired.append((tag, sim.now)))
            return event

        first = claim("first")                      # the plan's own timer
        sim.run(until=4)
        second = claim("second")                    # armed: a fresh one
        assert second is not first
        assert Hold not in (type(first), type(second))
        assert plan.take() is None and pair.count == 2
        sim.run(until=6)
        queued = [claim("third"), claim("fourth")]  # granted at 10 and 14
        assert all(type(hold) is Hold for hold in queued)
        sim.run()
        # third's grant finds the timer idle; fourth's finds it armed
        assert fired == [("first", 10), ("second", 14),
                         ("third", 20), ("fourth", 24)]
        assert (pair.count, pair.queued) == (0, 0)
        assert plan.take() is first                 # idle again: reused

    def test_cancel_with_the_rearmed_grant_queued_returns_every_unit(
            self, sim):
        """A hold keeps one grant and arms it again for each busy link
        it queues on.  Cancelled while that grant waits at the third
        link, it gives back the two units it took, and nothing it
        queued for wakes it (or anyone) afterwards."""
        a, b, c = Resource(sim), Resource(sim), Resource(sim)
        for link, hold in ((a, 5), (b, 10), (c, 15)):
            assert HoldPlan(sim, [(link, hold)]).take() is not None
        hold = HoldPlan(sim, [(a, 20), (b, 20), (c, 20)]).hold()
        fired = []
        hold.callbacks.append(fired.append)
        grant, = a._waiting
        sim.run(until=5)            # a handed over: the walk queues at b
        assert a.count == 1 and list(b._waiting) == [grant]
        sim.run(until=10)           # b handed over: it queues at c
        assert b.count == 1 and list(c._waiting) == [grant]
        assert grant.resource is c and not grant.processed
        hold.cancel()
        assert (a.count, b.count, c.count, c.queued) == (0, 0, 1, 0)
        sim.run()                   # c's own release frees it
        assert fired == [] and not hold.triggered
        assert (a.count, b.count, c.count) == (0, 0, 0)
        # three release timers and the two hand-overs, nothing else
        assert sim.events_processed == 5

    def test_queued_hold_cost_from_issue_to_fill(self, sim):
        """Budget: a hold that finds its second link busy, from issue to
        fill: ``hold`` and ``take``, the hold's frame, two walks of
        ``_claim``, the busy plan's release handing the link over inline,
        the hold's two release timers and ``_held`` — no ``Event.__init__``
        or ``Resource.give`` frame (with them: 22 calls, 648 bytecodes)."""
        a, b = Resource(sim), Resource(sim)
        busy = HoldPlan(sim, [(b, 5)])
        plan = HoldPlan(sim, [(a, 10), (b, 20)])

        def issue_to_fill():
            plan.hold()
            sim.run()

        empty = cost(lambda: None)
        for _ in range(3):          # warm: every timer idle again
            assert busy.take() is not None
            issue_to_fill()
        assert busy.take() is not None
        calls, bytecodes = cost(issue_to_fill)
        assert sim.events_processed == 4 * 4
        assert calls - empty[0] == 20
        assert bytecodes - empty[1] <= 623

    @settings(max_examples=300, deadline=None)
    @given(schedule=st.lists(st.tuples(
        st.integers(0, 12),
        st.lists(st.integers(0, len(PATHS) - 1), min_size=1, max_size=2),
        st.lists(st.sampled_from([3, 3, 5, 8]), min_size=3, max_size=3),
        st.one_of(st.none(), st.integers(0, 15))), max_size=12))
    @example(schedule=[(0, [0], [8, 8, 8], None), (1, [1], [3, 5, 3], 2),
                       (2, [1], [3, 3, 3], None)])
    @example(schedule=[(0, [2], [5, 8, 3], None), (0, [0], [3, 3, 8], 9),
                       (0, [4, 3], [3, 5, 8], None),
                       (1, [5, 1], [8, 5, 3], None)])
    def test_matches_the_occupy_generator(self, schedule):
        assert play_holds(schedule, reference=False) \
            == play_holds(schedule, reference=True)


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


class _Guard:
    """One guard object per ``need``: its ``holds`` bound methods are
    distinct objects that compare and hash equal."""

    def __init__(self, gate, need):
        self.gate = gate
        self.need = need
        gate.guards[need] = self

    def holds(self):
        return self.gate.short_of(self.need)


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
        self.guards = {}        # need -> _Guard, for shared predicates
        self.evaluations = 0    # guard evaluations, by anyone

    def short_of(self, need):
        """True while ``need`` tokens are missing (and the turnstile is
        open): the guard, as a method, so that every waiter parked with
        ``shared=True`` and the same ``need`` hands the signal an equal
        bound method — the way the 40-odd submissions parked on one
        client's clamp share its queue pair's ``_clamp_holds``."""
        self.evaluations += 1
        return self.open and self.tokens < need

    def park(self, tag, need=1, gated=True, on_win=None, shared=False):
        if shared:
            blocked = (self.guards.get(need) or _Guard(self, need)).holds
        else:
            def blocked():
                return self.short_of(need)

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

    def test_one_evaluation_per_distinct_guard_per_sweep(self, sim, gate):
        for tag in range(10):
            gate.park(tag, need=5, shared=True)
        for tag in range(10, 13):
            gate.park(tag, need=7, shared=True)
        gate.park(13, need=5)               # same test, its own closure
        sim.run()
        gate.evaluations = 0
        gate.give(1)
        sim.run()
        assert gate.evaluations == 3        # not 14
        assert gate.resumes == 0 and gate.signal.waiting == 14

    def test_a_winner_drops_the_sweeps_verdicts(self, sim, gate):
        """Tags 0 and 2 share a guard; tag 1 wins between them and hands
        on tokens (no fire): tag 2 must see them, not tag 0's verdict."""
        gate.park(0, need=2, shared=True)
        gate.park(1, need=1, on_win=lambda: gate.give(3, fire=False))
        gate.park(2, need=2, shared=True)
        sim.run()
        gate.give(1)
        sim.run()
        assert gate.trace == [(0, 1), (0, 2)]
        assert gate.parked == {0}

    def test_interrupted_waiters_are_not_pinned(self, sim, gate):
        """Lifecycle: a waiter whose process was interrupted is dropped
        at the next sweep, not re-parked for the length of the clamp —
        and leaves its run, and ``waiting``, at the interrupt itself."""
        gate.park("resident", need=9)
        sim.run()
        baseline = gate.signal.waiting
        for cycle in range(300):
            gate.park(cycle, need=9)
            sim.run()
            assert gate.signal.waiting == baseline + 1
            gate.interrupt(cycle)
            assert gate.signal.waiting == baseline      # before any fire
            gate.signal.fire()
            sim.run()
            assert gate.signal.waiting == baseline
        assert gate.resumes == 0
        assert len(gate.trace) == 300

    def test_interrupt_inside_a_queued_sweep(self, sim, gate):
        """A waiter interrupted between a fire() and its sweep has left
        the batch too: the sweep wakes its neighbours, in order."""
        for tag in range(4):
            gate.park(tag, shared=True)
        sim.run()
        gate.give(4)                # sweep queued, nobody woken yet
        gate.interrupt(1)
        assert gate.signal.waiting == 0     # the batch is not parked
        sim.run()                   # the URGENT kick, then the sweep
        assert gate.trace == [(0, 1, "interrupted"), (0, 0), (0, 2), (0, 3)]

    def test_shared_guard_waiters_park_in_one_run(self, sim, gate):
        for tag in range(64):
            gate.park(tag, need=5, shared=True)
        gate.park("other", need=7, shared=True)
        gate.park("late", need=5, shared=True)
        sim.run()
        assert [len(run) for run in gate.signal._waiters] == [64, 1, 1]
        assert gate.signal.waiting == 66
        gate.give(1)
        sim.run()                   # all three runs lose and re-park whole
        assert [len(run) for run in gate.signal._waiters] == [64, 1, 1]
        gate.park("newer", need=5, shared=True)     # joins the tail run
        sim.run()
        assert [len(run) for run in gate.signal._waiters] == [64, 1, 2]

    def test_fire_and_sweep_cost_is_independent_of_the_herd(self):
        """Budget: a fire() whose one shared guard holds costs one guard
        call and one re-park, for 8 parked waiters as for 256."""
        def sweep_cost(herd):
            sim = Simulator(seed=5)
            gate = Turnstile(sim, Signal(sim))
            for tag in range(herd):
                gate.park(tag, need=2, shared=True)
            sim.run()

            def fire_and_sweep():
                gate.signal.fire()
                sim.run()

            fire_and_sweep()        # warm: nothing left to specialise
            before = sim.events_processed
            measured = cost(fire_and_sweep)
            assert sim.events_processed - before == 1
            assert gate.resumes == 0 and gate.signal.waiting == herd
            return measured

        small, large = sweep_cost(8), sweep_cost(256)
        assert small == large
        assert small[0] <= 20

    #: differential steps the random walks rarely reach: a herd of 70 on
    #: one guard, an interrupt in the middle of the parked run, a
    #: newcomer between a fire() and its sweep, winners leaving the head
    #: of a run whose rest re-parks
    HERD = ([("herd", 70, 3), ("interrupt", 35), ("give", 1, True),
             ("park", 3, True, None, True), ("give", 2, True),
             ("advance", 1), ("interrupt", 20), ("give", 3, True),
             ("park", 3, True, "refire", True), ("give", 3, True),
             ("give", 3, False), ("fire",)])
    #: two guards alternating (A A B A): three runs, B's in the middle
    ALTERNATING = ([("park", 3, True, None, True)] * 2
                   + [("park", 2, True, None, True),
                      ("park", 3, True, None, True),
                      ("give", 1, True), ("give", 1, True),
                      ("park", 2, True, "give", True), ("give", 3, True),
                      ("interrupt", 1), ("give", 2, True)])

    @settings(max_examples=300, deadline=None)
    @given(steps=st.lists(st.one_of(
        st.tuples(st.just("park"), st.integers(1, 3), st.booleans(),
                  st.sampled_from([None, "refire", "spawn", "give"]),
                  st.booleans()),
        st.tuples(st.just("herd"), st.integers(2, 12), st.integers(1, 3)),
        st.tuples(st.just("give"), st.integers(1, 3), st.booleans()),
        st.tuples(st.just("fire")),
        st.tuples(st.just("interrupt"), st.integers(0, 40)),
        st.tuples(st.just("advance"), st.integers(1, 5)),
        st.tuples(st.just("close"))), max_size=40))
    @example(steps=HERD)
    @example(steps=ALTERNATING)
    @example(steps=[("park", 1, True, "spawn", False),
                    ("park", 1, True, None, False), ("give", 1, True)])
    @example(steps=[("park", 2, True, None, True),
                    ("park", 1, True, "give", False),
                    ("park", 2, True, None, True), ("give", 1, True)])
    @example(steps=[("park", 3, True, None, True),
                    ("park", 1, True, "refire", False),
                    ("park", 1, False, None, False),
                    ("park", 1, True, None, True),
                    ("give", 2, True), ("park", 1, True, None, True),
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
                                  gated=step[2], on_win=on_win[step[3]],
                                  shared=step[4])
                        # let it boot and park; a fire() just before
                        # this step still has its wake events queued
                        yield sim.timeout(0)
                    elif op == "herd":
                        for _ in range(step[1]):
                            gate.park(len(gate.procs), need=step[2],
                                      shared=True)
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
