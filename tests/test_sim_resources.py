"""Unit tests for Resource / Store / Signal primitives."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Resource, Signal, Simulator, Store, giver, take_all


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
