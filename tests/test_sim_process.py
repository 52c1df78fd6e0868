"""Unit tests for process semantics (spawning, returns, interrupts)."""

import pytest

from repro.sim import Interrupt, Simulator


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
