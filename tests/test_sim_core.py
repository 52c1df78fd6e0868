"""Unit tests for the discrete-event kernel core (events, clock, run)."""

import ast
import pathlib
import re

import pytest

from repro.sim import Event, Interrupt, Simulator

from .hostcost import cost


@pytest.fixture()
def sim():
    return Simulator(seed=1)


class TestClock:
    def test_starts_at_zero(self, sim):
        assert sim.now == 0

    def test_timeout_advances_clock(self, sim):
        def proc(sim):
            yield sim.timeout(250)
            return sim.now

        p = sim.process(proc(sim))
        sim.run()
        assert p.value == 250
        assert sim.now == 250

    def test_run_until_time_advances_even_with_no_events(self, sim):
        sim.run(until=1_000)
        assert sim.now == 1_000

    def test_run_until_past_raises(self, sim):
        sim.run(until=100)
        with pytest.raises(ValueError):
            sim.run(until=50)

    def test_events_process_in_time_order(self, sim):
        order = []

        def proc(sim, delay, tag):
            yield sim.timeout(delay)
            order.append(tag)

        sim.process(proc(sim, 30, "c"))
        sim.process(proc(sim, 10, "a"))
        sim.process(proc(sim, 20, "b"))
        sim.run()
        assert order == ["a", "b", "c"]

    def test_fifo_order_for_simultaneous_events(self, sim):
        order = []

        def proc(sim, tag):
            yield sim.timeout(5)
            order.append(tag)

        for tag in range(8):
            sim.process(proc(sim, tag))
        sim.run()
        assert order == list(range(8))

    def test_peek(self, sim):
        assert sim.peek() is None
        sim.timeout(40)
        # The process-boot machinery is not involved for a bare timeout.
        assert sim.peek() == 40


class TestEvent:
    def test_succeed_delivers_value(self, sim):
        ev = sim.event()
        results = []

        def proc(sim):
            results.append((yield ev))

        sim.process(proc(sim))
        ev.succeed("payload", delay=10)
        sim.run()
        assert results == ["payload"]
        assert ev.processed and ev.ok

    def test_double_trigger_rejected(self, sim):
        ev = sim.event()
        ev.succeed(1)
        with pytest.raises(RuntimeError):
            ev.succeed(2)
        with pytest.raises(RuntimeError):
            ev.fail(ValueError("x"))

    def test_fail_throws_into_process(self, sim):
        ev = sim.event()
        caught = []

        def proc(sim):
            try:
                yield ev
            except ValueError as exc:
                caught.append(str(exc))

        sim.process(proc(sim))
        ev.fail(ValueError("boom"))
        sim.run()
        assert caught == ["boom"]

    def test_unhandled_failed_event_raises_from_run(self, sim):
        ev = sim.event()
        ev.fail(RuntimeError("nobody is listening"))
        with pytest.raises(RuntimeError, match="nobody is listening"):
            sim.run()

    def test_defused_failure_does_not_raise(self, sim):
        ev = sim.event()
        ev.fail(RuntimeError("handled elsewhere"))
        ev.defuse()
        sim.run()

    def test_value_before_trigger_raises(self, sim):
        ev = sim.event()
        with pytest.raises(RuntimeError):
            _ = ev.value

    def test_fail_requires_exception_instance(self, sim):
        ev = sim.event()
        with pytest.raises(TypeError):
            ev.fail("not an exception")  # type: ignore[arg-type]

    def test_trigger_mirrors_outcome(self, sim):
        src = sim.event()
        dst = sim.event()
        src.succeed(42)
        sim.run()
        dst.trigger(src)
        sim.run()
        assert dst.value == 42


class TestRunUntilEvent:
    def test_returns_event_value(self, sim):
        def proc(sim):
            yield sim.timeout(100)
            return "finished"

        p = sim.process(proc(sim))
        assert sim.run(until=p) == "finished"
        assert sim.now == 100

    def test_failing_target_event_raises(self, sim):
        def proc(sim):
            yield sim.timeout(10)
            raise KeyError("inner")

        p = sim.process(proc(sim))
        with pytest.raises(KeyError):
            sim.run(until=p)

    def test_already_processed_target_behaves_like_a_live_one(self, sim):
        def boom(sim):
            yield sim.timeout(5)
            raise ValueError("late")

        def fine(sim):
            yield sim.timeout(5)
            return "finished"

        failed = sim.process(boom(sim))
        failed.defuse()
        done = sim.process(fine(sim))
        sim.run()               # drains; the failure is defused
        assert failed.processed and done.processed
        with pytest.raises(ValueError, match="late"):
            sim.run(until=failed)
        assert sim.run(until=done) == "finished"

    def test_starved_target_raises(self, sim):
        ev = sim.event()  # never triggered
        sim.timeout(5)
        with pytest.raises(RuntimeError, match="ran out of events"):
            sim.run(until=ev)

    def test_negative_delay_rejected(self, sim):
        ev = sim.event()
        with pytest.raises(ValueError):
            sim._schedule(ev, delay=-1)
        with pytest.raises(ValueError):
            sim.timeout(-5)


class TestConditions:
    def test_any_of_first_wins(self, sim):
        def fast(sim):
            yield sim.timeout(10)
            return "fast"

        def slow(sim):
            yield sim.timeout(100)
            return "slow"

        results = []

        def waiter(sim):
            f, s = sim.process(fast(sim)), sim.process(slow(sim))
            got = yield f | s
            results.append((sim.now, list(got.values())))

        sim.process(waiter(sim))
        sim.run()
        assert results == [(10, ["fast"])]

    def test_all_of_waits_for_all(self, sim):
        def worker(sim, d):
            yield sim.timeout(d)
            return d

        results = []

        def waiter(sim):
            procs = [sim.process(worker(sim, d)) for d in (5, 50, 20)]
            got = yield sim.all_of(procs)
            results.append((sim.now, sorted(got.values())))

        sim.process(waiter(sim))
        sim.run()
        assert results == [(50, [5, 20, 50])]

    def test_all_of_empty_triggers_immediately(self, sim):
        cond = sim.all_of([])
        assert cond.triggered

    def test_condition_rejects_foreign_events(self, sim):
        other = Simulator(seed=2)
        with pytest.raises(ValueError):
            sim.all_of([sim.event(), other.event()])

    def test_any_of_with_already_processed_event(self, sim):
        ev = sim.event()
        ev.succeed("early")
        sim.run()
        got = []

        def waiter(sim):
            value = yield sim.any_of([ev, sim.timeout(1000)])
            got.append(list(value.values()))

        sim.process(waiter(sim))
        sim.run(until=10)
        assert got == [["early"]]


class TestDeterminism:
    def test_identical_seeds_identical_traces(self):
        def run_once(seed):
            sim = Simulator(seed=seed)
            samples = []

            def proc(sim):
                for _ in range(50):
                    delay = sim.rng.uniform_ns("jitter", 50, 200)
                    yield sim.timeout(delay)
                    samples.append((sim.now, delay))

            sim.process(proc(sim))
            sim.run()
            return samples

        assert run_once(7) == run_once(7)
        assert run_once(7) != run_once(8)


class TestInterruptTwice:
    def test_second_interrupt_detaches_from_the_new_wait(self, sim):
        """Two interrupts at one instant: the victim handles the first
        and parks on a fresh timeout before the second arrives.  The
        second must take it off *that* wait — left subscribed, the
        timeout resumed it once more at t=15 (a stray value sent into an
        unrelated yield, "already triggered" out of ``run()``)."""
        log = []

        def victim(sim):
            for _ in range(3):
                try:
                    yield sim.timeout(10)
                    log.append(("woke", sim.now))
                except Interrupt as intr:
                    log.append((f"interrupted {intr.cause}", sim.now))
            yield sim.timeout(10)
            log.append(("woke", sim.now))

        def attacker(sim, proc):
            yield sim.timeout(5)
            proc.interrupt("a")
            proc.interrupt("b")

        proc = sim.process(victim(sim))
        sim.process(attacker(sim, proc))
        sim.run()
        assert log == [("interrupted a", 5), ("interrupted b", 5),
                       ("woke", 15), ("woke", 25)]
        assert proc.processed and proc.ok

    def test_interrupt_after_the_first_ended_the_process_is_dropped(self, sim):
        def victim(sim):
            try:
                yield sim.timeout(10)
            except Interrupt:
                return "stopped"

        def attacker(sim, proc):
            yield sim.timeout(5)
            proc.interrupt("a")
            proc.interrupt("b")

        proc = sim.process(victim(sim))
        sim.process(attacker(sim, proc))
        sim.run()
        assert proc.value == "stopped"


class TestKernelCallBudget:
    """What the queue itself costs, in the ledger's unit (calls): one
    ``list.append`` per event of an instant that already has a list, one
    ``heappush``/``heappop`` pair per instant, nothing per dispatch."""

    @staticmethod
    def calls(fn):
        """Calls made inside ``fn()``: less the frame of ``fn`` itself
        and the profiler's teardown, which :func:`cost` also counts."""
        return cost(fn)[0] - cost(lambda: None)[0]

    @pytest.mark.parametrize("n", [10, 200])
    def test_same_instant_events_cost_one_call_each(self, n):
        sim = Simulator(seed=1)
        seen = []
        events = [sim.event() for _ in range(n)]
        for ev in events:
            ev.callbacks.append(seen.append)

        def trigger_and_run():
            for ev in events:
                ev.succeed()
            sim.run()

        # per event: the succeed frame, the callback, and the queue's one
        # append; O(1): the instant's heappush/heappop and the first push
        assert self.calls(trigger_and_run) <= 3 * n + 4
        assert seen == events

    def test_fixed_cost_of_a_run(self, sim):
        assert self.calls(sim.run) <= 1
        assert self.calls(lambda: sim.run(until=sim.now + 5)) <= 3
        done = sim.event().succeed()
        sim.run()
        assert self.calls(lambda: sim.run(until=done)) <= 4

        def fresh():
            ev = sim.event().succeed()
            sim.run(until=ev)

        assert self.calls(fresh) <= 12

    def test_a_delayed_succeed_is_its_own_frame(self, sim):
        """``succeed(value, delay)`` checks and enqueues inline: its own
        frame and one C call (the instant's ``append``, or the
        ``heappush`` of an instant with no list yet), no
        ``_schedule``/``_push`` frames.  It lands at the end of that
        instant's NORMAL list, as a timeout made at the same moment."""
        seen = []
        before = sim.timeout(5, "before")
        on_list, fresh = sim.event(), sim.event()
        assert self.calls(lambda: on_list.succeed("delayed", 5)) == 2
        assert self.calls(lambda: fresh.succeed("fresh", 7)) == 2
        after = sim.timeout(5, "after")
        for ev in (before, on_list, fresh, after):
            ev.callbacks.append(lambda ev: seen.append((sim.now, ev.value)))
        sim.run()
        assert seen == [(5, "before"), (5, "delayed"), (5, "after"),
                        (7, "fresh")]


class TestQueueEncapsulation:
    """Only ``repro.sim`` reaches into the queue's structures; everyone
    else goes through ``Simulator._push``/``_schedule`` (whose NORMAL
    case the kernel's own hot paths inline)."""

    SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "repro"

    def test_nothing_outside_the_kernel_touches_the_queue(self):
        pattern = re.compile(r"\._(times|at|urgent|front)\b")
        offenders = [
            f"{path.relative_to(self.SRC)}:{n}"
            for path in sorted(self.SRC.rglob("*.py"))
            if path.parent.name != "sim"
            for n, line in enumerate(path.read_text().splitlines(), 1)
            if pattern.search(line)]
        assert offenders == []

    #: The event builds left outside the kernel, each kept inline by the
    #: budget test named: a constructor call there costs what it pins.
    #: ``DROPPED`` is a ``_PostedWrite``, which has no constructor.
    INLINE_BUILDS = {
        ("pcie/fabric.py", "<module>"):
            "test_pcie_fabric.py::TestOccupancyEventBudget::"
            "test_queued_post_write_cost_from_issue_to_fill",
        ("pcie/fabric.py", "Fabric.post_write"):
            "test_pcie_fabric.py::TestOccupancyEventBudget::"
            "test_queued_post_write_cost_from_issue_to_fill",
        ("pcie/fabric.py", "Fabric.write"):
            "test_fabric_records.py::TestTransactionCost::"
            "test_a_waited_write",
        ("pcie/fabric.py", "_Read._done"):
            "test_fabric_records.py::TestTransactionCost::"
            "test_a_read_two_generators_deep",
    }

    @staticmethod
    def _event_builds(tree):
        """``(qualname, line)`` of each ``X.__new__(...)`` call and each
        write of ``_value``, ``_ok``, ``_processed`` or ``_defused``."""
        fields = {"_value", "_ok", "_processed", "_defused"}

        def targets(node):
            if isinstance(node, (ast.Tuple, ast.List)):
                for elt in node.elts:
                    yield from targets(elt)
            else:
                yield node

        def walk(node, scope):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.ClassDef, ast.FunctionDef)):
                    inner = child.name if scope == "<module>" \
                        else f"{scope}.{child.name}"
                    yield from walk(child, inner)
                    continue
                if isinstance(child, (ast.Assign, ast.AugAssign,
                                      ast.AnnAssign)):
                    written = [target for node in (
                        child.targets if isinstance(child, ast.Assign)
                        else [child.target]) for target in targets(node)]
                    if any(isinstance(target, ast.Attribute)
                           and target.attr in fields for target in written):
                        yield scope, child.lineno
                if (isinstance(child, ast.Call)
                        and isinstance(child.func, ast.Attribute)
                        and child.func.attr == "__new__"):
                    yield scope, child.lineno
                yield from walk(child, scope)

        yield from walk(tree, "<module>")

    def test_nothing_outside_the_kernel_builds_an_event(self):
        """Outside ``repro.sim`` an event is built by its constructor —
        a record by ``Record.__init__`` — and ended by the kernel: no
        ``__new__`` build and no write of an event's outcome fields,
        but for the allow-listed hot paths."""
        found = {(str(path.relative_to(self.SRC)), scope)
                 for path in sorted(self.SRC.rglob("*.py"))
                 if path.parent.name != "sim"
                 for scope, _line in self._event_builds(
                     ast.parse(path.read_text()))}
        assert found == set(self.INLINE_BUILDS)
        tests = pathlib.Path(__file__).parent
        for budget in self.INLINE_BUILDS.values():
            module, cls, name = budget.split("::")
            source = (tests / module).read_text()
            assert f"class {cls}" in source and f"def {name}(" in source

    def test_every_record_is_built_by_the_one_constructor(self):
        import inspect

        import repro.scenarios   # noqa: F401  (imports every layer)
        from repro.sim.resources import Record
        assert not hasattr(Record, "_boot")
        pending = Record.__subclasses__()
        seen = []
        while pending:
            cls = pending.pop()
            seen.append(cls.__name__)
            pending.extend(cls.__subclasses__())
            if "__init__" in vars(cls):
                assert ".__init__(self" in inspect.getsource(cls.__init__)
        assert {"RequestRecord", "Command", "_Fetch", "_Read",
                "_RemoteStage", "_Notice", "_Responses",
                "_Worker"} <= set(seen)

    def test_the_sequence_numbers_are_gone(self):
        from repro.sim.resources import _Sweep
        assert not hasattr(Simulator(seed=1), "_sequence")
        assert "seq" not in _Sweep.__slots__
        stale = re.compile(r"\._sequence\b|\.seq\b")
        assert [path.name for path in sorted(self.SRC.rglob("*.py"))
                if stale.search(path.read_text())] == []
