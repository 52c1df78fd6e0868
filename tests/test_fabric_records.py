"""Every TLP is a record: :meth:`Fabric.read` and :meth:`Fabric.write`
walk from plain callbacks, and a caller writes ``data = yield
fabric.read(...)`` / ``yield fabric.write(...)``.

The coroutines they replaced are kept here as the reference (as
``TestHoldPlan`` keeps the ``_occupy`` generator): driven over the same
schedules — several initiators on shared links, faults, short MMIO
reads, interrupted waiters — both must leave the same trace, links,
memory, ``tlp_done`` log and event count."""

import ast
import pathlib
from inspect import GEN_SUSPENDED, getgeneratorstate

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro
from repro.faults import FaultPointRegistry
from repro.pcie import AddressError, Fabric
from repro.pcie.fabric import DROPPED, FabricFaultError
from repro.sim import Interrupt

from .hostcost import cost
from .test_pcie_fabric import build_two_host_cluster


def _latency(fixed, draws):
    for draw in draws:
        try:
            fixed += draw.buf[draw.pos]
            draw.pos += 1
        except IndexError:
            fixed += draw.refill()
    return fixed


def read_reference(fabric, initiator, host, addr, length):
    """``Fabric.read`` as the coroutine it was at ffdb3f2, kept as the
    reference (``_read_timeout`` folded in)."""
    if length <= 0:
        raise ValueError("read length must be positive")
    try:
        flow = fabric._flow(True, initiator, host, addr, length)
    except FabricFaultError as lost:
        fabric.timed_out_reads += 1
        yield fabric.sim.timeout(fabric.config.completion_timeout_ns)
        for f in fabric.probe.tlp_done:
            f(fabric, True, addr, 0, None, lost.point)
        raise FabricFaultError(lost.point, addr) from None
    faults = fabric.faults
    fabric.reads += 1
    fabric.read_bytes += length
    sim = fabric.sim
    if flow.plan:
        yield flow.plan.hold()
    latency = _latency(flow.fixed, flow.draws)
    if faults is not None:
        latency += faults.tlp_delay_ns(*flow.ends)
    yield sim.timeout(latency)
    yield sim.timeout(flow.service)
    res = flow.res
    if res.kind == "mem":
        data = res.memory.read(res.addr, length)
    else:
        data = res.bar.function.mmio_read(res.bar, res.offset, length)
        if len(data) != length:
            raise AddressError(
                f"{res.bar.function.name} returned {len(data)} "
                f"bytes for a {length}-byte read")
    if flow.rplan:
        yield flow.rplan.hold()
    yield sim.timeout(_latency(flow.rfixed, flow.rdraws))
    for f in fabric.probe.tlp_done:
        f(fabric, True, addr, length, res, None)
    return data


def write_reference(fabric, initiator, host, addr, data):
    """``Fabric.write`` as the coroutine it was at ffdb3f2."""
    if type(data) is not bytes:
        data = bytes(data)
    length = len(data)
    try:
        flow = fabric._flow(False, initiator, host, addr, length)
    except FabricFaultError as lost:
        fabric._drop_write(lost.point, addr, length)
        return
    fabric.posted_writes += 1
    fabric.posted_bytes += length
    if flow.plan:
        yield flow.plan.hold()
    sim = fabric.sim
    latency = _latency(flow.fixed, flow.draws)
    if fabric.faults is not None:
        latency += fabric.faults.tlp_delay_ns(*flow.ends)
    # posted ordering: never before an earlier write of the flow's pair
    flow.clamp[0] = arrival = max(sim.now + latency, flow.clamp[0])
    yield sim.timeout(arrival - sim.now)
    res = flow.res
    if res.kind == "mem":
        res.memory.write(res.addr, data)
    else:
        res.bar.function.mmio_write(res.bar, res.offset, data)
    for f in fabric.probe.tlp_done:
        f(fabric, False, addr, length, res, None)


class _TlpLog:
    """Every ``tlp_done``, with its instant."""

    def __init__(self, sim):
        self.sim = sim
        self.seen = []

    def on_tlp_done(self, fabric, read, addr, size, res, lost_at):
        self.seen.append((self.sim.now, read, addr, size,
                          None if res is None else res.kind, lost_at))


REGION = 64 * 1024
#: bytes a short-reading BAR returns one short of, from this offset on
SHORT_FROM = 2048
SIZES = (8, 64, 512, 4096)


def rig(seed=21):
    """The two-host cluster with six routes over shared links: the
    client CPU through the NTB into device-host DRAM and into the
    device's BAR, the device-host CPU to its own DRAM (no link) and to
    the BAR, the device DMAing to its host's DRAM and across the NTB to
    the client's.  The BAR reads one byte short from ``SHORT_FROM``."""
    sim, cluster, fabric, devhost, client, scratch, ntb_a, ntb_b = \
        build_two_host_cluster(seed)
    full = scratch.mmio_read
    scratch.mmio_read = lambda bar, offset, length: (
        full(bar, offset, length)[:length - (offset >= SHORT_FROM)])
    faults = FaultPointRegistry(sim)
    for name in ("link:client", "link:devhost"):
        faults.register(name)
    fabric.faults = faults
    dram = devhost.alloc_dma(REGION)
    cmem = client.alloc_dma(REGION)
    bar = scratch.bars[0].base
    routes = (
        (client.rc, client, ntb_b.map_window(devhost, dram, REGION), REGION),
        (client.rc, client, ntb_b.map_window(devhost, bar, 4096), 4096),
        (devhost.rc, devhost, dram, REGION),
        (devhost.rc, devhost, bar, 4096),
        (scratch.node, devhost, dram, REGION),
        (scratch.node, devhost, ntb_a.map_window(client, cmem, REGION),
         REGION),
    )
    memory = ((devhost.memory, dram), (client.memory, cmem))
    return sim, cluster, fabric, faults, ntb_b, scratch, routes, memory


def play(ops, faults_on, outage, victim, reference, seed=21):
    """Run ``ops`` — ``(start, route, kind, size, slot)``, kind one of
    read / write (waited) / post (a waiter parked on ``post_write``) —
    through the records or the reference coroutines.  ``faults_on``:
    drop probability on the client's link and an injected delay on
    the device host's; ``outage``: the client NTB's cable pulled at
    ``start`` for ``duration``; ``victim``: ``(op, k)``, interrupt op's
    waiter once ``k`` events have been dispatched.  Returns the trace,
    every distinct link state, the ``tlp_done`` log, memory and the
    fabric's counters, and the event count."""
    sim, cluster, fabric, faults, ntb_b, scratch, routes, memory = rig(seed)
    tlps = sim.probe.subscribe(_TlpLog(sim))
    if faults_on:
        faults.set_drop("link:client", 0.3)
        faults.set_delay("link:devhost", 37)
    links = [link.resource(a, b) for link in cluster.links
             for a, b in ((link.a, link.b), (link.b, link.a))]
    trace = []
    procs = []
    tickets = {}

    def op(tag, start, route, kind, size, slot):
        initiator, host, base, span = routes[route]
        offset = min(slot * 256, span - size)
        try:
            yield sim.timeout(start)
            if kind == "read":
                if reference:
                    value = yield from read_reference(
                        fabric, initiator, host, base + offset, size)
                else:
                    value = yield fabric.read(initiator, host,
                                              base + offset, size)
            else:
                data = bytes([tag + 1]) * size
                if kind == "post":
                    ticket = fabric.post_write(initiator, host,
                                               base + offset, data)
                    tickets[id(ticket)] = tag
                    value = yield ticket
                elif reference:
                    value = yield from write_reference(
                        fabric, initiator, host, base + offset, data)
                else:
                    value = yield fabric.write(initiator, host,
                                               base + offset, data)
        except Interrupt:
            value = "interrupted"
        except FabricFaultError as lost:
            value = ("timed out", lost.point)
        except AddressError:
            value = "short"
        trace.append((sim.now, tag, value))

    def cable(start, duration):
        yield sim.timeout(start)
        ntb_b.set_link_state(False)
        yield sim.timeout(duration)
        ntb_b.set_link_state(True)

    for tag, spec in enumerate(ops):
        procs.append(sim.process(op(tag, *spec)))
    if outage is not None:
        sim.process(cable(*outage))

    def who(grant):
        owner = grant.callbacks[0].__self__
        for tag, proc in enumerate(procs):
            if proc._target is owner:
                return tag
        return tickets.get(id(owner), "?")

    states = []
    state = None
    while sim.peek() is not None:
        if victim is not None and sim.events_processed == victim[1]:
            proc = procs[victim[0] % len(procs)]
            if getgeneratorstate(proc._generator) == GEN_SUSPENDED:
                trace.append((sim.now, "interrupt", victim[0] % len(procs)))
                proc.interrupt()
        sim.step()
        was, state = state, tuple(
            (res.count, tuple(who(grant) for grant in res._waiting))
            for res in links)
        if state != was:
            states.append((sim.now, state))
    assert all(res.count == 0 and not res.queued for res in links)
    contents = tuple(mem.read(base, REGION) for mem, base in memory)
    counters = (fabric.posted_writes, fabric.posted_bytes, fabric.reads,
                fabric.read_bytes, fabric.dropped_writes,
                fabric.timed_out_reads)
    return (trace, states, tlps.seen, contents, bytes(scratch.backing),
            counters, sim.events_processed)


OPS = st.lists(st.tuples(
    st.integers(0, 3000),
    st.integers(0, 5),
    st.sampled_from(["read", "read", "write", "post"]),
    st.sampled_from(SIZES),
    st.integers(0, 15)), min_size=1, max_size=10)


class TestRecordsMatchTheCoroutines:
    @settings(max_examples=250, deadline=None)
    @given(ops=OPS, faults_on=st.booleans(),
           outage=st.one_of(st.none(), st.tuples(st.integers(0, 3000),
                                                 st.integers(1, 40_000))),
           victim=st.one_of(st.none(), st.tuples(st.integers(0, 9),
                                                 st.integers(0, 60))))
    @example(ops=[(0, 1, "read", 4096, 0), (10, 1, "read", 64, 0),
                  (20, 4, "write", 4096, 0)],
             faults_on=False, outage=None, victim=(1, 9))
    @example(ops=[(0, 0, "read", 64, 0), (0, 1, "read", 64, 12)],
             faults_on=False, outage=(0, 5), victim=None)
    @example(ops=[(0, 0, "post", 4096, 0), (0, 0, "write", 64, 1),
                  (0, 0, "read", 8, 2)],
             faults_on=True, outage=None, victim=(1, 3))
    def test_same_walk_as_the_coroutines(self, ops, faults_on, outage,
                                         victim):
        assert play(ops, faults_on, outage, victim, reference=False) \
            == play(ops, faults_on, outage, victim, reference=True)

    #: a read through every leg (client CPU -> NTB -> the device's BAR)
    #: queued behind a 4 KiB read, beside a waited write and a post
    SWEEP = [(0, 1, "read", 4096, 0), (5, 1, "read", 64, 1),
             (5, 5, "write", 4096, 3), (9, 5, "post", 512, 7),
             (9, 0, "read", 512, 2), (30, 3, "write", 64, 4)]

    @pytest.mark.parametrize("waiter", range(len(SWEEP)))
    def test_a_waiter_interrupted_at_every_step(self, waiter):
        """Each waiter of one schedule interrupted after each event in
        turn: the TLP stops where the coroutine stopped."""
        *_, events = play(self.SWEEP, True, None, None, reference=True)
        for k in range(events):
            assert play(self.SWEEP, True, None, (waiter, k),
                        reference=False) \
                == play(self.SWEEP, True, None, (waiter, k),
                        reference=True), k


class TestRecordCancel:
    def test_an_interrupt_detaches_and_cancels_twice_harmlessly(self):
        """``interrupt()`` and then ``_interrupted`` each detach: the
        second cancel of a record queued for its links gives nothing
        back twice."""
        sim, cluster, fabric, faults, ntb_b, scratch, routes, _m = rig()
        initiator, host, bar, _span = routes[1]
        done = []

        def reader(size):
            try:
                done.append((yield fabric.read(initiator, host, bar, size)))
            except Interrupt:
                done.append("interrupted")

        sim.process(reader(4096))
        late = sim.process(reader(64))
        sim.step()
        sim.step()
        record = late._target
        assert record._grant is not None and not record._grant._processed
        late.interrupt()
        record.cancel()                 # a third time, by hand
        sim.run()
        assert done == ["interrupted", bytes(4096)]
        assert all(link.resource(a, b).count == 0
                   and not link.resource(a, b).queued
                   for link in cluster.links
                   for a, b in ((link.a, link.b), (link.b, link.a)))

    def test_a_dropped_write_is_already_processed(self):
        sim, cluster, fabric, faults, ntb_b, scratch, routes, _m = rig()
        ntb_b.set_link_state(False)
        initiator, host, window, _span = routes[0]
        assert fabric.write(initiator, host, window, b"x") is DROPPED
        assert fabric.post_write(initiator, host, window, b"x") is DROPPED
        assert DROPPED.processed and DROPPED.callbacks is None
        seen = []

        def writer():
            seen.append((yield fabric.write(initiator, host, window, b"y")))

        sim.process(writer())
        sim.run()
        # the boot and the process's completion: the write took none
        assert seen == [None] and sim.events_processed == 2
        assert fabric.dropped_writes == 3


class TestTransactionCost:
    """Budgets through ``tests/hostcost.py::cost``, warmed flows, links
    free.  As coroutines, a read issued two generators deep cost 70
    calls / 1,965 bytecodes and a waited write 43 calls / 1,223
    bytecodes: every resume went through each generator frame of the
    chain.  The events are the same either way.  A waited write that
    drew its arrival in a fabric helper and pushed its delivery through
    ``Simulator._push`` was 41 calls / 1,135 bytecodes."""

    @staticmethod
    def _warm(fn, sim):
        for _ in range(3):
            fn()
        before = sim.events_processed
        calls, bytecodes = cost(fn)
        return calls, bytecodes, sim.events_processed - before

    def test_a_read_two_generators_deep(self):
        sim, cluster, fabric, faults, ntb_b, scratch, routes, _m = rig()
        fabric.faults = None
        initiator, host, window, _span = routes[0]

        def inner():
            return (yield fabric.read(initiator, host, window, 64))

        def outer():
            return (yield from inner())

        def issue():
            sim.run(until=sim.process(outer()))

        calls, bytecodes, events = self._warm(issue, sim)
        empty = cost(lambda: None)
        # boot, two release timers, three owned-timer arms, the end
        assert events == 7
        assert calls - empty[0] == 52
        assert bytecodes - empty[1] <= 1723

    def test_a_waited_write(self):
        sim, cluster, fabric, faults, ntb_b, scratch, routes, _m = rig()
        fabric.faults = None
        initiator, host, window, _span = routes[0]

        def writer():
            yield fabric.write(initiator, host, window, b"w" * 64)

        def issue():
            sim.run(until=sim.process(writer()))

        calls, bytecodes, events = self._warm(issue, sim)
        empty = cost(lambda: None)
        # boot, the release timer, the delivery, the end
        assert events == 4
        assert calls - empty[0] == 38
        assert bytecodes - empty[1] <= 1116


def test_no_transaction_is_a_coroutine():
    """A fabric transaction is a record: ``Fabric`` has no generator
    method, and nothing under ``src/`` ``yield from``s one."""
    root = pathlib.Path(repro.__file__).parent
    source = (root / "pcie" / "fabric.py").read_text()
    fabric_cls, = [node for node in ast.walk(ast.parse(source))
                   if isinstance(node, ast.ClassDef)
                   and node.name == Fabric.__name__]
    assert [fn.name for fn in ast.walk(fabric_cls)
            if isinstance(fn, ast.FunctionDef)
            and any(isinstance(node, (ast.Yield, ast.YieldFrom))
                    for node in ast.walk(fn))] == []
    transactions = {"read", "write", "dma_read", "dma_write", "write_wait",
                    "_read_list_page"}
    offenders = []
    for path in sorted(root.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.YieldFrom)
                    and isinstance(node.value, ast.Call)
                    and isinstance(node.value.func, ast.Attribute)
                    and node.value.func.attr in transactions):
                offenders.append(f"{path.relative_to(root)}:{node.lineno}")
    assert offenders == []
