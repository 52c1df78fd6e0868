"""The PCIe transaction engine.

Routes memory reads and writes from an initiator node to their target —
DRAM, a device BAR, or across NTB windows into another host — charging:

* per-switch-chip forwarding latency (100-150 ns/chip/direction,
  paper Sec. VI) and root-complex traversals;
* NTB LUT translation per window crossing;
* link occupancy: every link on the path is held for the transaction's
  serialization time (cut-through pipe), giving natural FIFO queueing
  under contention;
* target service time (DRAM access or device MMIO handling).

**Posted vs non-posted** (the crux of the paper's Fig. 8 argument):
writes are *posted* — they complete at the initiator immediately and are
delivered after a one-way traversal; reads are *non-posted* — the
initiator waits a full round trip plus target service.  PCIe ordering of
posted writes on the same initiator->destination flow is enforced with a
monotonic-arrival clamp, so an SQE write always lands before the doorbell
write that follows it.

**Every TLP is a record**: an event that walks the transaction's steps
from plain callbacks — a posted write (:class:`_PostedWrite`, its own
delivery event), a waited write (:class:`_WaitedWrite`) and a
non-posted read (:class:`_Read`).  A caller yields the one it waits for,
``data = yield fabric.read(...)`` (docs/performance.md, "Every TLP is a
record").

**Flow records.**  Queue slots, doorbells and bounce-buffer partitions
are hit by the same initiator with the same ``(host, addr, length)``
millions of times per run, and nothing such a TLP needs ever changes
between remaps.  Each transaction therefore makes *one* probe, for its
flow's :class:`_Flow` (one table for posted writes, one for non-posted
reads): the :class:`Resolution`, the hold plan(s), the hop latency split
into a fixed part (NTB translation and target write service folded in)
and the streams it draws from, and the posted-ordering clamp cell.  A
walk also proves an *extent*: every address of the mappings and LUT
windows it crossed resolves the same way, shifted by one offset (an NTB
LUT entry translates a whole segment by one offset, paper Sec. III).  A
record for a new address inside the extent of a record of the same
``(initiator, host, length)`` is that record with its own
:class:`Resolution`; elsewhere it is walked and copies its *route* —
everything but the walk's outcome — from a table keyed by what the
route depends on (:meth:`Fabric._build_flow`).  Correctness contract
(see docs/performance.md):

* one :class:`~repro.pcie.address.Generation` per cluster is bumped by
  every change a walk could see — an address map's ``add``/``remove``,
  an NTB's ``map_window``/``unmap_window``/``set_link_state``, the
  cluster's ``connect`` — and the fabric forgets every record, extent
  and route once it moves: a hit or a copy validates with one compare;
* a hit or a copy replays the walk's per-NTB ``translations``/
  ``bytes_forwarded`` counters in traversal order, so accounting is
  identical to the walk; a downed cable is a walk (the flip moved the
  generation), which raises where :meth:`NtbFunction.translate` does;
* a record holds *which* draw streams a leg consults, never a value, and
  never ``faults`` or who is subscribed to the probe: both are read per TLP;
* no record is kept or copied while ``mem_event`` has subscribers: a
  replay does not call :meth:`NtbFunction.translate`, so its event would
  go missing;
* ``REPRO_NO_ROUTE_CACHE=1`` keeps no record and no route (escape
  hatch, read at Fabric construction): every TLP walks and builds its
  own.
"""

from __future__ import annotations

import dataclasses
import os
from heapq import heappush

from ..config import PcieConfig
from ..memory import HostMemory
from ..sim import Event, HoldPlan, Simulator
from ..sim.resources import Hold, Record, Step
from ..units import serialize_ns
from .address import AddressError
from .device import Bar
from .ntb import NtbFault, NtbFunction
from .tlp import completion_cost, read_request_cost, write_cost
from .topology import Cluster, Host, Node

#: Safety bound on NTB window chains (window -> window -> ...).
MAX_NTB_CROSSINGS = 3


class _PostedWrite(Hold):
    """One posted-write TLP in flight; the record *is* its delivery
    event.  It is queued once, for the delivery instant: by the inline
    issue or, when a link was busy, by :meth:`_held`.  A queued TLP is
    its own :class:`~repro.sim.resources.Hold`: it walks its plan's links
    from the issue's URGENT boot event (one per burst,
    :meth:`Fabric.post_writes`) and, once it holds them and the pipe has
    filled, pushes itself for delivery.  Interrupting a process parked
    on it does not cancel the walk (a posted write, once issued, is
    delivered).  The issue builds it inline, with no constructor frame
    (``test_queued_post_write_cost_from_issue_to_fill`` has no room for
    one)."""

    __slots__ = ("fabric", "flow", "addr", "data", "boot")

    def _held(self, _fill: Event | None) -> None:
        """The links are held and the pipe has filled as of now: draw
        the arrival, apply the posted-ordering clamp and queue the
        delivery at the end of its instant's list."""
        # hot-path
        flow = self.flow
        latency = flow.fixed
        for draw in flow.draws:
            try:
                latency += draw.buf[draw.pos]
                draw.pos += 1
            except IndexError:
                latency += draw.refill()
        faults = self.fabric.faults
        if faults is not None:
            latency += faults.tlp_delay_ns(*flow.ends)
        sim = self.sim
        when = sim._now + latency
        clamp = flow.clamp
        if when < clamp[0]:
            when = clamp[0]     # posted ordering: never pass an earlier write
        else:
            clamp[0] = when
        at = sim._at
        if when in at:
            at[when].append(self)
        else:
            at[when] = [self]
            heappush(sim._times, when)

    def _deliver(self, _self: Event) -> None:
        # hot-path
        fabric = self.fabric
        res = self.flow.res
        data = self.data
        if res.kind == "mem":
            res.memory.write(res.addr, data)
        else:
            res.bar.function.mmio_write(res.bar, res.offset, data)
        for f in fabric.probe.tlp_done:
            f(fabric, False, self.addr, len(data), res, None)

    def cancel(self) -> None:
        """Nothing to cancel: the walk goes on without the waiter."""


class _WaitedWrite(_PostedWrite):
    """A :meth:`Fabric.write`: a posted write whose issuer waits for its
    delivery, and so owns it.  Its walk starts inline (no boot); the
    arrival is drawn once the links are held and the pipe has filled,
    and the delivery runs ahead of the waiter's resume.  Interrupting
    the waiter stops the TLP: queueing, it leaves the FIFO; filling,
    :meth:`_held` pushes nothing; queued for delivery, it is dispatched
    and delivers nothing."""

    __slots__ = ()

    def _held(self, fill: Event | None) -> None:
        # hot-path
        if self.callbacks:      # else the waiter left (cancel)
            _PostedWrite._held(self, fill)

    def cancel(self) -> None:
        Hold.cancel(self)
        self.callbacks = []


#: What :meth:`Fabric.write` and :meth:`Fabric.post_write` return for a
#: dropped write: an event already processed (a waiter's ``yield``
#: resumes at once, with None) whose ``callbacks`` is None, so nothing
#: can subscribe to a delivery that never comes.
DROPPED = _PostedWrite.__new__(_PostedWrite)
DROPPED.callbacks = None
DROPPED._value = None
DROPPED._ok = True
DROPPED._processed = True
DROPPED._defused = False


class _Read(Record):
    """One non-posted read in flight, walked from callbacks: request
    leg (links, then the flight on the record's timer), target service
    (the timer again), completion leg (links, flight).  The last step
    runs the subscribers inline with the data: the read itself is never
    queued.  A dropped request sits out the
    completion timeout and fails with :class:`FabricFaultError`, a
    short MMIO read fails with :class:`AddressError` (``Record._fail``).
    The data read at the target waits in ``data`` for the way back."""

    __slots__ = ("fabric", "flow", "addr", "length", "data")

    def _sent(self, _fill: Event | None) -> None:
        """The request holds its links (if any) and has filled: fly.
        ``Fabric.faults`` is read here, not at issue: the two differ
        only for a registry swapped in while a read is queued or
        filling, which no rig does."""
        # hot-path
        if self.callbacks is None:
            return              # the waiter left while the pipe filled
        flow = self.flow
        latency = flow.fixed
        for draw in flow.draws:
            try:
                latency += draw.buf[draw.pos]
                draw.pos += 1
            except IndexError:
                latency += draw.refill()
        faults = self.fabric.faults
        if faults is not None:
            latency += faults.tlp_delay_ns(*flow.ends)
        self._arm(latency, self._arrived)

    def _arrived(self, _timer: Event) -> None:
        """At the target: its service time."""
        # hot-path
        self._arm(self.flow.service, self._served)

    def _served(self, _timer: Event) -> None:
        """Serviced: fetch the data, then take the way back."""
        # hot-path
        flow = self.flow
        res = flow.res
        length = self.length
        if res.kind == "mem":
            self.data = res.memory.read(res.addr, length)
        else:
            self.data = data = res.bar.function.mmio_read(
                res.bar, res.offset, length)
            if len(data) != length:
                self._fail(AddressError(
                    f"{res.bar.function.name} returned {len(data)} "
                    f"bytes for a {length}-byte read"))
                return
        plan = flow.rplan
        if not plan:
            self._returned(None)
        elif plan.take(self._returned) is None:
            self.plan = plan
            self._index = 0
            self._step = _Read._returned
            self._claim(None)

    def _returned(self, _fill: Event | None) -> None:
        """The completion holds its links (if any) and has filled."""
        # hot-path
        if self.callbacks is None:
            return              # the waiter left while the pipe filled
        flow = self.flow
        latency = flow.rfixed
        for draw in flow.rdraws:
            try:
                latency += draw.buf[draw.pos]
                draw.pos += 1
            except IndexError:
                latency += draw.refill()
        self._arm(latency, self._done)

    def _done(self, _timer: Event) -> None:
        """The completion is back: the data goes to the subscribers."""
        # hot-path
        fabric = self.fabric
        for f in fabric.probe.tlp_done:
            f(fabric, True, self.addr, self.length, self.flow.res, None)
        callbacks, self.callbacks = self.callbacks, None
        self._value = self.data
        self._processed = True
        for callback in callbacks:
            callback(self)

    def _timed_out(self, point: str) -> None:
        """The completion timeout of a request dropped at ``point`` ran
        out."""
        fabric = self.fabric
        for f in fabric.probe.tlp_done:
            f(fabric, True, self.addr, 0, None, point)
        self._fail(FabricFaultError(point, self.addr))


class FabricFaultError(Exception):
    """A non-posted transaction ended in a completion timeout because a
    fault point on its path was down or dropped the TLP, or an NTB on
    it has no LUT window for the address.  Raised to the
    initiator *after* ``PcieConfig.completion_timeout_ns`` has elapsed,
    mirroring real completion-timeout semantics.  Inside the fabric it
    also carries the point from the probe to a posted write's drop."""

    def __init__(self, point: str, addr: int) -> None:
        super().__init__(f"completion timeout at {point} (addr {addr:#x})")
        self.point = point
        self.addr = addr


@dataclasses.dataclass(slots=True)
class Resolution:
    """Outcome of walking an address through NTB windows to its target."""

    kind: str                    # "mem" | "mmio"
    host: Host                   # host whose space finally contains it
    node: Node                   # topology node of the target
    crossings: int               # NTB windows traversed
    memory: HostMemory | None = None
    addr: int = 0                # final physical address (mem) …
    bar: Bar | None = None
    offset: int = 0              # … or offset within the BAR (mmio)


class _Flow:
    """Everything a TLP from one initiator to one ``(host, addr,
    length)`` needs (module docstring); a read's also has the way back."""

    __slots__ = (
        "res",
        "ntbs",         # the NTBs crossed, in walk order
        "lo", "last",   # every addr in [lo, last] resolves the same way,
        "delta",        # to addr + delta (res.addr, or res.offset: mmio)
        "ends",         # (first, final) host name: the fault points crossed
        "plan",         # HoldPlan of the way there, () with nothing to hold
        "fixed",        # its latency but for the draws (write: to delivery)
        "draws",        # (BufferedDraw, ...), one per switch chip crossed
        "clamp",        # write: [last arrival], shared per (initiator, host)
        "service",      # read: the target's read latency
        "rplan", "rfixed", "rdraws")    # read: the completion's way back

    def take_route(self, route: _Flow, read: bool) -> None:
        """Share ``route``'s plans, latency split and clamp or service
        time (a route from :meth:`Fabric._route`, or another record)."""
        self.plan = route.plan
        self.fixed = route.fixed
        self.draws = route.draws
        if read:
            self.service = route.service
            self.rplan = route.rplan
            self.rfixed = route.rfixed
            self.rdraws = route.rdraws
        else:
            self.clamp = route.clamp


class Fabric:
    """Transaction router over a :class:`~repro.pcie.topology.Cluster`."""

    def __init__(self, sim: Simulator, cluster: Cluster,
                 config: PcieConfig) -> None:
        self.sim = sim
        self.probe = sim.probe
        self.cluster = cluster
        self.config = config
        #: optional FaultPointRegistry consulted on every transaction;
        #: None keeps the fault-free hot path branch-light.
        self.faults = None
        #: accounting
        self.posted_writes = 0
        self.posted_bytes = 0
        self.reads = 0
        self.read_bytes = 0
        self.dropped_writes = 0
        self.timed_out_reads = 0
        # (initiator, host, addr, length) -> _Flow: posted writes, reads.
        self._flows: tuple[dict, dict] = ({}, {})
        # (initiator, host, length) -> [walked _Flow, ...] whose extents
        # a cold address is looked up in: posted writes, reads.
        self._walked: tuple[dict, dict] = ({}, {})
        # (read, initiator, node, host, crossings, kind, length) -> the
        # route a walked record copies (_build_flow).
        self._routes: dict[tuple, _Flow] = {}
        self._memo = os.environ.get("REPRO_NO_ROUTE_CACHE") != "1"
        # The cluster's generation, and its value the tables hold for.
        self._generation = cluster.generation
        self._seen = cluster.generation.value
        # Posted-ordering clamp: (initiator node, final host) -> [last
        # arrival time of a posted write on that flow]; the cell is
        # shared by every write record of the pair (SQE store, doorbell).
        self._clamps: dict[tuple[Node, Host], list[int]] = {}
        # (path, wire_bytes) -> HoldPlan | ()
        self._occupy_plans: dict[tuple, HoldPlan | tuple] = {}

    # -- address resolution ----------------------------------------------------

    def resolve(self, host: Host, addr: int, length: int) -> Resolution:
        """Walk ``addr`` in ``host``'s space through NTB windows until it
        lands on DRAM or a device BAR."""
        return self._walk(host, addr, length).res

    def _walk(self, host: Host, addr: int, length: int) -> _Flow:
        """:meth:`resolve` into a new record: ``res``, ``ntbs``, ``ends``
        and the extent the walk proved — the intersection of every
        mapping and LUT window it crossed, taken back to ``addr``'s
        space, and the offset by which all of it moved.  The NTBs count
        the crossings themselves."""
        flow = _Flow()
        first = host.name
        lo, hi = 0, 1 << 64     # the extent, in the space of the TLP
        shift = 0               # addr now - the TLP's addr
        ntbs: list[NtbFunction] = []
        while True:
            mapping = host.addr_map.lookup(addr, length)
            lo = max(lo, mapping.base - shift)
            hi = min(hi, mapping.base + mapping.size - shift)
            target = mapping.target
            if isinstance(target, HostMemory):
                flow.res = Resolution("mem", host, host.rc, len(ntbs),
                                      target, addr)
                flow.delta = shift
                break
            if isinstance(target, Bar):
                fn = target.function
                if isinstance(fn, NtbFunction):
                    if len(ntbs) >= MAX_NTB_CROSSINGS:
                        raise AddressError(
                            f"NTB window chain longer than "
                            f"{MAX_NTB_CROSSINGS} at {addr:#x}")
                    window = fn.translate(target, addr, length)
                    ntbs.append(fn)
                    start = target.base + window.bar_offset
                    lo = max(lo, start - shift)
                    hi = min(hi, start + window.size - shift)
                    moved = window.remote_base - start
                    host = window.remote_host
                    addr += moved
                    shift += moved
                    continue
                assert fn.node is not None and fn.host is not None
                flow.res = Resolution("mmio", fn.host, fn.node, len(ntbs),
                                      bar=target,
                                      offset=target.offset_of(addr))
                flow.delta = shift - target.base
                break
            raise AddressError(
                f"unroutable target {target!r} at {addr:#x}")
        flow.ntbs = tuple(ntbs)
        flow.lo = lo
        flow.last = hi - length
        flow.ends = (first, flow.res.host.name)
        return flow

    def _flow(self, read: bool, initiator: Node, host: Host, addr: int,
              length: int) -> _Flow:
        """The one probe of a transaction: its flow's record, with the
        walk's NTB counters replayed — or, where there is none, one
        filled by :meth:`_fill` — then the fault draws.  The records are
        valid while the cluster's generation stands (module docstring).
        Raises :class:`FabricFaultError` naming the severed adapter, the
        NTB whose LUT the address misses, or the fault point that
        swallows the TLP."""
        # hot-path
        if self._seen != self._generation.value:
            self._forget()
        try:
            flow = self._flows[read][initiator, host, addr, length]
        except KeyError:
            flow = self._fill(read, initiator, host, addr, length)
        else:
            for fn in flow.ntbs:
                fn.translations += 1
                fn.bytes_forwarded += length
        faults = self.faults
        if faults is not None:
            # link_blocked before tlp_dropped: the latter draws.
            point = (faults.link_blocked(*flow.ends)
                     or faults.tlp_dropped(self.sim.rng, *flow.ends))
            if point is not None:
                raise FabricFaultError(point, addr)
        return flow

    def _forget(self) -> None:
        """The generation moved: no record, extent or route holds."""
        for table in (*self._flows, *self._walked):
            table.clear()
        self._routes.clear()
        self._seen = self._generation.value

    def _fill(self, read: bool, initiator: Node, host: Host, addr: int,
              length: int) -> _Flow:
        """A record for a TLP whose flow has none: a copy of the record
        whose extent covers ``addr`` — its own :class:`Resolution`, the
        NTB counters replayed as on a hit — else walked and built.  Kept
        unless the escape hatch is set or someone watches the crossings
        (``mem_event``: a replay skips :meth:`NtbFunction.translate`)."""
        keep = self._memo and not self.probe.mem_event
        if keep:
            walked = self._walked[read].setdefault(
                (initiator, host, length), [])
            for proto in walked:
                if proto.lo <= addr <= proto.last:
                    flow = _Flow()
                    res = proto.res
                    moved = addr + proto.delta
                    if res.kind == "mem":
                        flow.res = Resolution("mem", res.host, res.node,
                                              res.crossings, res.memory,
                                              moved)
                    else:
                        flow.res = Resolution("mmio", res.host, res.node,
                                              res.crossings, bar=res.bar,
                                              offset=moved)
                    flow.ntbs = proto.ntbs
                    flow.ends = proto.ends
                    flow.take_route(proto, read)
                    for fn in flow.ntbs:
                        fn.translations += 1
                        fn.bytes_forwarded += length
                    self._flows[read][(initiator, host, addr, length)] = flow
                    return flow
        try:
            flow = self._build_flow(read, initiator, host, addr, length)
        except NtbFault as fault:
            raise FabricFaultError(fault.point, addr) from None
        if keep:
            self._flows[read][(initiator, host, addr, length)] = flow
            walked.append(flow)
        return flow

    def _build_flow(self, read: bool, initiator: Node, host: Host,
                    addr: int, length: int) -> _Flow:
        """Walk, then fill in the route: what the record caches from the
        path.  Every extent of one route shares it (the queue rings and
        bounce buffers of one host behind one adapter), so it is derived
        once per ``(read, initiator, target node, host, crossings, kind,
        length)`` and generation."""
        flow = self._walk(host, addr, length)
        res = flow.res
        key = (read, initiator, res.node, res.host, res.crossings,
               res.kind, length)
        route = self._routes.get(key)
        if route is None:
            route = self._route(read, initiator, res, length)
            if self._memo:
                self._routes[key] = route
        flow.take_route(route, read)
        return flow

    def _route(self, read: bool, initiator: Node, res: Resolution,
               length: int) -> _Flow:
        """Derive a route from the path: a :class:`_Flow` holding only
        the plans, the latency split and the clamp or service time."""
        cfg = self.config
        cluster = self.cluster
        route = _Flow()
        mem = res.kind == "mem"
        path = cluster.path(initiator, res.node)
        fixed, route.draws = cluster.hop_plan(path)
        fixed += res.crossings * cfg.ntb_translation_ns
        if read:
            # Request leg: headers only; the data flows back.
            route.plan = self._hold_plan(
                path, read_request_cost(length, cfg).bytes_on_wire)
            route.service = (cfg.memory_read_latency_ns if mem
                             else cfg.device_mmio_read_ns)
            rpath = path[::-1]
            route.rplan = self._hold_plan(
                rpath, completion_cost(length, cfg).bytes_on_wire)
            route.rfixed, route.rdraws = cluster.hop_plan(rpath)
        else:
            route.plan = self._hold_plan(
                path, write_cost(length, cfg).bytes_on_wire)
            fixed += (cfg.memory_write_latency_ns if mem
                      else cfg.device_mmio_write_ns)
            route.clamp = self._clamps.setdefault((initiator, res.host),
                                                  [0])
        route.fixed = fixed
        return route

    # -- link occupancy -----------------------------------------------------------

    def _hold_plan(self, path: tuple[Node, ...], wire_bytes: int):
        """Occupancy of the links on the path for the transfer
        (cut-through): a :class:`~repro.sim.HoldPlan`, ``()`` when there
        is nothing to hold.  One per ``(path, wire_bytes)``, whichever
        flows share it: the plan owns its release timers.

        Links are acquired in a canonical global order (deadlock-free);
        each link is then held for *its own* serialization time — a
        slow edge link (e.g. the device's Gen3 x4) must not inflate the
        occupancy of faster shared links, or unrelated flows through a
        cluster switch would be throttled to the slowest device's rate.
        The caller's latency charge is the slowest stage (the pipe's
        fill time, ``plan.fill``).  Free links are claimed by count, no
        grant event (the dominant case by far); busy ones queue FIFO.
        """
        plan = self._occupy_plans.get((path, wire_bytes))
        if plan is None:
            trips = self.cluster.links_on(path)
            plan = ()
            if trips and wire_bytes > 0:
                plan = HoldPlan(self.sim, [
                    (link.resource(a, b),
                     serialize_ns(wire_bytes, link.bandwidth))
                    for link, a, b in trips])
            self._occupy_plans[(path, wire_bytes)] = plan
        return plan

    # -- transactions ------------------------------------------------------------

    def write(self, initiator: Node, host: Host, addr: int,
              data: bytes | bytearray | memoryview,
              step: Step | None = None) -> Event:
        """Posted memory write whose delivery the caller waits on:
        returns the delivery event, ``yield fabric.write(...)``, which
        runs ``step`` after the delivery when given.  The TLP is a
        record (:class:`_WaitedWrite`) walking from the call; a dropped
        write returns :data:`DROPPED`, already processed, and the
        caller runs its step itself.

        Callers that do not wait for delivery should use
        :meth:`post_write`, the hardware-accurate behaviour for CPU
        stores and device DMA writes: its TLP belongs to no waiter.
        """
        # hot-path
        if type(data) is not bytes:
            data = bytes(data)
        length = len(data)
        try:
            flow = self._flow(False, initiator, host, addr, length)
        except FabricFaultError as lost:
            self._drop_write(lost.point, addr, length)
            return DROPPED
        self.posted_writes += 1
        self.posted_bytes += length
        sim = self.sim
        tlp = _WaitedWrite.__new__(_WaitedWrite)
        tlp.sim = sim
        tlp.callbacks = [tlp._deliver, step] if step else [tlp._deliver]
        tlp._value = None
        tlp._ok = True
        tlp._processed = False
        tlp._defused = False
        tlp._grant = None
        tlp.fabric = self
        tlp.flow = flow
        tlp.addr = addr
        tlp.data = data
        plan = flow.plan
        if not plan:
            _PostedWrite._held(tlp, None)
        elif plan.take(tlp._held) is None:
            tlp.plan = plan
            tlp._index = 0
            tlp._claim(None)
        return tlp

    def _drop_write(self, point: str, addr: int, size: int) -> None:
        """Posted semantics: the write vanishes silently at the severed
        adapter or lossy point; the initiator never learns."""
        self.dropped_writes += 1
        for f in self.probe.tlp_done:
            f(self, False, addr, size, None, point)

    def post_write(self, initiator: Node, host: Host, addr: int,
                   data: bytes | bytearray | memoryview,
                   after: _PostedWrite | None = None, length: int = 0):
        """Fire-and-forget posted write.

        Returns an event that triggers at delivery (callers may append
        callbacks to it); a dropped write has no delivery instant and
        returns :data:`DROPPED`, whose ``callbacks`` is None.  ``after``
        and ``length`` (of bytes ``data``) are for :meth:`post_writes`.
        """
        # hot-path: with every link on the path free the whole issue runs
        # inline — no boot, no grant events.  A contended issue queues for
        # the links from a boot event at this instant (where a spawned
        # process would start), *after* the side-effecting steps (the
        # probe's replay, fault draws, accounting) have run exactly once.
        if type(data) is not bytes:
            data = bytes(data)
        length = length or len(data)
        try:
            flow = self._flow(False, initiator, host, addr, length)
        except FabricFaultError as lost:
            self._drop_write(lost.point, addr, length)
            return DROPPED
        self.posted_writes += 1
        self.posted_bytes += length
        sim = self.sim
        tlp = _PostedWrite.__new__(_PostedWrite)
        tlp.sim = sim
        tlp.callbacks = [tlp._deliver]
        tlp._value = None
        tlp._ok = True
        tlp._processed = False
        tlp._defused = False
        tlp.fabric = self
        tlp.flow = flow
        tlp.addr = addr
        tlp.data = data
        tlp.boot = boot = None if after is None else after.boot
        plan = flow.plan
        if not plan:
            fill = 0
        elif (boot is None or after.plan is not plan) \
                and plan.take() is not None:
            fill = plan.fill
        else:
            # Queue from the burst's boot.  Behind a predecessor queued
            # on this plan the take must fail, so it is skipped: it is
            # pure, and since the predecessor's failed only claims,
            # which make links busier, have run.
            tlp.plan = plan
            tlp._index = 0
            tlp._grant = None
            if boot is None:
                tlp.boot = boot = Event(sim)
                sim._urgent.append(boot)
            boot.callbacks.append(tlp._claim)
            return tlp
        tlp.plan = None
        # :meth:`_PostedWrite._held` with the pipe still to fill, inline
        # (its one call would be a tenth of what an uncontended issue
        # makes).
        latency = fill + flow.fixed
        for draw in flow.draws:
            try:
                latency += draw.buf[draw.pos]
                draw.pos += 1
            except IndexError:
                latency += draw.refill()
        faults = self.faults
        if faults is not None:
            latency += faults.tlp_delay_ns(*flow.ends)
        when = sim._now + latency
        clamp = flow.clamp
        if when < clamp[0]:
            when = clamp[0]     # posted ordering: never pass an earlier write
        else:
            clamp[0] = when
        at = sim._at
        if when in at:
            at[when].append(tlp)
        else:
            at[when] = [tlp]
            heappush(sim._times, when)
        return tlp

    def post_writes(self, initiator: Node, host: Host,
                    segments: list[tuple[int, int]], data: bytes) -> None:
        """A burst of posted writes at one instant, in order (a DMA
        train): ``data`` cut into a :meth:`post_write` per ``(addr, size)``
        segment, each handed its predecessor, so those that must queue
        share a boot event (docs/performance.md, "Order preservation")."""
        # hot-path
        after = None
        offset = 0
        for addr, size in segments:
            tlp = self.post_write(initiator, host, addr,
                                  data[offset: offset + size], after, size)
            offset += size
            if tlp is not DROPPED:
                after = tlp

    def read(self, initiator: Node, host: Host, addr: int, length: int,
             step: Step | None = None) -> Event:
        """Non-posted memory read: returns the event that fires with the
        data bytes, ``data = yield fabric.read(...)`` — a record
        (:class:`_Read`) walking the round trip from the call, born
        subscribed with ``step`` when given.

        Charges the full round trip: request leg, target service,
        completion leg with data serialization — "the longer the path
        between a device and the memory it reads from, the higher the
        request-completion latency becomes" (paper Sec. V).  A read the
        fabric drops fails with :class:`FabricFaultError` once
        ``PcieConfig.completion_timeout_ns`` has elapsed, mirroring real
        completion-timeout semantics.
        """
        # hot-path
        if length <= 0:
            raise ValueError("read length must be positive")
        rd = _Read(self.sim, None, step)
        rd.fabric = self
        rd.addr = addr
        rd.length = length
        try:
            flow = self._flow(True, initiator, host, addr, length)
        except FabricFaultError as lost:
            # The completion never arrives: the initiator sits out its
            # completion timeout, then sees the failure.
            self.timed_out_reads += 1
            point = lost.point
            rd._arm(self.config.completion_timeout_ns,
                    lambda _timer: rd._timed_out(point))
            return rd
        self.reads += 1
        self.read_bytes += length
        rd.flow = flow
        plan = flow.plan
        if not plan:
            rd._sent(None)
        elif plan.take(rd._sent) is None:
            rd.plan = plan
            rd._index = 0
            rd._step = _Read._sent
            rd._claim(None)
        return rd
