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

**Route cache.**  Queue slots, doorbells and bounce-buffer partitions are
hit with the same ``(host, addr, length)`` triples millions of times per
run, and each uncached hit re-walks the address map and re-allocates a
:class:`Resolution`.  ``resolve()`` therefore memoizes successful walks.
Correctness contract (see docs/performance.md):

* entries are validated on every hit against the ``version`` of each
  :class:`~repro.pcie.address.AddressMap` consulted and the
  ``lut_version`` of each NTB traversed — remaps rebuild the entry;
* ``link_up`` is checked *live* per crossing in traversal order, and the
  per-NTB ``translations``/``bytes_forwarded`` counters are replayed in
  that same order, so a hit is byte-identical to the uncached walk even
  mid-fault (fault-registry link events flip ``link_up`` directly);
* ``REPRO_NO_ROUTE_CACHE=1`` disables the cache entirely (escape hatch,
  read at Fabric construction).
"""

from __future__ import annotations

import dataclasses
import os
import typing as t

from ..config import PcieConfig
from ..memory import HostMemory
from ..sim import (NULL_TRACER, Event, Process, Simulator, giver,
                   take_all)
from ..units import serialize_ns
from .address import AddressError
from .device import Bar
from .ntb import NtbFunction, NtbLinkDown
from .tlp import completion_cost, read_request_cost, write_cost
from .topology import Cluster, Host, Node

#: Safety bound on NTB window chains (window -> window -> ...).
MAX_NTB_CROSSINGS = 3


class _Ticket:
    """Return value of :meth:`Fabric.post_write` when no delivery event
    exists (dropped writes).  Callers only ever probe ``.callbacks``
    (guarding on None), so a shared inert instance suffices."""

    __slots__ = ()
    callbacks = None


_TICKET = _Ticket()


def _hold_plan(pairs: list) -> tuple:
    """Occupancy plan for links given as ``(resource, hold_ns)`` pairs:
    ``(resources, timers)`` — the resources in canonical acquisition
    order, and one ``(hold_ns, release callback)`` per distinct hold
    time, ascending, so links with equal serialization time share a
    single release timer and the last timer's hold is the longest."""
    pairs.sort(key=lambda p: p[0].order)
    by_hold: dict[int, list] = {}
    for resource, hold in pairs:
        by_hold.setdefault(hold, []).append(resource)
    return (tuple(resource for resource, _hold in pairs),
            tuple((hold, giver(tuple(group)))
                  for hold, group in sorted(by_hold.items())))


class FabricFaultError(Exception):
    """A non-posted transaction ended in a completion timeout because a
    fault point on its path was down or dropped the TLP.  Raised to the
    initiator *after* ``PcieConfig.completion_timeout_ns`` has elapsed,
    mirroring real completion-timeout semantics."""

    def __init__(self, point: str, addr: int) -> None:
        super().__init__(f"completion timeout at {point} (addr {addr:#x})")
        self.point = point
        self.addr = addr


@dataclasses.dataclass(frozen=True, slots=True)
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


class _RouteEntry:
    """One cached resolve() outcome with its invalidation guards."""

    __slots__ = ("res", "map_guards", "ntb_guards")

    def __init__(self, res: Resolution,
                 map_guards: tuple, ntb_guards: tuple) -> None:
        self.res = res
        #: ((AddressMap, version-at-build), ...) in walk order
        self.map_guards = map_guards
        #: ((NtbFunction, lut_version-at-build), ...) in walk order
        self.ntb_guards = ntb_guards


class Fabric:
    """Transaction router over a :class:`~repro.pcie.topology.Cluster`."""

    def __init__(self, sim: Simulator, cluster: Cluster,
                 config: PcieConfig, tracer=NULL_TRACER) -> None:
        self.sim = sim
        self.cluster = cluster
        self.config = config
        self.tracer = tracer
        # Posted-ordering clamp: (initiator node, final host) -> last
        # arrival time of a posted write on that flow.
        self._posted_clamp: dict[tuple[Node, Host], int] = {}
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
        # (host, addr, length) -> _RouteEntry; None when disabled.
        self._route_cache: dict[tuple, _RouteEntry] | None = (
            None if os.environ.get("REPRO_NO_ROUTE_CACHE") == "1" else {})
        # (path, wire_bytes) -> _hold_plan() | ()
        self._occupy_plans: dict[tuple, tuple] = {}
        # payload-length -> bytes_on_wire, per TLP category (pure
        # functions of the frozen config, so plain int memoization).
        self._write_wire: dict[int, int] = {}
        self._read_req_wire: dict[int, int] = {}
        self._cpl_wire: dict[int, int] = {}

    @property
    def tracer(self):
        return self._tracer

    @tracer.setter
    def tracer(self, value) -> None:
        # _trace gates the per-TLP emits on the hot path; keep it in sync
        # so attaching a tracer after construction still records events.
        self._tracer = value
        self._trace = value is not NULL_TRACER

    # -- address resolution ----------------------------------------------------

    def resolve(self, host: Host, addr: int, length: int) -> Resolution:
        """Walk ``addr`` in ``host``'s space through NTB windows until it
        lands on DRAM or a device BAR (memoized; see module docstring)."""
        # hot-path
        cache = self._route_cache
        if cache is not None:
            entry = cache.get((host, addr, length))
            if entry is not None:
                for amap, version in entry.map_guards:
                    if amap.version != version:
                        break
                else:
                    for fn, lut_version in entry.ntb_guards:
                        if fn.lut_version != lut_version:
                            break
                    else:
                        # Guards valid: replay the walk's observable side
                        # effects exactly — per crossing in order, check
                        # the live link first (NtbFunction.translate
                        # raises *before* bumping its own counters).
                        for fn, _v in entry.ntb_guards:
                            if not fn.link_up:
                                raise NtbLinkDown(fn.name)
                            fn.translations += 1
                            fn.bytes_forwarded += length
                        return entry.res
        orig_key = (host, addr, length)
        crossings = 0
        map_guards: list[tuple] = []
        ntb_guards: list[tuple] = []
        while True:
            amap = host.addr_map
            map_guards.append((amap, amap.version))
            mapping = amap.lookup(addr, length)
            target = mapping.target
            if isinstance(target, HostMemory):
                # One construction per cache miss; every hit returns it.
                # staticcheck: ignore[hotpath-alloc] miss path, built once per key
                res = Resolution(kind="mem", host=host, node=host.rc,
                                 crossings=crossings, memory=target,
                                 addr=addr)
                break
            if isinstance(target, Bar):
                fn = target.function
                if isinstance(fn, NtbFunction):
                    if crossings >= MAX_NTB_CROSSINGS:
                        raise AddressError(
                            f"NTB window chain longer than "
                            f"{MAX_NTB_CROSSINGS} at {addr:#x}")
                    ntb_guards.append((fn, fn.lut_version))
                    host, addr = fn.translate(target, addr, length)
                    crossings += 1
                    continue
                assert fn.node is not None and fn.host is not None
                # staticcheck: ignore[hotpath-alloc] miss path, built once per key
                res = Resolution(kind="mmio", host=fn.host, node=fn.node,
                                 crossings=crossings, bar=target,
                                 offset=target.offset_of(addr))
                break
            raise AddressError(
                f"unroutable target {target!r} at {addr:#x}")
        if cache is not None:
            cache[orig_key] = _RouteEntry(res, tuple(map_guards),
                                          tuple(ntb_guards))
        return res

    # -- link occupancy -----------------------------------------------------------

    def _occupy(self, path: tuple[Node, ...], wire_bytes: int):
        """Occupy the links on the path for the transfer (cut-through).

        Links are acquired in a canonical global order (deadlock-free);
        each link is then held for *its own* serialization time — a
        slow edge link (e.g. the device's Gen3 x4) must not inflate the
        occupancy of faster shared links, or unrelated flows through a
        cluster switch would be throttled to the slowest device's rate.
        The caller's latency charge is the slowest stage (the pipe's
        fill time).
        """
        # hot-path
        plan = self._occupy_plans.get((path, wire_bytes))
        if plan is None:
            plan = self._build_occupy_plan(path, wire_bytes)
            self._occupy_plans[(path, wire_bytes)] = plan
        if not plan:
            return
        resources, timers = plan
        # Free links are claimed by count — no grant event, no
        # suspension (the dominant case by far); busy ones queue FIFO.
        if not take_all(resources):
            for resource in resources:
                if not resource.take():
                    yield resource.request()
        sleep = self.sim.sleep
        for hold, give in timers:
            timer = sleep(hold)
            timer.callbacks.append(give)
        # The last timer's hold is the slowest link's, i.e. the fill
        # time: ride it instead of pushing a second event for the same
        # instant (it would carry the adjacent sequence number).
        yield timer

    def _build_occupy_plan(self, path: tuple[Node, ...],
                           wire_bytes: int) -> tuple:
        """Precompute the occupancy of a (path, size) pair (see
        :func:`_hold_plan`; empty when nothing is held).  Pure function
        of the (static) topology."""
        trips = self.cluster.links_on(path)
        if not trips or wire_bytes <= 0:
            return ()
        return _hold_plan([(link.resource(a, b),
                            serialize_ns(wire_bytes, link.bandwidth))
                           for link, a, b in trips])

    def _try_hold(self, plan: tuple) -> bool:
        """Occupy every link of a plan inline if all are free right now
        (claims plus release timers, no process); False claims nothing."""
        # hot-path
        resources, timers = plan
        if not take_all(resources):
            return False
        sleep = self.sim.sleep
        for hold, give in timers:
            sleep(hold).callbacks.append(give)
        return True

    # -- transactions ------------------------------------------------------------

    def write(self, initiator: Node, host: Host, addr: int,
              data: bytes | bytearray | memoryview):
        """Posted memory write (generator; returns at *delivery* time).

        Callers that do not need to observe delivery should use
        :meth:`post_write`, which returns at once — that is the
        hardware-accurate behaviour for CPU stores and device DMA
        writes.
        """
        # hot-path
        if type(data) is not bytes:
            data = bytes(data)
        issue = self._issue_write(initiator, host, addr, data)
        if issue is None:
            return
        res, path, wire = issue
        yield from self._write_tail(initiator, host, res, path, addr, data,
                                    wire)

    def _issue_write(self, initiator: Node, host: Host, addr: int,
                     data: bytes):
        """Shared posted-write issue logic: resolve, fault coin flips,
        accounting.  Returns ``(res, path, wire)``, or None when the
        write was dropped."""
        # hot-path
        length = len(data)
        try:
            res = self.resolve(host, addr, length)
        except NtbLinkDown as down:
            # Posted semantics: the write vanishes silently at the
            # severed adapter; the initiator never learns.
            self._drop_write(down.point, addr, length)
            return None
        faults = self.faults
        if faults is not None:
            point = (faults.link_blocked(host.name, res.host.name)
                     or faults.tlp_dropped(self.sim.rng, host.name,
                                           res.host.name))
            if point is not None:
                self._drop_write(point, addr, length)
                return None
        path = self.cluster.path(initiator, res.node)
        self.posted_writes += 1
        self.posted_bytes += length
        wire = self._write_wire.get(length)
        if wire is None:
            wire = write_cost(length, self.config).bytes_on_wire
            self._write_wire[length] = wire
        return res, path, wire

    def _write_tail(self, initiator: Node, host: Host, res: Resolution,
                    path: tuple, addr: int, data: bytes, wire: int):
        """Posted-write body: occupancy, hop latency, posted-ordering
        clamp, delivery."""
        # hot-path
        sim = self.sim
        yield from self._occupy(path, wire)
        yield sim.sleep(
            self._arrival(initiator, host, res, path, 0) - sim._now)
        self._finish_local_write(res, data, addr)

    def _arrival(self, initiator: Node, host: Host, res: Resolution,
                 path: tuple, fill: int) -> int:
        """Delivery instant of a posted write whose links are held as of
        now (``fill``: pipe-fill time still to elapse), with the
        posted-ordering clamp applied."""
        # hot-path
        cfg = self.config
        latency = fill + self.cluster.hop_latency(path)
        if res.crossings:
            latency += res.crossings * cfg.ntb_translation_ns
        faults = self.faults
        if faults is not None:
            latency += faults.tlp_delay_ns(host.name, res.host.name)
        if res.kind == "mem":
            latency += cfg.memory_write_latency_ns
        else:
            latency += cfg.device_mmio_write_ns
        arrival = self.sim._now + latency
        key = (initiator, res.host)
        prior = self._posted_clamp.get(key, 0)
        if arrival < prior:
            arrival = prior  # posted ordering: never pass an earlier write
        self._posted_clamp[key] = arrival
        return arrival

    def _queued_write(self, delivery: Event, initiator: Node, host: Host,
                      res: Resolution, path: tuple, wire: int):
        """:meth:`post_write` when a link was busy: queue FIFO for the
        links, then schedule the delivery event as the inline issue
        would have."""
        yield from self._occupy(path, wire)
        sim = self.sim
        sim._push(delivery,
                  self._arrival(initiator, host, res, path, 0) - sim._now)

    def _finish_local_write(self, res: Resolution, data: bytes,
                            addr: int) -> None:
        """Apply a posted write at its delivery instant."""
        # hot-path
        if res.kind == "mem":
            res.memory.write(res.addr, data)
        else:
            res.bar.function.mmio_write(res.bar, res.offset, data)
        if self._trace:
            self.tracer.emit("pcie", "write-delivered", addr=addr,
                             final=res.addr if res.kind == "mem"
                             else res.offset,
                             size=len(data), crossings=res.crossings)

    def _drop_write(self, point: str, addr: int, size: int) -> None:
        self.dropped_writes += 1
        self.tracer.emit("fault", "write-dropped", point=point, addr=addr,
                         size=size)

    def post_write(self, initiator: Node, host: Host, addr: int,
                   data: bytes | bytearray | memoryview):
        """Fire-and-forget posted write.

        Returns an event that triggers at delivery (callers may append
        callbacks to it); a dropped write has no delivery instant and
        returns an inert ticket whose ``callbacks`` is None.
        """
        # hot-path: when every link on the path is free, the whole issue
        # runs inline — no process spawn, no occupancy generator, no
        # per-link grant events.  Contended issues queue for the links
        # in a process *after* the side-effecting steps (resolve, fault
        # draws, accounting) have run exactly once.
        if type(data) is not bytes:
            data = bytes(data)
        sim = self.sim
        issue = self._issue_write(initiator, host, addr, data)
        if issue is None:
            return _TICKET
        res, path, wire = issue
        plan = self._occupy_plans.get((path, wire))
        if plan is None:
            plan = self._build_occupy_plan(path, wire)
            self._occupy_plans[(path, wire)] = plan
        ev = Event.__new__(Event)
        ev.sim = sim
        ev.callbacks = [lambda _ev, r=res, d=data, a=addr:
                        self._finish_local_write(r, d, a)]
        ev._value = None
        ev._ok = True
        ev._processed = False
        ev._defused = False
        if not plan:
            fill = 0
        elif self._try_hold(plan):
            fill = plan[1][-1][0]       # the last timer's (longest) hold
        else:
            # Nobody waits on the queueing process itself (subscribers
            # get the delivery event), so its completion is never queued.
            Process(sim, self._queued_write(ev, initiator, host, res, path,
                                            wire), detached=True)
            return ev
        sim._push(ev, self._arrival(initiator, host, res, path, fill)
                  - sim._now)
        return ev

    def read(self, initiator: Node, host: Host, addr: int, length: int):
        """Non-posted memory read (generator; returns the data bytes).

        Charges the full round trip: request leg, target service,
        completion leg with data serialization — "the longer the path
        between a device and the memory it reads from, the higher the
        request-completion latency becomes" (paper Sec. V).
        """
        # hot-path
        if length <= 0:
            raise ValueError("read length must be positive")
        try:
            res = self.resolve(host, addr, length)
        except NtbLinkDown as down:
            yield from self._read_timeout(down.point, addr)
        sim = self.sim
        cfg = self.config
        faults = self.faults
        if faults is not None:
            point = (faults.link_blocked(host.name, res.host.name)
                     or faults.tlp_dropped(sim.rng, host.name,
                                           res.host.name))
            if point is not None:
                yield from self._read_timeout(point, addr)
        path = self.cluster.path(initiator, res.node)
        self.reads += 1
        self.read_bytes += length

        # Request leg (headers only).
        wire = self._read_req_wire.get(length)
        if wire is None:
            wire = read_request_cost(length, cfg).bytes_on_wire
            self._read_req_wire[length] = wire

        yield from self._occupy(path, wire)
        req_latency = self.cluster.hop_latency(path)
        if res.crossings:
            req_latency += res.crossings * cfg.ntb_translation_ns
        if faults is not None:
            req_latency += faults.tlp_delay_ns(host.name, res.host.name)
        yield sim.sleep(req_latency)

        # Target service + data fetch.
        if res.kind == "mem":
            yield sim.sleep(cfg.memory_read_latency_ns)
            data = res.memory.read(res.addr, length)
        else:
            yield sim.sleep(cfg.device_mmio_read_ns)
            data = res.bar.function.mmio_read(res.bar, res.offset,
                                              length)
            if len(data) != length:
                raise AddressError(
                    f"{res.bar.function.name} returned {len(data)} "
                    f"bytes for a {length}-byte read")

        # Completion leg (data flows back).
        rpath = tuple(reversed(path))
        wire = self._cpl_wire.get(length)
        if wire is None:
            wire = completion_cost(length, cfg).bytes_on_wire
            self._cpl_wire[length] = wire
        yield from self._occupy(rpath, wire)
        cpl_latency = self.cluster.hop_latency(rpath)
        yield sim.sleep(cpl_latency)
        if self._trace:
            self.tracer.emit("pcie", "read-complete", addr=addr,
                             size=length, crossings=res.crossings)
        return data

    def _read_timeout(self, point: str, addr: int) -> t.Generator:
        """Non-posted request into a severed/lossy path: the completion
        never arrives, so the initiator sits out its completion timeout
        and then sees the failure."""
        self.timed_out_reads += 1
        yield self.sim.timeout(self.config.completion_timeout_ns)
        self.tracer.emit("fault", "read-timeout", point=point, addr=addr)
        raise FabricFaultError(point, addr)

    # -- conveniences -----------------------------------------------------------

    def read_u32(self, initiator: Node, host: Host, addr: int):
        data = yield from self.read(initiator, host, addr, 4)
        return int.from_bytes(data, "little")

    def write_u32(self, initiator: Node, host: Host, addr: int,
                  value: int):
        return self.post_write(initiator, host, addr,
                               (value & 0xFFFF_FFFF).to_bytes(4, "little"))
