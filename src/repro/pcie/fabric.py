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
from ..sim import NULL_TRACER, Event, HoldPlan, Simulator
from ..sim.core import URGENT
from ..units import serialize_ns
from .address import AddressError
from .device import Bar
from .ntb import NtbFunction, NtbLinkDown
from .tlp import completion_cost, read_request_cost, write_cost
from .topology import Cluster, Host, Node

#: Safety bound on NTB window chains (window -> window -> ...).
MAX_NTB_CROSSINGS = 3


class _PostedWrite(Event):
    """One posted-write TLP in flight; the record *is* its delivery
    event.  It is queued once, for the delivery instant: by the inline
    issue or, when a link was busy, by :meth:`_held` once the hold
    started from the boot event has the links — callbacks, no process."""

    __slots__ = ("fabric", "res", "addr", "data", "path", "plan", "boot",
                 "initiator", "host")

    def _held(self, _fill: Event) -> None:
        # hot-path: links held and pipe filled
        sim = self.sim
        sim._push(self, self.fabric._arrival(
            self.initiator, self.host, self.res, self.path, 0) - sim._now)

    def _deliver(self, _self: Event) -> None:
        # hot-path
        fabric = self.fabric
        res = self.res
        if fabric._trace or res.kind != "mem":
            fabric._finish_local_write(res, self.data, self.addr)
        else:
            res.memory.write(res.addr, self.data)


#: :meth:`Fabric.post_write`'s return for a dropped write (no delivery
#: event): callers only ever probe ``.callbacks``, guarding on None.
_TICKET = _PostedWrite.__new__(_PostedWrite)
_TICKET.callbacks = None


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
        # (path, wire_bytes) -> HoldPlan | ()
        self._occupy_plans: dict[tuple, HoldPlan | tuple] = {}
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

    def _hold_plan(self, path: tuple[Node, ...], wire_bytes: int):
        """Occupancy of the links on the path for the transfer
        (cut-through): a :class:`~repro.sim.HoldPlan`, ``()`` when there
        is nothing to hold.  Memoized: the topology is static.

        Links are acquired in a canonical global order (deadlock-free);
        each link is then held for *its own* serialization time — a
        slow edge link (e.g. the device's Gen3 x4) must not inflate the
        occupancy of faster shared links, or unrelated flows through a
        cluster switch would be throttled to the slowest device's rate.
        The caller's latency charge is the slowest stage (the pipe's
        fill time, ``plan.fill``).  Free links are claimed by count, no
        grant event (the dominant case by far); busy ones queue FIFO.
        """
        # hot-path
        plan = self._occupy_plans.get((path, wire_bytes))
        if plan is None:
            trips = self.cluster.links_on(path)
            plan = ()
            if trips and wire_bytes > 0:
                # staticcheck: ignore[hotpath-alloc] miss path, built once per key
                plan = HoldPlan(self.sim, [
                    (link.resource(a, b),
                     serialize_ns(wire_bytes, link.bandwidth))
                    for link, a, b in trips])
            self._occupy_plans[(path, wire_bytes)] = plan
        return plan

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
        issue = self._issue_write(initiator, host, addr, len(data), None)
        if issue is None:
            return
        res, path, plan = issue
        if plan:
            yield plan.hold()
        sim = self.sim
        yield sim.sleep(
            self._arrival(initiator, host, res, path, 0) - sim._now)
        self._finish_local_write(res, data, addr)

    def _issue_write(self, initiator: Node, host: Host, addr: int,
                     length: int, after: _PostedWrite | None):
        """Shared posted-write issue logic: resolve, fault coin flips,
        accounting, then path and occupancy plan (those of ``after``,
        the burst's previous TLP, if node and size match).  Returns
        ``(res, path, plan)``, or None when the write was dropped."""
        # hot-path
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
        self.posted_writes += 1
        self.posted_bytes += length
        if (after is not None and after.res.node is res.node
                and len(after.data) == length):
            return res, after.path, after.plan
        path = self.cluster.path(initiator, res.node)
        wire = self._write_wire.get(length)
        if wire is None:
            wire = write_cost(length, self.config).bytes_on_wire
            self._write_wire[length] = wire
        return res, path, self._hold_plan(path, wire)

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
                   data: bytes | bytearray | memoryview,
                   after: _PostedWrite | None = None):
        """Fire-and-forget posted write.

        Returns an event that triggers at delivery (callers may append
        callbacks to it); a dropped write has no delivery instant and
        returns an inert ticket whose ``callbacks`` is None.  ``after``
        is for :meth:`post_writes`.
        """
        # hot-path: with every link on the path free the whole issue runs
        # inline — no boot, no grant events.  A contended issue queues for
        # the links from a boot event at this instant (where a spawned
        # process would start), *after* the side-effecting steps (resolve,
        # fault draws, accounting) have run exactly once.
        if type(data) is not bytes:
            data = bytes(data)
        sim = self.sim
        issue = self._issue_write(initiator, host, addr, len(data), after)
        if issue is None:
            return _TICKET
        res, path, plan = issue
        tlp = _PostedWrite.__new__(_PostedWrite)
        tlp.sim = sim
        tlp.callbacks = [tlp._deliver]
        tlp._value = None
        tlp._ok = True
        tlp._processed = False
        tlp._defused = False
        tlp.fabric = self
        tlp.res = res
        tlp.addr = addr
        tlp.data = data
        tlp.path = path
        tlp.plan = plan
        tlp.boot = boot = None if after is None else after.boot
        if not plan:
            fill = 0
        elif plan.take() is not None:
            fill = plan.fill
        else:
            tlp.initiator = initiator
            tlp.host = host
            if boot is None:
                tlp.boot = boot = Event(sim)
                sim._push(boot, 0, URGENT)
            plan.hold(boot).callbacks.append(tlp._held)
            return tlp
        sim._push(tlp, self._arrival(initiator, host, res, path, fill)
                  - sim._now)
        return tlp

    def post_writes(self, initiator: Node, host: Host,
                    segments: t.Iterable[tuple[int, bytes]]) -> None:
        """A burst of posted writes issued at one instant, in order (a
        DMA train): a :meth:`post_write` per ``(addr, data)`` segment,
        each handed its predecessor, so that segments to one node share
        the path and plan lookups and those that must queue share a boot
        event (docs/performance.md, "Order preservation")."""
        # hot-path
        after = None
        for addr, data in segments:
            tlp = self.post_write(initiator, host, addr, data, after)
            if tlp is not _TICKET:
                after = tlp

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

        plan = self._hold_plan(path, wire)
        if plan:
            yield plan.hold()
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
        plan = self._hold_plan(rpath, wire)
        if plan:
            yield plan.hold()
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
