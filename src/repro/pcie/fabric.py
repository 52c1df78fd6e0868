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
from ..sim.events import URGENT
from ..units import serialize_ns
from .address import AddressError
from .device import Bar
from .ntb import NtbFunction, NtbLinkDown
from .tlp import completion_cost, read_request_cost, write_cost
from .topology import Cluster, Host, Node

#: Safety bound on NTB window chains (window -> window -> ...).
MAX_NTB_CROSSINGS = 3


class _Ticket:
    """Return value of :meth:`Fabric.post_write` when no local delivery
    event exists (dropped writes; cross-shard sends).  Callers only ever
    probe ``.callbacks`` (guarding on None), so a shared inert instance
    suffices."""

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
        #: shard boundary (repro.sim.shard.ShardBoundary) or None; when
        #: installed, transactions whose target lies in a different
        #: timing domain than their initiator run the decomposed
        #: source-leg/destination-leg protocol (see docs/performance.md)
        self.boundary = None
        #: in-flight transaction count (shard-runner quiesce support)
        self.inflight = 0
        # cross-domain reads awaiting their completion message
        self._pending_reads: dict[int, Event] = {}
        self._read_seq = 0
        # path -> index of the first destination-domain node
        self._cut_cache: dict[tuple, int] = {}
        # (path, wire_bytes, cut) -> (pre_plan, suf_plan, fill_ns)
        self._cross_plans: dict[tuple, tuple] = {}
        # (host name, function name) -> PCIeFunction (message targets)
        self._fn_index: dict[tuple[str, str], t.Any] = {}
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
        res, path, wire, dst_dom = issue
        if dst_dom is not None:
            yield from self._cross_write_tail(initiator, host, res, path,
                                              dst_dom, addr, data, wire)
        else:
            yield from self._write_tail(initiator, host, res, path, addr,
                                        data, wire)

    def _issue_write(self, initiator: Node, host: Host, addr: int,
                     data: bytes):
        """Shared posted-write issue logic: resolve, fault coin flips,
        accounting.  Returns ``(res, path, wire, dst_domain_or_None)``,
        or None when the write was dropped."""
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
        dst_dom = None
        b = self.boundary
        if b is not None:
            nd = b.node_domain
            dom = nd.get(res.node.name)
            if dom is not None and dom != nd.get(initiator.name):
                dst_dom = dom
        return res, path, wire, dst_dom

    def _write_tail(self, initiator: Node, host: Host, res: Resolution,
                    path: tuple, addr: int, data: bytes, wire: int):
        """Single-domain posted-write body: occupancy, hop latency,
        posted-ordering clamp, delivery."""
        # hot-path
        sim = self.sim
        self.inflight += 1
        try:
            yield from self._occupy(path, wire)
            yield sim.sleep(
                self._arrival(initiator, host, res, path, 0) - sim._now)
            self._finish_local_write(res, data, addr, accounted=True)
        finally:
            self.inflight -= 1

    def _arrival(self, initiator: Node, host: Host, res: Resolution,
                 path: tuple, fill: int) -> int:
        """Delivery instant of a posted write whose (source-side) links
        are held as of now (``fill``: pipe-fill time still to elapse),
        with the posted-ordering clamp applied.  The hop latency of a
        path is the same, draw for draw, whole or split at a domain cut,
        so cross-domain writes use this too."""
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

    def _cross_write_tail(self, initiator: Node, host: Host,
                          res: Resolution, path: tuple, dst_dom: str,
                          addr: int, data: bytes, wire: int):
        """Source-domain half of a cross-domain posted write: occupy the
        source-side links (charging the full-path pipe-fill time),
        evaluate the entire flight time from source-owned RNG streams,
        and hand the write to the destination domain effective at its
        nominal arrival instant.  The destination side re-models its own
        link occupancy on arrival (store-and-forward at the boundary)."""
        sim = self.sim
        self.inflight += 1
        try:
            cut = self._cut_of(path, dst_dom)
            pre_plan, _suf, fill = self._cross_plan(path, wire, cut)
            yield from self._occupy_part(pre_plan, fill)
            arrival = self._arrival(initiator, host, res, path, 0)
            self._send(dst_dom, arrival,
                       self._write_payload(initiator, res, addr, data, wire))
            # Posted semantics: the writer observes nominal delivery.
            yield sim.sleep(arrival - sim._now)
        finally:
            self.inflight -= 1

    def _finish_local_write(self, res: Resolution, data: bytes, addr: int,
                            accounted: bool = False) -> None:
        """Apply a same-domain posted write at its delivery instant."""
        # hot-path
        if not accounted:
            self.inflight -= 1
        if res.kind == "mem":
            res.memory.write(res.addr, data)
        else:
            b = self.boundary
            if b is not None:
                # Processes the MMIO handler spawns (controller fetch
                # loops, CQE writers) belong to the target's domain.
                sim = self.sim
                prev = sim._domain
                sim._domain = b.node_domain.get(res.node.name, prev)
                try:
                    res.bar.function.mmio_write(res.bar, res.offset, data)
                finally:
                    sim._domain = prev
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

        Returns an event that triggers at local delivery (callers may
        append callbacks to it); dropped and cross-shard writes have no
        local delivery instant and return an inert ticket whose
        ``callbacks`` is None.
        """
        # hot-path: when every source-side link is free, the whole issue
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
        res, path, wire, dst_dom = issue
        if dst_dom is not None:
            cut = self._cut_of(path, dst_dom)
            pre_plan, _suf, fill = self._cross_plan(path, wire, cut)
            if not self._try_hold(pre_plan):
                return Process(sim, self._cross_write_tail(
                    initiator, host, res, path, dst_dom, addr, data, wire))
            arrival = self._arrival(initiator, host, res, path, fill)
            return (self._send(dst_dom, arrival,
                               self._write_payload(initiator, res, addr,
                                                   data, wire))
                    or _TICKET)
        plan = self._occupy_plans.get((path, wire))
        if plan is None:
            plan = self._build_occupy_plan(path, wire)
            self._occupy_plans[(path, wire)] = plan
        self.inflight += 1
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

        b = self.boundary
        if b is not None:
            nd = b.node_domain
            dst_dom = nd.get(res.node.name)
            src_dom = nd.get(initiator.name)
            if dst_dom is not None and src_dom is not None \
                    and dst_dom != src_dom:
                data = yield from self._cross_read_tail(
                    initiator, host, res, path, src_dom, dst_dom, addr,
                    length, wire)
                return data

        self.inflight += 1
        try:
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
        finally:
            self.inflight -= 1
        if self._trace:
            self.tracer.emit("pcie", "read-complete", addr=addr,
                             size=length, crossings=res.crossings)
        return data

    def _cross_read_tail(self, initiator: Node, host: Host,
                         res: Resolution, path: tuple, src_dom: str,
                         dst_dom: str, addr: int, length: int, wire: int):
        """Source-domain half of a cross-domain read: occupy the
        source-side request links, send the request to the destination
        domain (which models its own occupancy, services the target and
        sends the completion back), then block on the completion."""
        sim = self.sim
        cfg = self.config
        self.inflight += 1
        try:
            cut = self._cut_of(path, dst_dom)
            pre_plan, _suf, fill = self._cross_plan(path, wire, cut)
            yield from self._occupy_part(pre_plan, fill)
            pre, suf = self.cluster.hop_latency_split(path, cut)
            req_latency = pre + suf
            if res.crossings:
                req_latency += res.crossings * cfg.ntb_translation_ns
            faults = self.faults
            if faults is not None:
                req_latency += faults.tlp_delay_ns(host.name,
                                                   res.host.name)
            self._read_seq += 1
            req_id = self._read_seq
            pending = Event(sim)
            self._pending_reads[req_id] = pending
            if res.kind == "mem":
                final = res.addr
            else:
                bar = res.bar
                final = (bar.function.name, bar.index, res.offset)
            self._send(dst_dom, sim._now + req_latency,
                       ("R", initiator.name, res.node.name, res.kind,
                        res.host.name, final, length, src_dom, req_id))
            data = yield pending
        finally:
            self.inflight -= 1
        if self._trace:
            self.tracer.emit("pcie", "read-complete", addr=addr,
                             size=length, crossings=res.crossings)
        return data

    def _serve_read(self, payload: tuple):
        """Destination-domain half of a cross-domain read (spawned on
        request arrival): model the request's destination-side link
        occupancy, service the target, occupy the completion's
        source-side links and send the completion back."""
        (_tag, initiator_name, node_name, res_kind, host_name, final,
         length, src_dom, req_id) = payload
        sim = self.sim
        cfg = self.config
        cluster = self.cluster
        initiator = cluster.nodes[initiator_name]
        node = cluster.nodes[node_name]
        path = cluster.path(initiator, node)
        wire = self._read_req_wire.get(length)
        if wire is None:
            wire = read_request_cost(length, cfg).bytes_on_wire
            self._read_req_wire[length] = wire
        cut = self._cut_of(path, self.boundary.node_domain[node_name])
        _pre, suf_plan, _fill = self._cross_plan(path, wire, cut)
        yield from self._occupy_tail(suf_plan)

        # Target service + data fetch.
        if res_kind == "mem":
            yield sim.sleep(cfg.memory_read_latency_ns)
            data = cluster.hosts[host_name].memory.read(final, length)
        else:
            yield sim.sleep(cfg.device_mmio_read_ns)
            fn_name, bar_idx, offset = final
            fn = self._function(host_name, fn_name)
            data = fn.mmio_read(fn.bars[bar_idx], offset, length)
            if len(data) != length:
                raise AddressError(
                    f"{fn.name} returned {len(data)} bytes "
                    f"for a {length}-byte read")

        # Completion leg: this side's links are its source side.
        rpath = tuple(reversed(path))
        rcut = self._cut_of(rpath, src_dom)
        cwire = self._cpl_wire.get(length)
        if cwire is None:
            cwire = completion_cost(length, cfg).bytes_on_wire
            self._cpl_wire[length] = cwire
        cpre_plan, _csuf, cfill = self._cross_plan(rpath, cwire, rcut)
        yield from self._occupy_part(cpre_plan, cfill)
        cpre, csuf = cluster.hop_latency_split(rpath, rcut)
        self._send(src_dom, sim._now + cpre + csuf,
                   ("C", node_name, initiator_name, length, req_id, data))
        self.inflight -= 1

    # -- cross-domain message application ---------------------------------------

    def _apply(self, env: tuple) -> None:
        """Apply a cross-domain envelope at its effective instant (runs
        as the delivery event's callback)."""
        payload = env[4]
        tag = payload[0]
        if tag == "W":
            self._apply_write(payload)
        elif tag == "R":
            # The service coroutine belongs to the target's domain.
            sim = self.sim
            prev = sim._domain
            sim._domain = self.boundary.node_domain.get(payload[2], prev)
            try:
                Process(sim, self._serve_read(payload))
            finally:
                sim._domain = prev
        else:
            self._apply_read_cpl(payload)

    def _apply_write(self, payload: tuple) -> None:
        """Destination-domain half of a cross-domain posted write:
        occupy the destination-side links (inline when free) and apply
        the write.  Contended links delay the apply past the nominal
        arrival — store-and-forward queueing at the domain boundary."""
        (_tag, initiator_name, node_name, res_kind, host_name, final,
         data, wire, crossings, addr) = payload
        cluster = self.cluster
        path = cluster.path(cluster.nodes[initiator_name],
                            cluster.nodes[node_name])
        dst_dom = self.boundary.node_domain[node_name]
        cut = self._cut_of(path, dst_dom)
        _pre, suf_plan, _fill = self._cross_plan(path, wire, cut)
        if not self._try_hold(suf_plan):
            sim = self.sim
            prev = sim._domain
            sim._domain = dst_dom
            try:
                Process(sim, self._deliver_write_slow(
                    suf_plan, res_kind, host_name, final, data, crossings,
                    addr))
            finally:
                sim._domain = prev
            return
        self._finish_cross_write(res_kind, host_name, final, data,
                                 crossings, addr, dst_dom)

    def _deliver_write_slow(self, suf_plan: tuple, res_kind: str,
                            host_name: str, final, data: bytes,
                            crossings: int, addr: int):
        yield from self._occupy_tail(suf_plan)
        # Running inside a domain-tagged process: no extra wrap needed.
        self._finish_cross_write(res_kind, host_name, final, data,
                                 crossings, addr, None)

    def _finish_cross_write(self, res_kind: str, host_name: str, final,
                            data: bytes, crossings: int, addr: int,
                            dst_dom: str | None) -> None:
        self.inflight -= 1
        if res_kind == "mem":
            self.cluster.hosts[host_name].memory.write(final, data)
            shown = final
        else:
            fn_name, bar_idx, offset = final
            fn = self._function(host_name, fn_name)
            bar = fn.bars[bar_idx]
            if dst_dom is not None:
                sim = self.sim
                prev = sim._domain
                sim._domain = dst_dom
                try:
                    fn.mmio_write(bar, offset, data)
                finally:
                    sim._domain = prev
            else:
                fn.mmio_write(bar, offset, data)
            shown = offset
        if self._trace:
            self.tracer.emit("pcie", "write-delivered", addr=addr,
                             final=shown, size=len(data),
                             crossings=crossings)

    def _apply_read_cpl(self, payload: tuple) -> None:
        """Initiator-domain half of a read completion: occupy the
        destination-side completion links and wake the waiting reader."""
        (_tag, node_name, initiator_name, length, req_id, data) = payload
        cluster = self.cluster
        rpath = tuple(reversed(cluster.path(cluster.nodes[initiator_name],
                                            cluster.nodes[node_name])))
        src_dom = self.boundary.node_domain[initiator_name]
        rcut = self._cut_of(rpath, src_dom)
        cwire = self._cpl_wire.get(length)
        if cwire is None:
            cwire = completion_cost(length, self.config).bytes_on_wire
            self._cpl_wire[length] = cwire
        _pre, csuf_plan, _fill = self._cross_plan(rpath, cwire, rcut)
        if not self._try_hold(csuf_plan):
            sim = self.sim
            prev = sim._domain
            sim._domain = src_dom
            try:
                Process(sim, self._read_cpl_slow(csuf_plan, req_id, data))
            finally:
                sim._domain = prev
            return
        self._finish_read(req_id, data)

    def _read_cpl_slow(self, csuf_plan: tuple, req_id: int,
                       data: bytes):
        yield from self._occupy_tail(csuf_plan)
        self._finish_read(req_id, data)

    def _finish_read(self, req_id: int, data: bytes) -> None:
        self.inflight -= 1
        self._pending_reads.pop(req_id).succeed(data)

    # -- cross-domain plumbing ---------------------------------------------------

    def _occupy_part(self, plan: tuple, fill: int):
        """Occupy one side of a cut path, charging the full path's
        pipe-fill time (the initiating side always pays the fill; the
        receiving side's links are occupied retroactively on arrival)."""
        yield from self._occupy_tail(plan)
        yield self.sim.sleep(fill)

    def _occupy_tail(self, plan: tuple):
        """Occupy the receiving side's links on message arrival.  No
        fill charge — the nominal arrival instant already includes the
        full-path latency; only contention can add delay here."""
        resources, timers = plan
        if not take_all(resources):
            for resource in resources:
                if not resource.take():
                    yield resource.request()
        sleep = self.sim.sleep
        for hold, give in timers:
            sleep(hold).callbacks.append(give)

    def _cut_of(self, path: tuple, dst_dom: str) -> int:
        """Index of the first node on the path inside the destination
        domain — the boundary where source-side modelling hands over."""
        key = (path, dst_dom)
        cut = self._cut_cache.get(key)
        if cut is None:
            nd = self.boundary.node_domain
            cut = -1
            for i, node in enumerate(path):
                if nd.get(node.name) == dst_dom:
                    cut = i
                    break
            if cut <= 0:
                raise RuntimeError(
                    f"no destination-domain cut on path "
                    f"{[n.name for n in path]} -> {dst_dom!r}")
            self._cut_cache[key] = cut
        return cut

    def _cross_plan(self, path: tuple, wire: int, cut: int) -> tuple:
        """Split occupancy plan of a cut path: ``(source-side plan,
        destination-side plan, fill)``, each side as :func:`_hold_plan`
        builds it.  Link i feeds ``path[i+1]``, so it belongs to the
        destination side iff ``i >= cut - 1``."""
        key = (path, wire, cut)
        plan = self._cross_plans.get(key)
        if plan is None:
            trips = self.cluster.links_on(path)
            if not trips or wire <= 0:
                plan = (((), ()), ((), ()), 0)
            else:
                pre = []
                suf = []
                fill = 0
                for i, (link, a, b) in enumerate(trips):
                    hold = serialize_ns(wire, link.bandwidth)
                    if hold > fill:
                        fill = hold
                    pair = (link.resource(a, b), hold)
                    if i < cut - 1:
                        pre.append(pair)
                    else:
                        suf.append(pair)
                plan = (_hold_plan(pre), _hold_plan(suf), fill)
            self._cross_plans[key] = plan
        return plan

    def _function(self, host_name: str, fn_name: str):
        """Resolve a PCIe function by (host, name) — message targets
        carry names, not object references."""
        key = (host_name, fn_name)
        fn = self._fn_index.get(key)
        if fn is None:
            for candidate in self.cluster.hosts[host_name].functions:
                if candidate.name == fn_name:
                    fn = candidate
                    break
            else:
                raise AddressError(
                    f"no function {fn_name!r} on host {host_name!r}")
            self._fn_index[key] = fn
        return fn

    def _write_payload(self, initiator: Node, res: Resolution, addr: int,
                       data: bytes, wire: int) -> tuple:
        if res.kind == "mem":
            final = res.addr
        else:
            bar = res.bar
            final = (bar.function.name, bar.index, res.offset)
        return ("W", initiator.name, res.node.name, res.kind,
                res.host.name, final, data, wire, res.crossings, addr)

    def _send(self, dst_dom: str, t_eff: int, payload: tuple):
        """Route a cross-domain message.  When this replica owns the
        destination domain the envelope self-delivers (returning the
        delivery event); otherwise it joins the per-(src, dst) ordered
        channel for the next barrier exchange (returning None)."""
        b = self.boundary
        sim = self.sim
        env = b.stamp(dst_dom, t_eff, sim._now, payload)
        if dst_dom in b.owned:
            return self._deliver(env)
        b.enqueue(dst_dom, env, sim._now)
        return None

    def _deliver(self, env: tuple) -> Event:
        """Schedule an envelope's application at its effective instant.
        URGENT priority: message application precedes same-instant
        normal events regardless of local queue contents, so apply
        order does not depend on which replica executed the send."""
        self.inflight += 1
        sim = self.sim
        ev = Event.__new__(Event)
        ev.sim = sim
        ev.callbacks = [lambda _ev, e=env: self._apply(e)]
        ev._value = None
        ev._ok = True
        ev._processed = False
        ev._defused = False
        sim._push(ev, env[0] - sim._now, URGENT)
        return ev

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
