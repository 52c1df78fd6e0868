"""The distributed driver's *manager* module (paper Sec. V).

"Our implementation consists of a 'manager' kernel module and one or
more 'client' kernel modules.  The manager is responsible for
initializing the controller, setting up the admin queues, and performing
privileged tasks, such as creating and deleting I/O queue pairs, on
behalf of the clients."

The manager:

1. acquires the device exclusively through SmartIO, resets and enables
   the controller, then downgrades to a shared reference;
2. creates the metadata segment (header + RPC mailbox) and advertises it
   via SmartIO;
3. services queue-pair create/delete RPCs arriving in the mailbox.
   Clients supply *device-side* addresses for their queue memory — they
   resolve them with SmartIO DMA windows before calling, so the manager
   never needs to know any other host's address-space layout.
"""

from __future__ import annotations

import dataclasses
import functools
import typing as t

from ..config import SimulationConfig
from ..nvme import CompletionEntry, CompletionQueueState
from ..sim import Resource, Simulator
from ..sisci import LocalSegment, RemoteSegment, SisciError, SisciNode
from ..smartio import SmartIoService
from . import metadata as meta
from .adminq import AdminError, AdminQueues
from .qpair import QueuePair


class ManagerError(Exception):
    pass


@dataclasses.dataclass(slots=True)
class _SharedTenant:
    """One admitted tenant of a shared QP (manager-side bookkeeping).

    ``mailbox`` is None only for the transient *reserved* placeholder
    that holds a window while the rest of admission runs; a failed
    admission rolls the placeholder back (the RPC_NO_QUEUES rule:
    nothing may stay reserved on a rejected request)."""

    slot: int
    mailbox: RemoteSegment | None
    ring: CompletionQueueState | None


@dataclasses.dataclass(slots=True)
class _SharedQp:
    """Manager-side state of one shared (windowed) queue pair."""

    qid: int
    sq_seg: LocalSegment
    cq_seg: LocalSegment
    entries: int
    win_entries: int
    cq: CompletionQueueState          # consumer view of the shared CQ
    tenants: list[_SharedTenant | None]
    #: absolute submission count handed to the next tenant of each
    #: window (the departed tenant's doorbell shadow); the successor's
    #: ring tail starts at this value modulo the window size.
    win_next_tail: list[int]
    win_completed: list[int]          # absolute CQEs seen per window
    #: windows released with commands still outstanding: window index
    #: -> the absolute completion count at which the window becomes
    #: reusable.  A draining window is NOT free — handing it out early
    #: would let the successor receive the predecessor's completions
    #: and overwrite its unfetched SQEs.
    draining: dict[int, int] = dataclasses.field(default_factory=dict)
    demux: QueuePair | None = None    # polls ``cq``, forwards to tenants

    @property
    def nwindows(self) -> int:
        return len(self.tenants)

    @property
    def tenant_count(self) -> int:
        return sum(1 for ten in self.tenants if ten is not None)

    @property
    def free_windows(self) -> int:
        return sum(1 for i, ten in enumerate(self.tenants)
                   if ten is None and i not in self.draining)

    def free_window_index(self) -> int | None:
        for i, ten in enumerate(self.tenants):
            if ten is None and i not in self.draining:
                return i
        return None

    def tenant_bitmap(self) -> int:
        bitmap = 0
        for i, ten in enumerate(self.tenants):
            if ten is not None:
                bitmap |= 1 << i
        return bitmap


class NvmeManager:
    """Owns the admin queues of one shared controller."""

    METADATA_SEGMENT_ID_BASE = 0x4D00
    # Shared queue memory lives on the *manager's* node so co-tenants
    # never depend on each other's hosts (docs/queue_sharing.md); one
    # id per (device, qid).
    SHARED_SQ_SEGMENT_ID_BASE = 0x5100
    SHARED_CQ_SEGMENT_ID_BASE = 0x5900

    def __init__(self, sim: Simulator, smartio: SmartIoService,
                 node: SisciNode, device_id: int,
                 config: SimulationConfig) -> None:
        self.sim = sim
        self.probe = sim.probe
        self.smartio = smartio
        self.node = node
        self.device_id = device_id
        self.config = config
        self.admin: AdminQueues | None = None
        self.metadata_segment: LocalSegment | None = None
        self._ref = None
        self._bar: int | None = None
        self._free_qids: list[int] = []
        self._client_qids: dict[int, list[int]] = {}   # slot -> qids
        self._shared_qps: dict[int, _SharedQp] = {}    # qid -> state
        self._slot_share: dict[int, tuple[int, int]] = {}  # slot -> (qid, win)
        self._running = False
        # AdminQueues.submit is one-command-at-a-time; the mailbox
        # worker and the lease watchdog serialise through this lock.
        self._admin_lock = Resource(sim, capacity=1)
        # slot -> (last heartbeat value, sim time it last changed)
        self._hb_seen: dict[int, tuple[int, int]] = {}
        self.rpcs_served = 0
        self.leases_reclaimed = 0
        self.admission_rejections = 0
        self.cqes_forwarded = 0
        self.cqes_orphaned = 0
        #: namespace size learned from IDENTIFY during :meth:`start`;
        #: the cluster placement scheduler budgets against this.
        self.capacity_lbas = 0

    # -- lifecycle -------------------------------------------------------------

    def start(self) -> t.Generator:
        """Initialise the controller and publish the metadata segment."""
        # Lock the device while resetting/initialising it.
        self._ref = self.smartio.acquire(self.device_id, self.node,
                                         exclusive=True)
        self._bar = bar = self._ref.map_bar(0)

        # Admin queue memory lives on the manager's host.  When the
        # manager runs somewhere other than the device's host, back the
        # admin DMA pool with a SISCI segment mapped for the device —
        # SmartIO resolves the device-side addresses, so this code is
        # identical for local and remote deployment (Sec. IV).
        device_local = (self.smartio.device_host_name(self.device_id)
                        == self.node.host.name)
        pool = None
        if not device_local:
            from .dmapool import DmaPool
            seg = self.node.create_segment(
                0x4A00 + self.device_id, AdminQueues.POOL_BYTES)
            seg.set_available()
            device_base = self._ref.map_segment_for_device(seg)
            pool = DmaPool(self.node.host, seg.phys_addr, device_base,
                           seg.size, name="admin-pool")
        self.admin = AdminQueues(self.sim, self.node.fabric,
                                 self.node.host, bar, self.config,
                                 pool=pool)

        yield from self.admin.enable_controller()
        ident = yield from self.admin.identify_namespace(1)
        self.capacity_lbas = ident.nsze
        nqueues = yield from self.admin.get_queue_count()
        self._free_qids = list(range(1, nqueues + 1))

        seg_id = self.METADATA_SEGMENT_ID_BASE + self.device_id
        seg = self.node.create_segment(seg_id, meta.SEGMENT_SIZE)
        seg.write(0, meta.pack_header(self.node.node_id, self.device_id,
                                      nsid=1, lba_bytes=ident.lba_bytes,
                                      capacity_lbas=ident.nsze))
        for slot in range(meta.NSLOTS):
            seg.write(meta.slot_offset(slot), meta.pack_slot(meta.SLOT_FREE))
            seg.write(meta.heartbeat_offset(slot),
                      bytes(meta.HEARTBEAT_SIZE))
        seg.set_available()
        self.metadata_segment = seg
        self.smartio.set_device_metadata(self.device_id,
                                         (self.node.node_id, seg_id))

        # Device initialised: let clients in.
        self._ref.downgrade()
        self._running = True
        for f in self.probe.lifecycle:
            f(self, "manager-started")
        self.sim.process(self._mailbox_worker())
        if self.config.reliability.lease_timeout_ns > 0:
            self.sim.process(self._lease_worker())

    def stop(self) -> None:
        self._running = False
        for qp in self._shared_qps.values():
            qp.demux.running = False

    # -- RPC service ---------------------------------------------------------------

    def _mailbox_worker(self) -> t.Generator:
        """Poll the mailbox region for client requests (local memory)."""
        seg = self.metadata_segment
        assert seg is not None
        mem = self.node.host.memory
        region_start = seg.phys_addr + meta.HEADER_SIZE
        region_len = meta.NSLOTS * meta.SLOT_SIZE
        wp = mem.watch(region_start, region_len)
        try:
            while self._running:
                progressed = True
                while progressed:
                    progressed = False
                    for slot in range(meta.NSLOTS):
                        raw = seg.read(meta.slot_offset(slot),
                                       meta.SLOT_SIZE)
                        req = meta.unpack_slot(raw)
                        if req["status"] == meta.SLOT_REQUEST:
                            yield from self._serve(slot, req)
                            progressed = True
                yield wp.signal.wait()
        finally:
            mem.unwatch(wp)

    def _serve(self, slot: int, req: dict) -> t.Generator:
        assert self.admin is not None and self.metadata_segment is not None
        self.rpcs_served += 1
        served_at = self.sim.now
        rpc_status = meta.RPC_OK
        qid = 0
        extra: dict[str, int] = {}
        if req["op"] == meta.OP_CREATE_QP:
            if req["flags"] & meta.FLAG_SHARED:
                rpc_status, qid, extra = yield from self._admit_shared(
                    slot, req)
            elif not self._private_available():
                # Private-first admission: once only the shared reserve
                # is left, redirect the client to retry with
                # FLAG_SHARED instead of refusing outright.
                if self.config.sharing.enabled:
                    rpc_status = meta.RPC_USE_SHARED
                else:
                    rpc_status = meta.RPC_NO_QUEUES
                    self.admission_rejections += 1
            elif req["entries"] < 2 or not req["sq_addr"] \
                    or not req["cq_addr"]:
                rpc_status = meta.RPC_BAD_REQUEST
            else:
                qid = self._free_qids.pop(0)
                interrupts = bool(req["flags"] & meta.FLAG_INTERRUPTS)
                lock = self._admin_lock.request()
                yield lock
                try:
                    cq_created = False
                    try:
                        yield from self.admin.create_io_cq(
                            qid, req["entries"], req["cq_addr"],
                            interrupts=interrupts, vector=qid)
                        cq_created = True
                        yield from self.admin.create_io_sq(
                            qid, req["entries"], req["sq_addr"], cqid=qid)
                    except AdminError:
                        # Roll back so nothing leaks: the half-created CQ
                        # is deleted and the qid returns to the free pool.
                        if cq_created:
                            try:
                                yield from self.admin.delete_io_cq(qid)
                            except AdminError:
                                pass   # controller lost it already
                        self._free_qids.append(qid)
                        qid = 0
                        rpc_status = meta.RPC_ADMIN_FAILED
                    else:
                        self._client_qids.setdefault(slot, []).append(qid)
                finally:
                    self._admin_lock.release(lock)
        elif req["op"] == meta.OP_DELETE_QP:
            share = self._slot_share.get(slot)
            owned = self._client_qids.get(slot, [])
            if share is not None and share[0] == req["qid"]:
                # Shared tenant leaving: free only its window — the QP
                # and its co-tenants are untouched.
                self._release_window(slot)
                qid = req["qid"]
            elif req["qid"] not in owned:
                rpc_status = meta.RPC_BAD_REQUEST
            else:
                lock = self._admin_lock.request()
                yield lock
                try:
                    yield from self.admin.delete_io_sq(req["qid"])
                    yield from self.admin.delete_io_cq(req["qid"])
                finally:
                    self._admin_lock.release(lock)
                owned.remove(req["qid"])
                self._free_qids.append(req["qid"])
                qid = req["qid"]
        else:
            rpc_status = meta.RPC_BAD_REQUEST

        self.metadata_segment.write(
            meta.slot_offset(slot),
            meta.pack_slot(meta.SLOT_RESPONSE, op=req["op"], qid=qid,
                           rpc_status=rpc_status, **extra))
        for f in self.probe.lease_changed:
            f(self, meta.OP_NAMES.get(req["op"], "unknown"), slot, qid, -1,
              served_at)

    # -- shared queue pairs (docs/queue_sharing.md) ----------------------------

    def _private_available(self) -> bool:
        """Private-first policy: hand out private QPs while the free
        pool stays above the qids reserved for future shared QPs."""
        sharing = self.config.sharing
        if not sharing.enabled:
            return bool(self._free_qids)
        reserve = max(0, sharing.reserved_qps - len(self._shared_qps))
        return len(self._free_qids) > reserve

    def _admit_shared(self, slot: int, req: dict) -> t.Generator:
        """Place one tenant onto a shared QP.

        The window is *reserved first* and rolled back if any later
        step fails — a rejected admission (RPC_NO_QUEUES) must leave no
        partially reserved window behind, and every rejection is
        counted for the metrics registry.
        """
        sharing = self.config.sharing
        if (not sharing.enabled or req["entries"] < 2
                or not req["share_seg"] or slot in self._slot_share):
            return meta.RPC_BAD_REQUEST, 0, {}
        qp = self._pick_shared_qp()
        if qp is None:
            qp = yield from self._create_shared_qp()
            if qp is None:
                self.admission_rejections += 1
                return meta.RPC_NO_QUEUES, 0, {}
        widx = qp.free_window_index()
        assert widx is not None        # _pick/_create guarantee one
        qp.tenants[widx] = _SharedTenant(slot=slot, mailbox=None,
                                         ring=None)   # reserve the window
        try:
            mailbox = self.node.connect_segment(req["share_node"],
                                                req["share_seg"])
        except SisciError:
            qp.tenants[widx] = None     # roll back the reservation
            self.admission_rejections += 1
            return meta.RPC_NO_QUEUES, 0, {}
        qp.tenants[widx] = _SharedTenant(
            slot=slot, mailbox=mailbox,
            ring=CompletionQueueState(qid=qp.qid, base_addr=0,
                                      entries=req["entries"],
                                      probe=self.probe))
        win_tail = qp.win_next_tail[widx]
        seg = self.metadata_segment
        assert seg is not None
        seg.write(meta.share_offset(qp.qid),
                  meta.pack_share(qp.qid, qp.nwindows, qp.win_entries,
                                  qp.tenant_bitmap()))
        seg.write(meta.shadow_offset(qp.qid, widx),
                  win_tail.to_bytes(meta.SHADOW_SIZE, "little"))
        self._slot_share[slot] = (qp.qid, widx)
        for f in self.probe.lease_changed:
            f(self, "granted", slot, qp.qid, widx, self.sim.now)
        extra = {"tenant": widx, "win_start": widx * qp.win_entries,
                 "win_len": qp.win_entries,
                 "share_node": qp.sq_seg.id.node_id,
                 "share_seg": qp.sq_seg.id.segment_id,
                 "win_tail": win_tail}
        return meta.RPC_OK, qp.qid, extra

    def _pick_shared_qp(self) -> _SharedQp | None:
        """Least-loaded existing shared QP with a free window (lowest
        qid breaks ties, so placement is deterministic)."""
        best = None
        for qid in sorted(self._shared_qps):
            qp = self._shared_qps[qid]
            if qp.free_windows == 0:
                continue
            if best is None or qp.tenant_count < best.tenant_count:
                best = qp
        return best

    def _create_shared_qp(self) -> t.Generator:
        """Create one shared (windowed) QP on a reserved qid, hosted in
        the manager's own memory; None when capacity is exhausted."""
        assert self.admin is not None and self._ref is not None
        sharing = self.config.sharing
        if len(self._shared_qps) >= sharing.reserved_qps \
                or not self._free_qids:
            return None
        win = sharing.window_entries
        entries = min(sharing.sq_entries,
                      self.config.nvme.max_queue_entries)
        nwin = min(entries // win, meta.MAX_TENANTS)
        if nwin < 1:
            return None
        entries = nwin * win
        qid = self._free_qids.pop(0)
        base = self.device_id * 0x40
        sq_seg = self.node.create_segment(
            self.SHARED_SQ_SEGMENT_ID_BASE + base + qid, entries * 64)
        cq_seg = self.node.create_segment(
            self.SHARED_CQ_SEGMENT_ID_BASE + base + qid, entries * 16)
        sq_seg.set_available()
        cq_seg.set_available()
        sq_dev = self._ref.map_segment_for_device(sq_seg)
        cq_dev = self._ref.map_segment_for_device(cq_seg)
        lock = self._admin_lock.request()
        yield lock
        try:
            cq_created = False
            try:
                yield from self.admin.create_io_cq(qid, entries, cq_dev)
                cq_created = True
                yield from self.admin.create_io_sq(
                    qid, entries, sq_dev, cqid=qid, shared=True,
                    window_entries=win)
            except AdminError:
                # Roll back completely: half-created CQ, DMA windows,
                # segments and the qid all return to their pools.
                if cq_created:
                    try:
                        yield from self.admin.delete_io_cq(qid)
                    except AdminError:
                        pass   # controller lost it already
                self._ref.unmap_segment_for_device(sq_dev)
                self._ref.unmap_segment_for_device(cq_dev)
                sq_seg.remove()
                cq_seg.remove()
                self._free_qids.append(qid)
                return None
        finally:
            self._admin_lock.release(lock)
        qp = _SharedQp(
            qid=qid, sq_seg=sq_seg, cq_seg=cq_seg, entries=entries,
            win_entries=win,
            cq=CompletionQueueState(qid=qid, base_addr=cq_seg.phys_addr,
                                    entries=entries, probe=self.probe),
            tenants=[None] * nwin, win_next_tail=[0] * nwin,
            win_completed=[0] * nwin)
        self._shared_qps[qid] = qp
        # The demux worker: a CQ consumer with no SQ of its own, polling
        # the shared CQ in manager-local memory.
        qp.demux = QueuePair(
            self.sim, self.node.fabric, self.node.host, self._bar, None,
            None, qp.cq, sink=functools.partial(self._forward_cqe, qp),
            ctrl=self._ref.function)
        qp.demux.poll(f"qp-demux:{self.device_id}:{qid}",
                      self.config.host.poll_interval_ns)
        for f in self.probe.lifecycle:
            f(self, "shared-qp-created", qp)
        return qp

    def _release_window(self, slot: int) -> None:
        """Free one tenant's window of a shared QP — and nothing else.

        The QP and its co-tenants keep running; the departing tenant's
        doorbell shadow (local memory, posted by the tenant after every
        ring) becomes the ring-position handoff for whoever is admitted
        into this window next."""
        qid, widx = self._slot_share.pop(slot)
        qp = self._shared_qps[qid]
        ten = qp.tenants[widx]
        seg = self.metadata_segment
        assert seg is not None
        shadow = int.from_bytes(
            seg.read(meta.shadow_offset(qid, widx), meta.SHADOW_SIZE),
            "little")
        qp.win_next_tail[widx] = shadow
        if ten is not None and ten.mailbox is not None:
            ten.mailbox.disconnect()
        qp.tenants[widx] = None
        if qp.win_completed[widx] < shadow:
            # Commands are still outstanding in the window: quarantine
            # it until the absolute completion count (counted over the
            # CQEs we drop as orphans) catches up with the departed
            # tenant's absolute submission count.
            qp.draining[widx] = shadow
        seg.write(meta.share_offset(qid),
                  meta.pack_share(qid, qp.nwindows, qp.win_entries,
                                  qp.tenant_bitmap()))
        for f in self.probe.lease_changed:
            f(self, "released", slot, qid, widx, self.sim.now)

    def _forward_cqe(self, qp: _SharedQp, cqe: CompletionEntry) -> None:
        """Route one CQE of a shared CQ to the issuing tenant's
        completion mailbox (the sink of the QP's demux poller).

        The CID's tenant bits route the entry; the forwarded copy is
        re-phased for the tenant's mailbox ring and pushed with a
        posted write, keeping the completion path one-way end to end.
        CQEs of reclaimed tenants are dropped and counted — their
        window may already belong to a successor, whose CID sequence
        space is its own, so no misdelivery is possible.
        """
        widx = meta.cid_tenant(cqe.cid)
        ten = None
        if widx < len(qp.tenants):
            qp.win_completed[widx] += 1
            if (widx in qp.draining
                    and qp.win_completed[widx] >= qp.draining[widx]):
                del qp.draining[widx]      # quarantined window now empty
                for f in self.probe.lease_changed:
                    f(self, "drained", None, qp.qid, widx, self.sim.now)
            ten = qp.tenants[widx]
        if ten is None or ten.mailbox is None or ten.ring is None:
            self.cqes_orphaned += 1
            for f in self.probe.cqe_routed:
                f(self, qp, cqe, widx, None)
            return
        slot, phase = ten.ring.produce_slot()
        cqe.phase = phase
        ten.mailbox.write(slot * 16, cqe.pack())
        self.cqes_forwarded += 1
        for f in self.probe.cqe_routed:
            f(self, qp, cqe, widx, ten.slot)

    # -- liveness leases -----------------------------------------------------------

    def _lease_worker(self) -> t.Generator:
        """Watchdog: reclaim queue pairs of clients whose heartbeat
        stopped (surprise removal, paper Sec. IV).

        A lease exists only once the first heartbeat lands (value 0 =
        the client predates the lease protocol or has not started);
        after that, a counter frozen for ``lease_timeout_ns`` means the
        owner is dead or unreachable and its resources are reclaimed.
        """
        rel = self.config.reliability
        seg = self.metadata_segment
        assert seg is not None
        while self._running:
            yield self.sim.timeout(rel.lease_check_interval_ns)
            now = self.sim.now
            for slot in sorted(set(self._client_qids)
                               | set(self._slot_share)):
                if not self._client_qids.get(slot) \
                        and slot not in self._slot_share:
                    continue
                hb = int.from_bytes(
                    seg.read(meta.heartbeat_offset(slot),
                             meta.HEARTBEAT_SIZE), "little")
                if hb == 0:
                    continue
                last, seen_at = self._hb_seen.get(slot, (0, now))
                if hb != last:
                    self._hb_seen[slot] = (hb, now)
                    continue
                if now - seen_at >= rel.lease_timeout_ns:
                    yield from self._reclaim(slot)

    def _reclaim(self, slot: int) -> t.Generator:
        """Delete a dead client's queue pairs and free its slot.

        A shared tenant's death frees only its window: the shared QP
        keeps serving co-tenants, whose in-flight I/O is never touched
        (lease-aware reclaim, docs/queue_sharing.md)."""
        assert self.admin is not None and self.metadata_segment is not None
        owned = self._client_qids.pop(slot, [])
        self._hb_seen.pop(slot, None)
        shared = slot in self._slot_share
        if shared:
            self._release_window(slot)
        lock = self._admin_lock.request()
        yield lock
        try:
            for qid in owned:
                try:
                    yield from self.admin.delete_io_sq(qid)
                    yield from self.admin.delete_io_cq(qid)
                except AdminError:
                    pass   # half-torn-down queues; reclaim the id anyway
                self._free_qids.append(qid)
        finally:
            self._admin_lock.release(lock)
        # Clear the mailbox slot and the heartbeat word so a
        # reconnecting client starts from a clean slate.
        self.metadata_segment.write(meta.slot_offset(slot),
                                    meta.pack_slot(meta.SLOT_FREE))
        self.metadata_segment.write(meta.heartbeat_offset(slot),
                                    bytes(meta.HEARTBEAT_SIZE))
        self.leases_reclaimed += 1
        for f in self.probe.recovery:
            f(self, "lease-reclaim", slot=slot,
              qids=len(owned) + (1 if shared else 0))

    @property
    def queues_in_use(self) -> int:
        return (sum(len(v) for v in self._client_qids.values())
                + len(self._shared_qps))

    @property
    def shared_qps(self) -> dict[int, _SharedQp]:
        """Read-only view of the shared QPs (observers, tests)."""
        return self._shared_qps

    def window_map(self) -> dict[int, dict[int, int]]:
        """Tenant identity per shared-SQ window: ``qid -> {window index
        -> owning client slot}`` for live tenants.  Lets QoS reports
        resolve the controller's per-window grant counters back to the
        client (and host) they served (docs/qos.md)."""
        out: dict[int, dict[int, int]] = {}
        for qid in sorted(self._shared_qps):
            qp = self._shared_qps[qid]
            wins = {i: ten.slot for i, ten in enumerate(qp.tenants)
                    if ten is not None and ten.mailbox is not None}
            if wins:
                out[qid] = wins
        return out
