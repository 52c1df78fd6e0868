"""The distributed driver's *client* module (paper Sec. V).

A client runs in any cluster host and operates a (usually remote) NVMe
controller through one or more private I/O queue pairs:

1. bootstraps by reading the manager's metadata segment;
2. allocates SQ and CQ segments with access-pattern hints — by default
   the SQ lands in *device-side* memory (the CPU writes commands through
   the NTB with cheap posted stores; the controller fetches them
   locally) and the CQ lands in *client-local* memory (the controller
   posts completions through the NTB; the CPU polls locally) — Fig. 8;
3. resolves device-visible addresses via SmartIO DMA windows and asks
   the manager (via the mailbox RPC) to create the queue pair;
4. maps the controller's doorbells through its own NTB;
5. registers a block device whose data path uses a partitioned bounce
   buffer ("NVMe DMA descriptors can be programmed once since the DMA
   buffer segment is constant"), paying one extra memcpy per request;
6. polls CQ memory for completions — the model has no device-generated
   interrupts across the NTB, exactly like the paper's driver.

Placement and data-path strategies are parameters so the benchmarks can
ablate them (SQ client-side, CQ device-side, per-request IOMMU mapping
instead of the bounce buffer).
"""

from __future__ import annotations

import typing as t

from ..config import SimulationConfig
from ..nvme import (CompletionEntry, CompletionQueueState,
                    SubmissionQueueState, cq_doorbell_offset,
                    sq_doorbell_offset)
from ..pcie.fabric import FabricFaultError
from ..sim import Event, Interrupt, Process, Simulator, Store
from ..sisci import RemoteSegment, SisciNode
from ..smartio import Placement, SmartIoService
from ..units import serialize_ns
from . import metadata as meta
from .blockdev import BlockDevice, BlockError, BlockRequest
from .prputil import PRP_LIST_REACH, prps_for_contiguous
from .qpair import (STATUS_HOST_CRASHED, STATUS_HOST_SHUTDOWN,
                    CommandRecord, QueuePair, io_sqe, usable_depth)


class ClientError(Exception):
    pass


class _ClientRequest(CommandRecord):
    """One request through the distributed client: the naive submit
    path, a bounce partition, the copy in, the command on the queue
    pair, the naive completion path, the copy out (paper Sec. V-VI)."""

    __slots__ = ("part", "nbytes")

    def _serve(self, _grant: Event) -> None:
        # hot-path
        client = self.device
        if client.crashed:
            # The host is dead: requests still flow through the block
            # layer (so workloads drain instead of hanging) but every
            # one fails fast with the host-side status.
            self.request.status = STATUS_HOST_CRASHED
            self._finish()
            return
        if not client._running:
            # Shut down with requests still queued in the block layer:
            # drain them with the distinct host-side status, symmetric
            # with the crash path above.
            self.request.status = STATUS_HOST_SHUTDOWN
            self._finish()
            return
        cfg = client.config.host
        # Naive/unoptimised submission software path (paper Sec. VI).
        self._arm(cfg.block_submit_ns + cfg.dist_submit_ns, self._submitted)

    def _submitted(self, _timer: Event) -> None:
        # hot-path
        self.device._parts.get(self._staging)

    def _staging(self, part: Event) -> None:
        """A bounce partition is ours."""
        # hot-path
        self.part = part._value
        client = self.device
        request = self.request
        self.nbytes = (request.nblocks * client.lba_bytes
                       if request.op != "flush" else 0)
        if client.data_path == "iommu":
            # Future-work variant: map the request buffer on the fly
            # instead of copying into the constant bounce segment.
            self._arm(client.config.host.iommu_map_ns, self._mapped)
        else:
            self._mapped(None)

    def _mapped(self, _timer: Event | None) -> None:
        # hot-path
        client = self.device
        if self.request.op in BlockRequest.DATA_OUT_OPS:
            if client.data_path == "bounce":
                self._arm(client._memcpy_ns(self.nbytes), self._copied_in)
                return
        self._execute()

    def _copied_in(self, _timer: Event) -> None:
        self._execute()

    def _execute(self) -> None:
        """Stage the data and the command, then run it."""
        # hot-path
        client = self.device
        request = self.request
        stride = client._part_stride * self.part
        if request.op in BlockRequest.DATA_OUT_OPS:
            client.node.host.memory.write(
                client._bounce_seg.phys_addr + stride + 4096, request.data)
        sqe = io_sqe(request, client.nsid)
        if request.op in BlockRequest.DATA_OPS:
            # The partition's PRP list, programmed once, covers any
            # transfer it holds: only prp2 depends on the size.
            sqe.prp1 = data = client._bounce_dev_addr + stride + 4096
            nbytes = self.nbytes
            if nbytes > 8192:
                sqe.prp2 = client._prp_list(self.part)
            elif nbytes > 4096:
                sqe.prp2 = data + 4096
        self.command = sqe
        qp = self.queue = client._qp
        qp.execute(self)

    def _answered(self, cqe: CompletionEntry) -> None:
        # hot-path
        self.cqe = cqe
        # Naive completion software path + copy out of the bounce buffer.
        self._arm(self.device.config.host.dist_complete_ns, self._completed)

    def _completed(self, _timer: Event) -> None:
        # hot-path
        request = self.request
        cqe = self.cqe
        request.status = cqe.status
        if request.op == "read" and not cqe.status:
            client = self.device
            if client.data_path == "bounce":
                self._arm(client._memcpy_ns(self.nbytes), self._copied_out)
                return
            self._read_out()
        self._unmap()

    def _copied_out(self, _timer: Event) -> None:
        # hot-path
        self._read_out()
        self._unmap()

    def _read_out(self) -> None:
        client = self.device
        self.request.result = client.node.host.memory.read(
            client._bounce_seg.phys_addr + client._part_stride * self.part
            + 4096, self.nbytes)

    def _unmap(self) -> None:
        # hot-path
        client = self.device
        if client.data_path == "iommu":
            self._arm(client.config.host.iommu_unmap_ns, self._released)
        else:
            self._released(None)

    def _released(self, _timer: Event | None) -> None:
        # hot-path
        self.device._parts.put(self.part)
        self._finish()


class DistributedNvmeClient(BlockDevice):
    """Block device backed by a (possibly remote) shared NVMe controller."""

    request_record = _ClientRequest

    def __init__(self, sim: Simulator, smartio: SmartIoService,
                 node: SisciNode, device_id: int,
                 config: SimulationConfig,
                 queue_entries: int = 64, queue_depth: int = 32,
                 sq_placement: str = "device",
                 cq_placement: str = "client",
                 data_path: str = "bounce",
                 completion_mode: str = "poll",
                 sharing: str = "auto",
                 slot_index: int | None = None,
                 name: str | None = None) -> None:
        if sq_placement not in ("device", "client"):
            raise ClientError(f"bad sq_placement: {sq_placement}")
        if cq_placement not in ("device", "client"):
            raise ClientError(f"bad cq_placement: {cq_placement}")
        if data_path not in ("bounce", "iommu"):
            raise ClientError(f"bad data_path: {data_path}")
        if completion_mode not in ("poll", "interrupt"):
            raise ClientError(f"bad completion_mode: {completion_mode}")
        if completion_mode == "interrupt" and cq_placement != "client":
            raise ClientError(
                "interrupt mode requires a client-local CQ")
        if sharing not in ("auto", "never", "force"):
            raise ClientError(f"bad sharing: {sharing}")
        if sharing == "force" and completion_mode == "interrupt":
            raise ClientError(
                "interrupt completion is incompatible with a shared QP "
                "(completions arrive by mailbox forwarding)")
        queue_depth = usable_depth(queue_depth, queue_entries)
        self.smartio = smartio
        self.node = node
        self.device_id = device_id
        self.config = config
        self.queue_entries = queue_entries
        self.sq_placement = sq_placement
        self.cq_placement = cq_placement
        self.data_path = data_path
        self.completion_mode = completion_mode
        self.sharing = sharing
        self.slot_index = (slot_index if slot_index is not None
                           else (node.node_id - 4) % meta.NSLOTS)
        super().__init__(sim, name or f"{node.host.name}-nvme",
                         lba_bytes=512, capacity_lbas=0,
                         queue_depth=queue_depth)
        # Histograms key by tenant: the *host* this client acts for.
        # A cluster host holds one path-client per member device, all
        # sharing this label, so per-tenant series aggregate naturally.
        self.tenant = node.host.name
        #: the queue pair (rings, command lifecycle); built by start()
        self._qp: QueuePair | None = None
        self._inflight: dict = {}       # the pair's cid -> waiter map
        self._running = False
        self._started = False
        self.crashed = False
        self.qid: int | None = None
        self._ref = None
        #: what start() takes and shutdown() gives back
        self._meta_conn: RemoteSegment | None = None
        self._sq_conn = self._cq_conn = None
        self._sq_seg = self._cq_seg = self._bounce_seg = self._irq_seg = None
        #: the completion-notice loop: the pair's (a record), or the
        #: device-side-CQ ablation's process; both stop on interrupt()
        self._notice: t.Any = None
        self._hb_proc: Process | None = None
        #: shared-QP tenancy (docs/queue_sharing.md); populated when the
        #: manager admits us onto a shared queue pair.
        self._shared = False
        self._tenant = 0
        self._win_start = 0
        self._submitted = 0             # absolute, continues predecessor's

    # ------------------------------------------------------------- bootstrap

    def start(self) -> t.Generator:
        cfg = self.config
        self._ref = self.smartio.acquire(self.device_id, self.node)
        self._bar = self._ref.map_bar(0)

        # Read the manager's metadata segment.
        meta_node, meta_seg = self.smartio.device_metadata(self.device_id)
        self._meta_conn = self.node.connect_segment(meta_node, meta_seg)
        raw = yield self._meta_conn.read(0, meta.HEADER_SIZE)
        header = meta.unpack_header(raw)
        self.lba_bytes = header["lba_bytes"]
        self.capacity_lbas = header["capacity_lbas"]
        self.nsid = header["nsid"]

        # Private attempt first (unless sharing is forced): allocate
        # queue segments placed per strategy, resolved for the device.
        resp = None
        if self.sharing != "force":
            sq_seg = self.smartio.alloc_segment_placed(
                self.node, self.device_id, self.queue_entries * 64,
                Placement.DEVICE_SIDE if self.sq_placement == "device"
                else Placement.CPU_SIDE)
            cq_seg = self.smartio.alloc_segment_placed(
                self.node, self.device_id, self.queue_entries * 16,
                Placement.CPU_SIDE if self.cq_placement == "client"
                else Placement.DEVICE_SIDE)
            self._sq_seg, self._cq_seg = sq_seg, cq_seg
            sq_dev_addr = self._ref.map_segment_for_device(sq_seg)
            cq_dev_addr = self._ref.map_segment_for_device(cq_seg)

            # Ask the manager for a queue pair (interrupt-capable when
            # the remote-interrupt extension is requested).
            flags = (meta.FLAG_INTERRUPTS
                     if self.completion_mode == "interrupt" else 0)
            resp = yield from self._rpc(meta.OP_CREATE_QP,
                                        entries=self.queue_entries,
                                        sq_addr=sq_dev_addr,
                                        cq_addr=cq_dev_addr,
                                        flags=flags)
            if (resp["rpc_status"] == meta.RPC_USE_SHARED
                    and self.sharing == "auto"
                    and self.completion_mode != "interrupt"):
                # Private QPs are exhausted down to the shared reserve:
                # give the queue memory back and retry as a tenant.
                self._ref.unmap_segment_for_device(sq_dev_addr)
                self._ref.unmap_segment_for_device(cq_dev_addr)
                sq_seg.remove()
                cq_seg.remove()
                self._sq_seg = self._cq_seg = None
                resp = None
            elif resp["rpc_status"] != meta.RPC_OK:
                self._give_back()
                raise ClientError(f"manager refused queue pair: "
                                  f"{resp['rpc_status']}")

        if resp is not None:
            # Private queue pair.
            # CPU-side access paths to the queue memory.
            self._sq_conn = self.node.connect_segment(sq_seg.id.node_id,
                                                      sq_seg.id.segment_id)
            self._cq_conn = self.node.connect_segment(cq_seg.id.node_id,
                                                      cq_seg.id.segment_id)
            self._cq_local = cq_seg.host is self.node.host
            self.qid = resp["qid"]
            self._adopt(
                SubmissionQueueState(qid=self.qid, base_addr=0,
                                     entries=self.queue_entries,
                                     cqid=self.qid, probe=self.probe),
                # A device-side CQ (the ablation) is only ever read
                # across the NTB, by _poll_remote; the pair gets none.
                CompletionQueueState(
                    qid=self.qid, entries=self.queue_entries,
                    base_addr=cq_seg.phys_addr if self._cq_local else 0,
                    probe=self.probe))
        else:
            yield from self._start_shared()

        # Bounce buffer: client-local, partitioned per in-flight request.
        # Each partition is [one PRP-list page][data], so the NVMe DMA
        # descriptors for a partition can be "programmed once" (Sec. V)
        # and transfers beyond two pages have a device-reachable list.
        self._part_size = max(cfg.cluster.bounce_partition_bytes, 4096)
        self._part_stride = self._part_size + 4096
        nparts = min(self.queue_depth, cfg.cluster.bounce_partitions)
        bounce_seg = self.smartio.alloc_segment_placed(
            self.node, self.device_id, nparts * self._part_stride,
            Placement.CPU_SIDE)
        self._bounce_seg = bounce_seg
        self._bounce_dev_addr = self._ref.map_segment_for_device(bounce_seg)
        self._listed: set[int] = set()    # partitions with a PRP list
        self._parts = Store(self.sim)
        for i in range(nparts):
            self._parts.put(i)

        if self.completion_mode == "interrupt":
            yield from self._setup_remote_interrupts()

        self._running = True
        self._started = True
        for f in self.probe.lifecycle:
            f(self, "client-started")
        if self.completion_mode == "interrupt":
            self._notice = self._qp.on_interrupt(
                self._irq_mailbox, cfg.host.interrupt_latency_ns)
        elif self._cq_local:
            self._notice = self._qp.poll(f"poll:{self.name}",
                                         cfg.host.poll_interval_ns)
        else:
            self._notice = self.sim.process(self._poll_remote())
        if self.config.reliability.heartbeat_interval_ns > 0:
            self._hb_proc = self.sim.process(self._heartbeat())

    def _start_shared(self) -> t.Generator:
        """Become a *tenant* of a manager-hosted shared queue pair
        (docs/queue_sharing.md).

        Only a client-local completion mailbox is allocated here; the
        shared SQ lives in the manager's host and we submit into our
        reserved slot window with posted writes through the NTB.  The
        manager's demux worker forwards our completions (matched by the
        tenant bits of the CID) into the mailbox as posted writes, so
        the completion path stays client-local polling exactly like a
        private client-side CQ.
        """
        self._cq_seg = mb_seg = self.smartio.alloc_segment_placed(
            self.node, self.device_id, self.queue_entries * 16,
            Placement.CPU_SIDE)
        resp = yield from self._rpc(
            meta.OP_CREATE_QP, entries=self.queue_entries,
            flags=meta.FLAG_SHARED,
            share_node=mb_seg.id.node_id, share_seg=mb_seg.id.segment_id)
        if resp["rpc_status"] != meta.RPC_OK:
            self._give_back()
            raise ClientError(f"manager refused shared queue pair: "
                              f"{resp['rpc_status']}")
        self._shared = True
        self.qid = resp["qid"]
        self._tenant = resp["tenant"]
        self._win_start = resp["win_start"]
        win_len = resp["win_len"]
        # Window handoff: win_tail is the window's absolute submission
        # count over all of its tenants so far.  The controller's window
        # head stands at that count modulo the window size; start our
        # ring there so head/tail agree, and continue the absolute count
        # in our doorbell shadow so the manager can tell when the window
        # has fully drained.
        self._submitted = resp["win_tail"]
        tail = resp["win_tail"] % win_len
        self._sq_conn = self.node.connect_segment(resp["share_node"],
                                                  resp["share_seg"])
        self._cq_local = True
        # An SQ producer over our slot window that rings the tenant-
        # encoded doorbell itself, and a doorbell-less mailbox for a CQ.
        # CID namespacing: our tenant index in the high bits keeps
        # in-flight ids of co-tenants disjoint and lets the manager
        # demux completions without extra state.
        self._adopt(
            SubmissionQueueState(qid=self.qid, base_addr=0,
                                 entries=win_len, cqid=self.qid,
                                 head=tail, tail=tail, probe=self.probe),
            CompletionQueueState(qid=self.qid, base_addr=mb_seg.phys_addr,
                                 entries=self.queue_entries,
                                 probe=self.probe),
            first_slot=self._win_start,
            ring=self._ring_shared_sq_doorbell, cq_bell=False,
            cid_base=meta.make_cid(self._tenant, 0),
            cid_span=meta.CID_SEQ_MASK + 1)
        for f in self.probe.lifecycle:
            f(self, "shared-qp-joined", self._tenant, self._win_start,
              win_len)

    def _adopt(self, sq: SubmissionQueueState, cq: CompletionQueueState,
               **window) -> None:
        """Our queue pair: rings reached through ``_sq_conn`` and local
        CQ memory, doorbells through the NTB-mapped BAR."""
        self._qp = qp = QueuePair(
            self.sim, self.node.fabric, self.node.host, self._bar, sq,
            self._sq_conn, cq if self._cq_local else None,
            reliability=self.config.reliability, name=self.name,
            ctrl=self._ref.function, **window)
        self.sq, self.cq, self._inflight = sq, cq, qp.inflight

    def _setup_remote_interrupts(self) -> t.Generator:
        """The remote-interrupt extension (paper future work).

        The controller's MSI-X write is just another posted memory
        write, so it can be steered through a device-side NTB window to
        a mailbox in *client* memory: allocate the mailbox as a segment,
        map it for the device, and program the device-visible address
        into the MSI-X table entry for our vector through the mapped
        BAR.  PCIe posted ordering keeps the interrupt behind the CQE.
        """
        from ..nvme.registers import MSIX_ENTRY_SIZE, MSIX_TABLE_OFFSET

        self._irq_seg = mailbox_seg = self.smartio.alloc_segment_placed(
            self.node, self.device_id, 4096, Placement.CPU_SIDE)
        self._irq_mailbox = mailbox_seg.phys_addr
        mailbox_dev = self._ref.map_segment_for_device(mailbox_seg)
        entry = self._bar + MSIX_TABLE_OFFSET + self.qid * MSIX_ENTRY_SIZE
        for offset, value in ((0, mailbox_dev & 0xFFFF_FFFF),
                              (4, mailbox_dev >> 32),
                              (8, self.qid), (12, 0)):   # data, unmask
            self.node.fabric.post_write(
                self.node.host.rc, self.node.host, entry + offset,
                value.to_bytes(4, "little"))
        # Ensure the table writes have landed before any I/O is issued.
        yield self.sim.timeout(2_000)

    def shutdown(self) -> t.Generator:
        """Return the queue pair to the manager and unmap everything.

        Orderly teardown: stop the completion poller and the heartbeat,
        fail whatever is still in flight with ``STATUS_HOST_SHUTDOWN``
        (the waiters observe a distinct host-side status, never a
        hang), then release the queue pair, the device reference, the
        connections (their NTB windows) and the segments (their DRAM).
        """
        self._running = False
        self._stop_workers()
        if self._qp is not None:
            self._qp.fail_all(STATUS_HOST_SHUTDOWN)
        for f in self.probe.lifecycle:
            f(self, "client-shutdown")
        if self.qid is not None:
            yield from self._rpc(meta.OP_DELETE_QP, qid=self.qid)
            self.qid = None
        self._give_back()

    def _give_back(self) -> None:
        """Release what :meth:`start` took so far: the device reference
        (its BAR and DMA windows), the connections (their NTB windows)
        and the segments (their DRAM).  Once; by :meth:`shutdown`, or by
        a start the manager refuses."""
        if self._ref is None:
            return
        self._ref.release()
        self._ref = None
        for conn in (self._meta_conn, self._sq_conn, self._cq_conn):
            if conn is not None:
                conn.disconnect()
        for seg in (self._sq_seg, self._cq_seg, self._bounce_seg,
                    self._irq_seg):
            if seg is not None:
                seg.remove()

    def crash(self) -> None:
        """Surprise removal (paper Sec. IV): the host dies without any
        cleanup RPC.  Local waiters are released with
        ``STATUS_HOST_CRASHED``; the manager only finds out when the
        heartbeat stops and the liveness lease expires."""
        if self.crashed:
            return
        self.crashed = True
        self._running = False
        self._stop_workers()
        if self._qp is not None:
            self._qp.fail_all(STATUS_HOST_CRASHED)
        for f in self.probe.lifecycle:
            f(self, "client-crashed")

    def _stop_workers(self) -> None:
        for worker in (self._notice, self._hb_proc):
            if worker is not None and worker.is_alive:
                worker.interrupt()
        self._notice = None
        self._hb_proc = None

    def set_qos_window(self, window: int | None) -> None:
        """Clamp (or, with None, unclamp) outstanding commands
        (docs/qos.md).  Called by :class:`~repro.qos.AdmissionThrottle`
        while this tenant's burn-rate alert is active."""
        qp = self._qp
        if qp is None:
            raise ClientError("client not started")
        prev = qp.window
        qp.window = window
        if window is None or (prev is not None and window > prev):
            # Widening/lifting the clamp can unblock parked submitters.
            qp.space.fire()

    # The pair holds the clamp and the recovery counts (docs/qos.md,
    # docs/fault_injection.md); before start() there is nothing to hold.

    @property
    def qos_window(self) -> int | None:
        return self._qp.window if self._qp is not None else None

    @property
    def throttled_ios(self) -> int:
        return self._qp.throttled if self._qp is not None else 0

    @property
    def timeouts(self) -> int:
        return self._qp.timeouts if self._qp is not None else 0

    @property
    def retries(self) -> int:
        return self._qp.retries if self._qp is not None else 0

    @property
    def stale_completions(self) -> int:
        return self._qp.stale if self._qp is not None else 0

    def _heartbeat(self) -> t.Generator:
        """Post the liveness counter into the metadata segment."""
        assert self._meta_conn is not None
        interval = self.config.reliability.heartbeat_interval_ns
        offset = meta.heartbeat_offset(self.slot_index)
        try:
            while self._running:
                # +1 so the very first beat (at t=0) is nonzero: the
                # manager treats 0 as "no lease established yet".
                self._meta_conn.write(
                    offset,
                    (self.sim.now + 1).to_bytes(meta.HEARTBEAT_SIZE,
                                                "little"))
                yield self.sim.timeout(interval)
        except Interrupt:
            return

    # ---------------------------------------------------------------- RPC

    def _rpc(self, op: int, qid: int = 0, entries: int = 0,
             sq_addr: int = 0, cq_addr: int = 0,
             flags: int = 0, share_node: int = 0,
             share_seg: int = 0) -> t.Generator:
        assert self._meta_conn is not None
        cfg = self.config.host
        offset = meta.slot_offset(self.slot_index)
        payload = meta.pack_slot(meta.SLOT_REQUEST, op=op, qid=qid,
                                 entries=entries, sq_addr=sq_addr,
                                 cq_addr=cq_addr, flags=flags,
                                 share_node=share_node,
                                 share_seg=share_seg)
        while True:
            yield self._meta_conn.write_wait(offset, payload)
            resend = False
            while True:
                yield self.sim.timeout(cfg.rpc_poll_ns)
                try:
                    raw = yield self._meta_conn.read(offset,
                                                     meta.SLOT_SIZE)
                except FabricFaultError:
                    # Path to the manager severed mid-RPC; keep polling
                    # until the link heals (setup path, latency is fine).
                    continue
                resp = meta.unpack_slot(raw)
                if resp["status"] == meta.SLOT_RESPONSE:
                    break
                if resp["status"] == meta.SLOT_FREE:
                    # Our request TLP was dropped before it landed (a
                    # delivered request reads back REQUEST or RESPONSE),
                    # so re-sending cannot double-apply it.
                    resend = True
                    break
            if not resend:
                break
        yield self._meta_conn.write_wait(
            offset, meta.pack_slot(meta.SLOT_FREE))
        return resp

    # ------------------------------------------------------------ data path

    def _validate(self, request: BlockRequest) -> None:
        """Refuse at submit what this client can never serve: anything
        before start-up, a transfer beyond one bounce partition.  A
        crashed or shut-down client still takes requests and completes
        them with its host-side status (workloads drain, never hang)."""
        if not self._started and not self.crashed:
            raise ClientError("client not started")
        BlockDevice._validate(self, request)
        if self._started and request.op != "flush":
            nbytes = request.nblocks * self.lba_bytes
            if nbytes > self._part_size:
                raise BlockError(
                    f"request of {nbytes} bytes exceeds the bounce "
                    f"partition size {self._part_size}; split it in the "
                    f"workload layer")
            if nbytes > PRP_LIST_REACH:
                raise BlockError(
                    f"request of {nbytes} bytes needs a chained PRP "
                    f"list; split it in the workload layer")

    def _ring_shared_sq_doorbell(self, request) -> None:
        """The pair's ring step: mirror the absolute submission count
        into our doorbell shadow first (the manager reads it locally at
        release/reclaim — count mod window size hands the ring position
        to the next tenant, and the count itself tells the manager when
        every command ever submitted to the window has completed), then
        ring with the window index in the doorbell's high half."""
        assert self._meta_conn is not None
        self._submitted += 1
        self._meta_conn.write(
            meta.shadow_offset(self.qid, self._tenant),
            self._submitted.to_bytes(meta.SHADOW_SIZE, "little"))
        db_write = self.node.fabric.post_write(
            self.node.host.rc, self.node.host,
            self._bar + sq_doorbell_offset(self.qid),
            ((self._tenant << 16) | self.sq.tail).to_bytes(4, "little"))
        for f in self.probe.doorbell_rung:
            f(self._qp, db_write, request)

    def _prp_list(self, part: int) -> int:
        """The device address of bounce partition ``part``'s PRP list,
        one entry per data page after the first.  The first transfer
        beyond two pages writes it (a host-local store, no model time);
        the partition never moves, so it stays valid."""
        list_device = self._bounce_dev_addr + self._part_stride * part
        if part not in self._listed:
            self._listed.add(part)
            list_local = self._bounce_seg.phys_addr + self._part_stride * part
            memory = self.node.host.memory
            prps_for_contiguous(
                list_device + 4096, min(self._part_size, PRP_LIST_REACH),
                list_device, lambda blob: memory.write(list_local, blob))
        return list_device

    def _memcpy_ns(self, nbytes: int) -> int:
        cfg = self.config.host
        return cfg.memcpy_overhead_ns + serialize_ns(
            nbytes, cfg.memcpy_bandwidth)

    # ----------------------------------------------------------- completion

    def _poll_remote(self) -> t.Generator:
        """Ablation path: CQ in device-side memory — every poll is a
        non-posted read across the NTB."""
        cfg = self.config.host
        cq = self.cq
        try:
            while self._running:
                # This read across the NTB is the point of the ablation:
                # the deliberate Fig. 8 counter-example.
                try:
                    raw = yield self._cq_conn.read(cq.head * 16, 16)
                except FabricFaultError:
                    # Severed path: back off, poll again when it heals.
                    yield self.sim.timeout(cfg.poll_interval_ns * 10)
                    continue
                if raw[14] & 1 == cq.phase:
                    cq.consume()
                    self._qp.complete(CompletionEntry.unpack(raw))
                    # The pair holds no remote CQ: ring its head here.
                    self.node.fabric.post_write(
                        self.node.host.rc, self.node.host,
                        self._bar + cq_doorbell_offset(cq.qid),
                        cq.head.to_bytes(4, "little"))
                elif self._inflight:
                    yield self.sim.timeout(cfg.poll_interval_ns)
                else:
                    yield self.sim.timeout(cfg.poll_interval_ns * 10)
        except Interrupt:
            return  # shutdown/crash stopped the poller

