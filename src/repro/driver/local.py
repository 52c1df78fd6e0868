"""The local NVMe driver body (the paper's local baselines, Fig. 9a).

One block driver for a controller in this host: admin bring-up, one I/O
queue pair in local DRAM (:class:`~repro.driver.qpair.QueuePair`), no
bounce buffer — request data is DMA'd directly.  What differs between
the stock Linux driver and an SPDK-style userspace one is a cost table
and how the CPU notices completions; :class:`~repro.driver.stock.
StockNvmeDriver` and :class:`~repro.driver.spdk_local.SpdkLocalDriver`
are its two parameterisations.  A request is a record
(:class:`_LocalRequest`), no process.
"""

from __future__ import annotations

import typing as t

from ..config import SimulationConfig
from ..nvme.registers import MSIX_TABLE_OFFSET
from ..pcie import Fabric, Host
from ..nvme import CompletionEntry
from ..sim import Event, Simulator
from .adminq import AdminQueues
from .blockdev import BlockDevice, BlockError, BlockRequest
from .prputil import prps_for_contiguous
from .qpair import CommandRecord, QueuePair, io_sqe, usable_depth


class _LocalRequest(CommandRecord):
    """One request through a local driver: the submit path, the data
    buffer (DMA'd directly, no bounce), the command, the completion
    cost charged after the wake-up."""

    __slots__ = ("alloc",)

    def _serve(self, _grant: Event) -> None:
        # hot-path
        self._arm(self.device.submit_ns, self._submitted)

    def _submitted(self, _timer: Event) -> None:
        # hot-path
        driver = self.device
        request = self.request
        sqe = io_sqe(request)
        self.alloc = 0
        if request.op in BlockRequest.DATA_OPS:
            # [one PRP-list page][data]: contiguous, page-aligned.
            host = driver.host
            nbytes = request.nblocks * driver.lba_bytes
            self.alloc = alloc = host.alloc_dma(4096 + max(nbytes, 4096))
            if request.op in BlockRequest.DATA_OUT_OPS:
                host.memory.write(alloc + 4096, request.data)
            sqe.prp1, sqe.prp2 = prps_for_contiguous(
                alloc + 4096, nbytes, alloc,
                lambda blob: host.memory.write(alloc, blob))
        self.command = sqe
        qp = self.queue = driver._qp
        qp.execute(self)

    def _answered(self, cqe: CompletionEntry) -> None:
        # hot-path
        self.cqe = cqe
        wake_ns = self.device.wake_ns
        if wake_ns:
            self._arm(wake_ns, self._woken)
        else:
            self._woken(None)

    def _woken(self, _timer: Event | None) -> None:
        # hot-path
        request = self.request
        cqe = self.cqe
        request.status = cqe.status
        alloc = self.alloc
        host = self.device.host
        if request.op == "read" and not cqe.status:
            request.result = host.memory.read(
                alloc + 4096, request.nblocks * self.device.lba_bytes)
        if alloc:
            host.free_dma(alloc)
        self._finish()


class LocalNvmeDriver(BlockDevice):
    """Block driver for a local controller.

    ``submit_ns`` is the software path before the SQE store;
    ``trigger_ns`` is completion processing charged on the waiter's
    trigger, ``wake_ns`` the same charged after the waiter wakes (where
    a stack charges it decides its event count, so both stay data).
    ``irq_ns`` selects interrupt-driven completion (MSI-X vector 0 into
    a mailbox page, then that latency); None means busy-polling CQ
    memory with a draw from ``poll_stream`` in [0, ``poll_ns``].
    """

    request_record = _LocalRequest

    def __init__(self, sim: Simulator, fabric: Fabric, host: Host,
                 bar_addr: int, config: SimulationConfig, qid: int,
                 queue_entries: int, queue_depth: int, name: str, *,
                 submit_ns: int, trigger_ns: int = 0, wake_ns: int = 0,
                 irq_ns: int | None = None, poll_stream: str = "",
                 poll_ns: int = 0) -> None:
        self.fabric = fabric
        self.host = host
        self.bar = bar_addr
        self.config = config
        self.qid = qid
        self.queue_entries = queue_entries
        self.submit_ns = submit_ns
        self.trigger_ns = trigger_ns
        self.wake_ns = wake_ns
        self.irq_ns = irq_ns
        self.poll_stream = poll_stream
        self.poll_ns = poll_ns
        self.admin = AdminQueues(sim, fabric, host, bar_addr, config)
        self._qp: QueuePair | None = None
        # lba_bytes/capacity are filled in during start() from Identify.
        super().__init__(sim, name, lba_bytes=512, capacity_lbas=0,
                         queue_depth=usable_depth(queue_depth,
                                                  queue_entries))

    def start(self) -> t.Generator:
        """Enable the controller, set up one I/O queue pair."""
        yield from self.admin.enable_controller()
        ident_ns = yield from self.admin.identify_namespace(1)
        self.lba_bytes = ident_ns.lba_bytes
        self.capacity_lbas = ident_ns.nsze

        interrupts = self.irq_ns is not None
        if interrupts:
            # MSI-X vector 0 -> mailbox page in local DRAM.
            mailbox = self.host.alloc_dma(4096)
            base = self.bar + MSIX_TABLE_OFFSET
            for offset, value in ((0, mailbox & 0xFFFF_FFFF),
                                  (4, mailbox >> 32), (8, 1), (12, 0)):
                self.fabric.post_write(self.host.rc, self.host,
                                       base + offset,
                                       value.to_bytes(4, "little"))

        cq_mem = self.host.alloc_dma(self.queue_entries * 16)
        sq_mem = self.host.alloc_dma(self.queue_entries * 64)
        yield from self.admin.create_io_cq(self.qid, self.queue_entries,
                                           cq_mem, interrupts=interrupts,
                                           vector=0)
        yield from self.admin.create_io_sq(self.qid, self.queue_entries,
                                           sq_mem, cqid=self.qid)
        self._qp = qp = QueuePair.local(
            self.sim, self.fabric, self.host, self.bar, self.qid,
            self.queue_entries, sq_mem, cq_mem,
            reliability=self.config.reliability,
            complete_delay=self.trigger_ns, name=self.name,
            ctrl=self.host.addr_map.lookup(self.bar).target.function)
        if interrupts:
            qp.on_interrupt(mailbox, self.irq_ns)
        else:
            qp.poll(self.poll_stream, self.poll_ns)

    def _validate(self, request: BlockRequest) -> None:
        if self._qp is None:
            raise BlockError("driver not started")
        BlockDevice._validate(self, request)
