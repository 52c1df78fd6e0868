"""Kernel nvme-rdma initiator model (paper Fig. 9a, left side).

A block driver that encapsulates NVMe commands into capsules and posts
them over an RDMA QP — the stock Linux behaviour the paper benchmarks:

* writes up to ``in_capsule_data_size`` travel inline in the capsule;
  larger writes are pulled by the target with RDMA_READ;
* reads carry a buffer descriptor (address + rkey); the target pushes
  data back with RDMA_WRITE before the response capsule;
* response handling is *interrupt-driven* (the kernel initiator arms
  the recv CQ and sleeps), adding the usual IRQ + softirq latency.

Cids, waiters, timeouts and retries are the queue-pair core's
(:class:`~repro.driver.qpair.Commands`, the ring-less half); a request
is a record (:class:`_CapsuleRequest`), and so is the response reaping
(:class:`_Responses`, the receive loop the target's reactor uses too): no
process per I/O.
"""

from __future__ import annotations

import typing as t

from ..config import SimulationConfig
from ..nvme import CompletionEntry
from ..pcie import Host
from ..rdma import (CompletionQueue, ProtectionDomain, QueuePair, RdmaNic,
                    RecvLoop, RecvWR, SendWR, WorkCompletion, WrOpcode)
from ..sim import Event, Simulator, Store
from .capsules import CommandCapsule, ResponseCapsule
from .target import SpdkTarget
from ..driver.blockdev import BlockDevice, BlockError, BlockRequest
from ..driver.qpair import CommandRecord, Commands, io_sqe, usable_depth

#: per-request staging area: capsule header+SQE+inline, plus data buffer.
SLOT_DATA_BYTES = 128 * 1024
SLOT_BYTES = 8192 + SLOT_DATA_BYTES


class _Slot:
    """A staging slot: a capsule, numbered afresh per attempt, then data."""

    __slots__ = ("addr", "mr", "capsule", "cid")

    def __init__(self, addr: int, mr) -> None:
        self.addr, self.mr, self.capsule, self.cid = addr, mr, None, 0


class _CapsuleQueue(Commands):
    """The initiator's command core: issuing stages and SENDs a capsule."""

    def __init__(self, initiator: "NvmeofInitiator") -> None:
        super().__init__(initiator.sim, initiator.config.reliability,
                         name=initiator.name)
        self._memory, self._qp = initiator.host.memory, initiator.qp

    def issue(self, slot: _Slot, request=None) -> None:
        capsule = slot.capsule
        capsule.sqe.cid = slot.cid
        raw = capsule.pack()
        self._memory.write(slot.addr, raw)
        self._qp.post_send(SendWR(wr_id=slot.cid, opcode=WrOpcode.SEND,
                                  local_addr=slot.addr, length=len(raw)))


class _CapsuleRequest(CommandRecord):
    """One request through the kernel initiator: blk-mq and nvme-rdma
    encapsulation, a staging slot, the capsule built, the SEND posted
    (WQE and doorbell costs), the command, the response handled."""

    __slots__ = ("slot",)

    def _serve(self, _grant: Event) -> None:
        # hot-path
        config = self.device.config
        # Kernel submission path: blk-mq + nvme-rdma encapsulation.
        self._arm(config.host.block_submit_ns
                  + config.nvmeof.initiator_submit_ns, self._submitted)

    def _submitted(self, _timer: Event) -> None:
        # hot-path
        self.device._slots.get(self._staging)

    def _staging(self, slot: Event) -> None:
        """A staging slot is ours: build the capsule."""
        # hot-path
        self.slot = slot = slot._value
        initiator = self.device
        request = self.request
        data_addr = slot.addr + 8192
        slot.capsule = capsule = CommandCapsule(io_sqe(request))
        if request.op in BlockRequest.DATA_OUT_OPS:
            if len(request.data) <= \
                    initiator.config.nvmeof.in_capsule_data_size:
                capsule.inline_data = request.data
            else:
                initiator.host.memory.write(data_addr, request.data)
                capsule.buffer_addr = data_addr
                capsule.rkey = slot.mr.rkey
        elif request.op == "read":
            capsule.buffer_addr = data_addr
            capsule.rkey = slot.mr.rkey
        # Post the SEND (doorbell + WQE costs); the core stages the
        # capsule in the slot under each attempt's cid.
        rdma = initiator.config.rdma
        self._arm(rdma.post_wqe_ns + rdma.doorbell_ns, self._posted)

    def _posted(self, _timer: Event) -> None:
        # hot-path
        self.command = self.slot
        commands = self.queue = self.device.commands
        commands.execute(self)

    def _answered(self, cqe: CompletionEntry) -> None:
        # hot-path
        self.cqe = cqe
        self._arm(self.device.config.nvmeof.initiator_complete_ns,
                  self._completed)

    def _completed(self, _timer: Event) -> None:
        # hot-path
        request = self.request
        cqe = self.cqe
        request.status = cqe.status
        initiator = self.device
        slot = self.slot
        if request.op == "read" and not cqe.status:
            request.result = initiator.host.memory.read(
                slot.addr + 8192, request.nblocks * initiator.lba_bytes)
        initiator._slots.put(slot)
        self._finish()


class NvmeofInitiator(BlockDevice):
    """NVMe-oF block device over RDMA."""

    request_record = _CapsuleRequest

    def __init__(self, sim: Simulator, host: Host, nic: RdmaNic,
                 config: SimulationConfig, queue_depth: int = 32,
                 name: str = "nvme-of") -> None:
        self.host = host
        self.nic = nic
        self.config = config
        super().__init__(sim, name, lba_bytes=512, capacity_lbas=0,
                         queue_depth=usable_depth(
                             queue_depth, SpdkTarget.QUEUE_ENTRIES))
        self.pd = ProtectionDomain(host)
        self.qp: QueuePair | None = None
        self._slots: Store = Store(sim)
        self.commands: Commands | None = None     # built by connect()
        self._running = False

    # -- connection setup -------------------------------------------------------

    def connect(self, target: SpdkTarget) -> t.Generator:
        """Establish the fabric connection and queue binding."""
        self.lba_bytes = target.lba_bytes
        self.capacity_lbas = target.capacity_lbas

        send_cq = CompletionQueue(self.sim, f"{self.name}-send")
        recv_cq = CompletionQueue(self.sim, f"{self.name}-recv")
        self.qp = QueuePair(self.nic, self.pd, send_cq, recv_cq,
                            name=f"{self.name}-qp")
        target_qp = yield from target.add_connection(
            queue_depth=self.queue_depth)
        self.qp.connect(target_qp)

        # Response-capsule receive buffers.
        for _ in range(self.queue_depth * 2):
            addr = self.host.alloc_dma(256)
            self.pd.register(addr, 256)
            self.qp.post_recv(RecvWR(wr_id=addr, addr=addr, length=256))

        # Per-request staging slots (registered once, reused).
        for _ in range(self.queue_depth):
            addr = self.host.alloc_dma(SLOT_BYTES)
            self._slots.put(_Slot(addr, self.pd.register(addr, SLOT_BYTES)))

        self.commands = _CapsuleQueue(self)
        self._running = True
        _Responses(self)    # response reaping, for the connection's life

    # -- data path -------------------------------------------------------------

    def _validate(self, request: BlockRequest) -> None:
        """Refuse at submit what the initiator can never serve: anything
        before the connection, a transfer beyond one staging slot."""
        if not self._running:
            raise BlockError("initiator not connected")
        BlockDevice._validate(self, request)
        if request.op != "flush" and \
                request.nblocks * self.lba_bytes > SLOT_DATA_BYTES:
            raise BlockError("request exceeds the initiator slot size; "
                             "split it in the workload layer")


class _Responses(RecvLoop):
    """The initiator's response reaping: a wake-up pays the IRQ latency,
    a response completes its command, a batch's end drains the send CQ;
    either ends the loop once the initiator has stopped."""

    __slots__ = ("initiator",)

    def __init__(self, initiator: NvmeofInitiator) -> None:
        self.initiator = initiator
        RecvLoop.__init__(self, initiator.sim, initiator.qp,
                          initiator.config.rdma.cq_poll_ns, 256)

    def _woken(self, _wake: Event) -> None:
        # hot-path
        initiator = self.initiator
        if initiator._running:
            self._arm(initiator.config.host.interrupt_latency_ns,
                      self._look)
        else:
            self._end()

    def _took(self, wc: WorkCompletion) -> None:
        # hot-path
        initiator = self.initiator
        raw = initiator.host.memory.read(wc.wr_id, wc.byte_len)
        initiator.commands.complete(ResponseCapsule.unpack(raw).cqe)
        self._reaped()

    def _drained(self) -> None:
        # hot-path
        self.qp.send_cq.poll(64)
        if self.initiator._running:
            self._look()
        else:
            self._end()
