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
(:class:`~repro.driver.qpair.Commands`, the ring-less half).
"""

from __future__ import annotations

import typing as t

from ..config import SimulationConfig
from ..nvme import CompletionEntry
from ..pcie import Host
from ..rdma import (CompletionQueue, ProtectionDomain, QueuePair, RdmaNic,
                    RecvWR, SendWR, WrOpcode)
from ..sim import Simulator, Store
from .capsules import CommandCapsule, ResponseCapsule
from .target import SpdkTarget
from ..driver.blockdev import BlockDevice, BlockError, BlockRequest
from ..driver.qpair import Commands, io_sqe, usable_depth

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


class NvmeofInitiator(BlockDevice):
    """NVMe-oF block device over RDMA."""

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
        self.sim.process(self._response_handler())

    # -- data path -------------------------------------------------------------

    def _driver_submit(self, request: BlockRequest) -> t.Generator:
        if not self._running:
            raise BlockError("initiator not connected")
        cfg = self.config.nvmeof
        host_cfg = self.config.host
        nbytes = (request.nblocks * self.lba_bytes
                  if request.op != "flush" else 0)
        if nbytes > SLOT_DATA_BYTES:
            raise BlockError("request exceeds the initiator slot size; "
                             "split it in the workload layer")

        # Kernel submission path: blk-mq + nvme-rdma encapsulation.
        yield self.sim.sleep(host_cfg.block_submit_ns
                             + cfg.initiator_submit_ns)

        slot = yield self._slots.get()
        data_addr = slot.addr + 8192

        slot.capsule = capsule = CommandCapsule(io_sqe(request))
        if request.op in BlockRequest.DATA_OUT_OPS:
            assert request.data is not None
            if nbytes <= cfg.in_capsule_data_size:
                capsule.inline_data = request.data
            else:
                self.host.memory.write(data_addr, request.data)
                capsule.buffer_addr = data_addr
                capsule.rkey = slot.mr.rkey
        elif request.op == "read":
            capsule.buffer_addr = data_addr
            capsule.rkey = slot.mr.rkey

        # Post the SEND (doorbell + WQE costs); the core stages the
        # capsule in the slot under each attempt's cid.
        yield self.sim.sleep(self.config.rdma.post_wqe_ns
                             + self.config.rdma.doorbell_ns)
        cqe: CompletionEntry = yield from self.commands.execute(slot,
                                                                request)
        yield self.sim.sleep(cfg.initiator_complete_ns)
        request.status = cqe.status
        if request.op == "read" and cqe.ok:
            request.result = self.host.memory.read(data_addr, nbytes)
        self._slots.put(slot)

    # -- completion path ----------------------------------------------------------

    def _response_handler(self) -> t.Generator:
        """Interrupt-driven response reaping (kernel initiator)."""
        assert self.qp is not None
        cfg = self.config
        recv_cq = self.qp.recv_cq
        while self._running:
            completions = recv_cq.poll()
            if not completions:
                yield recv_cq.signal.wait()
                yield self.sim.sleep(cfg.host.interrupt_latency_ns)
                continue
            for wc in completions:
                yield self.sim.sleep(cfg.rdma.cq_poll_ns)
                raw = self.host.memory.read(wc.wr_id, wc.byte_len)
                rsp = ResponseCapsule.unpack(raw)
                self.qp.post_recv(RecvWR(wr_id=wc.wr_id, addr=wc.wr_id,
                                         length=256))
                self.commands.complete(rsp.cqe)
            # Drain send completions (not interesting for latency).
            self.qp.send_cq.poll(64)
