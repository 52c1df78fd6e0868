"""Kernel nvme-rdma initiator model (paper Fig. 9a, left side).

A block driver that encapsulates NVMe commands into capsules and posts
them over an RDMA QP — the stock Linux behaviour the paper benchmarks:

* writes up to ``in_capsule_data_size`` travel inline in the capsule;
  larger writes are pulled by the target with RDMA_READ;
* reads carry a buffer descriptor (address + rkey); the target pushes
  data back with RDMA_WRITE before the response capsule;
* response handling is *interrupt-driven* (the kernel initiator arms
  the recv CQ and sleeps), adding the usual IRQ + softirq latency.
"""

from __future__ import annotations

import typing as t

from ..config import SimulationConfig
from ..nvme import CompletionEntry
from ..pcie import Host
from ..rdma import (CompletionQueue, ProtectionDomain, QueuePair, RdmaNic,
                    RecvWR, SendWR, WrOpcode)
from ..sim import Event, Simulator, Store
from .capsules import CommandCapsule, ResponseCapsule
from .target import SpdkTarget
from ..driver.blockdev import BlockDevice, BlockError, BlockRequest
from ..driver.qpair import io_sqe, usable_depth

#: per-request staging area: capsule header+SQE+inline, plus data buffer.
SLOT_DATA_BYTES = 128 * 1024
SLOT_BYTES = 8192 + SLOT_DATA_BYTES


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
        self._slot_mr = None
        self._inflight: dict[int, Event] = {}
        self._cid = 0
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
            mr = self.pd.register(addr, SLOT_BYTES)
            self._slots.put((addr, mr))

        self._running = True
        self.sim.process(self._response_handler())

    # -- data path -------------------------------------------------------------

    def _driver_submit(self, request: BlockRequest) -> t.Generator:
        if not self._running:
            raise BlockError("initiator not connected")
        assert self.qp is not None
        cfg = self.config.nvmeof
        host_cfg = self.config.host
        nbytes = (request.nblocks * self.lba_bytes
                  if request.op != "flush" else 0)
        if nbytes > SLOT_DATA_BYTES:
            raise BlockError("request exceeds the initiator slot size; "
                             "split it in the workload layer")

        # Kernel submission path: blk-mq + nvme-rdma encapsulation.
        yield self.sim.timeout(host_cfg.block_submit_ns
                               + cfg.initiator_submit_ns)

        slot_addr, slot_mr = yield self._slots.get()
        data_addr = slot_addr + 8192

        sqe = io_sqe(request)
        self._cid = (self._cid + 1) % 0x10000
        sqe.cid = self._cid

        capsule = CommandCapsule(sqe)
        if request.op in BlockRequest.DATA_OUT_OPS:
            assert request.data is not None
            if nbytes <= cfg.in_capsule_data_size:
                capsule.inline_data = request.data
            else:
                self.host.memory.write(data_addr, request.data)
                capsule.buffer_addr = data_addr
                capsule.rkey = slot_mr.rkey
        elif request.op == "read":
            capsule.buffer_addr = data_addr
            capsule.rkey = slot_mr.rkey

        # Stage the capsule and post the SEND (doorbell + WQE costs).
        raw = capsule.pack()
        self.host.memory.write(slot_addr, raw)
        yield self.sim.timeout(self.config.rdma.post_wqe_ns
                               + self.config.rdma.doorbell_ns)
        done = Event(self.sim)
        self._inflight[sqe.cid] = done
        self.qp.post_send(SendWR(wr_id=sqe.cid, opcode=WrOpcode.SEND,
                                 local_addr=slot_addr, length=len(raw)))

        cqe: CompletionEntry = yield done
        yield self.sim.timeout(cfg.initiator_complete_ns)
        request.status = cqe.status
        if request.op == "read" and cqe.ok:
            request.result = self.host.memory.read(data_addr, nbytes)
        self._slots.put((slot_addr, slot_mr))

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
                yield self.sim.timeout(cfg.host.interrupt_latency_ns)
                continue
            for wc in completions:
                yield self.sim.timeout(cfg.rdma.cq_poll_ns)
                raw = self.host.memory.read(wc.wr_id, wc.byte_len)
                rsp = ResponseCapsule.unpack(raw)
                self.qp.post_recv(RecvWR(wr_id=wc.wr_id, addr=wc.wr_id,
                                         length=256))
                done = self._inflight.pop(rsp.cqe.cid, None)
                if done is not None:
                    done.succeed(rsp.cqe)
            # Drain send completions (not interesting for latency).
            self.qp.send_cq.poll(64)
