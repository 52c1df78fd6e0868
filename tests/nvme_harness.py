"""A minimal bare-metal NVMe "driver" used by controller tests.

Deliberately independent of :mod:`repro.driver` so controller behaviour
is validated without trusting the code under test elsewhere.  It drives
the controller exactly as hardware would be driven: MMIO register writes
through the fabric, SQEs placed in queue memory, doorbell rings, and CQ
polling on memory watchpoints.
"""

from __future__ import annotations

from repro.config import NvmeConfig, PcieConfig
from repro.nvme import (AdminOpcode, CompletionEntry, CompletionQueueState,
                        IoOpcode, NvmeController, SubmissionEntry,
                        SubmissionQueueState, cq_doorbell_offset,
                        sq_doorbell_offset)
from repro.nvme.constants import (CNS_CONTROLLER, CNS_NAMESPACE, REG_ACQ,
                                  REG_AQA, REG_ASQ, REG_CC, REG_CSTS)
from repro.pcie import Cluster, Fabric
from repro.sim import Simulator
from repro.units import MiB


def build_single_host(seed=17, nvme_config=None, media=None):
    """One host with an NVMe endpoint on a Gen3 x4 link."""
    sim = Simulator(seed=seed)
    pcfg = PcieConfig()
    cluster = Cluster(sim, pcfg)
    host = cluster.add_host("host", dram_size=256 * MiB)
    dev_node = cluster.add_endpoint("host.nvme", host=host)
    cluster.connect(host.rc, dev_node, bandwidth=3.2)
    fabric = Fabric(sim, cluster, pcfg)
    ctrl = NvmeController(sim, "nvme0", nvme_config or NvmeConfig(),
                          media=media)
    ctrl.install(host, dev_node, fabric)
    return sim, cluster, fabric, host, ctrl


class BareMetalDriver:
    """Synchronous-generator driver for one host + one controller."""

    def __init__(self, sim, fabric, host, ctrl, qsize=64):
        self.sim = sim
        self.fabric = fabric
        self.host = host
        self.ctrl = ctrl
        self.bar = ctrl.bars[0].base
        self.qsize = qsize
        self.asq = None
        self.acq = None
        self.io_sq = None
        self.io_cq = None
        self._cid = 0

    # -- low-level ---------------------------------------------------------

    def reg_write(self, offset, value, width=4):
        self.fabric.post_write(self.host.rc, self.host, self.bar + offset,
                               value.to_bytes(width, "little"))

    def reg_read(self, offset, width=4):
        data = yield self.fabric.read(self.host.rc, self.host,
                                      self.bar + offset, width)
        return int.from_bytes(data, "little")

    def next_cid(self):
        self._cid = (self._cid + 1) % 0x10000
        return self._cid

    # -- bring-up ------------------------------------------------------------

    def enable(self):
        asq_mem = self.host.alloc_dma(self.qsize * 64)
        acq_mem = self.host.alloc_dma(self.qsize * 16)
        self.asq = SubmissionQueueState(qid=0, base_addr=asq_mem,
                                        entries=self.qsize,
                                        probe=self.sim.probe)
        self.acq = CompletionQueueState(qid=0, base_addr=acq_mem,
                                        entries=self.qsize,
                                        probe=self.sim.probe)
        self.reg_write(REG_AQA,
                       ((self.qsize - 1) << 16) | (self.qsize - 1))
        self.reg_write(REG_ASQ, asq_mem, width=8)
        self.reg_write(REG_ACQ, acq_mem, width=8)
        self.reg_write(REG_CC, (6 << 16) | (4 << 20) | 1)
        while True:
            csts = yield from self.reg_read(REG_CSTS)
            if csts & 1:
                return
            yield self.sim.timeout(100_000)

    # -- command submission ---------------------------------------------------

    def submit(self, sq, sqe):
        """Write the SQE into queue memory and ring the doorbell."""
        slot = sq.advance_tail()
        self.host.memory.write(sq.slot_addr(slot), sqe.pack())
        self.reg_write(sq_doorbell_offset(sq.qid), sq.tail)

    def wait_cqe(self, cq):
        """Poll CQ memory for the next completion (phase-tag protocol)."""
        wp = self.host.memory.watch(cq.base_addr,
                                    cq.entries * cq.entry_size)
        try:
            while True:
                raw = self.host.memory.read(cq.slot_addr(cq.head), 16)
                cqe = CompletionEntry.unpack(raw)
                if cqe.phase == cq.consumer_phase():
                    cq.consume()
                    self.reg_write(cq_doorbell_offset(cq.qid), cq.head)
                    return cqe
                yield wp.signal.wait()
        finally:
            self.host.memory.unwatch(wp)

    def admin(self, sqe):
        self.submit(self.asq, sqe)
        cqe = yield from self.wait_cqe(self.acq)
        self.asq.head = cqe.sq_head   # controller reports consumed slots
        return cqe

    # -- admin helpers -----------------------------------------------------------

    def identify_controller(self):
        buf = self.host.alloc_dma(4096)
        cqe = yield from self.admin(SubmissionEntry(
            opcode=AdminOpcode.IDENTIFY, cid=self.next_cid(),
            prp1=buf, cdw10=CNS_CONTROLLER))
        data = self.host.memory.read(buf, 4096)
        return cqe, data

    def identify_namespace(self, nsid=1):
        buf = self.host.alloc_dma(4096)
        cqe = yield from self.admin(SubmissionEntry(
            opcode=AdminOpcode.IDENTIFY, cid=self.next_cid(), nsid=nsid,
            prp1=buf, cdw10=CNS_NAMESPACE))
        data = self.host.memory.read(buf, 4096)
        return cqe, data

    def create_io_queues(self, qid=1, entries=64, interrupts=False,
                         vector=0):
        cq_mem = self.host.alloc_dma(entries * 16)
        sq_mem = self.host.alloc_dma(entries * 64)
        cqe = yield from self.admin(SubmissionEntry(
            opcode=AdminOpcode.CREATE_IO_CQ, cid=self.next_cid(),
            prp1=cq_mem, cdw10=((entries - 1) << 16) | qid,
            cdw11=(vector << 16) | (2 if interrupts else 0) | 1))
        assert cqe.ok, f"create cq failed: {cqe.status:#x}"
        cqe = yield from self.admin(SubmissionEntry(
            opcode=AdminOpcode.CREATE_IO_SQ, cid=self.next_cid(),
            prp1=sq_mem, cdw10=((entries - 1) << 16) | qid,
            cdw11=(qid << 16) | 1))
        assert cqe.ok, f"create sq failed: {cqe.status:#x}"
        self.io_sq = SubmissionQueueState(qid=qid, base_addr=sq_mem,
                                          entries=entries, cqid=qid,
                                          probe=self.sim.probe)
        self.io_cq = CompletionQueueState(qid=qid, base_addr=cq_mem,
                                          entries=entries,
                                          probe=self.sim.probe)

    # -- I/O -------------------------------------------------------------------

    def io(self, opcode, slba, data=None, nblocks=None):
        """One blocking I/O through qid 1 with a local DMA buffer."""
        lba = 512
        if opcode == IoOpcode.WRITE:
            assert data is not None
            nblocks = len(data) // lba
            buf = self.host.alloc_dma(len(data))
            self.host.memory.write(buf, data)
            nbytes = len(data)
        else:
            assert nblocks is not None
            nbytes = nblocks * lba
            buf = self.host.alloc_dma(nbytes)
        sqe = SubmissionEntry(opcode=opcode, cid=self.next_cid(), nsid=1,
                              prp1=buf)
        if nbytes > 4096:
            sqe.prp2 = buf + 4096   # up to 2 pages in this helper
        sqe.slba = slba
        sqe.nlb = nblocks - 1
        self.submit(self.io_sq, sqe)
        cqe = yield from self.wait_cqe(self.io_cq)
        self.io_sq.head = cqe.sq_head   # controller reports consumed slots
        out = self.host.memory.read(buf, nbytes)
        return cqe, out
