"""Admin queue-pair handling shared by the stock driver and the manager.

Queue memory and admin data buffers come from a :class:`DmaPool`, which
pairs every CPU-side address with the address the *device* must use.
In the paper's evaluation the manager runs in the device's host and the
two coincide; a remote manager supplies a pool backed by a SISCI segment
mapped for the device ("the driver can run on any host in the network",
Sec. IV).

Admin completions are polled (setup-path only; performance irrelevant).
"""

from __future__ import annotations

import typing as t

from ..config import SimulationConfig
from ..nvme import (AdminOpcode, IdentifyController, IdentifyNamespace,
                    SubmissionEntry)
from ..nvme.constants import (CNS_CONTROLLER, CNS_NAMESPACE, FEAT_NUM_QUEUES,
                              REG_ACQ, REG_AQA, REG_ASQ, REG_CC, REG_CSTS)
from ..pcie import Fabric, Host
from .dmapool import DmaPool, local_pool
from .qpair import QueuePair


class AdminError(Exception):
    pass


class AdminQueues:
    """Owns the admin SQ/CQ and performs privileged controller commands."""

    QSIZE = 32
    POOL_BYTES = 64 * 1024

    def __init__(self, sim, fabric: Fabric, host: Host, bar_addr: int,
                 config: SimulationConfig,
                 pool: DmaPool | None = None) -> None:
        self.sim = sim
        self.fabric = fabric
        self.host = host
        self.bar = bar_addr
        self.config = config
        self.pool = pool or local_pool(host, self.POOL_BYTES)

        sq_cpu, sq_dev = self.pool.alloc(self.QSIZE * 64)
        cq_cpu, cq_dev = self.pool.alloc(self.QSIZE * 16)
        # Rings at their CPU-side addresses; the controller is told the
        # device-side ones in enable_controller().
        self._qp = QueuePair.local(sim, fabric, host, bar_addr, 0,
                                   self.QSIZE, sq_cpu, cq_cpu)
        self.sq, self.cq = self._qp.sq, self._qp.cq
        self._sq_device_addr = sq_dev
        self._cq_device_addr = cq_dev

    # -- low level ----------------------------------------------------------

    def _reg_write(self, offset: int, value: int, width: int = 4) -> None:
        self.fabric.post_write(self.host.rc, self.host, self.bar + offset,
                               value.to_bytes(width, "little"))

    def _reg_read(self, offset: int, width: int = 4):
        data = yield self.fabric.read(self.host.rc, self.host,
                                      self.bar + offset, width)
        return int.from_bytes(data, "little")

    # -- bring-up -----------------------------------------------------------

    def enable_controller(self) -> t.Generator:
        """Program AQA/ASQ/ACQ, set CC.EN, wait for CSTS.RDY."""
        self._reg_write(REG_AQA, ((self.QSIZE - 1) << 16) | (self.QSIZE - 1))
        self._reg_write(REG_ASQ, self._sq_device_addr, width=8)
        self._reg_write(REG_ACQ, self._cq_device_addr, width=8)
        self._reg_write(REG_CC, (6 << 16) | (4 << 20) | 1)
        deadline = self.sim.now + 10 * self.config.nvme.enable_latency_ns
        while True:
            csts = yield from self._reg_read(REG_CSTS)
            if csts & 1:
                return
            if self.sim.now > deadline:
                raise AdminError("controller did not become ready")
            yield self.sim.timeout(100_000)

    def disable_controller(self) -> t.Generator:
        self._reg_write(REG_CC, 0)
        while True:
            csts = yield from self._reg_read(REG_CSTS)
            if not csts & 1:
                return
            yield self.sim.timeout(100_000)

    # -- command path ------------------------------------------------------------

    def submit(self, sqe: SubmissionEntry) -> t.Generator:
        """Issue one admin command and poll for its completion."""
        qp = self._qp
        sqe.cid = qp.next_cid()
        qp.issue(sqe)
        wp = qp.watch()
        try:
            while True:
                cqe = qp.pop()
                if cqe is not None:
                    return cqe
                yield wp.signal.wait()
        finally:
            self.host.memory.unwatch(wp)

    def submit_ok(self, sqe: SubmissionEntry) -> t.Generator:
        cqe = yield from self.submit(sqe)
        if not cqe.ok:
            raise AdminError(
                f"admin opcode {sqe.opcode:#x} failed with status "
                f"{cqe.status:#x}")
        return cqe

    # -- admin helpers -------------------------------------------------------------

    def identify_controller(self) -> t.Generator:
        cpu, dev = self.pool.alloc(4096)
        yield from self.submit_ok(SubmissionEntry(
            opcode=AdminOpcode.IDENTIFY, prp1=dev, cdw10=CNS_CONTROLLER))
        data = self.host.memory.read(cpu, 4096)
        self.pool.free(cpu)
        return IdentifyController.unpack(data)

    def identify_namespace(self, nsid: int = 1) -> t.Generator:
        cpu, dev = self.pool.alloc(4096)
        yield from self.submit_ok(SubmissionEntry(
            opcode=AdminOpcode.IDENTIFY, nsid=nsid, prp1=dev,
            cdw10=CNS_NAMESPACE))
        data = self.host.memory.read(cpu, 4096)
        self.pool.free(cpu)
        return IdentifyNamespace.unpack(data)

    def create_io_cq(self, qid: int, entries: int, base_device_addr: int,
                     interrupts: bool = False, vector: int = 0):
        yield from self.submit_ok(SubmissionEntry(
            opcode=AdminOpcode.CREATE_IO_CQ, prp1=base_device_addr,
            cdw10=((entries - 1) << 16) | qid,
            cdw11=(vector << 16) | (2 if interrupts else 0) | 1))

    def create_io_sq(self, qid: int, entries: int, base_device_addr: int,
                     cqid: int, shared: bool = False,
                     window_entries: int = 0):
        # ``shared`` sets the vendor-extension bit (cdw11 bit 3) that
        # creates a windowed shared SQ; cdw12 carries the per-tenant
        # window size (docs/queue_sharing.md).
        yield from self.submit_ok(SubmissionEntry(
            opcode=AdminOpcode.CREATE_IO_SQ, prp1=base_device_addr,
            cdw10=((entries - 1) << 16) | qid,
            cdw11=(cqid << 16) | (8 if shared else 0) | 1,
            cdw12=window_entries & 0xFFFF))

    def delete_io_sq(self, qid: int):
        yield from self.submit_ok(SubmissionEntry(
            opcode=AdminOpcode.DELETE_IO_SQ, cdw10=qid))

    def delete_io_cq(self, qid: int):
        yield from self.submit_ok(SubmissionEntry(
            opcode=AdminOpcode.DELETE_IO_CQ, cdw10=qid))

    def get_queue_count(self) -> t.Generator:
        cqe = yield from self.submit_ok(SubmissionEntry(
            opcode=AdminOpcode.GET_FEATURES, cdw10=FEAT_NUM_QUEUES))
        return (cqe.result & 0xFFFF) + 1
