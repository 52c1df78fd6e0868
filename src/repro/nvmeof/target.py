"""SPDK-like NVMe-oF target (paper Fig. 9a, right side).

A userspace, polling storage target on the device's host:

* owns the local NVMe controller through its own userspace driver
  (admin bring-up + one I/O queue pair per fabric connection);
* binds each connection's receive queue to that NVMe SQ: command
  capsules land in target memory by RDMA, the poller decodes them and
  submits to the controller with minimal processing — "the target driver
  can start I/O operations as soon as commands are enqueued";
* completions flow back as RDMA_WRITE (read data) + SEND (response
  capsule), again discovered by polling — SPDK never takes interrupts.

The target's costs are the paper's point: even with a polling,
zero-interrupt design, *software remains in the I/O path*, adding the
microseconds the PCIe/NTB driver avoids.
"""

from __future__ import annotations

import dataclasses
import typing as t

from ..config import SimulationConfig
from ..nvme import CompletionEntry, IoOpcode, Status
from ..pcie import Fabric, Host
from ..rdma import (CompletionQueue, ProtectionDomain, QueuePair, RdmaNic,
                    RecvWR, SendWR, WcStatus, WrOpcode)
from ..sim import Event, Simulator
from ..driver import qpair
from ..driver.adminq import AdminQueues
from ..driver.blockdev import BlockRequest
from ..driver.prputil import prps_for_contiguous
from .capsules import CommandCapsule, ResponseCapsule

#: data buffer per outstanding command: one PRP-list page + 128 KiB.
SLOT_DATA_BYTES = 128 * 1024
SLOT_BYTES = 4096 + SLOT_DATA_BYTES

#: opcodes that move data (the rest are dataless: FLUSH, WRITE_ZEROES)
_DATA_OPCODES = [qpair.IO_OPCODES[op] for op in BlockRequest.DATA_OPS]
#: of those, the ones whose data travels initiator -> target first
_DATA_OUT_OPCODES = [qpair.IO_OPCODES[op] for op in BlockRequest.DATA_OUT_OPS]
#: work-request id bases on a connection's send queue, each plus the cid:
#: the RDMA_READ pull of write data, the RDMA_WRITE push of read data,
#: the response SEND
_PULL, _PUSH, _RSP = 0x1_0000, 0x2_0000, 0x3_0000


@dataclasses.dataclass
class _Connection:
    qp: QueuePair
    nvme: qpair.QueuePair                 # the bound NVMe queue pair
    slots: list[int]                      # free slot base addresses
    inflight: dict[int, dict]             # cid -> context


class SpdkTarget:
    """Polling NVMe-oF target bound to one local NVMe controller."""

    QUEUE_ENTRIES = 128

    def __init__(self, sim: Simulator, fabric: Fabric, host: Host,
                 nvme_bar: int, nic: RdmaNic,
                 config: SimulationConfig) -> None:
        self.sim = sim
        self.fabric = fabric
        self.host = host
        self.nvme_bar = nvme_bar
        self.nic = nic
        self.config = config
        self.admin = AdminQueues(sim, fabric, host, nvme_bar, config)
        self.pd = ProtectionDomain(host)
        self.connections: list[_Connection] = []
        self.lba_bytes = 512
        self.capacity_lbas = 0
        self._next_qid = 1
        self._started = False
        self.commands_served = 0
        #: SENDs that did not unpack as a command capsule (dropped: there
        #: is no cid to answer under)
        self.malformed_capsules = 0

    # -- bring-up ------------------------------------------------------------

    def start(self) -> t.Generator:
        yield from self.admin.enable_controller()
        ident = yield from self.admin.identify_namespace(1)
        self.lba_bytes = ident.lba_bytes
        self.capacity_lbas = ident.nsze
        self._started = True

    # -- connection management ---------------------------------------------------

    def add_connection(self, queue_depth: int = 32) -> t.Generator:
        """Create an NVMe queue pair + fabric QP for one initiator.

        Returns the target-side :class:`QueuePair` the initiator must
        connect to.
        """
        assert self._started, "target not started"
        queue_depth = qpair.usable_depth(queue_depth, self.QUEUE_ENTRIES)
        qid = self._next_qid
        self._next_qid += 1

        cq_mem = self.host.alloc_dma(self.QUEUE_ENTRIES * 16)
        sq_mem = self.host.alloc_dma(self.QUEUE_ENTRIES * 64)
        yield from self.admin.create_io_cq(qid, self.QUEUE_ENTRIES, cq_mem)
        yield from self.admin.create_io_sq(qid, self.QUEUE_ENTRIES, sq_mem,
                                           cqid=qid)

        send_cq = CompletionQueue(self.sim, f"tgt{qid}-send")
        recv_cq = CompletionQueue(self.sim, f"tgt{qid}-recv")
        qp = QueuePair(self.nic, self.pd, send_cq, recv_cq,
                       name=f"tgt-qp{qid}")

        # Receive buffers for command capsules (header+SQE+inline 4 KiB).
        capsule_bytes = 8192
        for _ in range(queue_depth * 2):
            addr = self.host.alloc_dma(capsule_bytes)
            self.pd.register(addr, capsule_bytes)
            qp.post_recv(RecvWR(wr_id=addr, addr=addr,
                                length=capsule_bytes))

        # Data slots the NVMe controller DMAs to/from.
        slots = []
        for i in range(queue_depth):
            slots.append(self.host.alloc_dma(SLOT_BYTES))

        conn = _Connection(
            qp=qp, slots=slots, inflight={},
            nvme=qpair.QueuePair.local(
                self.sim, self.fabric, self.host, self.nvme_bar, qid,
                self.QUEUE_ENTRIES, sq_mem, cq_mem,
                ctrl=self.host.addr_map.lookup(self.nvme_bar)
                .target.function))
        self.connections.append(conn)
        self.sim.process(self._recv_poller(conn))
        self.sim.process(self._nvme_poller(conn))
        self.sim.process(self._send_poller(conn))
        return qp

    def _send_poller(self, conn: _Connection) -> t.Generator:
        """Reap send-side completions; RDMA_READ pulls unblock waiting
        write capsules, other completions are bookkeeping only."""
        while True:
            completions = conn.qp.send_cq.poll()
            if not completions:
                yield conn.qp.send_cq.signal.wait()
                continue
            for wc in completions:
                if _PULL <= wc.wr_id < _PUSH:         # pull finished
                    waiter = conn.inflight.pop(
                        ("pull", wc.wr_id - _PULL), None)
                    if waiter is not None:
                        waiter.succeed(wc)

    # -- fabric-side poller ---------------------------------------------------------

    def _recv_poller(self, conn: _Connection) -> t.Generator:
        """Busy-poll the receive CQ for command capsules."""
        cfg = self.config.nvmeof
        while True:
            completions = conn.qp.recv_cq.poll()
            if not completions:
                yield conn.qp.recv_cq.signal.wait()
                # Poll-granularity: SPDK notices on its next spin.
                delay = self.sim.rng.uniform_ns(
                    "spdk-recv-poll", 0, cfg.target_poll_interval_ns)
                if delay:
                    yield self.sim.sleep(delay)
                continue
            for wc in completions:
                yield self.sim.sleep(self.config.rdma.cq_poll_ns)
                yield from self._handle_capsule(conn, wc.wr_id,
                                                wc.byte_len)
                # Re-post the capsule buffer for the next command.
                conn.qp.post_recv(RecvWR(wr_id=wc.wr_id, addr=wc.wr_id,
                                         length=8192))

    def _handle_capsule(self, conn: _Connection, buf_addr: int,
                        length: int) -> t.Generator:
        raw = self.host.memory.read(buf_addr, length)
        try:
            capsule = CommandCapsule.unpack(raw)
        except ValueError:
            self.malformed_capsules += 1
            return
        yield self.sim.sleep(self.config.nvmeof.target_process_ns)
        sqe = capsule.sqe
        if sqe.cid in conn.inflight:
            # Taking it would orphan the first command's context, and
            # with it that command's data slot.
            yield from self._refuse(conn, sqe.cid, Status.CID_CONFLICT)
            return
        if not conn.slots:
            # No free data slot: initiator exceeded the negotiated depth.
            yield from self._refuse(conn, sqe.cid, Status.INTERNAL_ERROR)
            return
        # The capsule is outside input: the controller DMAs exactly what
        # the SQE says, so a length the slot cannot hold must stop here.
        nbytes = ((sqe.nlb + 1) * self.lba_bytes
                  if sqe.opcode in _DATA_OPCODES else 0)
        inline = capsule.inline_data
        if nbytes > SLOT_DATA_BYTES or (inline and len(inline) != nbytes):
            yield from self._refuse(conn, sqe.cid, Status.INVALID_FIELD)
            return
        slot = conn.slots.pop()
        data_addr = slot + 4096

        if sqe.opcode in _DATA_OUT_OPCODES:      # stage the data
            if inline:
                self.host.memory.write(data_addr, inline)
            else:
                # Pull from the initiator with RDMA READ.
                pull_done = Event(self.sim)
                conn.inflight[("pull", sqe.cid)] = pull_done
                conn.qp.post_send(SendWR(
                    wr_id=_PULL + sqe.cid, opcode=WrOpcode.RDMA_READ,
                    local_addr=data_addr, length=nbytes,
                    remote_addr=capsule.buffer_addr, rkey=capsule.rkey))
                wc = yield pull_done
                if wc.status != WcStatus.SUCCESS:
                    # Nothing arrived: the slot still holds an earlier
                    # command's bytes, which must not reach the medium.
                    conn.slots.append(slot)
                    yield from self._refuse(conn, sqe.cid,
                                            Status.DATA_TRANSFER_ERROR)
                    return

        if nbytes:
            sqe.prp1, sqe.prp2 = prps_for_contiguous(
                data_addr, nbytes, slot,
                lambda blob: self.host.memory.write(slot, blob))

        conn.inflight[sqe.cid] = {
            "slot": slot, "capsule": capsule, "nbytes": nbytes,
            "opcode": sqe.opcode,
        }
        # Submit on the bound NVMe SQ under the initiator's cid
        # (userspace driver: local stores + a posted doorbell; cost
        # inside target_process_ns).
        conn.nvme.issue(sqe)

    # -- NVMe-side poller ---------------------------------------------------------------

    def _nvme_poller(self, conn: _Connection) -> t.Generator:
        """Busy-poll the NVMe CQ; ship completions back to the initiator."""
        wp = conn.nvme.watch()
        try:
            while True:
                cqe = conn.nvme.pop()
                if cqe is None:
                    yield wp.signal.wait()
                    delay = self.sim.rng.uniform_ns(
                        "spdk-nvme-poll", 0,
                        self.config.nvmeof.target_poll_interval_ns)
                    if delay:
                        yield self.sim.sleep(delay)
                    continue
                yield from self._complete_io(conn, cqe)
        finally:
            self.host.memory.unwatch(wp)

    def _complete_io(self, conn: _Connection,
                     cqe: CompletionEntry) -> t.Generator:
        ctx = conn.inflight.pop(cqe.cid, None)
        if ctx is None:
            return
        yield self.sim.sleep(self.config.nvmeof.target_complete_ns)
        capsule: CommandCapsule = ctx["capsule"]
        if ctx["opcode"] == IoOpcode.READ and cqe.ok and ctx["nbytes"]:
            # READ: push the data to the initiator's buffer, then the
            # response capsule; RC ordering keeps data ahead of it.
            conn.qp.post_send(SendWR(
                wr_id=_PUSH + cqe.cid, opcode=WrOpcode.RDMA_WRITE,
                local_addr=ctx["slot"] + 4096, length=ctx["nbytes"],
                remote_addr=capsule.buffer_addr, rkey=capsule.rkey))
        conn.slots.append(ctx["slot"])
        yield from self._respond(conn, cqe)
        self.commands_served += 1

    def _respond(self, conn: _Connection,
                 cqe: CompletionEntry) -> t.Generator:
        rsp = ResponseCapsule(cqe)
        conn.qp.post_send(SendWR(
            wr_id=_RSP + cqe.cid, opcode=WrOpcode.SEND,
            inline_data=rsp.pack(), length=rsp.wire_size))
        yield self.sim.sleep(0)

    def _refuse(self, conn: _Connection, cid: int,
                status: Status) -> t.Generator:
        """Answer a command that never reaches the controller."""
        return self._respond(conn, CompletionEntry(cid=cid, status=status,
                                                   phase=0))
