"""SPDK-like NVMe-oF target (paper Fig. 9a, right side).

A userspace, polling storage target on the device's host:

* owns the local NVMe controller through its own userspace driver
  (admin bring-up + one I/O queue pair per fabric connection);
* binds each connection's receive queue to that NVMe SQ: command
  capsules land in target memory by RDMA, the reactor decodes them and
  submits to the controller with minimal processing — "the target driver
  can start I/O operations as soon as commands are enqueued";
* completions flow back as RDMA_WRITE (read data) + SEND (response
  capsule), again discovered by polling — SPDK never takes interrupts.

The target's costs are the paper's point: even with a polling,
zero-interrupt design, *software remains in the I/O path*, adding the
microseconds the PCIe/NTB driver avoids.

Its loops are records (no process per connection or I/O), and a
capsule's command runs through the lifecycle every stack shares.
"""

from __future__ import annotations

import typing as t

from ..config import SimulationConfig
from ..nvme import CompletionEntry, IoOpcode, Status
from ..pcie import Fabric, Host
from ..rdma import (CompletionQueue, ProtectionDomain, QueuePair, RdmaError,
                    RdmaNic, RecvLoop, RecvWR, SendWR, WcStatus, WrOpcode)
from ..sim import Event, Simulator
from ..sim.resources import Record
from ..driver import qpair
from ..driver.adminq import AdminQueues
from ..driver.blockdev import BlockRequest
from ..driver.prputil import prps_for_contiguous
from .capsules import CommandCapsule, ResponseCapsule

#: data buffer per outstanding command: one PRP-list page + 128 KiB.
SLOT_DATA_BYTES = 128 * 1024
SLOT_BYTES = 4096 + SLOT_DATA_BYTES
#: receive buffer per posted capsule (header + SQE + 4 KiB inline)
CAPSULE_BYTES = 8192

#: opcodes that move data (the rest are dataless: FLUSH, WRITE_ZEROES)
_DATA_OPCODES = [qpair.IO_OPCODES[op] for op in BlockRequest.DATA_OPS]
#: of those, the ones whose data travels initiator -> target first
_DATA_OUT_OPCODES = [qpair.IO_OPCODES[op] for op in BlockRequest.DATA_OUT_OPS]
#: work-request ids on a connection's send queue, base + initiator cid:
#: the RDMA_READ pull of write data, RDMA_WRITE push of read data, SEND
_PULL, _PUSH, _RSP = 0x1_0000, 0x2_0000, 0x3_0000


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

    def start(self) -> t.Generator:
        yield from self.admin.enable_controller()
        ident = yield from self.admin.identify_namespace(1)
        self.lba_bytes = ident.lba_bytes
        self.capacity_lbas = ident.nsze
        self._started = True

    def add_connection(self, queue_depth: int = 32) -> t.Generator:
        """Create an NVMe queue pair + fabric QP for one initiator;
        returns the target-side :class:`QueuePair` to connect to."""
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

        for _ in range(queue_depth * 2):       # capsule receive buffers
            addr = self.host.alloc_dma(CAPSULE_BYTES)
            self.pd.register(addr, CAPSULE_BYTES)
            qp.post_recv(RecvWR(wr_id=addr, addr=addr, length=CAPSULE_BYTES))

        slots = [self.host.alloc_dma(SLOT_BYTES) for _ in range(queue_depth)]
        nvme = qpair.QueuePair.local(   # charges complete_ns on a trigger
            self.sim, self.fabric, self.host, self.nvme_bar, qid,
            self.QUEUE_ENTRIES, sq_mem, cq_mem,
            reliability=self.config.reliability,
            complete_delay=self.config.nvmeof.target_complete_ns,
            name=f"tgt{qid}-nvme",
            ctrl=self.host.addr_map.lookup(self.nvme_bar).target.function)
        self.connections.append(_Connection(self, qp, nvme, slots))
        return qp


class _Connection(RecvLoop):
    """A connection's receive loop, booted before its NVMe CQ and send-CQ
    loops: a capsule pays ``target_process_ns``, then is refused or takes
    a slot, stages its data (inline, or a pull :meth:`_sent` hands back)
    and is issued."""

    __slots__ = ("target", "nvme", "slots", "cids", "capsule", "pulling",
                 "pulled")

    def __init__(self, target: SpdkTarget, qp: QueuePair,
                 nvme: qpair.QueuePair, slots: list[int]) -> None:
        self.target, self.nvme, self.slots = target, nvme, slots
        self.cids: dict[int, _Command] = {}     # initiator cid -> command
        config = target.config
        RecvLoop.__init__(self, target.sim, qp, config.rdma.cq_poll_ns,
                          CAPSULE_BYTES)
        _Completions(nvme, "spdk-nvme-poll",
                     config.nvmeof.target_poll_interval_ns)
        self._kick(self._sent)

    def _woken(self, _wake: Event) -> None:
        # Poll granularity: SPDK notices on its next spin.
        delay = self.sim.rng.uniform_ns(
            "spdk-recv-poll", 0,
            self.target.config.nvmeof.target_poll_interval_ns)
        if delay:
            self._arm(delay, self._look)
        else:
            self._look()

    def _took(self, wc) -> None:
        target = self.target
        try:
            self.capsule = CommandCapsule.unpack(
                target.host.memory.read(wc.wr_id, wc.byte_len))
        except ValueError:
            target.malformed_capsules += 1
            return self._reaped()
        self._arm(target.config.nvmeof.target_process_ns, self._decoded)

    def _decoded(self, _timer: Event) -> None:
        capsule = self.capsule
        sqe = capsule.sqe
        cid = sqe.cid
        held = self.cids.get(cid)
        if held is not None and held.command.cid in self.nvme.inflight:
            # Two commands on the controller would answer under one cid.
            return self._refuse(cid, Status.CID_CONFLICT)
        if not self.slots:
            # No free data slot: initiator exceeded the negotiated depth.
            return self._refuse(cid, Status.INTERNAL_ERROR)
        # Outside input: the controller DMAs what the SQE says, so a length
        # beyond the slot, or read data with no region to land in, stops.
        nbytes = ((sqe.nlb + 1) * self.target.lba_bytes
                  if sqe.opcode in _DATA_OPCODES else 0)
        inline = capsule.inline_data
        if nbytes > SLOT_DATA_BYTES or (inline and len(inline) != nbytes):
            return self._refuse(cid, Status.INVALID_FIELD)
        try:
            if sqe.opcode == IoOpcode.READ and nbytes:
                self.qp.peer.pd.check_remote(capsule.rkey,
                                             capsule.buffer_addr, nbytes)
        except RdmaError:
            return self._refuse(cid, Status.DATA_TRANSFER_ERROR)
        command = _Command(self, capsule, self.slots.pop(), nbytes)
        if sqe.opcode in _DATA_OUT_OPCODES:
            if not inline:
                # Pull from the initiator with RDMA READ.
                self.pulling = command
                self.qp.post_send(SendWR(
                    wr_id=_PULL + cid, opcode=WrOpcode.RDMA_READ,
                    local_addr=command.slot + 4096, length=nbytes,
                    remote_addr=capsule.buffer_addr, rkey=capsule.rkey))
                return
            self.target.host.memory.write(command.slot + 4096, inline)
        self._issue(command)

    def _sent(self, _event: Event) -> None:
        """The send-CQ loop: a finished pull goes back to its capsule."""
        send_cq = self.qp.send_cq
        for wc in send_cq.poll(len(send_cq)):
            if _PULL <= wc.wr_id < _PUSH:
                self.pulled = wc
                self._arm(0, self._pulled)
        send_cq.signal.wait().callbacks.append(self._sent)

    def _pulled(self, _timer: Event) -> None:
        command = self.pulling
        if self.pulled.status is not WcStatus.SUCCESS:
            # Nothing arrived: the slot's stale bytes must stay off disk.
            self.slots.append(command.slot)
            return self._refuse(command.initiator_cid,
                                Status.DATA_TRANSFER_ERROR)
        self._issue(command)

    def _issue(self, command: _Command) -> None:
        slot, sqe = command.slot, command.command
        if command.nbytes:
            sqe.prp1, sqe.prp2 = prps_for_contiguous(
                slot + 4096, command.nbytes, slot,
                lambda blob: self.target.host.memory.write(slot, blob))
        self.cids[command.initiator_cid] = command
        # Local stores + a posted doorbell: cost inside target_process_ns.
        self.nvme.execute(command)
        self._reaped()

    def _refuse(self, cid: int, status: Status) -> None:
        """Answer a command that never reaches the controller."""
        self._respond(CompletionEntry(cid=cid, status=status, phase=0))
        self._arm(0, self._reaped)

    def _respond(self, cqe: CompletionEntry) -> None:
        rsp = ResponseCapsule(cqe)
        self.qp.post_send(SendWR(
            wr_id=_RSP + cqe.cid, opcode=WrOpcode.SEND,
            inline_data=rsp.pack(), length=rsp.wire_size))


class _Command(qpair.CommandRecord):
    """A capsule's command (never booted): its verdict, ``complete_ns``
    after the CQE, pushes READ data, frees the slot and responds under
    the initiator's cid (RC ordering keeps the data ahead)."""

    __slots__ = ("conn", "capsule", "initiator_cid", "slot", "nbytes")

    def __init__(self, conn: _Connection, capsule: CommandCapsule,
                 slot: int, nbytes: int) -> None:
        self.conn, self.queue, self.capsule = conn, conn.nvme, capsule
        self.command = sqe = capsule.sqe
        self.initiator_cid, self.slot, self.nbytes = sqe.cid, slot, nbytes
        self.request = None
        Record.__init__(self, conn.sim)

    def _answered(self, cqe: CompletionEntry) -> None:
        conn = self.conn
        cid = self.initiator_cid
        if self.command.opcode == IoOpcode.READ and cqe.ok and self.nbytes:
            capsule = self.capsule
            conn.qp.post_send(SendWR(
                wr_id=_PUSH + cid, opcode=WrOpcode.RDMA_WRITE,
                local_addr=self.slot + 4096, length=self.nbytes,
                remote_addr=capsule.buffer_addr, rkey=capsule.rkey))
        conn.slots.append(self.slot)
        if conn.cids.get(cid) is self:
            del conn.cids[cid]
        cqe.cid = cid
        conn._respond(cqe)
        conn.target.commands_served += 1


class _Completions(qpair._Poll):
    """The NVMe CQ loop: one CQE at a time to the lifecycle, one with a
    waiter holding the loop for the answer and a zero-delay step."""

    __slots__ = ()

    def _loop(self, _timer: Event | None = None) -> None:
        qp = self.qp
        cqe = qp.pop()
        while cqe is not None:
            done = qp.inflight.get(cqe.cid)
            qp.complete(cqe)
            if done is not None:
                done.callbacks.append(self._answered)
                return
            cqe = qp.pop()
        self._wait()

    def _answered(self, _done: Event) -> None:
        self._arm(0, self._loop)
