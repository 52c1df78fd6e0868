"""RDMA NIC engine and InfiniBand wire model.

A :class:`RdmaNic` is a PCIe endpoint in its host: WQE payload fetches
and receive-buffer placements are *real fabric DMAs* with full PCIe
accounting, on top of which the NIC adds its processing latencies and
the wire adds propagation + serialization (ConnectX-5-class constants in
:class:`~repro.config.RdmaConfig`).

Protocol handling per opcode:

* ``SEND`` — fetch payload (DMA read or inline), wire, match the peer's
  posted receive, DMA-write into it, receive completion at the peer,
  send completion at the sender;
* ``RDMA_WRITE`` — fetch payload, wire, DMA-write at ``remote_addr``
  (rkey-checked); no peer completion — one-sided;
* ``RDMA_READ`` — request over the wire, peer NIC DMA-reads the remote
  buffer, data returns, DMA-write locally; send completion carries the
  round trip.

The NIC's transmit context (:class:`_Transmit`) and each WQE's remote
stage (:class:`_RemoteStage`) are records walked from callbacks, no
process per WQE (docs/performance.md, "Every request is a record").
"""

from __future__ import annotations

import typing as t

from ..config import RdmaConfig
from ..pcie.device import Bar, PCIeFunction
from ..pcie.fabric import DROPPED
from ..sim import Event, HoldPlan, Resource, Simulator, Store
from ..sim.resources import Record
from ..units import serialize_ns
from .verbs import (CompletionQueue, QueuePair, RdmaError, SendWR,
                    WcStatus, WorkCompletion, WrOpcode)


class IbLink:
    """Point-to-point 100 Gb/s-class link between two NICs.  A message
    holds its direction for its serialization through a
    :class:`~repro.sim.HoldPlan` per ``(src, dst, nbytes)``: a fixed-time
    link hold, as in the PCIe fabric (a resource's ``request()`` is for
    holds of unknown length)."""

    def __init__(self, sim: Simulator, config: RdmaConfig) -> None:
        self.sim = sim
        self.config = config
        self._dirs: dict[tuple, Resource] = {}
        self._plans: dict[tuple, HoldPlan] = {}

    def attach(self, a: "RdmaNic", b: "RdmaNic") -> None:
        a._link, a._peer_nic = self, b
        b._link, b._peer_nic = self, a
        self._dirs[(a, b)] = Resource(self.sim, 1)
        self._dirs[(b, a)] = Resource(self.sim, 1)

    def plan(self, src: "RdmaNic", dst: "RdmaNic", nbytes: int) -> HoldPlan:
        """The hold of direction ``src`` -> ``dst`` for one message's
        serialization."""
        # hot-path
        plan = self._plans.get((src, dst, nbytes))
        if plan is None:
            # ~2% framing/header overhead on the wire.
            wire_bytes = nbytes + max(32, nbytes // 64)
            plan = self._plans[(src, dst, nbytes)] = HoldPlan(self.sim, [
                (self._dirs[(src, dst)],
                 serialize_ns(wire_bytes, self.config.bandwidth))])
        return plan

    def transfer(self, src: "RdmaNic", dst: "RdmaNic",
                 nbytes: int) -> t.Generator:
        """Occupy the direction for serialization, then propagate — from
        a process (the NIC's records ride :meth:`plan` and their own
        timers)."""
        yield self.plan(src, dst, nbytes).hold()
        yield self.sim.timeout(self.config.wire_latency_ns)


class RdmaNic(PCIeFunction):
    """ConnectX-5-class RDMA NIC endpoint."""

    def __init__(self, sim: Simulator, name: str,
                 config: RdmaConfig) -> None:
        super().__init__(sim, name)
        self.add_bar(0, 0x1000)   # doorbell page (cost modelled as consts)
        self.rdma_config = config
        self._wqes: Store = Store(sim)
        self._link: IbLink | None = None
        self._peer_nic: "RdmaNic | None" = None
        # Per-QP ordering chain for the receive/remote stage: RC
        # semantics demand e.g. an RDMA_WRITE's data is placed before a
        # following SEND's completion is visible.
        self._qp_chains: dict[QueuePair, t.Any] = {}
        self.sends = 0
        self.rdma_writes = 0
        self.rdma_reads = 0

    def on_installed(self) -> None:
        _Transmit(self)     # the transmit context, for the NIC's life

    def mmio_read(self, bar: Bar, offset: int, length: int) -> bytes:
        return bytes(length)

    def mmio_write(self, bar: Bar, offset: int, data: bytes) -> None:
        pass  # doorbell cost is charged via config constants

    # -- software-facing ----------------------------------------------------

    def enqueue(self, qp: QueuePair, wr: SendWR) -> None:
        self._wqes.put((qp, wr))


class _Transmit(Record):
    """The NIC's transmit context, one per NIC, walked from callbacks:
    take the next WQE, validate it, fetch its payload (a DMA read, unless
    inline), the NIC's tx processing, the wire (the link's
    :class:`HoldPlan`, then the wire latency on the owned timer), then
    start the WQE's :class:`_RemoteStage` and go round again.  Sequential,
    it sets the per-QP message rate; the remote stage, chained per QP so
    RC ordering holds, overlaps it — without that a NIC would cap out far
    below real message rates at high queue depth.  It boots on the
    URGENT lane and never ends."""

    __slots__ = ("nic", "qp", "wr", "payload")

    def __init__(self, nic: "RdmaNic") -> None:
        self.nic = nic
        Record.__init__(self, nic.sim, self._next)

    def _next(self, _event: Event | None = None) -> None:
        # hot-path
        self.nic._wqes.get(self._took)

    def _took(self, get: Event) -> None:
        """Validate the WQE and fetch what it sends."""
        # hot-path
        qp, wr = get._value
        self.qp = qp
        self.wr = wr
        nic = self.nic
        self.payload = b""
        opcode = wr.opcode
        try:
            if nic._link is None or nic._peer_nic is None:
                raise RdmaError(f"{nic.name}: no link attached")
            if opcode is WrOpcode.SEND:
                if wr.inline_data is not None:
                    self.payload = wr.inline_data
                elif wr.length:
                    nic.dma_read(wr.local_addr, wr.length, self._fetched)
                    return
            else:
                qp.peer.pd.check_remote(wr.rkey, wr.remote_addr, wr.length)
                if opcode is WrOpcode.RDMA_WRITE:
                    nic.dma_read(wr.local_addr, wr.length, self._fetched)
                    return
        except RdmaError:
            qp.send_cq.push(WorkCompletion(
                wr.wr_id, opcode, WcStatus.LOCAL_ERROR))
            self._next()
            return
        self._arm(nic.rdma_config.nic_tx_ns, self._processed_tx)

    def _fetched(self, read: Event) -> None:
        # hot-path
        if not read._ok:
            # A model fault: the engine stops and a failed event
            # raises it out of the run.
            self.sim.event().fail(read._value)
            return
        self.payload = read._value
        self._arm(self.nic.rdma_config.nic_tx_ns, self._processed_tx)

    def _processed_tx(self, _timer: Event) -> None:
        """Serialize onto the wire: a SEND of its payload (64 bytes at
        least), an RDMA_WRITE of its length, an RDMA_READ's request."""
        # hot-path
        nic = self.nic
        wr = self.wr
        opcode = wr.opcode
        if opcode is WrOpcode.SEND:
            nbytes = max(len(self.payload), 64)
        elif opcode is WrOpcode.RDMA_WRITE:
            nbytes = wr.length
        else:
            nbytes = 64
        nic._link.plan(nic, nic._peer_nic, nbytes).hold(self._serialized)

    def _serialized(self, _fill: Event) -> None:
        # hot-path
        self._arm(self.nic._link.config.wire_latency_ns, self._sent)

    def _sent(self, _timer: Event) -> None:
        """On the wire: the remote stage takes over, chained behind the
        QP's last one; on to the next WQE."""
        # hot-path
        nic = self.nic
        qp = self.qp
        chains = nic._qp_chains
        chains[qp] = _RemoteStage(nic, qp, self.wr, self.payload,
                                  chains.get(qp))
        self.payload = None
        self._next()


class _RemoteStage(Record):
    """Receiver-side work of one WQE, walked from callbacks and ordered
    per QP behind the WQE before it (``prev``, the previous stage, an
    event that fires when that stage ends): SEND — rx, match a posted
    receive, place the payload, both completions; RDMA_WRITE — rx,
    place, the send completion; RDMA_READ — turnaround, the peer's DMA
    read, the data back over the wire (the link's :class:`HoldPlan`,
    then the wire latency on the owned timer), rx, placement, the send
    completion.  A placement dropped on the fabric fails the WQE
    (:meth:`_lost`).  It boots on the URGENT lane.  Its end is always queued
    (``succeed``, not :meth:`~repro.sim.resources.Record._end`): the
    QP's next stage may subscribe to it until it is dispatched."""

    __slots__ = ("nic", "qp", "wr", "payload", "prev", "recv")

    def __init__(self, nic: RdmaNic, qp: QueuePair, wr: SendWR,
                 payload: bytes, prev: Event | None) -> None:
        # hot-path: one per WQE
        self.nic = nic
        self.qp = qp
        self.wr = wr
        self.payload = payload
        self.prev = prev
        Record.__init__(self, nic.sim, self._start)

    def _start(self, _boot: Event) -> None:
        """Wait for the stage before, then the first delay."""
        # hot-path
        prev, self.prev = self.prev, None
        if prev is not None and not prev._processed:
            prev.callbacks.append(self._go)
        else:
            self._go(None)

    def _go(self, _prev: Event | None) -> None:
        # hot-path
        cfg = self.nic.rdma_config
        if self.wr.opcode is WrOpcode.RDMA_READ:
            self._arm(cfg.read_turnaround_ns, self._turned)
        else:
            self._arm(cfg.nic_rx_ns, self._received)

    def _received(self, _timer: Event) -> None:
        """SEND and RDMA_WRITE: place the payload at the peer."""
        # hot-path
        wr = self.wr
        payload = self.payload
        peer_nic = self.nic._peer_nic
        if wr.opcode is WrOpcode.RDMA_WRITE:
            self._place(peer_nic, wr.remote_addr, payload, self._written)
            return
        peer = self.qp.peer
        if not peer.recv_queue:     # receiver not ready: no posted recv
            self._error()
            return
        self.recv = recv = peer.recv_queue.pop(0)
        if len(payload) > recv.length:      # recv buffer too small
            self._error()
            return
        if payload:
            self._place(peer_nic, recv.addr, payload, self._sent)
        else:
            self._sent(None)

    def _place(self, nic: "RdmaNic", addr: int, payload: bytes,
               step: t.Callable[[Event], None]) -> None:
        """A waited write of ``payload`` through ``nic``: ``step`` once
        it has landed; :meth:`_lost` at once if it was dropped."""
        # hot-path
        if nic.dma_write(addr, payload, step) is DROPPED:
            self._lost()

    def _lost(self) -> None:
        """Nothing landed: the WQE completes in error at both ends — a
        SEND's receive too (its buffer consumed, holding stale bytes),
        so no receiver decodes what a dropped placement left behind."""
        wr = self.wr
        qp = self.qp
        if wr.opcode is WrOpcode.SEND:
            qp.peer.recv_cq.push(WorkCompletion(
                self.recv.wr_id, WrOpcode.SEND, WcStatus.LOCAL_ERROR,
                is_recv=True))
        qp.send_cq.push(WorkCompletion(
            wr.wr_id, wr.opcode, WcStatus.LOCAL_ERROR
            if wr.opcode is WrOpcode.RDMA_READ
            else WcStatus.REMOTE_ACCESS_ERROR))
        self.succeed()

    def _sent(self, _write: Event | None) -> None:
        # hot-path
        qp = self.qp
        wr = self.wr
        nbytes = len(self.payload)
        qp.peer.recv_cq.push(WorkCompletion(
            self.recv.wr_id, WrOpcode.SEND, WcStatus.SUCCESS,
            byte_len=nbytes, is_recv=True))
        qp.send_cq.push(WorkCompletion(
            wr.wr_id, wr.opcode, WcStatus.SUCCESS, byte_len=nbytes))
        self.nic.sends += 1
        self.succeed()

    def _written(self, _write: Event) -> None:
        wr = self.wr
        self.qp.send_cq.push(WorkCompletion(
            wr.wr_id, wr.opcode, WcStatus.SUCCESS, byte_len=wr.length))
        self.nic.rdma_writes += 1
        self.succeed()

    def _turned(self, _timer: Event) -> None:
        """RDMA_READ: the peer NIC reads the remote buffer."""
        wr = self.wr
        self.nic._peer_nic.dma_read(wr.remote_addr, wr.length,
                                    self._fetched)

    def _fetched(self, read: Event) -> None:
        if not read._ok:
            # A model fault: the stage ends and a failed event raises
            # it out of the run.
            self.succeed()
            self.sim.event().fail(read._value)
            return
        self.payload = read._value
        nic = self.nic
        nic._link.plan(nic._peer_nic, nic, self.wr.length).hold(
            self._crossing)

    def _crossing(self, _fill: Event) -> None:
        """The data holds the wire back and has serialized: propagate."""
        self._arm(self.nic._link.config.wire_latency_ns, self._crossed)

    def _crossed(self, _timer: Event) -> None:
        self._arm(self.nic.rdma_config.nic_rx_ns, self._landed)

    def _landed(self, _timer: Event) -> None:
        self._place(self.nic, self.wr.local_addr, self.payload, self._read)

    def _read(self, _write: Event) -> None:
        wr = self.wr
        self.qp.send_cq.push(WorkCompletion(
            wr.wr_id, wr.opcode, WcStatus.SUCCESS, byte_len=wr.length))
        self.nic.rdma_reads += 1
        self.succeed()

    def _error(self) -> None:
        """The SEND found no usable receive: a local error, and the
        stage is over."""
        wr = self.wr
        self.qp.send_cq.push(WorkCompletion(
            wr.wr_id, wr.opcode, WcStatus.LOCAL_ERROR))
        self.succeed()
