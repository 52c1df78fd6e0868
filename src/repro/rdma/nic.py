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
"""

from __future__ import annotations

import typing as t

from ..config import RdmaConfig
from ..pcie.device import Bar, PCIeFunction
from ..sim import Event, HoldPlan, Resource, Simulator, Store
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

    def transfer(self, src: "RdmaNic", dst: "RdmaNic",
                 nbytes: int) -> t.Generator:
        """Occupy the direction for serialization, then propagate."""
        plan = self._plans.get((src, dst, nbytes))
        if plan is None:
            # ~2% framing/header overhead on the wire.
            wire_bytes = nbytes + max(32, nbytes // 64)
            plan = self._plans[(src, dst, nbytes)] = HoldPlan(self.sim, [
                (self._dirs[(src, dst)],
                 serialize_ns(wire_bytes, self.config.bandwidth))])
        yield plan.hold()
        yield self.sim.sleep(self.config.wire_latency_ns)


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
        self.sim.process(self._engine())

    def mmio_read(self, bar: Bar, offset: int, length: int) -> bytes:
        return bytes(length)

    def mmio_write(self, bar: Bar, offset: int, data: bytes) -> None:
        pass  # doorbell cost is charged via config constants

    # -- software-facing ----------------------------------------------------

    def enqueue(self, qp: QueuePair, wr: SendWR) -> None:
        self._wqes.put((qp, wr))

    # -- engine ------------------------------------------------------------------

    def _engine(self) -> t.Generator:
        """Two-stage pipeline.

        The *tx stage* (WQE fetch, payload DMA, NIC tx processing, wire
        serialization) runs sequentially — it models the NIC's transmit
        context and sets the per-QP message rate.  The *remote stage*
        (peer NIC rx, placement DMA, completions, and for RDMA_READ the
        whole remote round trip) runs in a spawned process, chained
        per-QP so RC ordering holds while the tx engine moves on to the
        next WQE — without this overlap a NIC would cap out far below
        real message rates at high queue depth.
        """
        while True:
            qp, wr = yield self._wqes.get()
            link, peer_nic = self._link, self._peer_nic
            try:
                if link is None or peer_nic is None:
                    raise RdmaError(f"{self.name}: no link attached")
                payload = yield from self._tx_stage(qp, wr)
            except RdmaError:
                qp.send_cq.push(WorkCompletion(
                    wr.wr_id, wr.opcode, WcStatus.LOCAL_ERROR))
                continue
            prev = self._qp_chains.get(qp)
            done = Event(self.sim)
            self._qp_chains[qp] = done
            self.sim.process(self._remote_stage(qp, wr, payload, prev,
                                                done))

    def _tx_stage(self, qp: QueuePair, wr: SendWR) -> t.Generator:
        """Sender-side work: validate, fetch payload, transmit."""
        cfg = self.rdma_config
        link, peer_nic = self._link, self._peer_nic
        assert link is not None and peer_nic is not None
        peer = qp.peer
        assert peer is not None

        payload = b""
        if wr.opcode is WrOpcode.SEND:
            if wr.inline_data is not None:
                payload = wr.inline_data
            elif wr.length:
                payload = yield self.dma_read(wr.local_addr, wr.length)
            yield self.sim.sleep(cfg.nic_tx_ns)
            yield from link.transfer(self, peer_nic,
                                     max(len(payload), 64))
        elif wr.opcode is WrOpcode.RDMA_WRITE:
            remote_mr = peer.pd.lookup(wr.rkey)
            remote_mr.check(wr.remote_addr, wr.length)
            payload = yield self.dma_read(wr.local_addr, wr.length)
            yield self.sim.sleep(cfg.nic_tx_ns)
            yield from link.transfer(self, peer_nic, wr.length)
        elif wr.opcode is WrOpcode.RDMA_READ:
            remote_mr = peer.pd.lookup(wr.rkey)
            remote_mr.check(wr.remote_addr, wr.length)
            yield self.sim.sleep(cfg.nic_tx_ns)
            yield from link.transfer(self, peer_nic, 64)  # read request
        else:  # pragma: no cover - enum is exhaustive
            raise RdmaError(f"unknown opcode {wr.opcode}")
        return payload

    def _remote_stage(self, qp: QueuePair, wr: SendWR, payload: bytes,
                      prev, done) -> t.Generator:
        """Receiver-side work, ordered per QP behind earlier WQEs."""
        cfg = self.rdma_config
        link, peer_nic = self._link, self._peer_nic
        assert link is not None and peer_nic is not None
        peer = qp.peer
        assert peer is not None
        if prev is not None and not prev.processed:
            yield prev
        try:
            if wr.opcode is WrOpcode.SEND:
                yield self.sim.sleep(cfg.nic_rx_ns)
                if not peer.recv_queue:
                    raise RdmaError("receiver-not-ready: no posted recv")
                recv = peer.recv_queue.pop(0)
                if len(payload) > recv.length:
                    raise RdmaError("recv buffer too small")
                if payload:
                    yield peer_nic.dma_write(recv.addr, payload)
                peer.recv_cq.push(WorkCompletion(
                    recv.wr_id, WrOpcode.SEND, WcStatus.SUCCESS,
                    byte_len=len(payload), is_recv=True))
                qp.send_cq.push(WorkCompletion(
                    wr.wr_id, wr.opcode, WcStatus.SUCCESS,
                    byte_len=len(payload)))
                self.sends += 1
            elif wr.opcode is WrOpcode.RDMA_WRITE:
                yield self.sim.sleep(cfg.nic_rx_ns)
                yield peer_nic.dma_write(wr.remote_addr, payload)
                qp.send_cq.push(WorkCompletion(
                    wr.wr_id, wr.opcode, WcStatus.SUCCESS,
                    byte_len=wr.length))
                self.rdma_writes += 1
            else:  # RDMA_READ
                yield self.sim.sleep(cfg.read_turnaround_ns)
                data = yield peer_nic.dma_read(wr.remote_addr, wr.length)
                yield from link.transfer(peer_nic, self, wr.length)
                yield self.sim.sleep(cfg.nic_rx_ns)
                yield self.dma_write(wr.local_addr, data)
                qp.send_cq.push(WorkCompletion(
                    wr.wr_id, wr.opcode, WcStatus.SUCCESS,
                    byte_len=wr.length))
                self.rdma_reads += 1
        except RdmaError:
            qp.send_cq.push(WorkCompletion(
                wr.wr_id, wr.opcode, WcStatus.LOCAL_ERROR))
        finally:
            done.succeed()
