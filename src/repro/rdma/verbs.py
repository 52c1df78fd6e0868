"""Verbs-like RDMA primitives: memory regions, completion queues, work
requests and reliable-connected queue pairs.

The model keeps InfiniBand's structural essentials — the ones NVMe-oF's
design exploits (paper Sec. II):

* work queues live in host memory and are written by software without
  kernel involvement;
* SEND consumes a receiver-posted buffer and generates a receive
  completion (this is how command capsules reach the target's bound SQ);
* RDMA_WRITE/RDMA_READ move data one-sided with no remote completion;
* completions are reaped by *polling* CQs (:class:`RecvLoop`, the
  receive side of both NVMe-oF ends).

Latency/bandwidth accounting happens in :mod:`repro.rdma.nic`.
"""

from __future__ import annotations

import dataclasses
import enum
import typing as t

from ..pcie import Host
from ..sim import Event, Signal, Simulator
from ..sim.resources import Record


class RdmaError(Exception):
    pass


class WrOpcode(enum.Enum):
    SEND = "send"
    RDMA_WRITE = "rdma-write"
    RDMA_READ = "rdma-read"


class WcStatus(enum.Enum):
    SUCCESS = 0
    LOCAL_ERROR = 1
    REMOTE_ACCESS_ERROR = 2


@dataclasses.dataclass(frozen=True)
class MemoryRegion:
    """A registered, DMA-able region of host memory."""

    host: Host
    addr: int
    length: int
    rkey: int

    def check(self, addr: int, length: int) -> None:
        if addr < self.addr or addr + length > self.addr + self.length:
            raise RdmaError(
                f"access [{addr:#x},+{length}) outside MR "
                f"[{self.addr:#x},+{self.length})")


@dataclasses.dataclass
class WorkCompletion:
    wr_id: int
    opcode: WrOpcode | None
    status: WcStatus
    byte_len: int = 0
    is_recv: bool = False


@dataclasses.dataclass
class SendWR:
    wr_id: int
    opcode: WrOpcode
    local_addr: int = 0
    length: int = 0
    remote_addr: int = 0
    rkey: int = 0
    inline_data: bytes | None = None   # small payloads skip the DMA fetch


@dataclasses.dataclass
class RecvWR:
    wr_id: int
    addr: int
    length: int


class CompletionQueue:
    """Polled completion queue."""

    def __init__(self, sim: Simulator, name: str = "cq") -> None:
        self.sim = sim
        self.name = name
        self._entries: list[WorkCompletion] = []
        self.signal = Signal(sim)

    def push(self, wc: WorkCompletion) -> None:
        self._entries.append(wc)
        self.signal.fire()

    def poll(self, max_entries: int = 16) -> list[WorkCompletion]:
        """Reap up to ``max_entries`` completions (non-blocking)."""
        out = self._entries[:max_entries]
        del self._entries[:max_entries]
        return out

    def __len__(self) -> int:
        return len(self._entries)


#: addresses :meth:`ProtectionDomain.lookup_local` remembers at most
_LOCAL_MEMO = 1024


class ProtectionDomain:
    """Registers memory regions and hands out rkeys."""

    def __init__(self, host: Host) -> None:
        self.host = host
        self._next_rkey = 0x1000
        self._regions: dict[int, MemoryRegion] = {}
        #: local buffer address -> the MR that held it last time (checked
        #: again on a hit)
        self._local: dict[int, MemoryRegion] = {}

    def register(self, addr: int, length: int) -> MemoryRegion:
        if length <= 0:
            raise RdmaError("MR length must be positive")
        if not self.host.memory.contains(addr, length):
            raise RdmaError("MR outside host DRAM")
        mr = MemoryRegion(self.host, addr, length, self._next_rkey)
        self._regions[self._next_rkey] = mr
        self._next_rkey += 1
        return mr

    def lookup(self, rkey: int) -> MemoryRegion:
        try:
            return self._regions[rkey]
        except KeyError:
            raise RdmaError(f"unknown rkey {rkey:#x}") from None

    def check_remote(self, rkey: int, addr: int, length: int) -> None:
        """:class:`RdmaError` unless ``rkey`` names a region holding
        ``[addr, +length)``: the check a one-sided WQE passes."""
        # hot-path: a pass is one dict probe and two compares
        mr = self._regions.get(rkey)
        if mr is None or addr < mr.addr or \
                addr + length > mr.addr + mr.length:
            self.lookup(rkey).check(addr, length)     # raises, saying why

    def lookup_local(self, wr: SendWR) -> MemoryRegion:
        """The MR holding a SEND's local buffer; :class:`RdmaError` if
        none does.  Senders reuse a few registered buffers (staging
        slots, taken in turn), so the MR found for an address is kept
        and only scanned for again when it no longer covers the buffer."""
        # hot-path
        start = wr.local_addr
        end = start + wr.length
        local = self._local
        if start in local:
            mr = local[start]
            if end <= mr.addr + mr.length:
                return mr
        for mr in self._regions.values():
            if mr.addr <= start and end <= mr.addr + mr.length:
                if len(local) >= _LOCAL_MEMO:
                    local.clear()
                local[start] = mr
                return mr
        raise RdmaError(
            f"local buffer [{start:#x},+{wr.length}) not registered")


class QueuePair:
    """A reliable-connected QP bound to a NIC."""

    def __init__(self, nic, pd: ProtectionDomain, send_cq: CompletionQueue,
                 recv_cq: CompletionQueue, name: str = "qp") -> None:
        self.nic = nic
        self.pd = pd
        self.send_cq = send_cq
        self.recv_cq = recv_cq
        self.name = name
        self.peer: "QueuePair | None" = None
        self.recv_queue: list[RecvWR] = []

    def connect(self, peer: "QueuePair") -> None:
        if self.peer is not None or peer.peer is not None:
            raise RdmaError("QP already connected")
        self.peer = peer
        peer.peer = self

    def post_recv(self, wr: RecvWR) -> None:
        """Post a receive buffer (no simulated cost: done off-path)."""
        self.recv_queue.append(wr)

    def post_send(self, wr: SendWR) -> None:
        """Hand a send-side WQE to the NIC (the NIC engine charges the
        doorbell/processing costs and runs the wire protocol)."""
        if self.peer is None:
            raise RdmaError(f"{self.name}: QP not connected")
        if wr.opcode is WrOpcode.SEND and wr.inline_data is None \
                and wr.length > 0:
            self.pd.lookup_local(wr)
        self.nic.enqueue(self, wr)


class RecvLoop(Record):
    """A QP's receive-CQ reaping from callbacks, booted URGENT: a wait
    on an empty CQ ends in the owner's ``_woken``; each completion costs
    ``poll_ns``, then the owner's ``_took`` if it succeeded (else its
    placement was lost) and :meth:`_reaped` re-posts its buffer."""

    __slots__ = ("qp", "poll_ns", "buf_len", "completions", "index", "wc")

    def __init__(self, sim: Simulator, qp: QueuePair, poll_ns: int,
                 buf_len: int) -> None:
        self.qp, self.poll_ns, self.buf_len = qp, poll_ns, buf_len
        Record.__init__(self, sim, self._look)

    def _look(self, _event: Event | None = None) -> None:
        # hot-path
        recv_cq = self.qp.recv_cq
        completions = recv_cq.poll()
        if not completions:
            recv_cq.signal.wait(None, self._woken)
            return
        self.completions, self.index = completions, 0
        self._arm(self.poll_ns, self._reap)

    _drained = _look

    def _reap(self, _timer: Event) -> None:
        # hot-path
        self.wc = wc = self.completions[self.index]
        self.index += 1
        if wc.status is WcStatus.SUCCESS:
            self._took(wc)
        else:
            self._reaped()

    def _reaped(self, _event: Event | None = None) -> None:
        wr_id = self.wc.wr_id
        self.qp.post_recv(RecvWR(wr_id, wr_id, self.buf_len))
        if self.index < len(self.completions):
            self._arm(self.poll_ns, self._reap)
        else:
            self.completions = None
            self._drained()
