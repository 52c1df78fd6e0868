"""The NVMe controller model.

A single-function PCIe endpoint implementing the NVMe 1.3 queue
mechanics the paper's driver relies on:

* BAR0 with control registers, per-queue doorbells and an MSI-X table;
* admin command set (identify, I/O queue create/delete, features);
* NVM command set (read/write/flush) with PRP resolution;
* SQE fetch via non-posted DMA reads from queue memory *wherever that
  memory is* — local DRAM, or across an NTB in another host entirely
  ("any address a controller can use DMA to is a valid queue memory
  location", paper Sec. V);
* CQE posting and data transfers as posted DMA writes, so completion
  latency is one-way while command fetch pays a round trip — the
  asymmetry behind the paper's SQ-placement optimisation (Fig. 8).

The controller never takes shortcuts through Python object graphs: every
byte of every SQE, CQE, PRP list and data block moves through the fabric
with its full latency/bandwidth accounting.
"""

from __future__ import annotations

import dataclasses
import typing as t

from ..config import NvmeConfig, QosConfig
from ..pcie.device import Bar, PCIeFunction
from ..pcie.fabric import FabricFaultError
from ..sim import Signal, Simulator
from .constants import (CC_EN, CSTS_RDY, CSTS_SHST_COMPLETE, DOORBELL_BASE,
                        PAGE_SIZE, AdminOpcode, IoOpcode, Status,
                        CNS_ACTIVE_NS_LIST, CNS_CONTROLLER, CNS_NAMESPACE,
                        FEAT_NUM_QUEUES,
                        IDENTIFY_SIZE, SQE_SIZE)
from ..qos.arbiter import Arbiter, make_arbiter
from .media import Media, OptaneMedia
from .namespace import Namespace, NamespaceError
from .prp import PrpError, resolve_prps
from .queues import (MAX_SQ_WINDOWS, CompletionQueueState, SqWindowState,
                     SubmissionQueueState)
from .registers import (MSIX_ENTRY_SIZE, MSIX_TABLE_OFFSET, MSIX_VECTORS,
                        RegisterFile, doorbell_index)
from .structs import CompletionEntry, IdentifyController, SubmissionEntry


@dataclasses.dataclass(slots=True)
class _ControllerSq:
    state: SubmissionQueueState
    db_tail: int = 0
    active: bool = True
    signal: Signal | None = None
    #: vendor extension (docs/queue_sharing.md): a *shared* SQ is split
    #: into per-tenant windows, each a sub-ring with its own doorbell
    #: tail; None for a conventional SQ.
    windows: list[SqWindowState] | None = None
    #: a shared SQ's fetch arbiter (docs/qos.md)
    arbiter: Arbiter | None = None


@dataclasses.dataclass(slots=True)
class _ControllerCq:
    state: CompletionQueueState
    db_head: int = 0
    interrupts_enabled: bool = False
    vector: int = 0
    active: bool = True


@dataclasses.dataclass(slots=True)
class _MsixEntry:
    addr: int = 0
    data: int = 0
    masked: bool = True


class NvmeController(PCIeFunction):
    """A single-function NVMe controller endpoint."""

    BAR_SIZE = 0x4000

    def __init__(self, sim: Simulator, name: str, config: NvmeConfig,
                 media: Media | None = None,
                 qos: QosConfig = QosConfig()) -> None:
        super().__init__(sim, name)
        self.config = config
        #: how every shared SQ created on this controller arbitrates
        #: its fetches (docs/qos.md)
        self.qos = qos
        self.add_bar(0, self.BAR_SIZE)
        self.regs = RegisterFile(config.max_queue_entries,
                                 config.doorbell_stride)
        self.media = media or OptaneMedia(sim, config.media,
                                          name=f"{name}.media")
        self.namespaces: dict[int, Namespace] = {
            1: Namespace(1, config.media.capacity_lbas,
                         config.media.lba_bytes),
        }
        self._next_nsid = 2
        self.sqs: dict[int, _ControllerSq] = {}
        self.cqs: dict[int, _ControllerCq] = {}
        self.msix: list[_MsixEntry] = [_MsixEntry()
                                       for _ in range(MSIX_VECTORS)]
        #: optional FaultPointRegistry; the controller's point is
        #: ``ctrl:<name>`` (stall / per-command abort injection).
        self.faults = None
        self.fault_point = f"ctrl:{name}"
        #: accounting
        self.commands_completed = 0
        self.fetches = 0
        self.fetch_retries = 0
        self.bad_doorbells = 0
        #: how ``resolve_prps`` reads a PRP list page: the fabric read's
        #: event, for ``resolve_prps`` to yield
        self._read_list_page = lambda addr: self.dma_read(addr, PAGE_SIZE)

    # ------------------------------------------------------------------ MMIO

    def mmio_read(self, bar: Bar, offset: int, length: int) -> bytes:
        if offset >= MSIX_TABLE_OFFSET:
            return self._msix_read(offset, length)
        if offset >= DOORBELL_BASE:
            return bytes(length)  # doorbells are write-only; reads give 0
        return self.regs.read(offset, length)

    def mmio_write(self, bar: Bar, offset: int, data: bytes) -> None:
        if offset >= MSIX_TABLE_OFFSET:
            self._msix_write(offset, data)
            return
        if offset >= DOORBELL_BASE:
            # A refused ring (dead queue, index out of range) is one
            # that moved the bad-doorbell count.
            refused = self.bad_doorbells
            self._doorbell_write(offset, data)
            for f in self.probe.doorbell_landed:
                f(self, *doorbell_index(offset),
                  int.from_bytes(data, "little"),
                  self.bad_doorbells == refused)
            return
        value = int.from_bytes(data, "little")
        if offset == 0x14:        # CC
            self._write_cc(value)
        elif offset == 0x24:      # AQA
            self.regs.aqa = value
        elif offset == 0x28:      # ASQ (allow 4- or 8-byte writes)
            if len(data) == 8:
                self.regs.asq = value
            else:
                self.regs.asq = (self.regs.asq & ~0xFFFF_FFFF) | value
        elif offset == 0x2C:
            self.regs.asq = ((self.regs.asq & 0xFFFF_FFFF)
                             | (value << 32))
        elif offset == 0x30:      # ACQ
            if len(data) == 8:
                self.regs.acq = value
            else:
                self.regs.acq = (self.regs.acq & ~0xFFFF_FFFF) | value
        elif offset == 0x34:
            self.regs.acq = ((self.regs.acq & 0xFFFF_FFFF)
                             | (value << 32))
        elif offset == 0x0C:      # INTMS
            self.regs.intms |= value
        elif offset == 0x10:      # INTMC
            self.regs.intms &= ~value
        # writes to read-only registers are silently dropped, as on metal

    # -------------------------------------------------------- enable / reset

    def _write_cc(self, value: int) -> None:
        was_enabled = self.regs.enabled
        self.regs.cc = value
        if value & CC_EN and not was_enabled:
            self.sim.process(self._enable())
        elif not (value & CC_EN) and was_enabled:
            self._reset()
        if (value >> 14) & 0x3:   # shutdown notification
            self.regs.csts |= CSTS_SHST_COMPLETE

    def _enable(self) -> t.Generator:
        yield self.sim.timeout(self.config.enable_latency_ns)
        if not self.regs.enabled:
            return  # disabled again while coming up
        # Create the admin queue pair from AQA/ASQ/ACQ.
        acq = _ControllerCq(CompletionQueueState(
            qid=0, base_addr=self.regs.acq,
            entries=self.regs.admin_cq_entries, probe=self.probe))
        acq.interrupts_enabled = True
        asq = _ControllerSq(SubmissionQueueState(
            qid=0, base_addr=self.regs.asq,
            entries=self.regs.admin_sq_entries, cqid=0, probe=self.probe))
        asq.signal = Signal(self.sim)
        self.cqs[0] = acq
        self.sqs[0] = asq
        self.regs.csts |= CSTS_RDY
        self.sim.process(self._sq_worker(asq))
        for f in self.probe.lifecycle:
            f(self, "enabled")

    def _reset(self) -> None:
        for sq in self.sqs.values():
            sq.active = False
            if sq.signal is not None:
                sq.signal.fire()       # wake workers so they exit
        self.sqs.clear()
        self.cqs.clear()
        self.regs.csts &= ~CSTS_RDY

    def queue_occupancy(self) -> tuple[int, int]:
        """Controller-wide ``(sq_backlog, cq_unacked)`` entry totals —
        commands rung but not yet fetched, and completions posted but
        not yet acknowledged — for the time-series sampler's occupancy
        gauges (pure read, never perturbs the model)."""
        sq_total = sum((sq.db_tail - sq.state.head) % sq.state.entries
                       for sq in self.sqs.values())
        cq_total = sum((cq.state.tail - cq.db_head) % cq.state.entries
                       for cq in self.cqs.values())
        return sq_total, cq_total

    # ------------------------------------------------------------- doorbells

    def _doorbell_write(self, offset: int, data: bytes) -> None:
        qid, is_cq = doorbell_index(offset)
        value = int.from_bytes(data, "little")
        if is_cq:
            cq = self.cqs.get(qid)
            if cq is None or not cq.active:
                self.bad_doorbells += 1
                return
            cq.db_head = value
        else:
            sq = self.sqs.get(qid)
            if sq is None or not sq.active:
                self.bad_doorbells += 1
                return
            if sq.windows is not None:
                # Shared SQ: the doorbell value encodes the tenant's
                # window index in the high half and the new window-
                # relative tail in the low half.
                widx, wtail = value >> 16, value & 0xFFFF
                if widx >= len(sq.windows):
                    self.bad_doorbells += 1
                    return
                win = sq.windows[widx]
                if wtail >= win.entries:
                    self.bad_doorbells += 1
                    return
                if wtail != win.db_tail:
                    if win.is_empty():
                        win.ready_at = self.sim.now
                    sq.arbiter.on_doorbell(
                        win, (wtail - win.db_tail) % win.entries,
                        self.sim.now)
                win.db_tail = wtail
            elif value >= sq.state.entries:
                self.bad_doorbells += 1
                return
            else:
                sq.db_tail = value
            assert sq.signal is not None
            sq.signal.fire()

    # ------------------------------------------------------------ MSI-X table

    def _msix_read(self, offset: int, length: int) -> bytes:
        rel = offset - MSIX_TABLE_OFFSET
        vector, field = divmod(rel, MSIX_ENTRY_SIZE)
        if vector >= MSIX_VECTORS:
            return bytes(length)
        entry = self.msix[vector]
        raw = (entry.addr.to_bytes(8, "little")
               + entry.data.to_bytes(4, "little")
               + (1 if entry.masked else 0).to_bytes(4, "little"))
        return raw[field: field + length]

    def _msix_write(self, offset: int, data: bytes) -> None:
        rel = offset - MSIX_TABLE_OFFSET
        vector, field = divmod(rel, MSIX_ENTRY_SIZE)
        if vector >= MSIX_VECTORS:
            return
        entry = self.msix[vector]
        raw = bytearray(entry.addr.to_bytes(8, "little")
                        + entry.data.to_bytes(4, "little")
                        + (1 if entry.masked else 0).to_bytes(4, "little"))
        raw[field: field + len(data)] = data
        entry.addr = int.from_bytes(raw[0:8], "little")
        entry.data = int.from_bytes(raw[8:12], "little")
        entry.masked = bool(int.from_bytes(raw[12:16], "little") & 1)

    # ----------------------------------------------------------- SQ workers

    def _sq_worker(self, sq: _ControllerSq) -> t.Generator:
        """Fetch-and-dispatch loop for one submission queue."""
        # hot-path
        cfg = self.config
        sim = self.sim
        probe = self.probe
        state = sq.state
        unpack = SubmissionEntry.unpack
        decode_ns = cfg.command_decode_ns
        is_admin = state.qid == 0
        assert sq.signal is not None
        while sq.active:
            if self.faults is not None:
                yield from self.faults.stall_barrier(self.fault_point)
                if not sq.active:
                    return
            if state.head == sq.db_tail:
                yield sq.signal.wait()
                if not sq.active:
                    return
                # Doorbell processing / arbitration cost, paid per wakeup.
                yield sim.sleep(cfg.doorbell_to_fetch_ns)
                continue
            slot = state.head
            try:
                raw = yield self.dma_read(state.slot_addr(slot), SQE_SIZE)
            except FabricFaultError:
                # Fetch lost in the fabric: head is not advanced, so the
                # controller re-fetches the same slot after a pause —
                # hardware keeps retrying until reset.
                self.fetch_retries += 1
                yield sim.sleep(cfg.doorbell_to_fetch_ns)
                continue
            state.head = (state.head + 1) % state.entries
            self.fetches += 1
            sqe = unpack(raw)
            yield sim.sleep(decode_ns)
            for f in probe.sqe_fetched:
                f(self, state.qid, sqe, None, 0, 0)
            if is_admin:
                sim.process(self._execute_admin(sq, sqe))
            else:
                sim.process(self._execute_io(sq, sqe), detached=True)

    def _shared_sq_worker(self, sq: _ControllerSq) -> t.Generator:
        """Fetch-and-dispatch loop for a *shared* (windowed) SQ.

        Each grant services exactly one SQE from the tenant window the
        SQ's arbiter picks (docs/qos.md); under the default ``off``
        policy that is the next non-empty window after the previous
        winner, so no tenant can starve a neighbour no matter how deep
        its backlog (docs/queue_sharing.md).
        """
        # hot-path
        cfg = self.config
        sim = self.sim
        probe = self.probe
        state = sq.state
        windows = sq.windows
        arb = sq.arbiter
        unpack = SubmissionEntry.unpack
        decode_ns = cfg.command_decode_ns
        assert sq.signal is not None and arb is not None
        while sq.active:
            if self.faults is not None:
                yield from self.faults.stall_barrier(self.fault_point)
                if not sq.active:
                    return
            win = arb.select(windows)
            if win is None:
                yield sq.signal.wait()
                if not sq.active:
                    return
                yield sim.sleep(cfg.doorbell_to_fetch_ns)
                continue
            granted_at = sim.now
            try:
                raw = yield self.dma_read(win.slot_addr(state.base_addr),
                                          SQE_SIZE)
            except FabricFaultError:
                # Same retry discipline as the private path: the window
                # head is not advanced, so the same slot is re-fetched.
                self.fetch_retries += 1
                arb.refund(win)
                yield sim.sleep(cfg.doorbell_to_fetch_ns)
                continue
            win.advance_head()
            arb.on_fetch(win)
            wait_ns = granted_at - win.ready_at
            # The next entry (if any) has been waiting since this grant.
            win.ready_at = granted_at
            self.fetches += 1
            sqe = unpack(raw)
            yield sim.sleep(decode_ns)
            for f in probe.sqe_fetched:
                f(self, state.qid, sqe, win, granted_at, wait_ns)
            sim.process(self._execute_io(sq, sqe, win=win),
                        detached=True)

    # --------------------------------------------------------------- admin

    def _execute_admin(self, sq: _ControllerSq, sqe: SubmissionEntry):
        yield self.sim.timeout(self.config.admin_command_ns)
        status, result = Status.SUCCESS, 0
        try:
            opcode = AdminOpcode(sqe.opcode)
        except ValueError:
            yield from self._complete(sq, sqe, Status.INVALID_OPCODE, 0)
            return

        if opcode == AdminOpcode.IDENTIFY:
            status, result = yield from self._admin_identify(sqe)
        elif opcode == AdminOpcode.CREATE_IO_CQ:
            status = self._admin_create_cq(sqe)
        elif opcode == AdminOpcode.CREATE_IO_SQ:
            status = self._admin_create_sq(sqe)
        elif opcode == AdminOpcode.DELETE_IO_SQ:
            status = self._admin_delete_sq(sqe)
        elif opcode == AdminOpcode.DELETE_IO_CQ:
            status = self._admin_delete_cq(sqe)
        elif opcode in (AdminOpcode.SET_FEATURES, AdminOpcode.GET_FEATURES):
            status, result = self._admin_features(sqe)
        else:
            status = Status.INVALID_OPCODE
        yield from self._complete(sq, sqe, status, result)

    def add_namespace(self, capacity_lbas: int,
                      lba_bytes: int = 512) -> int:
        """Attach another namespace (setup-time, like a format/attach).

        Namespaces share the same media (channels and bandwidth), as on
        a real multi-namespace drive.
        """
        nsid = self._next_nsid
        self._next_nsid += 1
        self.namespaces[nsid] = Namespace(nsid, capacity_lbas, lba_bytes)
        return nsid

    def _admin_identify(self, sqe: SubmissionEntry):
        cns = sqe.cdw10 & 0xFF
        if cns == CNS_CONTROLLER:
            ident = IdentifyController(nn=len(self.namespaces))
            payload = ident.pack()
        elif cns == CNS_NAMESPACE:
            ns = self.namespaces.get(sqe.nsid)
            if ns is None:
                return Status.INVALID_FIELD, 0
            payload = ns.identify().pack()
        elif cns == CNS_ACTIVE_NS_LIST:
            # 1024 x u32 NSIDs greater than CDW1.NSID, ascending.
            buf = bytearray(IDENTIFY_SIZE)
            ids = sorted(n for n in self.namespaces if n > sqe.nsid)
            for i, nsid in enumerate(ids[:1024]):
                buf[i * 4:(i + 1) * 4] = nsid.to_bytes(4, "little")
            payload = bytes(buf)
        else:
            return Status.INVALID_FIELD, 0
        if sqe.prp1 == 0 or sqe.prp1 % PAGE_SIZE:
            return Status.INVALID_FIELD, 0
        assert len(payload) == IDENTIFY_SIZE
        yield self.dma_write(sqe.prp1, payload)
        return Status.SUCCESS, 0

    def _admin_create_cq(self, sqe: SubmissionEntry) -> int:
        qid = sqe.cdw10 & 0xFFFF
        entries = ((sqe.cdw10 >> 16) & 0xFFFF) + 1
        contiguous = sqe.cdw11 & 1
        interrupts = bool(sqe.cdw11 & 2)
        vector = (sqe.cdw11 >> 16) & 0xFFFF
        if not contiguous or sqe.prp1 == 0:
            return Status.INVALID_FIELD
        if not 1 <= qid < self.config.max_queue_pairs or qid in self.cqs:
            return Status.INVALID_QUEUE_ID
        if not 2 <= entries <= self.config.max_queue_entries:
            return Status.INVALID_QUEUE_SIZE
        cq = _ControllerCq(CompletionQueueState(
            qid=qid, base_addr=sqe.prp1, entries=entries, probe=self.probe))
        cq.interrupts_enabled = interrupts
        cq.vector = vector
        self.cqs[qid] = cq
        for f in self.probe.lifecycle:
            f(self, "queue-created", "cq", cq.state, None)
        return Status.SUCCESS

    def _admin_create_sq(self, sqe: SubmissionEntry) -> int:
        qid = sqe.cdw10 & 0xFFFF
        entries = ((sqe.cdw10 >> 16) & 0xFFFF) + 1
        contiguous = sqe.cdw11 & 1
        shared = bool(sqe.cdw11 & 8)   # vendor ext: windowed shared SQ
        cqid = (sqe.cdw11 >> 16) & 0xFFFF
        if not contiguous or sqe.prp1 == 0:
            return Status.INVALID_FIELD
        if not 1 <= qid < self.config.max_queue_pairs or qid in self.sqs:
            return Status.INVALID_QUEUE_ID
        if cqid not in self.cqs:
            return Status.INVALID_QUEUE_ID
        if not 2 <= entries <= self.config.max_queue_entries:
            return Status.INVALID_QUEUE_SIZE
        sq = _ControllerSq(SubmissionQueueState(
            qid=qid, base_addr=sqe.prp1, entries=entries, cqid=cqid,
            probe=self.probe))
        sq.signal = Signal(self.sim)
        if shared:
            win_entries = sqe.cdw12 & 0xFFFF
            if (win_entries < 2 or entries % win_entries
                    or entries // win_entries > MAX_SQ_WINDOWS):
                return Status.INVALID_FIELD
            sq.windows = [SqWindowState(index=i, start=i * win_entries,
                                        entries=win_entries,
                                        probe=self.probe)
                          for i in range(entries // win_entries)]
            sq.arbiter = make_arbiter(self.qos, len(sq.windows))
        self.sqs[qid] = sq
        for f in self.probe.lifecycle:
            f(self, "queue-created", "sq", sq.state, sq.windows)
        if shared:
            self.sim.process(self._shared_sq_worker(sq))
        else:
            self.sim.process(self._sq_worker(sq))
        return Status.SUCCESS

    def _admin_delete_sq(self, sqe: SubmissionEntry) -> int:
        qid = sqe.cdw10 & 0xFFFF
        sq = self.sqs.get(qid)
        if qid == 0 or sq is None:
            return Status.INVALID_QUEUE_ID
        sq.active = False
        assert sq.signal is not None
        sq.signal.fire()
        del self.sqs[qid]
        return Status.SUCCESS

    def _admin_delete_cq(self, sqe: SubmissionEntry) -> int:
        qid = sqe.cdw10 & 0xFFFF
        if qid == 0 or qid not in self.cqs:
            return Status.INVALID_QUEUE_ID
        # Spec: all SQs using the CQ must be deleted first.
        if any(sq.state.cqid == qid for sq in self.sqs.values()):
            return Status.INVALID_QUEUE_ID
        del self.cqs[qid]
        return Status.SUCCESS

    def _admin_features(self, sqe: SubmissionEntry) -> tuple[int, int]:
        fid = sqe.cdw10 & 0xFF
        if fid == FEAT_NUM_QUEUES:
            n = self.config.max_queue_pairs - 1   # I/O queues available
            return Status.SUCCESS, ((n - 1) << 16) | (n - 1)
        return Status.INVALID_FIELD, 0

    # ------------------------------------------------------------------- I/O

    #: the media access each I/O opcode pays for
    _MEDIA_KIND = {IoOpcode.FLUSH: "flush", IoOpcode.READ: "read",
                   IoOpcode.COMPARE: "read", IoOpcode.WRITE: "write",
                   IoOpcode.WRITE_ZEROES: "write"}

    def _execute_io(self, sq: _ControllerSq, sqe: SubmissionEntry,
                    win: SqWindowState | None = None):
        """One I/O command: validate, fetch what the host sends, access
        the media, move what the host receives, complete."""
        if self.faults is not None and self.faults.command_aborted(
                self.sim.rng, self.fault_point):
            yield from self._complete(sq, sqe, Status.ABORTED_BY_REQUEST, 0,
                                      win=win)
            return
        try:
            opcode = IoOpcode(sqe.opcode)
        except ValueError:
            yield from self._complete(sq, sqe, Status.INVALID_OPCODE, 0,
                                      win=win)
            return
        ns = self.namespaces.get(sqe.nsid)
        if ns is None:
            yield from self._complete(sq, sqe, Status.INVALID_FIELD, 0,
                                      win=win)
            return

        nblocks = nbytes = 0
        if opcode != IoOpcode.FLUSH:
            nblocks = sqe.nlb + 1
            nbytes = nblocks * ns.lba_bytes
            try:
                ns.check_range(sqe.slba, nblocks)
            except NamespaceError:
                yield from self._complete(sq, sqe, Status.LBA_OUT_OF_RANGE,
                                          0, win=win)
                return

        # WRITE_ZEROES moves no data (the controller zeroes the range
        # itself); WRITE and COMPARE fetch the host's buffers with
        # non-posted reads *before* the media access.
        segs: list[tuple[int, int]] = []
        parts = []
        try:
            if opcode in (IoOpcode.READ, IoOpcode.WRITE, IoOpcode.COMPARE):
                segs = yield from resolve_prps(sqe.prp1, sqe.prp2, nbytes,
                                               self._read_list_page)
            if opcode != IoOpcode.READ:
                for addr, size in segs:
                    part = yield self.dma_read(addr, size)
                    parts.append(part)
        except PrpError:
            yield from self._complete(sq, sqe, Status.INVALID_FIELD, 0,
                                      win=win)
            return
        except FabricFaultError:
            yield from self._complete(sq, sqe, Status.DATA_TRANSFER_ERROR, 0,
                                      win=win)
            return

        kind = self._MEDIA_KIND[opcode]
        ok = yield from self.media.access(kind, nbytes)
        for f in self.probe.media_done:
            f(self, sq.state.qid, sqe.cid)
        if not ok:
            yield from self._complete(
                sq, sqe, Status.WRITE_FAULT if kind == "write"
                else Status.UNRECOVERED_READ_ERROR, 0, win=win)
            return

        status = Status.SUCCESS
        if opcode == IoOpcode.READ:
            data = ns.read_blocks(sqe.slba, nblocks)
            # Posted writes, one burst: the clamp guarantees the
            # subsequent CQE cannot overtake the data on the same flow.
            offset = 0
            burst = []
            for addr, size in segs:
                burst.append((addr, data[offset: offset + size]))
                offset += size
            self.fabric.post_writes(self.node, self.host, burst)
        elif opcode == IoOpcode.COMPARE:
            if b"".join(parts) != ns.read_blocks(sqe.slba, nblocks):
                status = Status.COMPARE_FAILURE
        elif opcode == IoOpcode.WRITE:
            ns.write_blocks(sqe.slba, b"".join(parts))
        elif opcode == IoOpcode.WRITE_ZEROES:
            ns.write_blocks(sqe.slba, bytes(nbytes))
        yield from self._complete(sq, sqe, status, 0, win=win)

    # ------------------------------------------------------------ completion

    def _complete(self, sq: _ControllerSq, sqe: SubmissionEntry,
                  status: int, result: int,
                  win: SqWindowState | None = None):
        # hot-path
        cq = self.cqs.get(sq.state.cqid)
        if cq is None or not cq.active:
            return  # queue torn down under us; drop, as hardware would
        yield self.sim.sleep(self.config.completion_overhead_ns)
        slot, phase = cq.state.produce_slot()
        # On a shared SQ the head reported back is *window-relative*, so
        # each tenant reclaims only its own sub-ring's slots.
        sq_head = sq.state.head if win is None else win.head
        cqe = CompletionEntry(result=result, sq_head=sq_head,
                              sq_id=sq.state.qid, cid=sqe.cid,
                              status=int(status), phase=phase)
        # CQE write is posted; we wait for delivery only to order the
        # interrupt behind it (hardware achieves the same via PCIe
        # ordering rules; the fabric clamp plus this wait are equivalent).
        yield self.fabric.write(self.node, self.host,
                                cq.state.slot_addr(slot), cqe.pack())
        self.commands_completed += 1
        for f in self.probe.cqe_posted:
            f(self, sq.state.qid, sqe.cid, int(status))
        if cq.interrupts_enabled and not self.regs.intms & (1 << cq.vector):
            entry = self.msix[cq.vector]
            if not entry.masked and entry.addr:
                yield self.sim.timeout(
                    self.config.interrupt_generation_ns)
                self.fabric.post_write(
                    self.node, self.host, entry.addr,
                    entry.data.to_bytes(4, "little"))

    # -------------------------------------------------------------- helpers

    @property
    def io_queue_count(self) -> int:
        return sum(1 for qid in self.sqs if qid != 0)
