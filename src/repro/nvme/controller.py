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

**Every command is a record**: each SQ's fetch loop (:class:`_Fetch`,
:class:`_SharedFetch`) and each fetched command (:class:`IoCommand`,
:class:`AdminCommand`) walks its steps from plain callbacks on the
events it waits for, its delays on one owned timer — no process per
command (docs/performance.md, "Every command is a record").
"""

from __future__ import annotations

import dataclasses
import typing as t

from ..config import NvmeConfig, QosConfig
from ..pcie.device import Bar, PCIeFunction
from ..pcie.fabric import FabricFaultError
from ..sim import Event, Signal, Simulator
from ..sim.resources import Record
from .constants import (CC_EN, CSTS_RDY, CSTS_SHST_COMPLETE, DOORBELL_BASE,
                        PAGE_SIZE, AdminOpcode, IoOpcode, Status,
                        CNS_ACTIVE_NS_LIST, CNS_CONTROLLER, CNS_NAMESPACE,
                        FEAT_NUM_QUEUES,
                        IDENTIFY_SIZE, SQE_SIZE)
from ..qos.arbiter import Arbiter, make_arbiter
from .media import Media, OptaneMedia
from .namespace import Namespace, NamespaceError
from .prp import PrpError, prp_list_page, prp_segments
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


#: the media access each I/O opcode pays for; any other opcode is invalid
_MEDIA_KIND = {IoOpcode.FLUSH: "flush", IoOpcode.READ: "read",
               IoOpcode.COMPARE: "read", IoOpcode.WRITE: "write",
               IoOpcode.WRITE_ZEROES: "write"}
#: the opcodes whose data buffers the PRPs describe
_PRP_OPCODES = (IoOpcode.READ, IoOpcode.WRITE, IoOpcode.COMPARE)


class _Fetch(Record):
    """The fetch loop of one conventional SQ, admin or I/O, walked from
    callbacks: wait for a doorbell (then the doorbell-to-fetch delay),
    DMA-read the head SQE wherever the queue lives, advance the head,
    decode (the decode delay), start the command's record and go round
    again inline.  A controller stall is waited out by subscribing to
    the fault point's ``stall_clear``; a fetch the fabric drops leaves
    the head where it is and is retried after the doorbell-to-fetch
    delay, as hardware keeps retrying until reset.  The loop boots on
    the URGENT lane and ends (:meth:`~repro.sim.resources.Record._end`)
    once the SQ is deleted or the controller reset."""

    __slots__ = ("ctrl", "sq", "sqe", "admin")

    def __init__(self, ctrl: "NvmeController", sq: _ControllerSq) -> None:
        self.ctrl = ctrl
        self.sq = sq
        self.admin = sq.state.qid == 0
        Record.__init__(self, ctrl.sim, self._loop)

    def _loop(self, _event: Event | None = None) -> None:
        """The top of the loop: end once the SQ is gone, wait out a
        stall, then fetch the head entry or wait for a doorbell."""
        # hot-path
        sq = self.sq
        if not sq.active:
            self._end()
            return
        ctrl = self.ctrl
        faults = ctrl.faults
        if faults is not None:
            clear = faults.stalled(ctrl.fault_point)
            if clear is not None:
                clear.callbacks.append(self._loop)
                return
        state = sq.state
        if state.head == sq.db_tail:
            sq.signal.wait().callbacks.append(self._woken)
            return
        ctrl.fabric.read(ctrl.node, ctrl.host, state.slot_addr(state.head),
                         SQE_SIZE).callbacks.append(self._fetched)

    def _woken(self, _wake: Event) -> None:
        """A doorbell (or the SQ's end): pay the doorbell processing /
        arbitration cost, per wakeup, then look again."""
        # hot-path
        if not self.sq.active:
            self._end()
            return
        self._arm(self.ctrl.config.doorbell_to_fetch_ns, self._loop)

    def _retry(self, read: Event) -> None:
        """The SQE fetch failed: a fetch lost in the fabric is retried
        after a pause (the head is where it was); anything else is a
        model bug, raised out of the run."""
        if not isinstance(read._value, FabricFaultError):
            raise read._value
        ctrl = self.ctrl
        ctrl.fetch_retries += 1
        self._arm(ctrl.config.doorbell_to_fetch_ns, self._loop)

    def _fetched(self, read: Event) -> None:
        """The SQE is in: consume the slot and decode it."""
        # hot-path
        if not read._ok:
            self._retry(read)
            return
        state = self.sq.state
        state.head = (state.head + 1) % state.entries
        ctrl = self.ctrl
        ctrl.fetches += 1
        self.sqe = SubmissionEntry.unpack(read._value)
        self._arm(ctrl.config.command_decode_ns, self._decoded)

    def _decoded(self, _timer: Event) -> None:
        """Decoded: announce it, start the command, go round again."""
        # hot-path
        ctrl = self.ctrl
        sq = self.sq
        sqe = self.sqe
        for f in ctrl.probe.sqe_fetched:
            f(ctrl, sq.state.qid, sqe, None, 0, 0)
        if self.admin:
            AdminCommand(ctrl, sq, sqe, None)
        else:
            ctrl.command_record(ctrl, sq, sqe, None)
        self._loop()


class _SharedFetch(_Fetch):
    """The fetch loop of a *shared* (windowed) SQ.

    Each grant services exactly one SQE from the tenant window the SQ's
    arbiter picks (docs/qos.md); under the default ``off`` policy that
    is the next non-empty window after the previous winner, so no tenant
    can starve a neighbour no matter how deep its backlog
    (docs/queue_sharing.md).  A dropped fetch refunds the grant and
    leaves the window head where it is."""

    __slots__ = ("win", "granted_at", "wait_ns")

    def _loop(self, _event: Event | None = None) -> None:
        # hot-path
        sq = self.sq
        if not sq.active:
            self._end()
            return
        ctrl = self.ctrl
        faults = ctrl.faults
        if faults is not None:
            clear = faults.stalled(ctrl.fault_point)
            if clear is not None:
                clear.callbacks.append(self._loop)
                return
        win = sq.arbiter.select(sq.windows)
        if win is None:
            sq.signal.wait().callbacks.append(self._woken)
            return
        self.win = win
        self.granted_at = self.sim._now
        ctrl.fabric.read(ctrl.node, ctrl.host,
                         win.slot_addr(sq.state.base_addr),
                         SQE_SIZE).callbacks.append(self._fetched)

    def _fetched(self, read: Event) -> None:
        # hot-path
        win = self.win
        arb = self.sq.arbiter
        if not read._ok:
            self._retry(read)
            arb.refund(win)
            return
        win.advance_head()
        arb.on_fetch(win)
        granted_at = self.granted_at
        self.wait_ns = granted_at - win.ready_at
        # The next entry (if any) has been waiting since this grant.
        win.ready_at = granted_at
        ctrl = self.ctrl
        ctrl.fetches += 1
        self.sqe = SubmissionEntry.unpack(read._value)
        self._arm(ctrl.config.command_decode_ns, self._decoded)

    def _decoded(self, _timer: Event) -> None:
        # hot-path
        ctrl = self.ctrl
        sq = self.sq
        sqe = self.sqe
        win = self.win
        for f in ctrl.probe.sqe_fetched:
            f(ctrl, sq.state.qid, sqe, win, self.granted_at, self.wait_ns)
        ctrl.command_record(ctrl, sq, sqe, win)
        self._loop()


class Command(Record):
    """One fetched command, walked from callbacks.  It boots on the
    URGENT lane at the instant it is fetched, so the fetch loop that
    started it moves on to the next SQE first.  The subclass's
    ``_execute`` is the first step; :meth:`_complete` is the last, the
    same for every command: the CQE as a posted write the controller
    waits on, then the optional MSI-X, then :meth:`_done`."""

    __slots__ = ("ctrl", "sq", "sqe", "win", "cq", "status", "result")

    def __init__(self, ctrl: "NvmeController", sq: _ControllerSq,
                 sqe: SubmissionEntry, win: SqWindowState | None) -> None:
        # hot-path: one per command
        self.ctrl = ctrl
        self.sq = sq
        self.sqe = sqe
        self.win = win
        Record.__init__(self, ctrl.sim, self._execute)

    def _execute(self, _boot: Event) -> None:
        raise NotImplementedError

    def _complete(self, status: int, result: int) -> None:
        """Complete with ``status``: the CQE goes out once the
        completion overhead has elapsed."""
        # hot-path
        self.status = int(status)
        self.result = result
        ctrl = self.ctrl
        cq = ctrl.cqs.get(self.sq.state.cqid)
        if cq is None or not cq.active:
            self._done()    # queue torn down under us; drop, as hardware would
            return
        self.cq = cq
        self._arm(ctrl.config.completion_overhead_ns, self._post)

    def _post(self, _timer: Event) -> None:
        """Write the CQE.  It is posted; the controller waits for its
        delivery only to order the interrupt behind it (hardware
        achieves the same via PCIe ordering rules; the fabric clamp
        plus this wait are equivalent)."""
        # hot-path
        ctrl = self.ctrl
        cq_state = self.cq.state
        slot, phase = cq_state.produce_slot()
        sq = self.sq
        win = self.win
        # On a shared SQ the head reported back is *window-relative*, so
        # each tenant reclaims only its own sub-ring's slots.
        cqe = CompletionEntry(self.result,
                              sq.state.head if win is None else win.head,
                              sq.state.qid, self.sqe.cid, self.status, phase)
        write = ctrl.fabric.write(ctrl.node, ctrl.host,
                                  cq_state.slot_addr(slot), cqe.pack())
        if write._processed:
            self._posted(write)     # dropped: nothing to wait for
        else:
            write.callbacks.append(self._posted)

    def _posted(self, _write: Event) -> None:
        """The CQE has landed: count it, then interrupt if enabled."""
        # hot-path
        ctrl = self.ctrl
        ctrl.commands_completed += 1
        for f in ctrl.probe.cqe_posted:
            f(ctrl, self.sq.state.qid, self.sqe.cid, self.status)
        cq = self.cq
        if cq.interrupts_enabled and not ctrl.regs.intms & (1 << cq.vector):
            entry = ctrl.msix[cq.vector]
            if not entry.masked and entry.addr:
                self._arm(ctrl.config.interrupt_generation_ns,
                          self._interrupt)
                return
        self._done()

    def _interrupt(self, _timer: Event) -> None:
        ctrl = self.ctrl
        entry = ctrl.msix[self.cq.vector]
        ctrl.fabric.post_write(ctrl.node, ctrl.host, entry.addr,
                               entry.data.to_bytes(4, "little"))
        self._done()

    def _done(self) -> None:
        """The command is over: end the record (``Record._end``; with
        nobody subscribed, on the spot)."""
        self._end()


class IoCommand(Command):
    """One fetched I/O command: validate, resolve the PRPs (reading any
    list pages), read the data the host sends, hold a media channel for
    the access, move the data the host receives, complete.  Nothing
    subscribes to it: once the command is over it is garbage, left
    pending."""

    __slots__ = ("ns", "kind", "slba", "nblocks", "nbytes", "segs",
                 "remaining", "parts", "channel")

    def _execute(self, _boot: Event) -> None:
        """Validate the command and start resolving its PRPs."""
        # hot-path
        ctrl = self.ctrl
        sqe = self.sqe
        faults = ctrl.faults
        if faults is not None and faults.command_aborted(ctrl.sim.rng,
                                                         ctrl.fault_point):
            self._complete(Status.ABORTED_BY_REQUEST, 0)
            return
        opcode = sqe.opcode
        kind = _MEDIA_KIND.get(opcode)
        if kind is None:
            self._complete(Status.INVALID_OPCODE, 0)
            return
        ns = ctrl.namespaces.get(sqe.nsid)
        if ns is None:
            self._complete(Status.INVALID_FIELD, 0)
            return
        self.ns = ns
        self.kind = kind
        nblocks = nbytes = 0
        if opcode != IoOpcode.FLUSH:
            nblocks = sqe.nlb + 1
            nbytes = nblocks * ns.lba_bytes
            self.slba = slba = sqe.slba
            try:
                ns.check_range(slba, nblocks)
            except NamespaceError:
                self._complete(Status.LBA_OUT_OF_RANGE, 0)
                return
        self.nblocks = nblocks
        self.nbytes = nbytes
        # WRITE_ZEROES moves no data (the controller zeroes the range
        # itself); WRITE and COMPARE fetch the host's buffers with
        # non-posted reads *before* the media access.
        if opcode in _PRP_OPCODES:
            try:
                self.segs, list_addr, self.remaining = prp_segments(
                    sqe.prp1, sqe.prp2, nbytes)
            except PrpError:
                self._complete(Status.INVALID_FIELD, 0)
                return
            if list_addr:
                ctrl.fabric.read(ctrl.node, ctrl.host, list_addr,
                                 PAGE_SIZE).callbacks.append(self._listed)
                return
            if opcode != IoOpcode.READ:
                self._send()
                return
        self._media()

    def _listed(self, read: Event) -> None:
        """A PRP list page is in: decode it, then read the next one, or
        what the host sends, or go to the media."""
        if not read._ok:
            self._transfer_failed(read)
            return
        try:
            list_addr, self.remaining = prp_list_page(
                read._value, self.segs, self.remaining)
        except PrpError:
            self._complete(Status.INVALID_FIELD, 0)
            return
        ctrl = self.ctrl
        if list_addr:
            ctrl.fabric.read(ctrl.node, ctrl.host, list_addr,
                             PAGE_SIZE).callbacks.append(self._listed)
        elif self.sqe.opcode != IoOpcode.READ:
            self._send()
        else:
            self._media()

    def _send(self) -> None:
        """Read what the host sends, one segment at a time."""
        # hot-path
        self.parts = []
        addr, size = self.segs[0]
        ctrl = self.ctrl
        ctrl.fabric.read(ctrl.node, ctrl.host, addr,
                         size).callbacks.append(self._sent)

    def _sent(self, read: Event) -> None:
        # hot-path
        if not read._ok:
            self._transfer_failed(read)
            return
        parts = self.parts
        parts.append(read._value)
        segs = self.segs
        if len(parts) < len(segs):
            addr, size = segs[len(parts)]
            ctrl = self.ctrl
            ctrl.fabric.read(ctrl.node, ctrl.host, addr,
                             size).callbacks.append(self._sent)
        else:
            self._media()

    def _transfer_failed(self, read: Event) -> None:
        """A data or PRP-list read failed: lost in the fabric, the
        command completes with a data transfer error; anything else is
        a model bug, raised out of the run."""
        if not isinstance(read._value, FabricFaultError):
            raise read._value
        self._complete(Status.DATA_TRANSFER_ERROR, 0)

    def _media(self) -> None:
        """Queue for a media channel."""
        # hot-path
        channel = self.channel = self.ctrl.media.channels.request()
        channel.callbacks.append(self._granted)

    def _granted(self, _grant: Event) -> None:
        # hot-path
        self._arm(self.ctrl.media.access_ns(self.kind, self.nbytes),
                  self._accessed)

    def _accessed(self, _timer: Event) -> None:
        """The media access is over: move the data, then complete."""
        # hot-path
        ctrl = self.ctrl
        media = ctrl.media
        media.channels.release(self.channel)
        kind = self.kind
        ok = media.finish(kind)
        sqe = self.sqe
        for f in ctrl.probe.media_done:
            f(ctrl, self.sq.state.qid, sqe.cid)
        if not ok:
            self._complete(Status.WRITE_FAULT if kind == "write"
                           else Status.UNRECOVERED_READ_ERROR, 0)
            return
        status = Status.SUCCESS
        opcode = sqe.opcode
        ns = self.ns
        if opcode == IoOpcode.READ:
            data = ns.read_blocks(self.slba, self.nblocks)
            # Posted writes, one burst: the clamp guarantees the
            # subsequent CQE cannot overtake the data on the same flow.
            offset = 0
            burst = []
            for addr, size in self.segs:
                burst.append((addr, data[offset: offset + size]))
                offset += size
            ctrl.fabric.post_writes(ctrl.node, ctrl.host, burst)
        elif opcode == IoOpcode.COMPARE:
            if b"".join(self.parts) != ns.read_blocks(self.slba,
                                                      self.nblocks):
                status = Status.COMPARE_FAILURE
        elif opcode == IoOpcode.WRITE:
            ns.write_blocks(self.slba, b"".join(self.parts))
        elif opcode == IoOpcode.WRITE_ZEROES:
            ns.write_blocks(self.slba, bytes(self.nbytes))
        self._complete(status, 0)

    def _done(self) -> None:
        """Nothing to do: no one waits on an I/O command."""


class AdminCommand(Command):
    """One fetched admin command: the admin execution time, then the
    command (an Identify DMA-writes its data to PRP1 and waits for the
    delivery), then the completion every command shares."""

    __slots__ = ()

    def _execute(self, _boot: Event) -> None:
        self._arm(self.ctrl.config.admin_command_ns, self._admin)

    def _admin(self, _timer: Event) -> None:
        ctrl = self.ctrl
        status, result, payload = ctrl._admin_command(self.sqe)
        if payload is None:
            self._complete(status, result)
            return
        write = ctrl.dma_write(self.sqe.prp1, payload)
        if write._processed:
            self._identified(write)
        else:
            write.callbacks.append(self._identified)

    def _identified(self, _write: Event) -> None:
        self._complete(Status.SUCCESS, 0)


class NvmeController(PCIeFunction):
    """A single-function NVMe controller endpoint."""

    BAR_SIZE = 0x4000
    #: the record each fetched I/O command becomes; a subclass may stand
    #: in for it (a seeded firmware bug, sanitizer/fixtures.py)
    command_record: type[IoCommand] = IoCommand

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
            self.sim.process(self._enable(), detached=True)
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
        self._start_fetching(asq)
        for f in self.probe.lifecycle:
            f(self, "enabled")

    def _start_fetching(self, sq: _ControllerSq) -> None:
        """Start the new SQ's fetch loop, a record booting now."""
        if sq.windows is None:
            _Fetch(self, sq)
        else:
            _SharedFetch(self, sq)

    def _reset(self) -> None:
        for sq in self.sqs.values():
            sq.active = False
            if sq.signal is not None:
                sq.signal.fire()       # wake fetch loops so they end
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
                    now = self.sim._now
                    if win.is_empty():
                        win.ready_at = now
                    sq.arbiter.on_doorbell(
                        win, (wtail - win.db_tail) % win.entries, now)
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

    # --------------------------------------------------------------- admin

    def _admin_command(self, sqe: SubmissionEntry
                       ) -> tuple[int, int, bytes | None]:
        """Execute an admin command: ``(status, result, payload)``, the
        payload (Identify data) to be DMA-written to PRP1 before the
        command completes, or None."""
        opcode = sqe.opcode
        if opcode == AdminOpcode.IDENTIFY:
            status, payload = self._admin_identify(sqe)
            return status, 0, payload
        if opcode == AdminOpcode.CREATE_IO_CQ:
            return self._admin_create_cq(sqe), 0, None
        if opcode == AdminOpcode.CREATE_IO_SQ:
            return self._admin_create_sq(sqe), 0, None
        if opcode == AdminOpcode.DELETE_IO_SQ:
            return self._admin_delete_sq(sqe), 0, None
        if opcode == AdminOpcode.DELETE_IO_CQ:
            return self._admin_delete_cq(sqe), 0, None
        if opcode in (AdminOpcode.SET_FEATURES, AdminOpcode.GET_FEATURES):
            status, result = self._admin_features(sqe)
            return status, result, None
        return Status.INVALID_OPCODE, 0, None

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

    def _admin_identify(self, sqe: SubmissionEntry
                        ) -> tuple[int, bytes | None]:
        """``(status, payload)``: the Identify data for PRP1, or None."""
        cns = sqe.cdw10 & 0xFF
        if cns == CNS_CONTROLLER:
            ident = IdentifyController(nn=len(self.namespaces))
            payload = ident.pack()
        elif cns == CNS_NAMESPACE:
            ns = self.namespaces.get(sqe.nsid)
            if ns is None:
                return Status.INVALID_FIELD, None
            payload = ns.identify().pack()
        elif cns == CNS_ACTIVE_NS_LIST:
            # 1024 x u32 NSIDs greater than CDW1.NSID, ascending.
            buf = bytearray(IDENTIFY_SIZE)
            ids = sorted(n for n in self.namespaces if n > sqe.nsid)
            for i, nsid in enumerate(ids[:1024]):
                buf[i * 4:(i + 1) * 4] = nsid.to_bytes(4, "little")
            payload = bytes(buf)
        else:
            return Status.INVALID_FIELD, None
        if sqe.prp1 == 0 or sqe.prp1 % PAGE_SIZE:
            return Status.INVALID_FIELD, None
        assert len(payload) == IDENTIFY_SIZE
        return Status.SUCCESS, payload

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
        self._start_fetching(sq)
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

    # -------------------------------------------------------------- helpers

    @property
    def io_queue_count(self) -> int:
        return sum(1 for qid in self.sqs if qid != 0)
