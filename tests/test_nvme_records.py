"""Every command is a record: the controller's fetch loops and commands
walk from plain callbacks (``nvme/controller.py``), no process per I/O.

The generators they replaced — the SQ workers, ``_execute_admin``,
``_execute_io``, ``_complete``, ``Media.access``, ``resolve_prps`` and
the fault registry's ``stall_barrier`` — are kept here as the
reference, as they were at 0f026f4, on a controller subclass that
starts them instead of the records.  Both are
driven through the same random schedules — private and shared SQs under
each arbiter policy, dropped TLPs and link outages, controller stalls
and aborts, PRP lists, chains and bad PRPs, media errors, invalid
opcodes, namespaces and LBA ranges, queue deletion and controller reset
with commands in flight, interrupts on and off — and must leave the
same ``(time, probe event)`` trace, memory, namespace, counters and
``events_processed``."""

import hashlib
import os
import struct

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.config import MediaConfig, NvmeConfig, PcieConfig, QosConfig
from repro.faults import FaultPointRegistry
from repro.nvme import (AdminOpcode, IoOpcode, NamespaceError,
                        NvmeController, PrpError, Status, SubmissionEntry,
                        build_prps, sq_doorbell_offset)
from repro.nvme.constants import (CNS_CONTROLLER, PAGE_SIZE, REG_ACQ,
                                  REG_AQA, REG_ASQ, REG_CC, SQE_SIZE)
from repro.nvme.registers import MSIX_ENTRY_SIZE, MSIX_TABLE_OFFSET
from repro.nvme.structs import CompletionEntry
from repro.pcie import Cluster, Fabric
from repro.pcie.fabric import FabricFaultError
from repro.qos.arbiter import POLICIES
from repro.scenarios import ours_remote
from repro.sim import Process, Simulator
from repro.units import MiB
from repro.workloads import FioJob, run_fio

#: 20 examples in tier-1, 400 in CI (``REPRO_KERNEL_EXAMPLES=2000``)
EXAMPLES = max(10, int(os.environ.get("REPRO_KERNEL_EXAMPLES", "100")) // 5)


# -- the reference: the generators as they were ------------------------------

def stall_barrier(faults, name):
    """``FaultPointRegistry.stall_barrier``: block while stalled."""
    while True:
        state = faults._points.get(name)
        if state is None or state.stall_clear is None:
            return
        yield state.stall_clear


def resolve_prps(prp1, prp2, length, read_page, page_size=PAGE_SIZE):
    """``nvme/prp.py::resolve_prps``: yield list-page reads, return the
    segments."""
    if length <= 0:
        raise PrpError("transfer length must be positive")
    first_run = min(length, page_size - (prp1 % page_size))
    segs = [(prp1, first_run)]
    remaining = length - first_run
    if remaining == 0:
        return segs
    if remaining <= page_size:
        if prp2 == 0:
            raise PrpError("PRP2 required but zero")
        if prp2 % page_size:
            raise PrpError(f"PRP2 not page-aligned: {prp2:#x}")
        segs.append((prp2, remaining))
        return segs
    if prp2 == 0:
        raise PrpError("PRP list pointer (PRP2) is zero")
    if prp2 % 8:
        raise PrpError(f"PRP list pointer not qword-aligned: {prp2:#x}")
    per_page = page_size // 8
    list_addr = prp2
    while remaining > 0:
        page = yield read_page(list_addr)
        needed = (remaining + page_size - 1) // page_size
        chained = needed > per_page
        try:
            data_ptrs = struct.unpack_from(
                "<%dQ" % (per_page if chained else needed), page)
        except struct.error:
            raise PrpError(
                f"PRP list page too short: {len(page)} bytes") from None
        if chained:
            list_addr = data_ptrs[-1]
            data_ptrs = data_ptrs[:-1]
            if list_addr == 0:
                raise PrpError("PRP chain pointer is zero")
        else:
            list_addr = 0
        for pointer in data_ptrs:
            if pointer == 0:
                raise PrpError("PRP list entry is zero")
            if pointer % page_size:
                raise PrpError(f"PRP list entry not aligned: {pointer:#x}")
            run = min(remaining, page_size)
            segs.append((pointer, run))
            remaining -= run
            if remaining == 0:
                break
    return segs


def media_access(media, kind, nbytes):
    """``Media.access``: occupy a channel for the access time; False on
    an injected media error (``_inject_error`` folded in; the draw is
    the subclass hook, ``_draw`` then, ``access_ns`` now)."""
    if kind not in ("read", "write", "flush"):
        raise ValueError(f"unknown media access kind: {kind}")
    req = media.channels.request()
    yield req
    try:
        yield media.sim.sleep(media.access_ns(kind, nbytes))
    finally:
        media.channels.release(req)
    if kind == "read":
        media.reads += 1
    elif kind == "write":
        media.writes += 1
    rate = (media.config.read_error_rate if kind == "read"
            else media.config.write_error_rate if kind == "write"
            else 0.0)
    if rate <= 0.0:
        return True
    if float(media.sim.rng.stream(f"{media.name}.errors").random()) < rate:
        media.media_errors += 1
        return False
    return True


_MEDIA_KIND = {IoOpcode.FLUSH: "flush", IoOpcode.READ: "read",
               IoOpcode.COMPARE: "read", IoOpcode.WRITE: "write",
               IoOpcode.WRITE_ZEROES: "write"}


class ReferenceController(NvmeController):
    """The controller with its pipeline as generator processes: an SQ
    worker per queue, a process per command."""

    def _start_fetching(self, sq):
        if sq.windows is None:
            self.sim.process(self._sq_worker(sq), detached=True)
        else:
            self.sim.process(self._shared_sq_worker(sq), detached=True)

    def _sq_worker(self, sq):
        cfg = self.config
        sim = self.sim
        probe = self.probe
        state = sq.state
        unpack = SubmissionEntry.unpack
        decode_ns = cfg.command_decode_ns
        is_admin = state.qid == 0
        while sq.active:
            if self.faults is not None:
                yield from stall_barrier(self.faults, self.fault_point)
                if not sq.active:
                    return
            if state.head == sq.db_tail:
                yield sq.signal.wait()
                if not sq.active:
                    return
                yield sim.sleep(cfg.doorbell_to_fetch_ns)
                continue
            slot = state.head
            try:
                raw = yield self.dma_read(state.slot_addr(slot), SQE_SIZE)
            except FabricFaultError:
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
                sim.process(self._execute_admin(sq, sqe), detached=True)
            else:
                sim.process(self._execute_io(sq, sqe), detached=True)

    def _shared_sq_worker(self, sq):
        cfg = self.config
        sim = self.sim
        probe = self.probe
        state = sq.state
        windows = sq.windows
        arb = sq.arbiter
        unpack = SubmissionEntry.unpack
        decode_ns = cfg.command_decode_ns
        while sq.active:
            if self.faults is not None:
                yield from stall_barrier(self.faults, self.fault_point)
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
                self.fetch_retries += 1
                arb.refund(win)
                yield sim.sleep(cfg.doorbell_to_fetch_ns)
                continue
            win.advance_head()
            arb.on_fetch(win)
            wait_ns = granted_at - win.ready_at
            win.ready_at = granted_at
            self.fetches += 1
            sqe = unpack(raw)
            yield sim.sleep(decode_ns)
            for f in probe.sqe_fetched:
                f(self, state.qid, sqe, win, granted_at, wait_ns)
            sim.process(self._execute_io(sq, sqe, win=win), detached=True)

    def _execute_admin(self, sq, sqe):
        yield self.sim.timeout(self.config.admin_command_ns)
        status, result = Status.SUCCESS, 0
        try:
            opcode = AdminOpcode(sqe.opcode)
        except ValueError:
            yield from self._complete(sq, sqe, Status.INVALID_OPCODE, 0)
            return
        if opcode == AdminOpcode.IDENTIFY:
            # the Identify generator: one waited DMA write of the data
            status, payload = self._admin_identify(sqe)
            if payload is not None:
                yield self.dma_write(sqe.prp1, payload)
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

    def _execute_io(self, sq, sqe, win=None):
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
        segs = []
        parts = []
        try:
            if opcode in (IoOpcode.READ, IoOpcode.WRITE, IoOpcode.COMPARE):
                segs = yield from resolve_prps(
                    sqe.prp1, sqe.prp2, nbytes,
                    lambda addr: self.dma_read(addr, PAGE_SIZE))
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
        kind = _MEDIA_KIND[opcode]
        ok = yield from media_access(self.media, kind, nbytes)
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

    def _complete(self, sq, sqe, status, result, win=None):
        cq = self.cqs.get(sq.state.cqid)
        if cq is None or not cq.active:
            return
        yield self.sim.sleep(self.config.completion_overhead_ns)
        slot, phase = cq.state.produce_slot()
        sq_head = sq.state.head if win is None else win.head
        cqe = CompletionEntry(result=result, sq_head=sq_head,
                              sq_id=sq.state.qid, cid=sqe.cid,
                              status=int(status), phase=phase)
        yield self.fabric.write(self.node, self.host,
                                cq.state.slot_addr(slot), cqe.pack())
        self.commands_completed += 1
        for f in self.probe.cqe_posted:
            f(self, sq.state.qid, sqe.cid, int(status))
        if cq.interrupts_enabled and not self.regs.intms & (1 << cq.vector):
            entry = self.msix[cq.vector]
            if not entry.masked and entry.addr:
                yield self.sim.timeout(self.config.interrupt_generation_ns)
                self.fabric.post_write(
                    self.node, self.host, entry.addr,
                    entry.data.to_bytes(4, "little"))


# -- the rig and its schedules ---------------------------------------------

class _Log:
    """The controller's probe events (and the TLPs, doorbells and ring
    steps around them), each with its instant and a snapshot of the
    controller's state: SQ heads, window heads, counters, the media
    channels' holders and queue, the fabric's read and write counts,
    the faults injected."""

    def __init__(self, sim, ctrl, fabric):
        self.sim = sim
        self.ctrl = ctrl
        self.fabric = fabric
        self.seen = []

    def _log(self, *event):
        ctrl = self.ctrl
        channels = ctrl.media.channels
        self.seen.append((self.sim.now, *event, tuple(
            (qid, sq.state.head, sq.db_tail,
             sq.windows and tuple(win.head for win in sq.windows))
            for qid, sq in sorted(ctrl.sqs.items())),
            ctrl.fetches, ctrl.commands_completed, channels.count,
            channels.queued, self.fabric.reads, self.fabric.posted_writes,
            sum(ctrl.faults.injected.values())))

    def on_sqe_fetched(self, ctrl, qid, sqe, win, granted_at, wait_ns):
        self._log("fetched", qid, sqe.cid, sqe.opcode,
                  None if win is None else win.index, granted_at, wait_ns)
        # A witness behind the fetch, at this instant: what the command
        # did at its boot — URGENT, ahead of every event still due now —
        # shows in its snapshot.  (Unlike a real observer it queues an
        # event; both sides queue the same.)
        self.sim.timeout(0).callbacks.append(self._witness)

    def _witness(self, _event):
        self._log("witness")

    def on_media_done(self, ctrl, qid, cid):
        self._log("media", qid, cid)

    def on_cqe_posted(self, ctrl, qid, cid, status):
        self._log("cqe", qid, cid, status)

    def on_tlp_done(self, fabric, read, addr, size, res, lost_at):
        self._log("tlp", read, addr, size, lost_at)

    def on_doorbell_landed(self, ctrl, qid, is_cq, value, ok):
        self._log("doorbell", qid, is_cq, value, ok)

    def on_lifecycle(self, component, what, *detail):
        self._log("lifecycle", what, len(detail))

    def on_ring_step(self, state, op):
        self._log("ring", op, state.head, getattr(state, "tail", None))


LBA = 512
CAPACITY = 8192             # LBAs: 4 MiB, room for a chained PRP list
QSIZE = 16
WIN = 8                     # the shared SQ: two windows of 8 entries
#: blocks per command: 512 B, one page, PRP2, a three-page list, a
#: 16-page list
BLOCKS = (1, 8, 16, 24, 128)
#: 514 pages: the PRP list chains to a second page
CHAIN = 514 * 8
KINDS = ("read", "read", "write", "write", "compare", "flush", "zeroes",
         "opcode", "nsid", "range", "prp")
OPS = st.lists(st.tuples(
    st.integers(0, 60).map(lambda us: us * 1_000),  # issued, after setup
    st.integers(0, 3),              # SQ1, SQ3, shared windows 0 and 1
    st.sampled_from(KINDS),
    st.sampled_from(BLOCKS),
    st.integers(0, 3),              # buffer offset, or bad-PRP variant
    st.integers(0, 63)), min_size=1, max_size=10)   # LBA slot
FAULTS = st.lists(st.one_of(
    st.tuples(st.just("drop"), st.sampled_from((0.05, 0.2))),
    st.tuples(st.just("abort"), st.sampled_from((0.1, 0.5))),
    st.tuples(st.just("stall"), st.integers(0, 60_000),
              st.integers(1, 30_000)),
    st.tuples(st.just("outage"), st.integers(0, 60_000),
              st.integers(1, 120_000))), max_size=3)
ENDS = st.one_of(
    st.none(),
    st.tuples(st.sampled_from(("delete-sq1", "delete-shared", "reset")),
              st.integers(0, 60_000)))


def play(reference, ops, policy, faults_plan, media_errors, interrupts,
         end, seed=5):
    """Run the schedule on the records or on the reference generators;
    return everything both must agree on."""
    sim = Simulator(seed=seed)
    pcfg = PcieConfig()
    cluster = Cluster(sim, pcfg)
    host = cluster.add_host("host", dram_size=32 * MiB)
    node = cluster.add_endpoint("host.nvme", host=host)
    cluster.connect(host.rc, node, bandwidth=3.2)
    fabric = Fabric(sim, cluster, pcfg)
    rate = 0.2 if media_errors else 0.0
    config = NvmeConfig(
        enable_latency_ns=10_000, admin_command_ns=2_000,
        media=MediaConfig(channels=2, capacity_lbas=CAPACITY,
                          read_error_rate=rate, write_error_rate=rate))
    cls = ReferenceController if reference else NvmeController
    ctrl = cls(sim, "nvme0", config, qos=QosConfig(policy=policy))
    ctrl.install(host, node, fabric)
    registry = FaultPointRegistry(sim)
    registry.register("link:host")
    registry.register(ctrl.fault_point)
    fabric.faults = registry
    ctrl.faults = registry
    log = sim.probe.subscribe(_Log(sim, ctrl, fabric))
    bar = ctrl.bars[0].base
    regions = []

    def alloc(size):
        addr = host.alloc_dma(size)
        regions.append((addr, size))
        return addr

    asq, acq = alloc(QSIZE * 64), alloc(QSIZE * 16)
    cq1, cq2 = alloc(QSIZE * 16), alloc(QSIZE * 16)
    sq1, sq3, shared = (alloc(QSIZE * 64), alloc(QSIZE * 64),
                        alloc(QSIZE * 64))
    msi, ident = alloc(64), alloc(PAGE_SIZE)
    tails = {"admin": 0, 0: 0, 1: 0, 2: 0, 3: 0}
    cids = iter(range(1, 0x10000))

    def reg(offset, value, width=4):
        fabric.post_write(host.rc, host, bar + offset,
                          value.to_bytes(width, "little"))

    def submit(queue, sqe):
        """Store the SQE at the queue's tail and ring its doorbell."""
        sqe.cid = next(cids)
        tail = tails[queue]
        tails[queue] = (tail + 1) % (WIN if queue in (2, 3) else QSIZE)
        if queue == "admin":
            base, qid, value = asq, 0, tails[queue]
        elif queue in (0, 1):
            base, qid, value = (sq1, sq3)[queue], (1, 3)[queue], tails[queue]
        else:
            widx = queue - 2
            base = shared + widx * WIN * 64
            qid, value = 2, (widx << 16) | tails[queue]
        host.memory.write(base + tail * 64, sqe.pack())
        reg(sq_doorbell_offset(qid), value)

    def admin(opcode, **fields):
        submit("admin", SubmissionEntry(opcode=opcode, **fields))
        yield sim.timeout(config.admin_command_ns + 4_000)

    def command(tag, queue, kind, blocks, variant, lba):
        opcode = {"write": IoOpcode.WRITE, "compare": IoOpcode.COMPARE,
                  "flush": IoOpcode.FLUSH, "zeroes": IoOpcode.WRITE_ZEROES,
                  "opcode": 0x7E}.get(kind, IoOpcode.READ)
        sqe = SubmissionEntry(opcode=opcode, nsid=5 if kind == "nsid" else 1)
        if kind == "prp":
            blocks = 16 if variant == 0 else 24
        nbytes = blocks * LBA
        offset = (0, LBA, 0, 0)[variant] if kind != "prp" else 0
        buf = alloc(nbytes + PAGE_SIZE) + offset
        if kind in ("write", "compare"):
            host.memory.write(buf, bytes([tag + 1]) * nbytes)
        desc = build_prps(buf, nbytes, alloc)
        pages = dict(desc.list_pages)
        sqe.prp1, sqe.prp2 = desc.prp1, desc.prp2
        if kind == "prp":
            if variant == 0:
                sqe.prp2 = 0                    # PRP2 required but zero
            elif variant == 1:
                sqe.prp2 |= 4                   # list not qword-aligned
            else:                               # a zero / unaligned entry
                page = bytearray(pages[desc.prp2])
                page[8:16] = (0 if variant == 2 else 0x1234).to_bytes(
                    8, "little")
                pages[desc.prp2] = bytes(page)
        for addr, page in pages.items():
            host.memory.write(addr, page)
        sqe.slba = CAPACITY - 2 if kind == "range" else lba * 16
        sqe.nlb = blocks - 1
        submit(queue, sqe)

    def script():
        reg(REG_AQA, ((QSIZE - 1) << 16) | (QSIZE - 1))
        reg(REG_ASQ, asq, width=8)
        reg(REG_ACQ, acq, width=8)
        reg(REG_CC, (6 << 16) | (4 << 20) | 1)
        yield sim.timeout(config.enable_latency_ns + 4_000)
        yield from admin(AdminOpcode.IDENTIFY, prp1=ident,
                         cdw10=CNS_CONTROLLER)
        yield from admin(AdminOpcode.CREATE_IO_CQ, prp1=cq1,
                         cdw10=((QSIZE - 1) << 16) | 1,
                         cdw11=(1 << 16) | (2 if interrupts else 0) | 1)
        yield from admin(AdminOpcode.CREATE_IO_CQ, prp1=cq2,
                         cdw10=((QSIZE - 1) << 16) | 2, cdw11=1)
        yield from admin(AdminOpcode.CREATE_IO_SQ, prp1=sq1,
                         cdw10=((QSIZE - 1) << 16) | 1, cdw11=(1 << 16) | 1)
        yield from admin(AdminOpcode.CREATE_IO_SQ, prp1=sq3,
                         cdw10=((QSIZE - 1) << 16) | 3, cdw11=(2 << 16) | 1)
        yield from admin(AdminOpcode.CREATE_IO_SQ, prp1=shared,
                         cdw10=((QSIZE - 1) << 16) | 2,
                         cdw11=(2 << 16) | 8 | 1, cdw12=WIN)
        yield from admin(AdminOpcode.GET_FEATURES, cdw10=0x07)
        yield from admin(0x7F)
        vector = MSIX_TABLE_OFFSET + MSIX_ENTRY_SIZE
        reg(vector, msi, width=8)
        reg(vector + 8, 0xBEEF)
        reg(vector + 12, 0 if interrupts else 1)
        yield sim.timeout(4_000)
        start = sim.now
        for fault in faults_plan:
            if fault[0] == "drop":
                registry.set_drop("link:host", fault[1])
            elif fault[0] == "abort":
                registry.set_abort(ctrl.fault_point, fault[1])
            else:
                sim.process(window(fault, start))
        if end is not None:
            sim.process(ending(end, start))
        for tag, (at, *spec) in sorted(enumerate(ops),
                                       key=lambda item: item[1][0]):
            if start + at > sim.now:
                yield sim.timeout(start + at - sim.now)
            command(tag, *spec)

    def window(fault, start):
        kind, at, duration = fault
        yield sim.timeout(start + at - sim.now)
        if kind == "stall":
            registry.stall(ctrl.fault_point)
            yield sim.timeout(duration)
            registry.resume(ctrl.fault_point)
        else:
            registry.set_link("link:host", False)
            yield sim.timeout(duration)
            registry.set_link("link:host", True)

    def ending(end, start):
        what, at = end
        yield sim.timeout(start + at - sim.now)
        if what == "reset":
            reg(REG_CC, 0)
        elif what == "delete-sq1":
            submit("admin", SubmissionEntry(opcode=AdminOpcode.DELETE_IO_SQ,
                                            cdw10=1))
            submit("admin", SubmissionEntry(opcode=AdminOpcode.DELETE_IO_CQ,
                                            cdw10=1))
        else:
            submit("admin", SubmissionEntry(opcode=AdminOpcode.DELETE_IO_SQ,
                                            cdw10=2))

    sim.process(script())
    sim.run(until=20_000_000)
    memory = hashlib.sha256(b"".join(
        host.memory.read(addr, size) for addr, size in regions)).hexdigest()
    ns = ctrl.namespaces[1]
    media = ctrl.media
    counters = (ctrl.commands_completed, ctrl.fetches, ctrl.fetch_retries,
                ctrl.bad_doorbells, media.reads, media.writes,
                media.media_errors, media.channels.count,
                media.channels.queued, dict(registry.injected),
                fabric.posted_writes, fabric.reads, fabric.dropped_writes,
                fabric.timed_out_reads, sorted(ctrl.sqs), sorted(ctrl.cqs))
    return (log.seen, memory,
            hashlib.sha256(ns.read_blocks(0, CAPACITY)).hexdigest(),
            counters, sim.events_processed)


class TestRecordsMatchTheGenerators:
    @pytest.mark.kernel_differential
    @settings(max_examples=EXAMPLES, deadline=None, database=None)
    @given(ops=OPS, policy=st.sampled_from(sorted(POLICIES)),
           faults_plan=FAULTS, media_errors=st.booleans(),
           interrupts=st.booleans(), end=ENDS)
    @example(ops=[(0, 0, "write", 24, 1, 3), (0, 1, "compare", 24, 0, 3),
                  (100, 0, "read", 128, 0, 3), (100, 2, "zeroes", 8, 0, 4),
                  (100, 3, "flush", 8, 0, 0), (200, 3, "opcode", 8, 0, 0),
                  (200, 2, "nsid", 8, 0, 0), (300, 1, "range", 8, 0, 0)],
             policy="off", faults_plan=[], media_errors=False,
             interrupts=True, end=None)
    @example(ops=[(0, 0, "prp", 8, v, v) for v in range(4)]
             + [(0, 2, "prp", 8, v, v) for v in range(4)],
             policy="wfq", faults_plan=[], media_errors=False,
             interrupts=False, end=None)
    @example(ops=[(0, 2, "write", 8, 0, k) for k in range(4)]
             + [(0, 3, "read", 8, 0, k) for k in range(4)],
             policy="strict", faults_plan=[("drop", 0.2), ("abort", 0.5)],
             media_errors=True, interrupts=True, end=None)
    @example(ops=[(0, 0, "read", 16, 0, 1), (0, 0, "write", 8, 0, 2),
                  (0, 2, "read", 128, 0, 3), (0, 3, "write", 128, 0, 3)],
             policy="fifo",
             faults_plan=[("stall", 0, 9_000), ("outage", 3_000, 60_000)],
             media_errors=False, interrupts=True, end=("delete-sq1", 2_000))
    @example(ops=[(0, 0, "read", 8, 0, 1), (0, 2, "write", 8, 0, 2),
                  (0, 3, "read", 24, 0, 3)],
             policy="off", faults_plan=[], media_errors=False,
             interrupts=True, end=("reset", 1_000))
    @example(ops=[(0, 2, "write", 24, 0, 1), (0, 3, "read", 24, 0, 1)],
             policy="off", faults_plan=[], media_errors=False,
             interrupts=False, end=("delete-shared", 500))
    def test_same_commands_as_the_generators(self, ops, policy, faults_plan,
                                             media_errors, interrupts, end):
        args = (ops, policy, faults_plan, media_errors, interrupts, end)
        assert play(False, *args) == play(True, *args)

    def test_a_chained_prp_list(self):
        """514 pages: the list chains to a second page, written and read
        back, one segment read per page."""
        args = ([(0, 0, "write", CHAIN, 0, 0), (0, 1, "read", CHAIN, 0, 0)],
                "off", [], False, True, None)
        records = play(False, *args)
        assert records == play(True, *args)
        assert [event[4] for event in records[0]
                if event[1] == "cqe"][-2:] == [Status.SUCCESS] * 2


class TestNoProcessPerCommand:
    def test_the_controller_spawns_no_process_after_start_up(
            self, monkeypatch):
        """Once the controller is up and its queues exist, commands —
        fetched, executed, completed — spawn no process whose code is
        the controller's: the fetch loops and commands are records."""
        scenario = ours_remote(seed=440)
        ctrl, = scenario.controllers
        spawned = []
        construct = Process.__init__

        def counting(self, sim, generator, *args, **kwargs):
            spawned.append(generator.gi_code.co_filename)
            construct(self, sim, generator, *args, **kwargs)

        monkeypatch.setattr(Process, "__init__", counting)
        before = ctrl.commands_completed
        run_fio(scenario.device, FioJob(name="t", rw="randrw", iodepth=4,
                                        total_ios=64))
        assert ctrl.commands_completed - before >= 64
        assert spawned
        assert [path for path in spawned
                if path.endswith(os.path.join("nvme", "controller.py"))] \
            == []
