"""The NVMe-oF target runs on the shared command lifecycle: its reactor
loops are records and every capsule's NVMe command goes through
:meth:`repro.driver.qpair.Commands.execute` (``nvmeof/target.py``).

The generator target it replaced — three poller processes per
connection and a private cid -> context table — is kept here as
:class:`ReferenceSpdkTarget`, as it was at cd962c7.  Both are driven
through the same random schedules — the kernel initiator at queue
depths above 1, writes below and above ``in_capsule_data_size`` (inline
and RDMA_READ-pulled), hand-built capsules that do not unpack, overrun
the data slot, repeat a cid in flight or exhaust the slots, and NVMe
CQE writes lost inside the target host with timeouts off — and must
leave the same ``(time, probe event)`` trace with state snapshots,
request fields, counters, memory, namespace and ``events_processed``.

Three things differ by design and are normalised: the target's commands
take cids of their own (a command on the target's pair is named by its
issue order, not its cid; its rings, which hold those cids, are not
hashed); the target's pair reports its completions through
``cqe_seen``, which the reference's never did (left out of the trace);
and ``commands_served`` counts a command when its response is posted —
a command answered by the lifecycle's recovery counts too — where the
reference counted it after the zero-delay step behind the response, at
the same instant (so the snapshots leave it out; the final counters
compare it).
"""

import dataclasses
import hashlib
import os
import typing as t

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.config import ReliabilityConfig, SimulationConfig
from repro.driver import BlockRequest, qpair
from repro.driver.prputil import prps_for_contiguous
from repro.nvme import CompletionEntry, IoOpcode, Status, SubmissionEntry
from repro.nvmeof import NvmeofInitiator, SpdkTarget
from repro.nvmeof.capsules import CommandCapsule, ResponseCapsule
from repro.nvmeof.target import (_DATA_OPCODES, _DATA_OUT_OPCODES, _PULL,
                                 _PUSH, _RSP, SLOT_BYTES, SLOT_DATA_BYTES)
from repro.rdma import (CompletionQueue, QueuePair, RecvWR, SendWR,
                        WcStatus, WrOpcode)
from repro.scenarios.testbed import RdmaTestbed
from repro.sim import Event, Process

from .test_recovery import lose_cqe_writes

#: 20 examples in tier-1, 400 in CI (``REPRO_KERNEL_EXAMPLES=2000``)
EXAMPLES = max(10, int(os.environ.get("REPRO_KERNEL_EXAMPLES", "100")) // 5)


# -- the reference: the generator target as it was ----------------------------

@dataclasses.dataclass
class _ReferenceConnection:
    qp: QueuePair
    nvme: qpair.QueuePair                 # the bound NVMe queue pair
    slots: list[int]                      # free slot base addresses
    inflight: dict[int, dict]             # cid -> context


class ReferenceSpdkTarget(SpdkTarget):
    """``SpdkTarget`` with three poller processes per connection and
    the commands issued under the initiator's cid, outside ``Commands``."""

    def add_connection(self, queue_depth: int = 32) -> t.Generator:
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

        capsule_bytes = 8192
        for _ in range(queue_depth * 2):
            addr = self.host.alloc_dma(capsule_bytes)
            self.pd.register(addr, capsule_bytes)
            qp.post_recv(RecvWR(wr_id=addr, addr=addr,
                                length=capsule_bytes))

        slots = []
        for i in range(queue_depth):
            slots.append(self.host.alloc_dma(SLOT_BYTES))

        conn = _ReferenceConnection(
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

    def _send_poller(self, conn):
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

    def _recv_poller(self, conn):
        cfg = self.config.nvmeof
        while True:
            completions = conn.qp.recv_cq.poll()
            if not completions:
                yield conn.qp.recv_cq.signal.wait()
                delay = self.sim.rng.uniform_ns(
                    "spdk-recv-poll", 0, cfg.target_poll_interval_ns)
                if delay:
                    yield self.sim.timeout(delay)
                continue
            for wc in completions:
                yield self.sim.timeout(self.config.rdma.cq_poll_ns)
                yield from self._handle_capsule(conn, wc.wr_id,
                                                wc.byte_len)
                conn.qp.post_recv(RecvWR(wr_id=wc.wr_id, addr=wc.wr_id,
                                         length=8192))

    def _handle_capsule(self, conn, buf_addr, length):
        raw = self.host.memory.read(buf_addr, length)
        try:
            capsule = CommandCapsule.unpack(raw)
        except ValueError:
            self.malformed_capsules += 1
            return
        yield self.sim.timeout(self.config.nvmeof.target_process_ns)
        sqe = capsule.sqe
        if sqe.cid in conn.inflight:
            yield from self._refuse(conn, sqe.cid, Status.CID_CONFLICT)
            return
        if not conn.slots:
            yield from self._refuse(conn, sqe.cid, Status.INTERNAL_ERROR)
            return
        nbytes = ((sqe.nlb + 1) * self.lba_bytes
                  if sqe.opcode in _DATA_OPCODES else 0)
        inline = capsule.inline_data
        if nbytes > SLOT_DATA_BYTES or (inline and len(inline) != nbytes):
            yield from self._refuse(conn, sqe.cid, Status.INVALID_FIELD)
            return
        slot = conn.slots.pop()
        data_addr = slot + 4096

        if sqe.opcode in _DATA_OUT_OPCODES:
            if inline:
                self.host.memory.write(data_addr, inline)
            else:
                pull_done = Event(self.sim)
                conn.inflight[("pull", sqe.cid)] = pull_done
                conn.qp.post_send(SendWR(
                    wr_id=_PULL + sqe.cid, opcode=WrOpcode.RDMA_READ,
                    local_addr=data_addr, length=nbytes,
                    remote_addr=capsule.buffer_addr, rkey=capsule.rkey))
                wc = yield pull_done
                if wc.status != WcStatus.SUCCESS:
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
        conn.nvme.issue(sqe)

    def _nvme_poller(self, conn):
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
                        yield self.sim.timeout(delay)
                    continue
                yield from self._complete_io(conn, cqe)
        finally:
            self.host.memory.unwatch(wp)

    def _complete_io(self, conn, cqe):
        ctx = conn.inflight.pop(cqe.cid, None)
        if ctx is None:
            return
        yield self.sim.timeout(self.config.nvmeof.target_complete_ns)
        capsule = ctx["capsule"]
        if ctx["opcode"] == IoOpcode.READ and cqe.ok and ctx["nbytes"]:
            conn.qp.post_send(SendWR(
                wr_id=_PUSH + cqe.cid, opcode=WrOpcode.RDMA_WRITE,
                local_addr=ctx["slot"] + 4096, length=ctx["nbytes"],
                remote_addr=capsule.buffer_addr, rkey=capsule.rkey))
        conn.slots.append(ctx["slot"])
        yield from self._respond(conn, cqe)
        self.commands_served += 1

    def _respond(self, conn, cqe):
        rsp = ResponseCapsule(cqe)
        conn.qp.post_send(SendWR(
            wr_id=_RSP + cqe.cid, opcode=WrOpcode.SEND,
            inline_data=rsp.pack(), length=rsp.wire_size))
        yield self.sim.timeout(0)

    def _refuse(self, conn, cid, status):
        return self._respond(conn, CompletionEntry(cid=cid, status=status,
                                                   phase=0))


# -- the rig and its schedules ------------------------------------------------

KINDS = ("read", "read", "write", "write", "compare", "flush", "zeroes")
OPS = st.lists(st.tuples(
    st.integers(0, 40).map(lambda us: us * 1_000),  # issued, after setup
    st.sampled_from(KINDS),
    st.sampled_from((1, 8, 16, 64)),    # blocks: 8 fill a 4 KiB capsule
    st.integers(0, 31)), min_size=1, max_size=12)   # LBA slot
#: hand-built capsules: a SEND that does not unpack, a transfer beyond
#: the slot, inline data of the wrong length, and a READ under one
#: fixed cid (two in flight conflict; many exhaust the slots)
HOSTILE = st.lists(st.tuples(
    st.integers(0, 40).map(lambda us: us * 1_000),
    st.sampled_from(("garbage", "oversize", "inline", "dup"))),
    max_size=6)

HOSTILE_CID = 0x5555


class _Log:
    """Probe events with their instant and a snapshot of the target's,
    the initiator's and the NICs' state.  A command on the target's pair
    is named by its issue order."""

    def __init__(self, sim, target, initiator, nics):
        self.sim = sim
        self.target = target
        self.initiator = initiator
        self.nics = nics
        self.seen = []
        self.issued = {}        # cid -> issue order, of the latest issue
        self.issues = 0

    def _log(self, *event):
        target, ini = self.target, self.initiator
        self.seen.append((self.sim.now, *event, (
            target.malformed_capsules,
            tuple(len(c.slots) for c in target.connections),
            tuple(len(c.qp.recv_queue) for c in target.connections)), (
            ini._tags.count, ini.completed, ini.errors, ini.bytes_moved,
            len(ini.commands.inflight), ini.commands.stale), tuple(
            (nic.sends, nic.rdma_writes, nic.rdma_reads)
            for nic in self.nics)))

    def _name(self, cid):
        return self.issued.get(cid, ("unissued", cid))

    def on_io_submitted(self, device, request):
        self._log("submitted", request.op, request.lba)

    def on_io_completed(self, device, request):
        self._log("completed", request.op, request.status)

    def on_sqe_issued(self, qp, sqe, slot, store, request):
        self.issues += 1
        self.issued[sqe.cid] = self.issues
        self._log("issued", self._name(sqe.cid), slot)

    def on_cqe_seen(self, qp, cqe, waiter):
        if qp is self.initiator.commands:
            self._log("cqe", cqe.cid, cqe.status, waiter is None)

    def on_sqe_fetched(self, ctrl, qid, sqe, win, granted_at, wait_ns):
        self._log("fetched", qid, self._name(sqe.cid) if qid else sqe.cid)

    def on_cqe_posted(self, ctrl, qid, cid, status):
        self._log("posted", qid, self._name(cid) if qid else cid, status)


def _rig(reference, qd, seed=5):
    cfg = dataclasses.replace(SimulationConfig(),
                              reliability=ReliabilityConfig())
    bed = RdmaTestbed(config=cfg, seed=seed)
    cls = ReferenceSpdkTarget if reference else SpdkTarget
    target = cls(bed.sim, bed.fabric, bed.target_host,
                 bed.nvme.bars[0].base, bed.target_nic, cfg)
    bed.sim.run(until=bed.sim.process(target.start()))
    initiator = NvmeofInitiator(bed.sim, bed.initiator_host,
                                bed.initiator_nic, cfg, queue_depth=qd)
    bed.sim.run(until=bed.sim.process(initiator.connect(target)))
    return bed, target, initiator


def _hostile(bed, initiator, kind, buf, rkey, serial):
    """Post one hand-built capsule; its answer, if any, lands on a
    waiter registered as the command core's submit would."""
    if kind == "garbage":
        raw = b"\x02" + bytes(95)
        cid = None
    else:
        cid = HOSTILE_CID if kind == "dup" else 0x6000 + serial
        sqe = SubmissionEntry(opcode=IoOpcode.READ, cid=cid, nsid=1)
        if kind == "oversize":
            sqe.nlb = 0xFFFF
            capsule = CommandCapsule(sqe)
        elif kind == "inline":
            sqe.opcode, sqe.nlb = IoOpcode.WRITE, 7
            capsule = CommandCapsule(sqe, inline_data=b"\xee" * 512)
        else:
            sqe.slba, sqe.nlb = 8 * serial, 7
            capsule = CommandCapsule(sqe, buffer_addr=buf, rkey=rkey)
        raw = capsule.pack()
    if cid is not None and cid not in initiator.commands.inflight:
        initiator.commands.inflight[cid] = Event(bed.sim)
    initiator.qp.post_send(SendWR(wr_id=0x7000 + serial,
                                  opcode=WrOpcode.SEND, inline_data=raw,
                                  length=len(raw)))


def play(reference, ops, hostile, qd, lost, seed=5):
    """Run the schedule on the records or on the reference generators;
    return everything both must agree on."""
    bed, target, initiator = _rig(reference, qd, seed)
    sim = bed.sim
    conn = target.connections[0]
    regions = ([(slot, SLOT_BYTES) for slot in conn.slots]
               + [(wr.addr, wr.length) for wr in conn.qp.recv_queue])
    ini_regions = ([(slot.addr, 8192 + 128 * 1024)
                    for slot in initiator._slots._items]
                   + [(wr.addr, wr.length)
                      for wr in initiator.qp.recv_queue])
    buf = initiator.host.alloc_dma(4096)
    rkey = initiator.pd.register(buf, 4096).rkey
    log = sim.probe.subscribe(_Log(sim, target, initiator,
                                   [bed.initiator_nic, bed.target_nic]))
    if lost:
        lose_cqe_writes(bed, conn.nvme, lost)
    requests = []
    start = sim.now

    def at(offset, action, *args):
        if start + offset > sim.now:
            yield sim.timeout(start + offset - sim.now)
        action(*args)

    def submit(kind, blocks, lba):
        lba *= 16
        if kind in ("write", "compare"):
            request = BlockRequest(kind, lba=lba, data=bytes(
                [len(requests) + 1]) * (blocks * initiator.lba_bytes))
        elif kind == "flush":
            request = BlockRequest("flush")
        else:
            request = BlockRequest(
                "write_zeroes" if kind == "zeroes" else kind, lba=lba,
                nblocks=blocks)
        requests.append(request)
        initiator.submit(request)

    for serial, (offset, kind) in enumerate(hostile):
        sim.process(at(offset, _hostile, bed, initiator, kind, buf, rkey,
                       serial))
    for offset, *spec in sorted(ops, key=lambda op: op[0]):
        sim.process(at(offset, submit, *spec))
    sim.run(until=start + 3_000_000)
    fields = [(r.op, r.lba, r.nblocks, r.status, r.submit_time,
               r.complete_time, r.result and hashlib.sha256(
                   r.result).hexdigest()) for r in requests]
    memory = [hashlib.sha256(b"".join(
        host.memory.read(addr, size) for addr, size in sorted(where))
    ).hexdigest() for host, where in ((bed.target_host, regions),
                                      (bed.initiator_host, ini_regions))]
    namespace = hashlib.sha256(
        bed.nvme.namespaces[1].read_blocks(0, 32 * 16 + 64)).hexdigest()
    counters = (initiator.completed, initiator.errors, initiator.bytes_moved,
                sorted(initiator.latencies.values()),
                target.commands_served, target.malformed_capsules,
                sorted(conn.slots))
    return (log.seen, fields, memory, namespace, counters,
            sim.events_processed)


class TestTargetRecordsMatchTheGenerators:
    @pytest.mark.kernel_differential
    @settings(max_examples=EXAMPLES, deadline=None, database=None)
    @given(ops=OPS, hostile=HOSTILE, qd=st.sampled_from((1, 2, 8)),
           lost=st.integers(0, 2))
    @example(ops=[(0, "write", 16, 1), (0, "read", 16, 1),
                  (0, "write", 1, 2), (0, "compare", 16, 1),
                  (0, "write", 64, 3), (4_000, "flush", 1, 0),
                  (4_000, "zeroes", 8, 3), (5_000, "read", 64, 3)],
             hostile=[], qd=8, lost=0)
    @example(ops=[(0, "read", 8, k) for k in range(4)],
             hostile=[(0, "garbage"), (0, "oversize"), (1_000, "inline"),
                      (2_000, "dup"), (2_000, "dup")],
             qd=8, lost=0)
    @example(ops=[(0, "read", 8, 1), (0, "write", 16, 2)],
             hostile=[(0, "dup"), (0, "dup"), (0, "dup")], qd=1, lost=0)
    @example(ops=[(0, "write", 8, k) for k in range(5)],
             hostile=[], qd=2, lost=2)
    def test_same_run_as_the_generators(self, ops, hostile, qd, lost):
        assert play(False, ops, hostile, qd, lost) \
            == play(True, ops, hostile, qd, lost)


class TestNoProcessPerConnection:
    def test_a_connection_spawns_nothing(self, monkeypatch):
        bed = RdmaTestbed(seed=5)
        target = SpdkTarget(bed.sim, bed.fabric, bed.target_host,
                            bed.nvme.bars[0].base, bed.target_nic,
                            bed.config)
        bed.sim.run(until=bed.sim.process(target.start()))
        spawned = []
        construct = Process.__init__

        def counting(self, sim, generator, *args, **kwargs):
            spawned.append(generator.gi_code.co_name)
            construct(self, sim, generator, *args, **kwargs)

        monkeypatch.setattr(Process, "__init__", counting)
        initiator = NvmeofInitiator(bed.sim, bed.initiator_host,
                                    bed.initiator_nic, bed.config)
        bed.sim.run(until=bed.sim.process(initiator.connect(target)))
        assert spawned == ["connect"]
        req = bed.sim.run(until=initiator.submit(
            BlockRequest("write", lba=0, data=b"\x5a" * 8192)))
        assert req.ok and spawned == ["connect"]


class TestTargetRecovery:
    """With ``command_timeout_ns`` set the target inherits the
    lifecycle's recovery; no option of its own."""

    def test_a_cqe_lost_inside_the_target_is_recovered(self):
        # The initiator waits longer than the target's lifecycle needs,
        # so the recovery seen is the target's own.
        from .test_recovery import RECOVERY, bounded, nvmeof_stack
        bed, target, initiator = nvmeof_stack(RECOVERY)
        initiator.commands.reliability = ReliabilityConfig(
            command_timeout_ns=2_000_000, max_retries=0)
        conn = target.connections[0]
        baseline = len(conn.slots)
        payload = bytes(range(256)) * 16
        lost = lose_cqe_writes(bed, conn.nvme)
        write = bounded(bed.sim, initiator.submit(
            BlockRequest("write", lba=64, data=payload)))
        assert lost and write.ok
        nvme = conn.nvme
        assert (nvme.timeouts, nvme.retries) == (1, 1)
        assert initiator.commands.timeouts == 0
        assert nvme.inflight == {} and conn.cids == {}
        assert len(conn.slots) == baseline
        read = bounded(bed.sim, initiator.submit(
            BlockRequest("read", lba=64, nblocks=8)))
        assert read.ok and read.result == payload
        assert target.commands_served == 2
