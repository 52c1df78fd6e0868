"""Every request is a record: the block layer's request, the command
lifecycle and the RDMA remote stage walk from plain callbacks
(``driver/blockdev.py``, ``driver/qpair.py``, the three stacks,
``rdma/nic.py``), no process per I/O.

The generators they replaced — ``BlockDevice.submit``/``_run``, the
client's, the local driver's and the initiator's ``_driver_submit``,
``Commands.execute``, ``QueuePair.poll``/``on_interrupt``, the
initiator's ``_response_handler`` and
``RdmaNic._engine``/``_tx_stage``/``_remote_stage`` — are kept here as
the reference, as they were at 023ce75 (but for a dropped placement,
which fails its WQE in both since that fix), on subclasses of the four
Fig. 10 stacks (stock, SPDK-local, NVMe-oF over RDMA, the NTB client)
that run them instead of the records.  Both are driven through
the same random schedules — every stack and tenants of one shared queue
pair, queue depths above the SQ window, the admission clamp narrowed
and widened mid-run, lost CQEs, unanswered capsules and link outages
under command timeouts (resync, retry, ``STATUS_HOST_TIMEOUT``), crash,
shutdown and close with requests in flight, the bounce and ``iommu``
data paths, interrupts on and off — and must leave the same ``(time,
probe event)`` trace with state snapshots, request fields, counters and
``events_processed``.  The tripwire :class:`TestNoProcessPerRequest`
checks that no process is left per request."""

import contextlib
import dataclasses
import hashlib
import os

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro.rdma
from repro.config import (QpSharingConfig, ReliabilityConfig,
                          SimulationConfig)
from repro.driver import (STATUS_HOST_CRASHED, STATUS_HOST_SHUTDOWN,
                          STATUS_HOST_TIMEOUT, BlockRequest,
                          DistributedNvmeClient, SpdkLocalDriver,
                          StockNvmeDriver)
from repro.driver.blockdev import BlockDevice, BlockError
from repro.driver.client import ClientError
from repro.driver.prputil import prps_for_contiguous
from repro.driver.qpair import QueuePair, io_sqe
from repro.nvme import CompletionEntry
from repro.nvmeof import NvmeofInitiator, SpdkTarget
from repro.nvmeof import initiator as initiator_module
from repro.nvmeof.capsules import CommandCapsule, ResponseCapsule
from repro.nvmeof.initiator import SLOT_DATA_BYTES
from repro.pcie.fabric import DROPPED
from repro.rdma import RdmaNic
from repro.rdma.verbs import (RdmaError, RecvWR, WcStatus, WorkCompletion,
                              WrOpcode)
from repro.scenarios import build_fig10_scenario, noisy_neighbor
from repro.scenarios import rig as rig_module
from repro.scenarios.builders import FIG10_SCENARIOS
from repro.scenarios.testbed import LocalTestbed, RdmaTestbed
from repro.sim import Event, Interrupt, LatencyRecorder, Process
from repro.workloads import (FioJob, FioResult, OpenLoopJob,
                             fio_generator, run_fio, run_open_loop)

#: 20 examples in tier-1, 400 in CI (``REPRO_KERNEL_EXAMPLES=2000``)
EXAMPLES = max(10, int(os.environ.get("REPRO_KERNEL_EXAMPLES", "100")) // 5)


# -- the reference: the generators as they were ------------------------------

def reference_execute(self, command, request=None):
    """``Commands.execute``: admission, attempt, timeout, resync,
    retry, verdict — one generator; ``self`` is the command core."""
    rel = self.reliability
    timeout = rel.command_timeout_ns
    sq = self.sq
    attempt = 0
    parked = False
    while True:
        if self.closed:
            cqe = CompletionEntry(status=self.closed)
            break
        if self.window is not None and self._clamp_holds():
            if not parked:
                parked = True
                self.throttled += 1
            yield self.space.wait(self._clamp_holds)
            continue
        if sq is not None and (sq.tail + 1) % sq.entries == sq.head:
            if timeout <= 0:
                yield self.space.wait(self._full_sq_holds)
                continue
            self.resync()
            if sq.is_full():
                if self.ring is not None:
                    space = self.space.wait()
                    expiry = self.sim.timeout(timeout)
                    outcome = yield self.sim.any_of((space, expiry))
                    if space in outcome:
                        continue
                if attempt >= rel.max_retries:
                    cqe = CompletionEntry(status=STATUS_HOST_TIMEOUT)
                    break
                attempt += 1
                yield self.sim.timeout(rel.retry_backoff_ns * attempt)
                continue
        done = self.submit(command, request)
        if timeout <= 0:
            cqe = yield done
            break
        expiry = self.sim.timeout(timeout)
        outcome = yield self.sim.any_of((done, expiry))
        if done in outcome:
            cqe = outcome[done]
            break
        if self.resync() and done.triggered:
            cqe = done.value
            break
        cid = command.cid
        self.inflight.pop(cid, None)
        self.timeouts += 1
        for f in self.probe.recovery:
            f(self, "timeout", client=self.name, cid=cid,
              attempt=attempt)
        if attempt >= rel.max_retries:
            cqe = CompletionEntry(cid=cid, status=STATUS_HOST_TIMEOUT)
            break
        attempt += 1
        self.retries += 1
        for f in self.probe.recovery:
            f(self, "retry", client=self.name, cid=cid,
              attempt=attempt)
        yield self.sim.timeout(rel.retry_backoff_ns * attempt)
    return cqe


def reference_poll(self, stream, interval_ns):
    """``QueuePair.poll``: drain, wait, the jitter draw."""
    sim = self.sim
    jitter = (sim.rng.integers(stream, 0, interval_ns + 1)
              if interval_ns else None)
    wp = self.watch()
    wait = wp.signal.wait
    try:
        while self.running:
            self.drain()
            yield wait()
            if interval_ns:
                try:
                    delay = jitter.buf[jitter.pos]
                    jitter.pos += 1
                except IndexError:
                    delay = jitter.refill()
                if delay:
                    yield sim.timeout(delay)
    except Interrupt:
        return
    finally:
        self.memory.unwatch(wp)


def reference_on_interrupt(self, mailbox, irq_ns):
    """``QueuePair.on_interrupt``: wait, IRQ latency, drain."""
    sim = self.sim
    wp = self.memory.watch(mailbox, 4)
    wait = wp.signal.wait
    try:
        while self.running:
            yield wait()
            yield sim.timeout(irq_ns)
            self.drain()
    except Interrupt:
        return
    finally:
        self.memory.unwatch(wp)


def reference_response_handler(self):
    """``NvmeofInitiator._response_handler``: interrupt-driven reaping."""
    cfg = self.config
    recv_cq = self.qp.recv_cq
    while self._running:
        completions = recv_cq.poll()
        if not completions:
            yield recv_cq.signal.wait()
            yield self.sim.timeout(cfg.host.interrupt_latency_ns)
            continue
        for wc in completions:
            yield self.sim.timeout(cfg.rdma.cq_poll_ns)
            raw = self.host.memory.read(wc.wr_id, wc.byte_len)
            rsp = ResponseCapsule.unpack(raw)
            self.qp.post_recv(RecvWR(wr_id=wc.wr_id, addr=wc.wr_id,
                                     length=256))
            self.commands.complete(rsp.cqe)
        self.qp.send_cq.poll(64)


@contextlib.contextmanager
def generators(reference):
    """Within: what the rigs build runs the reference generators
    (``reference``) — the client class, the NICs, the pairs' notice
    loops and the initiator's response reaping started as processes —
    else the records."""
    if not reference:
        yield
        return
    saved = (rig_module.DistributedNvmeClient, repro.rdma.RdmaNic,
             QueuePair.poll, QueuePair.on_interrupt,
             initiator_module._Responses)
    rig_module.DistributedNvmeClient = ReferenceClient
    repro.rdma.RdmaNic = ReferenceNic
    QueuePair.poll = lambda qp, stream, ns: Process(
        qp.sim, reference_poll(qp, stream, ns), detached=True)
    QueuePair.on_interrupt = lambda qp, mailbox, ns: Process(
        qp.sim, reference_on_interrupt(qp, mailbox, ns), detached=True)
    initiator_module._Responses = lambda ini: Process(
        ini.sim, reference_response_handler(ini), detached=True)
    try:
        yield
    finally:
        (rig_module.DistributedNvmeClient, repro.rdma.RdmaNic,
         QueuePair.poll, QueuePair.on_interrupt,
         initiator_module._Responses) = saved


class ReferenceBlockLayer:
    """``BlockDevice.submit`` and ``_run``: a process per request."""

    def submit(self, request, step=None):
        self._validate(request)
        request.submit_time = self.sim._now
        for f in self.probe.io_submitted:
            f(self, request)
        done = Event(self.sim)
        if step is not None:
            done.callbacks.append(step)
        Process(self.sim, self._reference_run(request, done), detached=True)
        return done

    def _reference_run(self, request, done):
        tag = self._tags.request()
        yield tag
        try:
            yield from self._driver_submit(request)
        finally:
            self._tags.release(tag)
        request.complete_time = self.sim._now
        for f in self.probe.io_completed:
            f(self, request)
        self.latencies.record(request.latency_ns)
        self.completed += 1
        if not request.ok:
            self.errors += 1
        elif request.op in BlockRequest.DATA_OPS:
            self.bytes_moved += request.nblocks * self.lba_bytes
        done.succeed(request)


class ReferenceClient(ReferenceBlockLayer, DistributedNvmeClient):
    def _driver_submit(self, request):
        if self.crashed:
            request.status = STATUS_HOST_CRASHED
            return
        if not self._running:
            if self._started:
                request.status = STATUS_HOST_SHUTDOWN
                return
            raise ClientError("client not started")
        cfg = self.config.host
        nbytes = (request.nblocks * self.lba_bytes
                  if request.op != "flush" else 0)
        if nbytes > self._part_size:
            raise BlockError("request exceeds the bounce partition")
        yield self.sim.timeout(cfg.block_submit_ns + cfg.dist_submit_ns)
        part = yield self._parts.get()
        list_local = self._bounce_seg.phys_addr + part * self._part_stride
        list_device = self._bounce_dev_addr + part * self._part_stride
        part_local = list_local + 4096
        part_device = list_device + 4096
        if self.data_path == "iommu":
            yield self.sim.timeout(cfg.iommu_map_ns)
        if request.op in BlockRequest.DATA_OUT_OPS:
            if self.data_path == "bounce":
                yield self.sim.timeout(self._memcpy_ns(nbytes))
            self.node.host.memory.write(part_local, request.data)
        sqe = io_sqe(request, self.nsid)
        if request.op in BlockRequest.DATA_OPS:
            sqe.prp1, sqe.prp2 = prps_for_contiguous(
                part_device, nbytes, list_device,
                lambda blob: self.node.host.memory.write(list_local, blob))
        cqe = yield from reference_execute(self._qp, sqe, request)
        yield self.sim.timeout(cfg.dist_complete_ns)
        request.status = cqe.status
        if request.op == "read" and cqe.ok:
            if self.data_path == "bounce":
                yield self.sim.timeout(self._memcpy_ns(nbytes))
            request.result = self.node.host.memory.read(part_local, nbytes)
        if self.data_path == "iommu":
            yield self.sim.timeout(cfg.iommu_unmap_ns)
        self._parts.put(part)


class ReferenceLocal(ReferenceBlockLayer):
    """``LocalNvmeDriver._driver_submit``, for stock and SPDK-local."""

    def _driver_submit(self, request):
        assert self._qp is not None, "driver not started"
        yield self.sim.timeout(self.submit_ns)
        nbytes = request.nblocks * self.lba_bytes
        sqe = io_sqe(request)
        alloc = buf = 0
        if request.op in BlockRequest.DATA_OPS:
            alloc = self.host.alloc_dma(4096 + max(nbytes, 4096))
            buf = alloc + 4096
            if request.op in BlockRequest.DATA_OUT_OPS:
                self.host.memory.write(buf, request.data)
            sqe.prp1, sqe.prp2 = prps_for_contiguous(
                buf, nbytes, alloc,
                lambda blob: self.host.memory.write(alloc, blob))
        cqe = yield from reference_execute(self._qp, sqe, request)
        if self.wake_ns:
            yield self.sim.timeout(self.wake_ns)
        request.status = cqe.status
        if request.op == "read" and cqe.ok:
            request.result = self.host.memory.read(buf, nbytes)
        if alloc:
            self.host.free_dma(alloc)


class ReferenceStock(ReferenceLocal, StockNvmeDriver):
    pass


class ReferenceSpdk(ReferenceLocal, SpdkLocalDriver):
    pass


class ReferenceInitiator(ReferenceBlockLayer, NvmeofInitiator):
    def _driver_submit(self, request):
        if not self._running:
            raise BlockError("initiator not connected")
        cfg = self.config.nvmeof
        host_cfg = self.config.host
        nbytes = (request.nblocks * self.lba_bytes
                  if request.op != "flush" else 0)
        if nbytes > SLOT_DATA_BYTES:
            raise BlockError("request exceeds the initiator slot size")
        yield self.sim.timeout(host_cfg.block_submit_ns
                             + cfg.initiator_submit_ns)
        slot = yield self._slots.get()
        data_addr = slot.addr + 8192
        slot.capsule = capsule = CommandCapsule(io_sqe(request))
        if request.op in BlockRequest.DATA_OUT_OPS:
            if nbytes <= cfg.in_capsule_data_size:
                capsule.inline_data = request.data
            else:
                self.host.memory.write(data_addr, request.data)
                capsule.buffer_addr = data_addr
                capsule.rkey = slot.mr.rkey
        elif request.op == "read":
            capsule.buffer_addr = data_addr
            capsule.rkey = slot.mr.rkey
        yield self.sim.timeout(self.config.rdma.post_wqe_ns
                             + self.config.rdma.doorbell_ns)
        cqe = yield from reference_execute(self.commands, slot, request)
        yield self.sim.timeout(cfg.initiator_complete_ns)
        request.status = cqe.status
        if request.op == "read" and cqe.ok:
            request.result = self.host.memory.read(data_addr, nbytes)
        self._slots.put(slot)


class ReferenceNic(RdmaNic):
    """``RdmaNic._engine``, a process running ``_tx_stage`` and spawning
    ``_remote_stage`` processes."""

    def on_installed(self):
        self.sim.process(self._engine())

    def _engine(self):
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
                                                done), detached=True)

    def _tx_stage(self, qp, wr):
        cfg = self.rdma_config
        link, peer_nic = self._link, self._peer_nic
        peer = qp.peer
        payload = b""
        if wr.opcode is WrOpcode.SEND:
            if wr.inline_data is not None:
                payload = wr.inline_data
            elif wr.length:
                payload = yield self.dma_read(wr.local_addr, wr.length)
            yield self.sim.timeout(cfg.nic_tx_ns)
            yield from link.transfer(self, peer_nic,
                                     max(len(payload), 64))
        elif wr.opcode is WrOpcode.RDMA_WRITE:
            remote_mr = peer.pd.lookup(wr.rkey)
            remote_mr.check(wr.remote_addr, wr.length)
            payload = yield self.dma_read(wr.local_addr, wr.length)
            yield self.sim.timeout(cfg.nic_tx_ns)
            yield from link.transfer(self, peer_nic, wr.length)
        else:
            remote_mr = peer.pd.lookup(wr.rkey)
            remote_mr.check(wr.remote_addr, wr.length)
            yield self.sim.timeout(cfg.nic_tx_ns)
            yield from link.transfer(self, peer_nic, 64)
        return payload

    def _remote_stage(self, qp, wr, payload, prev, done):
        cfg = self.rdma_config
        link, peer_nic = self._link, self._peer_nic
        peer = qp.peer
        if prev is not None and not prev.processed:
            yield prev
        try:
            if wr.opcode is WrOpcode.SEND:
                yield self.sim.timeout(cfg.nic_rx_ns)
                if not peer.recv_queue:
                    raise RdmaError("receiver-not-ready: no posted recv")
                recv = peer.recv_queue.pop(0)
                if len(payload) > recv.length:
                    raise RdmaError("recv buffer too small")
                if payload:
                    landed = peer_nic.dma_write(recv.addr, payload)
                    if landed is DROPPED:
                        peer.recv_cq.push(WorkCompletion(
                            recv.wr_id, WrOpcode.SEND, WcStatus.LOCAL_ERROR,
                            is_recv=True))
                        raise _Lost(WcStatus.REMOTE_ACCESS_ERROR)
                    yield landed
                peer.recv_cq.push(WorkCompletion(
                    recv.wr_id, WrOpcode.SEND, WcStatus.SUCCESS,
                    byte_len=len(payload), is_recv=True))
                qp.send_cq.push(WorkCompletion(
                    wr.wr_id, wr.opcode, WcStatus.SUCCESS,
                    byte_len=len(payload)))
                self.sends += 1
            elif wr.opcode is WrOpcode.RDMA_WRITE:
                yield self.sim.timeout(cfg.nic_rx_ns)
                landed = peer_nic.dma_write(wr.remote_addr, payload)
                if landed is DROPPED:
                    raise _Lost(WcStatus.REMOTE_ACCESS_ERROR)
                yield landed
                qp.send_cq.push(WorkCompletion(
                    wr.wr_id, wr.opcode, WcStatus.SUCCESS,
                    byte_len=wr.length))
                self.rdma_writes += 1
            else:
                yield self.sim.timeout(cfg.read_turnaround_ns)
                data = yield peer_nic.dma_read(wr.remote_addr, wr.length)
                yield from link.transfer(peer_nic, self, wr.length)
                yield self.sim.timeout(cfg.nic_rx_ns)
                landed = self.dma_write(wr.local_addr, data)
                if landed is DROPPED:
                    raise _Lost(WcStatus.LOCAL_ERROR)
                yield landed
                qp.send_cq.push(WorkCompletion(
                    wr.wr_id, wr.opcode, WcStatus.SUCCESS,
                    byte_len=wr.length))
                self.rdma_reads += 1
        except RdmaError:
            qp.send_cq.push(WorkCompletion(
                wr.wr_id, wr.opcode, WcStatus.LOCAL_ERROR))
        except _Lost as lost:
            qp.send_cq.push(WorkCompletion(wr.wr_id, wr.opcode, lost.args[0]))
        finally:
            done.succeed()


class _Lost(Exception):
    """A placement dropped on the fabric (the status the WQE ends with):
    since the fix that stopped a dropped capsule from replaying a stale
    one, a lost placement completes in error at both ends, and the
    reference does the same."""


# -- the rigs and their schedules ---------------------------------------------

RECOVERY = ReliabilityConfig(command_timeout_ns=60_000, max_retries=2,
                             retry_backoff_ns=10_000)
STACKS = ("stock", "spdk", "nvmeof", "ours-local", "ours-remote", "shared")
KINDS = ("read", "read", "write", "write", "compare", "flush", "zeroes")
OPS = st.lists(st.tuples(
    st.integers(0, 40).map(lambda us: us * 1_000),  # issued, after setup
    st.integers(0, 1),              # the tenant, on the shared rig
    st.sampled_from(KINDS),
    st.sampled_from((1, 8, 16)),    # blocks
    st.integers(0, 31)), min_size=1, max_size=12)   # LBA slot
CLAMPS = st.lists(st.tuples(st.integers(0, 60).map(lambda us: us * 1_000),
                            st.sampled_from((None, 1, 2, 4))), max_size=3)
FAULTS = st.lists(st.one_of(
    st.tuples(st.just("lose"), st.integers(1, 3)),
    st.tuples(st.just("outage"), st.integers(0, 60_000),
              st.integers(1, 150_000))), max_size=2)
ENDS = st.one_of(st.none(), st.tuples(
    st.sampled_from(("crash", "shutdown", "close")),
    st.integers(0, 60_000)))


class _Log:
    """Probe events with their instant and a snapshot of the devices'
    and command cores' state; a zero-delay witness queued behind each
    submission exposes what the request did at its boot (both sides
    queue the same witness)."""

    def __init__(self, sim, devices, cores, nics):
        self.sim = sim
        self.devices = devices
        self.cores = cores
        self.nics = nics
        self.seen = []

    def _log(self, *event):
        self.seen.append((self.sim.now, *event, tuple(
            (dev._tags.count, dev._tags.queued, dev.completed, dev.errors,
             dev.bytes_moved) for dev in self.devices), tuple(
            (len(core.inflight), core.throttled, core.timeouts,
             core.retries, core.stale, core.space.waiting, core.closed)
            for core in self.cores()), tuple(
            (nic.sends, nic.rdma_writes, nic.rdma_reads)
            for nic in self.nics)))

    def on_io_submitted(self, device, request):
        self._log("submitted", device.name, request.op, request.lba)
        self.sim.timeout(0).callbacks.append(self._witness)

    def _witness(self, _event):
        self._log("witness")

    def on_io_completed(self, device, request):
        self._log("completed", device.name, request.op, request.status)

    def on_sqe_issued(self, qp, sqe, slot, store, request):
        self._log("issued", qp.name, sqe.cid, slot)

    def on_cqe_seen(self, qp, cqe, waiter):
        self._log("cqe", qp.name, cqe.cid, cqe.status, waiter is None)

    def on_sqe_fetched(self, ctrl, qid, sqe, win, granted_at, wait_ns):
        self._log("fetched", qid, sqe.cid)

    def on_cqe_posted(self, ctrl, qid, cid, status):
        self._log("posted", qid, cid, status)

    def on_recovery(self, source, action, **detail):
        self._log("recovery", action, tuple(sorted(detail.items())))

    def on_lifecycle(self, component, what, *detail):
        self._log("lifecycle", what, len(detail))


def _config(timeouts, **fields):
    return dataclasses.replace(
        SimulationConfig(), reliability=RECOVERY if timeouts
        else ReliabilityConfig(), **fields)


def _lose_cqes(fabric, cq, count):
    """The next ``count`` CQE writes into ``cq`` never land."""
    real = fabric.write
    lo, hi = cq.base_addr, cq.base_addr + cq.entries * 16
    lost = []

    def write(initiator, host, addr, data, step=None):
        if len(lost) < count and lo <= addr < hi:
            lost.append(addr)
            return DROPPED
        return real(initiator, host, addr, data, step)

    fabric.write = write


def _build(reference, stack, qd, timeouts, iommu, interrupts, seed):
    with generators(reference):
        return _rig(reference, stack, qd, timeouts, iommu, interrupts, seed)


def _rig(reference, stack, qd, timeouts, iommu, interrupts, seed):
    """``(sim, devices, cores, nics, link, lose, end)`` of one rig, on
    the records or on the reference generators: ``cores()`` lists the
    command cores, ``link(up)`` cuts or heals the path (None where there
    is none to cut), ``lose(n)`` loses the next ``n`` completions,
    ``end(what)`` crashes, shuts down or closes the stack."""
    if stack in ("stock", "spdk"):
        cfg = _config(timeouts)
        bed = LocalTestbed(config=cfg, seed=seed)
        cls = {("stock", False): StockNvmeDriver,
               ("stock", True): ReferenceStock,
               ("spdk", False): SpdkLocalDriver,
               ("spdk", True): ReferenceSpdk}[stack, reference]
        dev = cls(bed.sim, bed.fabric, bed.host, bed.nvme.bars[0].base,
                  cfg, queue_entries=8, queue_depth=qd)
        bed.sim.run(until=bed.sim.process(dev.start()))
        return (bed.sim, [dev], lambda: [dev._qp], [], None,
                lambda n: _lose_cqes(bed.fabric, dev._qp.cq, n),
                lambda what: dev._qp.fail_all(STATUS_HOST_SHUTDOWN))
    if stack == "nvmeof":
        cfg = _config(timeouts)
        bed = RdmaTestbed(config=cfg, seed=seed)
        target = SpdkTarget(bed.sim, bed.fabric, bed.target_host,
                            bed.nvme.bars[0].base, bed.target_nic, cfg)
        bed.sim.run(until=bed.sim.process(target.start()))
        cls = ReferenceInitiator if reference else NvmeofInitiator
        dev = cls(bed.sim, bed.initiator_host, bed.initiator_nic, cfg,
                  queue_depth=qd)
        bed.sim.run(until=bed.sim.process(dev.connect(target)))

        def lose(count):
            """The next ``count`` capsules are never answered: their
            placements into the target's receive buffers are dropped."""
            buffers = {wr.addr for wr in target.connections[0].qp.recv_queue}
            real = bed.fabric.write
            lost = []

            def write(initiator, host, addr, data, step=None):
                if len(lost) < count and addr in buffers:
                    lost.append(addr)
                    return DROPPED
                return real(initiator, host, addr, data, step)

            bed.fabric.write = write

        return (bed.sim, [dev], lambda: [dev.commands],
                [bed.initiator_nic, bed.target_nic], None, lose,
                lambda what: dev.commands.fail_all(STATUS_HOST_SHUTDOWN))
    shared = stack == "shared"
    hosts = [1, 2] if shared else [0 if stack == "ours-local" else 1]
    extra = {}
    if shared:
        extra["sharing"] = QpSharingConfig(reserved_qps=1, sq_entries=8,
                                           window_entries=4)
    else:
        extra["data_path"] = "iommu" if iommu else "bounce"
        if interrupts:
            extra["completion_mode"] = "interrupt"
    cfg = _config(timeouts, **({"sharing": extra.pop("sharing")}
                               if shared else {}))
    rig = rig_module.build_rig(
        hosts, label=stack, config=cfg, seed=seed, queue_depth=qd,
        host_slots=True, sharing="force" if shared else "auto",
        faults=timeouts, **extra)
    sim = rig.sim
    clients = rig.clients

    def lose(count):
        for client in clients:
            _lose_cqes(rig.testbed.fabric, client._qp.cq, count)

    def end(what):
        for client in clients:
            if what == "crash":
                client.crash()
            elif what == "shutdown":
                sim.process(client.shutdown())
            else:
                client._qp.fail_all(STATUS_HOST_SHUTDOWN)

    def link(up):
        rig.registry.set_link(f"link:host{hosts[0]}", up)

    return (sim, clients, lambda: [c._qp for c in clients], [],
            link if timeouts else None, lose, end)


def play(reference, stack, ops, qd, clamps, timeouts, faults, end, iommu,
         interrupts, seed=5):
    """Run the schedule on the records or on the reference generators;
    return everything both must agree on."""
    sim, devices, cores, nics, link, lose, finish = _build(
        reference, stack, qd, timeouts, iommu, interrupts, seed)
    log = sim.probe.subscribe(_Log(sim, devices, cores, nics))
    requests = []
    start = sim.now

    def clamp(window):
        for core in cores():
            prev = core.window
            core.window = window
            if window is None or (prev is not None and window > prev):
                core.space.fire()

    def at(offset, action, *args):
        if start + offset > sim.now:
            yield sim.timeout(start + offset - sim.now)
        action(*args)

    def submit(tenant, kind, blocks, lba):
        device = devices[tenant % len(devices)]
        lba *= 16
        if kind in ("write", "compare"):
            request = BlockRequest(kind, lba=lba, data=bytes(
                [len(requests) + 1]) * (blocks * device.lba_bytes))
        elif kind == "flush":
            request = BlockRequest("flush")
        else:
            request = BlockRequest(
                "write_zeroes" if kind == "zeroes" else kind, lba=lba,
                nblocks=blocks)
        requests.append(request)
        device.submit(request)

    for offset, window in clamps:
        sim.process(at(offset, clamp, window))
    for fault in faults:
        if fault[0] == "lose":
            if timeouts:
                lose(fault[1])
        elif link is not None:
            _kind, offset, duration = fault
            sim.process(at(offset, link, False))
            sim.process(at(offset + duration, link, True))
    if end is not None:
        sim.process(at(end[1], finish, end[0]))
    for offset, *spec in sorted(ops, key=lambda op: op[0]):
        sim.process(at(offset, submit, *spec))
    sim.run(until=start + 3_000_000)
    fields = [(r.op, r.lba, r.nblocks, r.status, r.submit_time,
               r.complete_time, r.result and hashlib.sha256(
                   r.result).hexdigest()) for r in requests]
    counters = [(d.completed, d.errors, d.bytes_moved, d._tags.count,
                 d._tags.queued, sorted(d.latencies.values()))
                for d in devices]
    return log.seen, fields, counters, sim.events_processed


class TestRecordsMatchTheGenerators:
    @pytest.mark.kernel_differential
    @settings(max_examples=EXAMPLES, deadline=None, database=None)
    @given(stack=st.sampled_from(STACKS), ops=OPS,
           qd=st.sampled_from((1, 2, 8)), clamps=CLAMPS,
           timeouts=st.booleans(), faults=FAULTS, end=ENDS,
           iommu=st.booleans(), interrupts=st.booleans())
    @example(stack="ours-remote",
             ops=[(0, 0, "write", 16, 1), (0, 0, "read", 8, 1),
                  (0, 0, "compare", 16, 1), (2_000, 0, "flush", 1, 0),
                  (2_000, 0, "zeroes", 8, 2), (9_000, 0, "read", 16, 2)],
             qd=8, clamps=[(0, 1), (6_000, 2), (20_000, None)],
             timeouts=False, faults=[], end=None, iommu=False,
             interrupts=False)
    @example(stack="ours-local",
             ops=[(0, 0, "write", 8, 3), (0, 0, "read", 8, 3),
                  (1_000, 0, "read", 16, 4)],
             qd=2, clamps=[], timeouts=True,
             faults=[("lose", 2), ("outage", 3_000, 100_000)], end=None,
             iommu=True, interrupts=True)
    @example(stack="shared",
             ops=[(0, t, "write", 8, k) for t in (0, 1) for k in range(4)]
             + [(1_000, 0, "read", 8, k) for k in range(4)],
             qd=8, clamps=[(3_000, 1), (9_000, 4)], timeouts=False,
             faults=[], end=None, iommu=False, interrupts=False)
    @example(stack="shared",
             ops=[(0, t, "read", 16, k) for t in (0, 1) for k in range(5)],
             qd=8, clamps=[], timeouts=True,
             faults=[("outage", 0, 150_000)], end=None, iommu=False,
             interrupts=False)
    @example(stack="stock",
             ops=[(0, 0, "write", 16, k) for k in range(6)]
             + [(5_000, 0, "read", 16, 1)],
             qd=8, clamps=[(0, 2)], timeouts=True, faults=[("lose", 3)],
             end=("close", 40_000), iommu=False, interrupts=False)
    @example(stack="spdk",
             ops=[(0, 0, "read", 8, k) for k in range(4)],
             qd=2, clamps=[], timeouts=False, faults=[],
             end=("close", 3_000), iommu=False, interrupts=False)
    @example(stack="nvmeof",
             ops=[(0, 0, "write", 16, 1), (0, 0, "read", 16, 1),
                  (0, 0, "write", 1, 2), (0, 0, "compare", 16, 1),
                  (4_000, 0, "flush", 1, 0), (4_000, 0, "zeroes", 8, 3)],
             qd=8, clamps=[(1_000, 1), (30_000, None)], timeouts=True,
             faults=[("lose", 2)], end=None, iommu=False,
             interrupts=False)
    @example(stack="ours-remote",
             ops=[(0, 0, "read", 8, k) for k in range(6)],
             qd=8, clamps=[], timeouts=False, faults=[],
             end=("crash", 4_000), iommu=False, interrupts=False)
    @example(stack="ours-remote",
             ops=[(0, 0, "write", 8, k) for k in range(6)],
             qd=2, clamps=[], timeouts=True, faults=[],
             end=("shutdown", 2_000), iommu=True, interrupts=False)
    # the read's data DMA lands after the shutdown unmapped its window:
    # dropped at the NTB, not raised out of the run
    @example(stack="shared", ops=[(0, 0, "read", 1, 0)], qd=1, clamps=[],
             timeouts=False, faults=[], end=("shutdown", 1851), iommu=False,
             interrupts=False)
    def test_same_requests_as_the_generators(self, stack, ops, qd, clamps,
                                             timeouts, faults, end, iommu,
                                             interrupts):
        args = (stack, ops, qd, clamps, timeouts, faults, end, iommu,
                interrupts)
        assert play(False, *args) == play(True, *args)


def reference_fio_generator(device, job):
    """``fio_generator`` with its workers as processes."""
    sim = device.sim
    lba_per_io = max(1, job.bs // device.lba_bytes)
    region = min(job.region_lbas or device.capacity_lbas,
                 device.capacity_lbas)
    max_slot = region // lba_per_io
    stream = f"{job.seed_stream}:{job.name}:{device.name}"
    rng = sim.rng.stream(stream)
    result = FioResult(
        job=job, device_name=device.name, ios=0, bytes_moved=0,
        elapsed_ns=0, read_latencies=LatencyRecorder("r"),
        write_latencies=LatencyRecorder("w"))
    base_payload = bytes(rng.integers(0, 256, size=job.bs,
                                      dtype=np.uint8))
    slots = (sim.rng.integers(stream, 0, max_slot)
             if job.rw in ("randread", "randwrite") else None)
    start = sim.now
    deadline = (start + job.runtime_ns if job.runtime_ns is not None
                else None)
    state = {"issued": 0, "done": 0}

    def pick_op():
        if job.rw in ("randread", "read"):
            return "read"
        if job.rw in ("randwrite", "write"):
            return "write"
        return "read" if rng.integers(0, 100) < job.rwmixread else "write"

    def pick_lba(seq_index):
        if job.rw in ("read", "write"):
            return (seq_index % max_slot) * lba_per_io
        if slots is None:
            return int(rng.integers(0, max_slot)) * lba_per_io
        try:
            slot = slots.buf[slots.pos]
            slots.pos += 1
        except IndexError:
            slot = slots.refill()
        return slot * lba_per_io

    def should_stop():
        if job.total_ios is not None and state["issued"] >= job.total_ios:
            return True
        return deadline is not None and sim.now >= deadline

    def worker(sim):
        while not should_stop():
            index = state["issued"]
            state["issued"] += 1
            op = pick_op()
            lba = pick_lba(index)
            if op == "write":
                request = BlockRequest("write", lba=lba, data=(
                    index.to_bytes(8, "little") + lba.to_bytes(8, "little")
                    + base_payload[16:]))
            else:
                request = BlockRequest("read", lba=lba,
                                       nblocks=lba_per_io)
            completed = yield device.submit(request)
            state["done"] += 1
            if not completed.ok:
                result.errors += 1
                continue
            if state["done"] > job.ramp_ios:
                (result.read_latencies if op == "read"
                 else result.write_latencies).record(completed.latency_ns)
                result.ios += 1
                result.bytes_moved += job.bs
            if job.verify and op == "write":
                check = yield device.submit(
                    BlockRequest("read", lba=lba, nblocks=lba_per_io))
                if not check.ok:
                    result.errors += 1
                elif check.result != request.data:
                    raise AssertionError("verify failed")

    workers = [sim.process(worker(sim)) for _ in range(job.iodepth)]
    try:
        yield sim.all_of(workers)
    finally:
        if slots is not None:
            sim.rng.release(stream)
    result.elapsed_ns = sim.now - start
    return result


class TestFioWorkersMatchTheGenerator:
    """fio's ``iodepth`` workers are records; the job's outcome, the
    requests' trace and the event count are the process version's."""

    @pytest.mark.parametrize("name", FIG10_SCENARIOS)
    @pytest.mark.parametrize("job", [
        FioJob(name="a", rw="randrw", iodepth=4, total_ios=40,
               ramp_ios=3),
        FioJob(name="b", rw="write", bs=8192, iodepth=3, total_ios=18,
               verify=True),
        FioJob(name="c", rw="randread", iodepth=2, total_ios=None,
               runtime_ns=150_000)], ids=["randrw", "verify", "runtime"])
    def test_same_job_as_the_generator(self, name, job):
        def run(generator):
            rig = build_fig10_scenario(name, seed=17)
            sim = rig.sim
            log = sim.probe.subscribe(_Log(sim, [rig.device], lambda: [],
                                           []))
            other = rig.device.submit(BlockRequest("read", lba=0,
                                                   nblocks=8))
            result = sim.run(until=sim.process(generator(rig.device, job)))
            assert other.processed
            return (result.ios, result.errors, result.bytes_moved,
                    result.elapsed_ns, list(result.read_latencies.values()),
                    list(result.write_latencies.values()), log.seen,
                    sim.events_processed)

        assert run(fio_generator) == run(reference_fio_generator)


class TestNoProcessPerRequest:
    """After start-up, requests spawn no process whose code is the block
    layer's, a stack's, the command lifecycle's or the RDMA NIC's: each
    is a record."""

    RECORD_FILES = (os.path.join("driver", "blockdev.py"),
                    os.path.join("driver", "client.py"),
                    os.path.join("driver", "local.py"),
                    os.path.join("driver", "qpair.py"),
                    os.path.join("nvmeof", "initiator.py"),
                    os.path.join("nvmeof", "target.py"),
                    os.path.join("rdma", "nic.py"))

    def _spawned(self, monkeypatch):
        spawned = []
        construct = Process.__init__

        def counting(self, sim, generator, *args, **kwargs):
            code = generator.gi_code
            spawned.append((code.co_filename, code.co_name))
            construct(self, sim, generator, *args, **kwargs)

        monkeypatch.setattr(Process, "__init__", counting)
        return spawned

    def _per_request(self, spawned):
        return [(path, name) for path, name in spawned
                if path.endswith(self.RECORD_FILES)]

    @pytest.mark.parametrize("name", FIG10_SCENARIOS)
    def test_fio_on_each_fig10_stack(self, name, monkeypatch):
        scenario = build_fig10_scenario(name, seed=440)
        spawned = self._spawned(monkeypatch)
        result = run_fio(scenario.device, FioJob(
            name="t", rw="randrw", iodepth=4, total_ios=48))
        assert result.ios == 48 and scenario.device.completed >= 48
        assert self._per_request(spawned) == []
        # fio's job process; its iodepth workers are records too
        assert [name for _path, name in spawned] == ["fio_generator"]

    def test_spdk_local(self, monkeypatch):
        bed = LocalTestbed(seed=440)
        dev = SpdkLocalDriver(bed.sim, bed.fabric, bed.host,
                              bed.nvme.bars[0].base, bed.config)
        bed.sim.run(until=bed.sim.process(dev.start()))
        spawned = self._spawned(monkeypatch)
        run_fio(dev, FioJob(name="t", rw="randrw", iodepth=4,
                            total_ios=48))
        assert dev.completed == 48
        assert self._per_request(spawned) == []

    def test_open_loop_on_the_noisy_rig(self, monkeypatch):
        rig = noisy_neighbor(seed=440, telemetry=False)
        spawned = self._spawned(monkeypatch)
        result = run_open_loop(rig.clients[0], OpenLoopJob(
            rate_iops=200_000.0, total_arrivals=64, inflight_cap=16))
        assert result.completed == 64
        assert [name for _path, name in spawned] == ["open_loop_generator"]


# -- requests no stack can serve are refused at submit ------------------------

def _stacks():
    """One started rig per stack type (client, stock, initiator)."""
    return {"ours-remote": build_fig10_scenario("ours-remote", seed=1),
            "local-linux": build_fig10_scenario("local-linux", seed=1),
            "nvmeof-remote": build_fig10_scenario("nvmeof-remote", seed=1)}


def _refused_at_submit(rig, request, match):
    """``request`` raises at submit with nothing announced or queued,
    and a request already in flight still completes."""
    sim, device = rig.sim, rig.device
    flight = device.submit(BlockRequest("read", lba=0, nblocks=8))
    sim.run(until=sim.now + 1_000)          # part-way through
    announced = []
    sim.probe.subscribe(type("Watch", (), {
        "on_io_submitted": lambda self, dev, req: announced.append(req)})())
    state = (device.completed, device.errors, device.bytes_moved,
             device._tags.count, device._tags.queued, sim.events_processed,
             sim.peek())
    with pytest.raises(BlockError, match=match):
        device.submit(request)
    assert announced == []
    assert (device.completed, device.errors, device.bytes_moved,
            device._tags.count, device._tags.queued, sim.events_processed,
            sim.peek()) == state
    assert sim.run(until=flight).ok
    assert device.completed == state[0] + 1


class TestRefusedAtSubmit:
    @pytest.mark.parametrize("name,match", [
        ("ours-remote", "exceeds the bounce partition size 131072"),
        ("nvmeof-remote", "exceeds the initiator slot size")])
    def test_a_request_beyond_the_staging_buffer(self, name, match):
        rig = _stacks()[name]
        _refused_at_submit(rig, BlockRequest("read", lba=0,
                                             nblocks=4096), match)

    @pytest.mark.parametrize("name", ["ours-remote", "local-linux",
                                      "nvmeof-remote"])
    @pytest.mark.parametrize("op", ["write", "compare"])
    def test_a_zero_length_data_out_request(self, name, op):
        _refused_at_submit(_stacks()[name], BlockRequest(op, data=b""),
                           "0 bytes is not a positive multiple")

    def test_a_client_not_started(self):
        rig = build_fig10_scenario("ours-remote", seed=1)
        client = DistributedNvmeClient(
            rig.sim, rig.testbed.smartio, rig.testbed.node(1),
            rig.testbed.nvme_device_ids[0], rig.testbed.config, name="late")
        before = rig.sim.events_processed
        with pytest.raises(ClientError, match="client not started"):
            client.submit(BlockRequest("flush"))
        assert client.completed == 0 and client._tags.count == 0
        assert rig.sim.events_processed == before

    def test_an_initiator_not_connected(self):
        bed = RdmaTestbed(seed=1)
        initiator = NvmeofInitiator(bed.sim, bed.initiator_host,
                                    bed.initiator_nic, bed.config)
        bed.sim.run(until=1_000)
        before = bed.sim.events_processed, bed.sim.peek()
        with pytest.raises(BlockError, match="initiator not connected"):
            initiator.submit(BlockRequest("flush"))
        assert initiator._tags.count == 0
        assert (bed.sim.events_processed, bed.sim.peek()) == before

    def test_a_crashed_client_still_completes_with_its_status(self):
        rig = build_fig10_scenario("ours-remote", seed=1)
        rig.device.crash()
        req = rig.sim.run(until=rig.device.submit(
            BlockRequest("read", lba=0, nblocks=8)))
        assert req.status == STATUS_HOST_CRASHED

    def test_a_shut_down_client_still_completes_with_its_status(self):
        rig = build_fig10_scenario("ours-remote", seed=1)
        rig.sim.run(until=rig.sim.process(rig.device.shutdown()))
        req = rig.sim.run(until=rig.device.submit(
            BlockRequest("read", lba=0, nblocks=8)))
        assert req.status == STATUS_HOST_SHUTDOWN


def test_a_stacked_device_keeps_its_generator_hook():
    """``_driver_submit`` stays for devices built on other block
    devices: the base runs it in a process per request."""
    assert BlockDevice.request_record is None
    assert DistributedNvmeClient.request_record is not None
