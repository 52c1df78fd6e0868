"""Cross-layer ordering and end-to-end data-integrity tests.

These pin the causal properties the paper's design relies on:
the controller never observes a doorbell before the SQE it covers, the
I/O path of a client host issues no non-posted read, read data always
lands before its CQE, and concurrent multi-host traffic never corrupts
data.
"""

import collections

import numpy as np
import pytest

from repro.driver import BlockRequest, DistributedNvmeClient, NvmeManager
from repro.driver.blockdev import BlockDevice, RequestRecord
from repro.pcie.fabric import Fabric
from repro.scenarios import multihost, ours_local, ours_remote
from repro.scenarios.testbed import PcieTestbed
from repro.sim import Interrupt, Tracer
from repro.workloads import FioJob, run_fio_many

from .test_determinism import run_chaos


def make_traced_cluster(seed=180, **client_kwargs):
    bed = PcieTestbed(n_hosts=2, with_nvme=True, seed=seed)
    tracer = Tracer(bed.sim)
    bed.sim.probe.subscribe(tracer)
    manager = NvmeManager(bed.sim, bed.smartio, bed.node(0),
                          bed.nvme_device_id, bed.config)
    bed.sim.run(until=bed.sim.process(manager.start()))
    client = DistributedNvmeClient(bed.sim, bed.smartio, bed.node(1),
                                   bed.nvme_device_id, bed.config,
                                   **client_kwargs)
    bed.sim.run(until=bed.sim.process(client.start()))
    tracer.clear()
    return bed, client, tracer


class StoreLedger:
    """Probe subscriber: the SQE stores of one private SQ in issue
    order, and every SQ tail doorbell of it that landed before a store
    it covers had."""

    def __init__(self, qid):
        self.qid = qid
        self.stores = collections.deque()
        self.tail = 0
        self.covered = 0
        self.early = []

    def on_sqe_issued(self, qp, sqe, slot, store, request):
        if qp.sq.qid == self.qid:
            self.stores.append((sqe.cid, store))

    def on_doorbell_landed(self, ctrl, qid, is_cq, value, ok):
        if qid != self.qid or is_cq or not ok:
            return
        entries = ctrl.sqs[qid].state.entries
        for _ in range((value - self.tail) % entries):
            cid, store = self.stores.popleft()
            self.covered += 1
            if store is not None and not store.processed:
                self.early.append((value, cid))
        self.tail = value


class HeadLedger:
    """Probe subscriber: the heads one host-side CQ reached, one per
    consume (``heads[0]`` is where it started), and each CQ head
    doorbell of it that landed, with how many consumes preceded it."""

    def __init__(self, cq):
        self.cq = cq
        self.heads = [cq.head]
        self.landed = []

    def on_ring_step(self, state, op):
        if state is self.cq and op == "cq-consume":
            self.heads.append((state.head + 1) % state.entries)

    def on_doorbell_landed(self, ctrl, qid, is_cq, value, ok):
        if qid == self.cq.qid and is_cq and ok:
            self.landed.append((value, len(self.heads) - 1))


class TestControllerOrdering:
    def test_sq_doorbell_lands_after_the_sqes_it_covers(self):
        """The controller may fetch an SQE the instant the tail doorbell
        covering it lands, so the SQE store must land first (paper Fig. 8:
        both are posted writes, kept in program order on the wire)."""
        bed, client, _tracer = make_traced_cluster()
        ledger = bed.sim.probe.subscribe(StoreLedger(client.qid))
        run_fio_many([(client, FioJob(rw="randrw", bs=4096, iodepth=8,
                                      total_ios=200))])
        assert ledger.covered == 200
        assert ledger.early == []

    def test_cq_doorbell_names_a_head_already_consumed(self):
        """A CQ head doorbell hands slots back to the controller, so it
        may name only entries the host has consumed: the poller of a
        device-side CQ (the Fig. 8 ablation) rings once per consume,
        after it, and its last doorbell names the final head."""
        bed, client, _tracer = make_traced_cluster(cq_placement="device")
        ledger = bed.sim.probe.subscribe(HeadLedger(client.cq))
        run_fio_many([(client, FioJob(rw="randread", bs=4096, iodepth=8,
                                      total_ios=200))])
        assert len(ledger.heads) == 201
        assert [value for value, _ in ledger.landed] == ledger.heads[1:]
        assert all(consumed >= rung for rung, (_, consumed)
                   in enumerate(ledger.landed, 1))
        assert ledger.landed[-1][0] == client.cq.head

    def test_fetch_never_precedes_doorbell(self):
        bed, client, tracer = make_traced_cluster()

        def flow(sim):
            for i in range(30):
                req = yield client.submit(
                    BlockRequest("read", lba=i * 8, nblocks=8))
                assert req.ok

        bed.sim.run(until=bed.sim.process(flow(bed.sim)))
        doorbells = [r for r in tracer.filter("nvme")
                     if r.message == "doorbell" and not r.payload["cq"]
                     and r.payload["qid"] == client.qid]
        fetches = [r for r in tracer.filter("nvme")
                   if r.message == "fetched"
                   and r.payload["qid"] == client.qid]
        assert len(fetches) == 30
        # Every fetch must happen at/after a doorbell announcing it.
        for i, fetch in enumerate(fetches):
            covering = [d for d in doorbells
                        if d.time_ns <= fetch.time_ns
                        and d.payload["value"] >= (i + 1) % 64]
            assert covering, f"fetch {i} before its doorbell"

    def test_completion_count_matches(self):
        bed, client, tracer = make_traced_cluster()

        def flow(sim):
            for i in range(10):
                yield client.submit(BlockRequest("read", lba=i,
                                                 nblocks=1))

        bed.sim.run(until=bed.sim.process(flow(bed.sim)))
        completions = [r for r in tracer.filter("nvme")
                       if r.message == "completed"]
        assert len(completions) == 10


class ReadLog:
    """Every non-posted read the fabric starts (when, and its initiator)
    and the span of block I/O, from the first request submitted to the
    last one completed."""

    def __init__(self):
        self.reads = []
        self.first = self.last = None

    def completed(self, request):
        if self.first is None or request.submit_time < self.first:
            self.first = request.submit_time
        if self.last is None or request.complete_time > self.last:
            self.last = request.complete_time

    def during_io(self, rig):
        """The reads a client host issued while I/O was in flight."""
        hosts = {client.node.host.rc for client in rig.subclients}
        return [(now, who.name) for now, who in self.reads
                if who in hosts and self.first <= now <= self.last]


@pytest.fixture
def read_log(monkeypatch):
    log = ReadLog()
    read, completed = Fabric.read, BlockDevice._completed

    def logged_read(fabric, initiator, host, addr, length, step=None):
        log.reads.append((fabric.sim.now, initiator))
        return read(fabric, initiator, host, addr, length, step)

    def logged_completion(device, request):
        completed(device, request)
        log.completed(request)

    monkeypatch.setattr(Fabric, "read", logged_read)
    monkeypatch.setattr(BlockDevice, "_completed", logged_completion)
    return log


def run_randrw(rig, ios=100):
    run_fio_many([(client, FioJob(name=f"j{i}", rw="randrw", iodepth=4,
                                  total_ios=ios, seed_stream=f"fio{i}"))
                  for i, client in enumerate(rig.clients)])
    return rig


class TestPostedOnlyDataPath:
    """Paper Fig. 8: SQEs are pushed across the NTB and CQs are polled
    in the client's own memory, so between a client's first submit and
    its last completion no client host issues a non-posted read (the
    controller reads SQEs and data; a host only writes)."""

    @pytest.mark.parametrize("build", [
        lambda: ours_remote(seed=1),
        lambda: ours_local(seed=1),
        lambda: multihost(4, seed=1),
        lambda: multihost(4, seed=1, sharing="force"),
        lambda: ours_remote(seed=1, completion_mode="interrupt"),
        lambda: ours_remote(seed=1, data_path="iommu"),
    ], ids=["ours-remote", "ours-local", "multihost-private",
            "multihost-shared", "interrupts", "iommu"])
    def test_no_client_read_while_io_is_in_flight(self, read_log, build):
        rig = run_randrw(build())
        assert read_log.reads and read_log.last > read_log.first
        assert read_log.during_io(rig) == []

    def test_nor_under_faults_and_recovery(self, read_log):
        rig = run_chaos()
        assert sum(client.completed for client in rig.clients) == 450
        assert read_log.during_io(rig) == []

    def test_nor_for_a_waiter_that_leaves_mid_request(self, read_log,
                                                        monkeypatch):
        """An interrupted waiter cancels the request record it waited
        on; the request goes on, and still reads nothing."""
        cancels = []
        cancel = RequestRecord.cancel
        monkeypatch.setattr(RequestRecord, "cancel", lambda record: (
            cancels.append(record), cancel(record)))
        rig = ours_remote(seed=1)
        client, sim = rig.device, rig.sim
        submitted = []

        def waiter(sim):
            try:
                for i in range(20):
                    submitted.append(BlockRequest("read", lba=8 * i,
                                                  nblocks=8))
                    yield client.submit(submitted[-1])
            except Interrupt:
                return

        def leave(sim, proc):
            yield sim.timeout(30_000)
            proc.interrupt()

        proc = sim.process(waiter(sim))
        sim.process(leave(sim, proc))
        sim.run(until=sim.now + 1_000_000)
        assert len(set(cancels)) == 1 and len(submitted) > 1
        assert client.completed == len(submitted)
        assert read_log.during_io(rig) == []

    def test_the_device_side_cq_ablation_reads(self, read_log):
        """The control: with the CQ in device-side memory every poll is
        a read across the NTB, and the log sees them."""
        rig = run_randrw(ours_remote(seed=1, cq_placement="device"))
        assert len(read_log.during_io(rig)) > 100


class TestReadDataBeforeCqe:
    def test_buffer_filled_when_request_completes(self):
        """When the block layer reports a read complete, the data is
        already in the bounce buffer — posted ordering in action.  We
        verify by checking contents at the completion instant for data
        that was written with a distinctive pattern."""
        bed, client, tracer = make_traced_cluster(seed=181)
        pattern = bytes([0xC7]) * 4096
        bed.nvme.namespaces[1].write_blocks(512, pattern)

        def flow(sim):
            req = yield client.submit(BlockRequest("read", lba=512,
                                                   nblocks=8))
            # Inspect at the exact completion timestamp.
            assert req.result == pattern
            return True

        assert bed.sim.run(until=bed.sim.process(flow(bed.sim)))


class TestMultiHostIntegrity:
    def test_concurrent_writers_disjoint_regions(self):
        """4 clients hammer disjoint LBA regions concurrently with
        verify-after-write enabled; no corruption, no cross-talk."""
        bed = PcieTestbed(n_hosts=5, with_nvme=True, seed=182)
        manager = NvmeManager(bed.sim, bed.smartio, bed.node(0),
                              bed.nvme_device_id, bed.config)
        bed.sim.run(until=bed.sim.process(manager.start()))
        clients = []
        for i in range(1, 5):
            c = DistributedNvmeClient(bed.sim, bed.smartio, bed.node(i),
                                      bed.nvme_device_id, bed.config,
                                      slot_index=i)
            bed.sim.run(until=bed.sim.process(c.start()))
            clients.append(c)

        def writer(sim, client, base, tag):
            rng = np.random.default_rng(tag)
            written = {}
            for k in range(25):
                lba = base + int(rng.integers(0, 100)) * 8
                payload = bytes(rng.integers(0, 256, 4096, dtype=np.uint8))
                req = yield client.submit(BlockRequest("write", lba=lba,
                                                       data=payload))
                assert req.ok
                written[lba] = payload
            # read back through the same client
            for lba, payload in written.items():
                req = yield client.submit(BlockRequest("read", lba=lba,
                                                       nblocks=8))
                assert req.ok
                assert req.result == payload, f"corruption at {lba}"
            return written

        procs = [bed.sim.process(writer(bed.sim, c, 100_000 * (i + 1), i))
                 for i, c in enumerate(clients)]
        done = bed.sim.all_of(procs)
        bed.sim.run(until=done)
        # Cross-check each client's data from a *different* client.
        all_written = [p.value for p in procs]

        def cross_reader(sim):
            for i, written in enumerate(all_written):
                reader = clients[(i + 1) % len(clients)]
                for lba, payload in list(written.items())[:5]:
                    req = yield reader.submit(
                        BlockRequest("read", lba=lba, nblocks=8))
                    assert req.ok and req.result == payload
            return True

        assert bed.sim.run(until=bed.sim.process(cross_reader(bed.sim)))

    def test_simultaneous_mixed_workloads(self):
        """Readers and writers on separate hosts run simultaneously
        without errors (the paper's parallel-operation claim)."""
        bed = PcieTestbed(n_hosts=4, with_nvme=True, seed=183)
        manager = NvmeManager(bed.sim, bed.smartio, bed.node(0),
                              bed.nvme_device_id, bed.config)
        bed.sim.run(until=bed.sim.process(manager.start()))
        clients = []
        for i in range(1, 4):
            c = DistributedNvmeClient(bed.sim, bed.smartio, bed.node(i),
                                      bed.nvme_device_id, bed.config,
                                      slot_index=i, queue_depth=8)
            bed.sim.run(until=bed.sim.process(c.start()))
            clients.append(c)
        jobs = [
            (clients[0], FioJob(name="w", rw="randwrite", iodepth=4,
                                total_ios=150, region_lbas=50_000)),
            (clients[1], FioJob(name="r", rw="randread", iodepth=4,
                                total_ios=150, region_lbas=50_000)),
            (clients[2], FioJob(name="rw", rw="randrw", iodepth=4,
                                total_ios=150, region_lbas=50_000)),
        ]
        results = run_fio_many(jobs)
        assert all(r.errors == 0 for r in results)
        assert all(r.ios == 150 for r in results)
