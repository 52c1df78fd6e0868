"""Cross-layer ordering and end-to-end data-integrity tests.

These pin the causal properties the paper's design relies on:
the controller never observes a doorbell before the SQE it covers, read
data always lands before its CQE, and concurrent multi-host traffic
never corrupts data.
"""

import numpy as np
import pytest

from repro.driver import BlockRequest, DistributedNvmeClient, NvmeManager
from repro.scenarios.testbed import PcieTestbed
from repro.sim import Tracer
from repro.workloads import FioJob, run_fio_many


def make_traced_cluster(seed=180):
    bed = PcieTestbed(n_hosts=2, with_nvme=True, seed=seed)
    tracer = Tracer(bed.sim)
    bed.sim.probe.subscribe(tracer)
    manager = NvmeManager(bed.sim, bed.smartio, bed.node(0),
                          bed.nvme_device_id, bed.config)
    bed.sim.run(until=bed.sim.process(manager.start()))
    client = DistributedNvmeClient(bed.sim, bed.smartio, bed.node(1),
                                   bed.nvme_device_id, bed.config)
    bed.sim.run(until=bed.sim.process(client.start()))
    tracer.clear()
    return bed, client, tracer


class TestControllerOrdering:
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
