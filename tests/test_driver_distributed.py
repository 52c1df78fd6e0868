"""Integration tests for the distributed manager/client driver —
the paper's core contribution."""

import dataclasses

import numpy as np
import pytest

from repro.config import SimulationConfig
from repro.driver import (BlockRequest, DistributedNvmeClient, NvmeManager,
                          ClientError)
from repro.driver import metadata as meta
from repro.scenarios.testbed import PcieTestbed
from repro.smartio import SmartIoError


def no_sharing_config():
    """The paper's baseline: every client gets a private queue pair."""
    cfg = SimulationConfig()
    return dataclasses.replace(
        cfg, sharing=dataclasses.replace(cfg.sharing, enabled=False))


def make_cluster(n_hosts=2, seed=55, config=None):
    bed = PcieTestbed(n_hosts=n_hosts, with_nvme=True, seed=seed,
                      config=config)
    manager = NvmeManager(bed.sim, bed.smartio, bed.node(0),
                          bed.nvme_device_id, bed.config)
    boot = bed.sim.process(manager.start())
    bed.sim.run(until=boot)
    return bed, manager


def start_client(bed, host_index, **kwargs):
    client = DistributedNvmeClient(bed.sim, bed.smartio,
                                   bed.node(host_index),
                                   bed.nvme_device_id, bed.config,
                                   **kwargs)
    boot = bed.sim.process(client.start())
    bed.sim.run(until=boot)
    return client


class TestManager:
    def test_start_publishes_metadata(self):
        bed, manager = make_cluster()
        node_id, seg_id = bed.smartio.device_metadata(bed.nvme_device_id)
        assert node_id == bed.node(0).node_id
        seg = bed.node(0).local_segment(seg_id)
        header = meta.unpack_header(seg.read(0, meta.HEADER_SIZE))
        assert header["lba_bytes"] == 512
        assert header["capacity_lbas"] > 0
        assert header["manager_node_id"] == bed.node(0).node_id

    def test_manager_downgrades_exclusive_lock(self):
        bed, manager = make_cluster()
        # After start, other hosts can acquire the device.
        ref = bed.smartio.acquire(bed.nvme_device_id, bed.node(1))
        assert ref is not None

    def test_controller_enabled(self):
        bed, manager = make_cluster()
        assert bed.nvme.regs.ready


class TestClientBootstrap:
    def test_client_gets_queue_pair(self):
        bed, manager = make_cluster()
        client = start_client(bed, 1)
        assert client.qid == 1
        assert bed.nvme.io_queue_count == 1
        assert manager.queues_in_use == 1

    def test_sq_placed_device_side_cq_client_side(self):
        """The Fig. 8 default: SQ in the device host, CQ client-local."""
        bed, manager = make_cluster()
        client = start_client(bed, 1)
        assert client._sq_seg.host is bed.hosts[0]
        assert client._cq_seg.host is bed.hosts[1]

    def test_placement_ablation(self):
        bed, manager = make_cluster()
        client = start_client(bed, 1, sq_placement="client",
                              slot_index=7)
        assert client._sq_seg.host is bed.hosts[1]

    def test_shutdown_returns_queue(self):
        bed, manager = make_cluster()
        client = start_client(bed, 1)
        done = bed.sim.process(client.shutdown())
        bed.sim.run(until=done)
        assert manager.queues_in_use == 0
        assert bed.nvme.io_queue_count == 0

    def test_client_on_device_host(self):
        """'Ours local': client runs in the same host as the device."""
        bed, manager = make_cluster()
        client = start_client(bed, 0)
        assert client._sq_seg.host is bed.hosts[0]
        assert client._cq_seg.host is bed.hosts[0]

    def test_invalid_params_rejected(self):
        bed, manager = make_cluster()
        with pytest.raises(ClientError):
            DistributedNvmeClient(bed.sim, bed.smartio, bed.node(1),
                                  bed.nvme_device_id, bed.config,
                                  sq_placement="bogus")


class TestClientLifecycleLoop:
    """Client start and stop, looped: ``shutdown()`` gives back
    everything ``start()`` took — DRAM on both hosts, SISCI segments,
    NTB windows, the queue pair and the SmartIO reference — and the next
    client on that host runs on the freed memory."""

    CYCLES = 20

    @staticmethod
    def _held(bed, manager):
        return (tuple(host.dram_alloc.allocated_bytes for host in bed.hosts),
                tuple(len(node._segments) for node in bed.sisci_nodes),
                tuple(ntb.window_count() for ntb in bed.ntbs),
                manager.queues_in_use,
                len(bed.smartio._record(bed.nvme_device_id).refs))

    @pytest.mark.parametrize("sharing", ["auto", "force"])
    def test_start_io_shutdown_leaks_nothing(self, sharing):
        bed = PcieTestbed(n_hosts=2, with_nvme=True, seed=3)
        manager = NvmeManager(bed.sim, bed.smartio, bed.node(0),
                              bed.nvme_device_id, bed.config)
        bed.sim.run(until=bed.sim.process(manager.start()))
        held = []
        for cycle in range(self.CYCLES):
            client = start_client(bed, 1, sharing=sharing)
            assert client._shared is (sharing == "force")
            payload = bytes((cycle + i) % 251 for i in range(4096))

            def flow(lba):
                req = yield from client.io(BlockRequest(
                    "write", lba=lba, data=payload))
                assert req.ok, hex(req.status)
                req = yield from client.io(BlockRequest(
                    "read", lba=lba, nblocks=8))
                assert req.ok and req.result == payload
                yield from client.shutdown()

            bed.sim.run(until=bed.sim.process(flow(8 * cycle)))
            held.append(self._held(bed, manager))
        assert held == [held[0]] * self.CYCLES


class TestDataPath:
    def test_remote_write_read_roundtrip(self):
        bed, manager = make_cluster()
        client = start_client(bed, 1)
        payload = bytes((i * 31) % 256 for i in range(4096))

        def flow(sim):
            req = yield from client.io(BlockRequest("write", lba=128,
                                                    data=payload))
            assert req.ok, hex(req.status)
            req = yield from client.io(BlockRequest("read", lba=128,
                                                    nblocks=8))
            return req

        req = bed.sim.run(until=bed.sim.process(flow(bed.sim)))
        assert req.ok
        assert req.result == payload
        # Data really reached the device's medium.
        assert bed.nvme.namespaces[1].read_blocks(128, 8) == payload

    def test_flush(self):
        bed, manager = make_cluster()
        client = start_client(bed, 1)

        def flow(sim):
            req = yield from client.io(BlockRequest("flush"))
            return req

        req = bed.sim.run(until=bed.sim.process(flow(bed.sim)))
        assert req.ok

    def test_cross_host_visibility(self):
        """Host 1 writes a block; host 0 (device host) reads it back
        through its own client — multi-host shared-disk semantics."""
        bed, manager = make_cluster(n_hosts=3)
        writer = start_client(bed, 1)
        reader = start_client(bed, 2)
        payload = b"\xabshared-data" * 40 + bytes(4096 - 12 * 40)

        def flow(sim):
            req = yield from writer.io(BlockRequest("write", lba=0,
                                                    data=payload))
            assert req.ok
            req = yield from reader.io(BlockRequest("read", lba=0,
                                                    nblocks=8))
            return req

        req = bed.sim.run(until=bed.sim.process(flow(bed.sim)))
        assert req.ok
        assert req.result == payload

    def test_remote_latency_band(self):
        """Remote 4 KiB QD1 reads: local-ours + ~1 us of NTB distance;
        still far below NVMe-oF territory."""
        bed, manager = make_cluster()
        client = start_client(bed, 1)

        def flow(sim):
            lat = []
            for i in range(200):
                req = yield from client.io(BlockRequest("read", lba=i * 8,
                                                        nblocks=8))
                assert req.ok
                lat.append(req.latency_ns)
            return np.array(lat)

        lat = bed.sim.run(until=bed.sim.process(flow(bed.sim)))
        assert 11_000 < lat.min() < 16_500
        assert lat.max() < 20_000

    def test_concurrent_clients_operate_independently(self):
        bed, manager = make_cluster(n_hosts=4)
        clients = [start_client(bed, i) for i in (1, 2, 3)]
        assert sorted(c.qid for c in clients) == [1, 2, 3]

        def flow(sim, client, base):
            for i in range(20):
                req = yield from client.io(BlockRequest(
                    "write", lba=base + i * 8,
                    data=bytes([client.qid]) * 4096))
                assert req.ok

        procs = [bed.sim.process(flow(bed.sim, c, 10_000 * (k + 1)))
                 for k, c in enumerate(clients)]
        done = bed.sim.all_of(procs)
        bed.sim.run(until=done)
        ns = bed.nvme.namespaces[1]
        for k, c in enumerate(clients):
            base = 10_000 * (k + 1)
            assert ns.read_blocks(base, 8) == bytes([c.qid]) * 4096

    def test_queue_depth_pipelining(self):
        bed, manager = make_cluster()
        client = start_client(bed, 1, queue_depth=16)

        def flow(sim):
            start = sim.now
            events = [client.submit(BlockRequest("read", lba=i * 8,
                                                 nblocks=8))
                      for i in range(32)]
            yield sim.all_of(events)
            return sim.now - start

        elapsed = bed.sim.run(until=bed.sim.process(flow(bed.sim)))
        assert client.completed == 32
        # 32 sequential remote reads ~ 430 us; pipelined across 5 media
        # channels must be far less.
        assert elapsed < 200_000

    def test_iommu_data_path(self):
        bed, manager = make_cluster()
        client = start_client(bed, 1, data_path="iommu")
        payload = bytes(range(256)) * 16

        def flow(sim):
            req = yield from client.io(BlockRequest("write", lba=8,
                                                    data=payload))
            assert req.ok
            req = yield from client.io(BlockRequest("read", lba=8,
                                                    nblocks=8))
            return req

        req = bed.sim.run(until=bed.sim.process(flow(bed.sim)))
        assert req.ok and req.result == payload

    def test_remote_cq_placement_works_but_slower(self):
        """CQ forced device-side: every poll is a non-posted NTB read."""
        bed, manager = make_cluster()
        fast = start_client(bed, 1, slot_index=3)

        def flow(sim, client, n=40):
            lat = []
            for i in range(n):
                req = yield from client.io(BlockRequest("read", lba=i * 8,
                                                        nblocks=8))
                assert req.ok
                lat.append(req.latency_ns)
            return np.median(np.array(lat))

        fast_med = bed.sim.run(until=bed.sim.process(flow(bed.sim, fast)))

        bed2, manager2 = make_cluster(seed=56)
        slow = start_client(bed2, 1, cq_placement="device", slot_index=4)
        slow_med = bed2.sim.run(
            until=bed2.sim.process(flow(bed2.sim, slow)))
        assert slow_med > fast_med + 500


class TestAdmissionClamp:
    """Submitters parked on the admission clamp (docs/qos.md) wait
    gated on the clamp itself: a completion resumes only one that can
    issue."""

    def _clamped_run(self, n_parked):
        bed, manager = make_cluster()
        client = start_client(bed, 1, queue_entries=128, queue_depth=100)
        client.set_qos_window(1)
        issued = []
        issue = client._qp.issue

        def recording_issue(sqe, span=None):
            issued.append(sqe.slba)
            issue(sqe, span)

        client._qp.issue = recording_issue
        done = [client.submit(BlockRequest("read", lba=8 * i, nblocks=8))
                for i in range(n_parked + 1)]
        return bed.sim, client, done, issued

    def _events_to_drain(self, n_parked):
        sim, client, done, _ = self._clamped_run(n_parked)
        before = sim.events_processed
        sim.run(until=sim.all_of(done))
        assert all(ev.value.ok for ev in done)
        assert client.throttled_ios == n_parked     # once each
        return sim.events_processed - before

    def test_events_per_completion_independent_of_parked_count(self):
        """With a wake-all herd an I/O costs one event per submitter
        parked behind it; gated, the marginal cost of one more I/O is
        the same at 64 parked as at 8."""
        e8, e16, e64 = (self._events_to_drain(n) for n in (8, 16, 64))
        assert abs((e64 - e8) / 56 - (e16 - e8) / 8) <= 1

    def test_lifting_the_clamp_issues_in_park_order(self):
        sim, client, done, issued = self._clamped_run(5)
        while client.throttled_ios < 5:
            sim.step()
        assert issued == [0]
        client.set_qos_window(None)
        sim.run(until=sim.all_of(done))
        assert issued == [8 * i for i in range(6)]
        assert client.throttled_ios == 5

    def test_crash_releases_parked_submitters_in_park_order(self):
        sim, client, done, issued = self._clamped_run(4)
        while client.throttled_ios < 4:
            sim.step()
        finished = []
        for i, ev in enumerate(done):
            ev.callbacks.append(lambda _ev, i=i: finished.append(i))
        client.crash()
        sim.run(until=sim.all_of(done))
        assert issued == [0]
        assert finished == [0, 1, 2, 3, 4]
        assert all(not ev.value.ok for ev in done)

    @pytest.mark.parametrize("end", ["crash", "shutdown"])
    def test_dying_clamped_clients_leave_no_waiter_behind(self, end):
        """Lifecycle: parked submissions leave the flow-control signal
        when their client dies — none is left for a later fire to walk."""
        for n_parked in (1, 7, 40):
            sim, client, done, _ = self._clamped_run(n_parked)
            while client.throttled_ios < n_parked:
                sim.step()
            assert client._qp.space.waiting == n_parked
            if end == "crash":
                client.crash()
            else:
                sim.process(client.shutdown())
            sim.run(until=sim.all_of(done))
            assert client._qp.space.waiting == 0
            assert not any(ev.value.ok for ev in done[1:])


class TestCrashUnderLinkContention:
    """A client polling a device-side CQ reads across the NTB; its
    completions share host0's uplink with a neighbour's 64 KiB read
    trains and queue for it.  ``crash()`` interrupts the poller: one
    caught queueing must leave the link's FIFO, or its dead request is
    granted the uplink and every host behind it stalls for good (the
    state of things at 8585d81)."""

    def test_crashed_remote_pollers_leave_every_link_free(self):
        bed, _manager = make_cluster(n_hosts=6, config=no_sharing_config())
        sim = bed.sim
        loader = start_client(bed, 1)
        pollers = [start_client(bed, i, cq_placement="device")
                   for i in range(2, 6)]

        def load(client, nblocks, n, depth):
            for base in range(0, n, depth):
                reqs = [client.submit(BlockRequest(
                    "read", lba=(base + i) * nblocks, nblocks=nblocks))
                    for i in range(depth)]
                yield sim.all_of(reqs)
            return all(req.value.ok for req in reqs)

        bulk = sim.process(load(loader, 128, 64, 8))
        for client in pollers:      # keeps each poller at full rate
            sim.process(load(client, 8, 400, 1))
        for k, client in enumerate(pollers):
            sim.run(until=sim.now + 20_000 + 333 * k)
            client.crash()
        assert sim.run(until=bulk)
        sim.run(until=sim.now + 1_000_000)
        cluster = bed.cluster
        busy = [(link.name, res.count, res.queued)
                for link in cluster.links
                for res in (link.resource(link.a, link.b),
                            link.resource(link.b, link.a))
                if res.count or res.queued]
        assert busy == []


class TestMultiHostScaling:
    def test_31_clients_supported(self):
        """The paper: P4800X supports 32 QPs, so 31 hosts can share it.

        QP sharing is disabled here to pin the paper's private-only
        baseline; the default policy is covered by test_qp_sharing.py.
        """
        bed, manager = make_cluster(n_hosts=32,
                                    config=no_sharing_config())
        clients = []
        for i in range(1, 32):
            clients.append(start_client(bed, i))
        assert bed.nvme.io_queue_count == 31
        assert sorted(c.qid for c in clients) == list(range(1, 32))

    def test_32nd_client_refused(self):
        """Without QP sharing the 32nd host hits the hard QP limit."""
        bed, manager = make_cluster(n_hosts=33,
                                    config=no_sharing_config())
        for i in range(1, 32):
            start_client(bed, i)
        overflow = DistributedNvmeClient(bed.sim, bed.smartio,
                                         bed.node(32),
                                         bed.nvme_device_id, bed.config)
        boot = bed.sim.process(overflow.start())
        with pytest.raises(ClientError):
            bed.sim.run(until=boot)

    def test_refused_starts_give_back_what_they_took(self):
        """A start the manager refuses leaves nothing behind: no DRAM,
        segment, DMA or LUT window, nor a SmartIO reference, however
        often it is tried."""
        bed, manager = make_cluster(n_hosts=33,
                                    config=no_sharing_config())
        for i in range(1, 32):
            start_client(bed, i)
        record = bed.smartio._record(bed.nvme_device_id)

        def held():
            return (tuple(host.dram_alloc.allocated_bytes
                          for host in bed.hosts),
                    tuple(len(node._segments) for node in bed.sisci_nodes),
                    tuple(ntb.window_count() for ntb in bed.ntbs),
                    len(record.refs))

        baseline = held()
        for _attempt in range(3):
            overflow = DistributedNvmeClient(bed.sim, bed.smartio,
                                             bed.node(32),
                                             bed.nvme_device_id, bed.config)
            with pytest.raises(ClientError, match="refused"):
                bed.sim.run(until=bed.sim.process(overflow.start()))
            assert held() == baseline
        assert manager.queues_in_use == 31
