"""Tests for Write Zeroes / Compare commands and the striping layer."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.driver import (BlockError, BlockRequest, DistributedNvmeClient,
                          NvmeManager, StripedBlockDevice)
from repro.nvme import Status
from repro.scenarios import (FIG10_SCENARIOS, build_fig10_scenario,
                             ours_remote)
from repro.scenarios.testbed import PcieTestbed
from repro.workloads import FioJob, run_fio


# Every driver stack of Fig. 10 builds its SQE from the same table
# (repro.driver.qpair.io_sqe), so every stack must perform these ops —
# NVMe-oF used to send WRITE for both and acknowledge them unperformed.
all_stacks = pytest.mark.parametrize("stack", FIG10_SCENARIOS)


class TestWriteZeroes:
    @all_stacks
    def test_zeroes_previously_written_range(self, stack):
        scenario = build_fig10_scenario(stack, seed=220)
        dev = scenario.device

        def flow(sim):
            req = yield dev.submit(BlockRequest("write", lba=8,
                                                data=b"\xab" * 4096))
            assert req.ok
            # A second write, so a stack that stages nothing for the
            # zeroing has someone else's bytes lying in its buffer.
            req = yield dev.submit(BlockRequest("write", lba=100,
                                                data=b"\xcd" * 4096))
            assert req.ok
            req = yield dev.submit(BlockRequest("write_zeroes", lba=8,
                                                nblocks=8))
            assert req.ok
            other = yield dev.submit(BlockRequest("read", lba=100,
                                                  nblocks=8))
            assert other.ok and other.result == b"\xcd" * 4096
            req = yield dev.submit(BlockRequest("read", lba=8, nblocks=8))
            return req

        req = scenario.sim.run(until=scenario.sim.process(flow(scenario.sim)))
        assert req.ok and req.result == bytes(4096)

    def test_no_data_allowed(self):
        with pytest.raises(BlockError):
            BlockRequest("write_zeroes", lba=0)   # nblocks missing

    def test_out_of_range(self):
        scenario = ours_remote(seed=221)
        dev = scenario.device

        def flow(sim):
            req = yield dev.submit(BlockRequest(
                "write_zeroes", lba=dev.capacity_lbas - 4, nblocks=8))
            return req

        with pytest.raises(BlockError):
            dev.submit(BlockRequest("write_zeroes",
                                    lba=dev.capacity_lbas - 4, nblocks=8))


class TestCompare:
    @all_stacks
    def test_compare_matches(self, stack):
        scenario = build_fig10_scenario(stack, seed=222)
        dev = scenario.device
        payload = bytes(range(256)) * 16

        def flow(sim):
            req = yield dev.submit(BlockRequest("write", lba=8,
                                                data=payload))
            assert req.ok
            req = yield dev.submit(BlockRequest("compare", lba=8,
                                                data=payload))
            return req

        req = scenario.sim.run(until=scenario.sim.process(flow(scenario.sim)))
        assert req.ok

    @all_stacks
    def test_compare_mismatch_status(self, stack):
        scenario = build_fig10_scenario(stack, seed=223)
        dev = scenario.device

        def flow(sim):
            req = yield dev.submit(BlockRequest("write", lba=8,
                                                data=b"\x01" * 4096))
            assert req.ok
            req = yield dev.submit(BlockRequest("compare", lba=8,
                                                data=b"\x02" * 4096))
            return req

        req = scenario.sim.run(until=scenario.sim.process(flow(scenario.sim)))
        assert not req.ok
        assert req.status == Status.COMPARE_FAILURE

    def test_compare_requires_data(self):
        with pytest.raises(BlockError):
            BlockRequest("compare", lba=0)


def build_striped(n_devices=2, seed=230, stripe_lbas=8):
    """One client host with queue pairs on N controllers, each living in
    a different cluster host, composed into a RAID-0."""
    bed = PcieTestbed(n_hosts=n_devices + 1, with_nvme=False, seed=seed)
    members = []
    client_node = bed.node(n_devices)    # last host is the client
    for i in range(n_devices):
        ctrl = bed.install_nvme(i)
        device_id = bed.smartio.register_device.__self__ and None
        # install_nvme registered it; find its id (registration order).
        device_id = i + 1
        manager = NvmeManager(bed.sim, bed.smartio, bed.node(i),
                              device_id, bed.config)
        bed.sim.run(until=bed.sim.process(manager.start()))
        client = DistributedNvmeClient(
            bed.sim, bed.smartio, client_node, device_id, bed.config,
            slot_index=0, name=f"member{i}")
        bed.sim.run(until=bed.sim.process(client.start()))
        members.append(client)
    md = StripedBlockDevice(bed.sim, members, stripe_lbas=stripe_lbas)
    return bed, md, members


class TestStripedDevice:
    def test_geometry(self):
        bed, md, members = build_striped()
        assert md.capacity_lbas == 2 * members[0].capacity_lbas
        assert md.lba_bytes == 512

    def test_validation(self):
        bed, md, members = build_striped()
        with pytest.raises(BlockError):
            StripedBlockDevice(bed.sim, members[:1])
        with pytest.raises(BlockError):
            StripedBlockDevice(bed.sim, members, stripe_lbas=0)

    def test_roundtrip_spanning_stripes(self):
        bed, md, members = build_striped(stripe_lbas=8)
        payload = bytes((i * 17) % 256 for i in range(6 * 4096))

        def flow(sim):
            req = yield md.submit(BlockRequest("write", lba=4,
                                               data=payload))
            assert req.ok
            req = yield md.submit(BlockRequest("read", lba=4,
                                               nblocks=48))
            return req

        req = bed.sim.run(until=bed.sim.process(flow(bed.sim)))
        assert req.ok
        assert req.result == payload

    def test_data_actually_striped_across_devices(self):
        bed, md, members = build_striped(stripe_lbas=8)
        payload = b"A" * 4096 + b"B" * 4096   # two stripes

        def flow(sim):
            req = yield md.submit(BlockRequest("write", lba=0,
                                               data=payload))
            assert req.ok

        bed.sim.run(until=bed.sim.process(flow(bed.sim)))
        # stripe 0 -> device 0 lba 0; stripe 1 -> device 1 lba 0.
        ns0 = bed.hosts[0].functions[1].namespaces[1]
        ns1 = bed.hosts[1].functions[1].namespaces[1]
        assert ns0.read_blocks(0, 8) == b"A" * 4096
        assert ns1.read_blocks(0, 8) == b"B" * 4096

    def test_flush_fans_out(self):
        bed, md, members = build_striped()

        def flow(sim):
            req = yield md.submit(BlockRequest("flush"))
            return req

        req = bed.sim.run(until=bed.sim.process(flow(bed.sim)))
        assert req.ok

    def test_throughput_additive(self):
        """Large sequential reads hit both devices: bandwidth well above
        a single member's media limit."""
        bed, md, members = build_striped(stripe_lbas=64, seed=231)
        result = run_fio(md, FioJob(rw="read", bs=128 * 1024, iodepth=8,
                                    total_ios=100, region_lbas=1 << 20))
        single_member_cap = 2.5e9
        assert result.bandwidth_bytes_per_s > 1.25 * single_member_cap

    @given(st.integers(0, 200), st.integers(1, 64))
    @settings(max_examples=30, deadline=None)
    def test_split_covers_extent_exactly(self, lba, nblocks):
        chunks = StripedBlockDevice._split(
            _GeometryOnly(stripe_lbas=8, members=3, lba_bytes=512),
            lba, nblocks)
        total = sum(c.nblocks for c in chunks)
        assert total == nblocks
        offsets = [c.offset_bytes for c in chunks]
        assert offsets == sorted(offsets)
        assert offsets[0] == 0
        # chunks never cross a stripe boundary
        for c in chunks:
            within = c.device_lba % 8
            assert within + c.nblocks <= 8


class _GeometryOnly:
    """Duck-typed stand-in so _split can be property-tested directly."""

    def __init__(self, stripe_lbas, members, lba_bytes):
        self.stripe_lbas = stripe_lbas
        self.members = [None] * members
        self.lba_bytes = lba_bytes
