"""Tests for Write Zeroes / Compare commands and the striping layer."""

import pytest

from repro.cluster import ClusterVolume, LayoutError, VolumeLayout
from repro.driver import BlockError, BlockRequest
from repro.nvme import Status
from repro.scenarios import (FIG10_SCENARIOS, build_fig10_scenario, cluster,
                             ours_remote)
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


def build_striped(stripe_lbas=8, seed=230):
    """One client host striping over two controllers, each in a
    different cluster host: a width-2, unreplicated cluster volume —
    RAID-0 (``VolumeLayout`` with ``replicas=1``)."""
    rig = cluster(n_clients=1, n_devices=2, width=2,
                  stripe_lbas=stripe_lbas, seed=seed)
    return rig, rig.volumes[0]


class TestStripedDevice:
    def test_geometry(self):
        rig, md = build_striped()
        assert (md.layout.width, md.layout.replicas) == (2, 1)
        assert md.capacity_lbas == 2 * md.layout.member_lbas
        assert all(path.capacity_lbas >= md.layout.member_lbas
                   for path in md.paths)
        assert md.lba_bytes == 512

    def test_validation(self):
        rig, md = build_striped()
        with pytest.raises(BlockError):
            ClusterVolume(rig.sim, md.layout, md.paths[:1])
        with pytest.raises(LayoutError):
            VolumeLayout("md1", md.layout.devices, stripe_lbas=0,
                         capacity_lbas=64)

    def test_roundtrip_spanning_stripes(self):
        rig, md = build_striped(stripe_lbas=8)
        payload = bytes((i * 17) % 256 for i in range(6 * 4096))

        def flow(sim):
            req = yield md.submit(BlockRequest("write", lba=4,
                                               data=payload))
            assert req.ok
            req = yield md.submit(BlockRequest("read", lba=4,
                                               nblocks=48))
            return req

        req = rig.sim.run(until=rig.sim.process(flow(rig.sim)))
        assert req.ok
        assert req.result == payload

    def test_data_actually_striped_across_devices(self):
        rig, md = build_striped(stripe_lbas=8)
        payload = b"A" * 4096 + b"B" * 4096   # two stripes

        def flow(sim):
            req = yield md.submit(BlockRequest("write", lba=0,
                                               data=payload))
            assert req.ok

        rig.sim.run(until=rig.sim.process(flow(rig.sim)))
        # stripe 0 -> member 0 lba 0; stripe 1 -> member 1 lba 0.
        ctrl = dict(zip(rig.testbed.nvme_device_ids, rig.controllers))
        ns0, ns1 = (ctrl[device].namespaces[1]
                    for device in md.layout.devices)
        assert ns0.read_blocks(0, 8) == b"A" * 4096
        assert ns1.read_blocks(0, 8) == b"B" * 4096

    def test_flush_fans_out(self):
        rig, md = build_striped()

        def flow(sim):
            req = yield md.submit(BlockRequest("flush"))
            return req

        req = rig.sim.run(until=rig.sim.process(flow(rig.sim)))
        assert req.ok
        assert all(path.completed == 1 for path in md.paths)

    def test_throughput_additive(self):
        """Large sequential reads hit both devices: bandwidth well above
        a single member's media limit."""
        rig, md = build_striped(stripe_lbas=64, seed=231)
        result = run_fio(md, FioJob(rw="read", bs=128 * 1024, iodepth=8,
                                    total_ios=100, region_lbas=1 << 20))
        single_member_cap = 2.5e9
        assert result.bandwidth_bytes_per_s > 1.25 * single_member_cap
