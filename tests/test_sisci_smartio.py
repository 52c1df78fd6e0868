"""Tests for SISCI segments and the SmartIO service over a real testbed."""

import pytest

from repro.scenarios.testbed import PcieTestbed
from repro.sisci import SisciError
from repro.smartio import (AccessHints, CQ_HINTS, Placement, SQ_HINTS,
                           SmartIoError)


@pytest.fixture()
def bed():
    return PcieTestbed(n_hosts=3, with_nvme=True)


class TestSegments:
    def test_create_and_local_access(self, bed):
        node = bed.node(1)
        seg = node.create_segment(10, 4096)
        seg.write(0, b"local-bytes")
        assert seg.read(0, 11) == b"local-bytes"

    def test_duplicate_segment_id_rejected(self, bed):
        node = bed.node(1)
        node.create_segment(10, 4096)
        with pytest.raises(SisciError):
            node.create_segment(10, 4096)

    def test_connect_requires_available(self, bed):
        owner, peer = bed.node(1), bed.node(2)
        seg = owner.create_segment(11, 4096)
        with pytest.raises(SisciError):
            peer.connect_segment(owner.node_id, 11)
        seg.set_available()
        conn = peer.connect_segment(owner.node_id, 11)
        assert conn.size == 4096

    def test_connect_unknown_segment(self, bed):
        with pytest.raises(SisciError):
            bed.node(1).connect_segment(99, 1)

    def test_remote_write_lands_in_owner_memory(self, bed):
        owner, peer = bed.node(1), bed.node(2)
        seg = owner.create_segment(12, 4096)
        seg.set_available()
        conn = peer.connect_segment(owner.node_id, 12)

        def proc(sim):
            yield conn.write_wait(0x80, b"hello-over-ntb")

        bed.sim.process(proc(bed.sim))
        bed.sim.run()
        assert seg.read(0x80, 14) == b"hello-over-ntb"

    def test_remote_read_sees_owner_writes(self, bed):
        owner, peer = bed.node(1), bed.node(2)
        seg = owner.create_segment(13, 4096)
        seg.set_available()
        seg.write(0, b"owner-data")
        conn = peer.connect_segment(owner.node_id, 13)
        out = {}

        def proc(sim):
            start = sim.now
            data = yield conn.read(0, 10)
            out["data"] = data
            out["elapsed"] = sim.now - start

        bed.sim.process(proc(bed.sim))
        bed.sim.run()
        assert out["data"] == b"owner-data"
        # remote read = full round trip across 3 chips each way
        assert out["elapsed"] > 600

    def test_same_host_connection_is_direct(self, bed):
        node = bed.node(1)
        seg = node.create_segment(14, 4096)
        seg.set_available()
        conn = node.connect_segment(node.node_id, 14)
        assert conn.map_addr == seg.phys_addr
        assert node.ntb.window_count() == 0

    def test_bounds_enforced(self, bed):
        owner, peer = bed.node(1), bed.node(2)
        seg = owner.create_segment(15, 4096)
        seg.set_available()
        conn = peer.connect_segment(owner.node_id, 15)
        with pytest.raises(SisciError):
            conn.write(4090, b"too-long")

        def proc(sim):
            yield conn.read(4095, 2)

        p = bed.sim.process(proc(bed.sim))
        with pytest.raises(SisciError):
            bed.sim.run()

    def test_disconnect_releases_window(self, bed):
        owner, peer = bed.node(1), bed.node(2)
        seg = owner.create_segment(16, 4096)
        seg.set_available()
        conn = peer.connect_segment(owner.node_id, 16)
        assert peer.ntb.window_count() == 1
        conn.disconnect()
        assert peer.ntb.window_count() == 0

    def test_remove_blocks_while_connected(self, bed):
        owner, peer = bed.node(1), bed.node(2)
        seg = owner.create_segment(17, 4096)
        seg.set_available()
        conn = peer.connect_segment(owner.node_id, 17)
        with pytest.raises(SisciError):
            seg.remove()
        conn.disconnect()
        seg.remove()
        with pytest.raises(SisciError):
            peer.connect_segment(owner.node_id, 17)


class TestSmartIoRegistry:
    def test_device_registered_with_location(self, bed):
        devices = bed.smartio.list_devices()
        assert len(devices) == 1
        device_id, name, host_name = devices[0]
        assert name == "nvme0"
        assert host_name == "host0"
        assert bed.smartio.device_host_name(device_id) == "host0"

    def test_unknown_device(self, bed):
        with pytest.raises(SmartIoError):
            bed.smartio.acquire(999, bed.node(1))

    def test_map_remote_bar(self, bed):
        ref = bed.smartio.acquire(bed.nvme_device_id, bed.node(1))
        window = ref.map_bar(0)
        # Read the CAP register through the NTB mapping.
        out = {}

        def proc(sim):
            data = yield bed.fabric.read(bed.hosts[1].rc,
                                         bed.hosts[1], window, 8)
            out["cap"] = int.from_bytes(data, "little")

        bed.sim.process(proc(bed.sim))
        bed.sim.run()
        assert out["cap"] & 0xFFFF == 1023   # MQES

    def test_map_local_bar_is_direct(self, bed):
        ref = bed.smartio.acquire(bed.nvme_device_id, bed.node(0))
        assert ref.map_bar(0) == bed.nvme.bars[0].base


class TestAcquisition:
    def test_exclusive_blocks_others(self, bed):
        ref = bed.smartio.acquire(bed.nvme_device_id, bed.node(0),
                                  exclusive=True)
        with pytest.raises(SmartIoError):
            bed.smartio.acquire(bed.nvme_device_id, bed.node(1))
        ref.downgrade()
        other = bed.smartio.acquire(bed.nvme_device_id, bed.node(1))
        assert other is not None

    def test_exclusive_needs_no_other_refs(self, bed):
        ref1 = bed.smartio.acquire(bed.nvme_device_id, bed.node(1))
        with pytest.raises(SmartIoError):
            bed.smartio.acquire(bed.nvme_device_id, bed.node(0),
                                exclusive=True)
        ref1.release()
        ref2 = bed.smartio.acquire(bed.nvme_device_id, bed.node(0),
                                   exclusive=True)
        assert ref2.exclusive

    def test_release_cleans_windows(self, bed):
        ref = bed.smartio.acquire(bed.nvme_device_id, bed.node(1))
        ref.map_bar(0)
        assert bed.ntbs[1].window_count() == 1
        ref.release()
        assert bed.ntbs[1].window_count() == 0
        with pytest.raises(SmartIoError):
            ref.map_bar(0)

    def test_double_release_is_noop(self, bed):
        ref = bed.smartio.acquire(bed.nvme_device_id, bed.node(1))
        ref.release()
        ref.release()


class TestDmaWindows:
    def test_segment_local_to_device_is_direct(self, bed):
        ref = bed.smartio.acquire(bed.nvme_device_id, bed.node(0))
        seg = bed.node(0).create_segment(30, 8192)
        seg.set_available()
        addr = ref.map_segment_for_device(seg)
        assert addr == seg.phys_addr
        assert bed.ntbs[0].window_count() == 0

    def test_remote_segment_gets_device_side_window(self, bed):
        """The device's DMA reaches a client-host segment through a
        window on the *device host's* NTB."""
        ref = bed.smartio.acquire(bed.nvme_device_id, bed.node(1))
        seg = bed.node(1).create_segment(31, 8192)
        seg.set_available()
        dev_addr = ref.map_segment_for_device(seg)
        assert bed.ntbs[0].window_count() == 1   # device-side NTB
        # Let the device (nvme function) DMA-write through it.
        ctrl = bed.nvme

        def proc(sim):
            yield ctrl.fabric.write(ctrl.node, ctrl.host, dev_addr,
                                    b"device-sees-remote")

        bed.sim.process(proc(bed.sim))
        bed.sim.run()
        assert seg.read(0, 18) == b"device-sees-remote"


class TestHints:
    def test_placement_rules(self):
        assert SQ_HINTS.placement() is Placement.DEVICE_SIDE
        assert CQ_HINTS.placement() is Placement.CPU_SIDE
        both = AccessHints(device_reads=True, device_writes=True)
        assert both.placement() is Placement.CPU_SIDE
        cpu_polls = AccessHints(cpu_reads=True)
        assert cpu_polls.placement() is Placement.CPU_SIDE
        cpu_pushes = AccessHints(cpu_writes=True)
        assert cpu_pushes.placement() is Placement.DEVICE_SIDE

    def test_hinted_allocation_sq_lands_device_side(self, bed):
        seg = bed.smartio.alloc_segment_hinted(
            bed.node(2), bed.nvme_device_id, 4096, SQ_HINTS)
        assert seg.host is bed.hosts[0]          # device host
        assert seg.available

    def test_hinted_allocation_cq_lands_cpu_side(self, bed):
        seg = bed.smartio.alloc_segment_hinted(
            bed.node(2), bed.nvme_device_id, 4096, CQ_HINTS)
        assert seg.host is bed.hosts[2]          # requesting host

    def test_hinted_ids_unique(self, bed):
        a = bed.smartio.alloc_segment_hinted(bed.node(1),
                                             bed.nvme_device_id, 4096,
                                             CQ_HINTS)
        b = bed.smartio.alloc_segment_hinted(bed.node(1),
                                             bed.nvme_device_id, 4096,
                                             CQ_HINTS)
        assert a.id != b.id
