"""Testbed wiring invariants and system edge cases."""

import pytest

from repro.config import SimulationConfig
from repro.driver import (ClientError, DistributedNvmeClient, NvmeManager)
from repro.faults import FaultPlan
from repro.memory import OutOfSpace
from repro.pcie import NtbError
from repro.scenarios.testbed import LocalTestbed, PcieTestbed, RdmaTestbed
from repro.sisci import SisciError
from repro.units import MiB


class TestPcieTestbedWiring:
    def test_remote_path_crosses_three_chips(self):
        """Paper Fig. 9b: adapter + cluster switch + adapter."""
        bed = PcieTestbed(n_hosts=2, seed=1)
        path = bed.cluster.path(bed.hosts[1].rc, bed.hosts[0].rc)
        chips = [n for n in path if n.kind == "switch"]
        assert len(chips) == 3

    def test_extra_chips_extend_host0_path_only(self):
        bed = PcieTestbed(n_hosts=3, seed=2, extra_path_chips=2)
        to_dev = bed.cluster.path(bed.hosts[1].rc, bed.hosts[0].rc)
        chips = [n for n in to_dev if n.kind == "switch"]
        assert len(chips) == 5
        # host1 <-> host2 path is unaffected
        lateral = bed.cluster.path(bed.hosts[1].rc, bed.hosts[2].rc)
        assert len([n for n in lateral if n.kind == "switch"]) == 3

    def test_nvme_registered_with_smartio(self):
        bed = PcieTestbed(n_hosts=2, seed=3)
        devices = bed.smartio.list_devices()
        assert [d[1] for d in devices] == ["nvme0"]

    def test_install_second_nvme(self):
        bed = PcieTestbed(n_hosts=2, seed=4)
        second = bed.install_nvme(1, name="nvme1")
        assert len(bed.smartio.list_devices()) == 2
        assert second.host is bed.hosts[1]

    def test_sisci_node_ids_stable(self):
        bed = PcieTestbed(n_hosts=3, seed=5)
        assert [n.node_id for n in bed.sisci_nodes] == [4, 5, 6]


class TestRdmaTestbedWiring:
    def test_nics_attached_and_linked(self):
        bed = RdmaTestbed(seed=6)
        assert bed.target_nic._peer_nic is bed.initiator_nic
        assert bed.initiator_nic._peer_nic is bed.target_nic
        assert bed.nvme.host is bed.target_host

    def test_no_ntb_between_hosts(self):
        from repro.pcie import TopologyError
        bed = RdmaTestbed(seed=7)
        with pytest.raises(TopologyError):
            bed.cluster.path(bed.initiator_host.rc, bed.target_host.rc)


class TestResourceExhaustion:
    def test_ntb_aperture_exhaustion(self):
        bed = PcieTestbed(n_hosts=2, seed=8)
        ntb = bed.ntbs[1]
        size = bed.config.cluster.ntb_aperture_bytes
        ntb.map_window(bed.hosts[0], bed.hosts[0].memory.base, size // 2)
        ntb.map_window(bed.hosts[0],
                       bed.hosts[0].memory.base, size // 2)
        with pytest.raises(OutOfSpace):
            ntb.map_window(bed.hosts[0], bed.hosts[0].memory.base, 4096)

    def test_dram_exhaustion_surfaces(self):
        bed = PcieTestbed(n_hosts=2, seed=9, dram_size=1 * MiB)
        bed.hosts[1].alloc_dma(1 * MiB - 8192)
        with pytest.raises(OutOfSpace):
            bed.hosts[1].alloc_dma(64 * 1024)

    def test_queue_depth_clamped_to_entries(self):
        bed = PcieTestbed(n_hosts=2, seed=10)
        manager = NvmeManager(bed.sim, bed.smartio, bed.node(0),
                              bed.nvme_device_id, bed.config)
        bed.sim.run(until=bed.sim.process(manager.start()))
        client = DistributedNvmeClient(bed.sim, bed.smartio, bed.node(1),
                                       bed.nvme_device_id, bed.config,
                                       queue_entries=16, queue_depth=64)
        assert client.queue_depth == 15   # entries - 1


class TestControllerFairness:
    def test_two_queues_share_media_fairly(self):
        """Two clients with identical load complete within ~20% of each
        other — per-SQ fetch workers + FIFO media channels arbitrate
        fairly, as NVMe round-robin would."""
        from repro.workloads import FioJob, run_fio_many
        bed = PcieTestbed(n_hosts=3, seed=11)
        manager = NvmeManager(bed.sim, bed.smartio, bed.node(0),
                              bed.nvme_device_id, bed.config)
        bed.sim.run(until=bed.sim.process(manager.start()))
        clients = []
        for i in (1, 2):
            c = DistributedNvmeClient(bed.sim, bed.smartio, bed.node(i),
                                      bed.nvme_device_id, bed.config,
                                      slot_index=i, queue_depth=8)
            bed.sim.run(until=bed.sim.process(c.start()))
            clients.append(c)
        jobs = [(c, FioJob(name=f"f{i}", rw="randread", iodepth=8,
                           total_ios=400, region_lbas=1 << 20))
                for i, c in enumerate(clients)]
        results = run_fio_many(jobs)
        iops = [r.iops for r in results]
        assert min(iops) > 0.8 * max(iops)


class TestSegmentEdgeCases:
    def test_connect_before_available_after_remove(self):
        bed = PcieTestbed(n_hosts=2, seed=12)
        seg = bed.node(0).create_segment(60, 4096)
        seg.set_available()
        seg.set_unavailable()
        with pytest.raises(SisciError):
            bed.node(1).connect_segment(bed.node(0).node_id, 60)

    def test_client_slot_collision_is_isolated(self):
        """Two clients sharing a mailbox slot is a configuration error;
        distinct slots must never interfere (regression guard)."""
        bed = PcieTestbed(n_hosts=2, seed=13)
        manager = NvmeManager(bed.sim, bed.smartio, bed.node(0),
                              bed.nvme_device_id, bed.config)
        bed.sim.run(until=bed.sim.process(manager.start()))
        a = DistributedNvmeClient(bed.sim, bed.smartio, bed.node(1),
                                  bed.nvme_device_id, bed.config,
                                  slot_index=5)
        b = DistributedNvmeClient(bed.sim, bed.smartio, bed.node(1),
                                  bed.nvme_device_id, bed.config,
                                  slot_index=6)
        bed.sim.run(until=bed.sim.process(a.start()))
        bed.sim.run(until=bed.sim.process(b.start()))
        assert {a.qid, b.qid} == {1, 2}


class TestLocalTestbed:
    def test_minimal_shape(self):
        bed = LocalTestbed(seed=14)
        path = bed.cluster.path(bed.host.rc, bed.nvme.node)
        assert len(path) == 2      # RC -> endpoint, no switches
        assert bed.nvme.regs.cap & 0xFFFF == 1023



class TestNoSilentlyDroppedArguments:
    """At 65c7b56 ``cluster()`` applied ``reliability=`` only under
    ``faults=True`` and dropped ``plan=`` / ``trace_categories=``
    without it: ``repro slo --no-kill`` and both arms of the SLO
    overhead benchmark of that time ran with timeouts, heartbeats and
    leases off while claiming the SLO profile."""

    def test_reliability_is_plain_config(self):
        from repro.run import SLO_RELIABILITY
        from repro.scenarios import cluster
        rig = cluster(n_clients=2, n_devices=2,
                      reliability=SLO_RELIABILITY)
        assert rig.testbed.config.reliability == SLO_RELIABILITY
        assert all(path.config.reliability.command_timeout_ns == 500_000
                   for path in rig.subclients)
        assert rig.injector is None and rig.tracer is None

    @pytest.mark.parametrize("dropped", [{"plan": FaultPlan(())}])
    def test_fault_arguments_need_faults(self, dropped):
        from repro.scenarios import cluster
        with pytest.raises(ValueError, match="faults=True"):
            cluster(n_clients=1, n_devices=1, **dropped)
