"""Multi-namespace support: attach, identify list, isolated I/O."""

import pytest

from repro.config import SimulationConfig
from repro.driver import BlockRequest, SpdkLocalDriver
from repro.nvme import AdminOpcode, IoOpcode, SubmissionEntry
from repro.nvme.constants import CNS_ACTIVE_NS_LIST
from repro.scenarios.testbed import LocalTestbed


def make_bed(extra_namespaces=2, seed=260):
    bed = LocalTestbed(seed=seed)
    nsids = [1]
    for _ in range(extra_namespaces):
        nsids.append(bed.nvme.add_namespace(capacity_lbas=1_000_000))
    drv = SpdkLocalDriver(bed.sim, bed.fabric, bed.host,
                          bed.nvme.bars[0].base, bed.config)
    bed.sim.run(until=bed.sim.process(drv.start()))
    return bed, drv, nsids


class TestNamespaceManagement:
    def test_nsid_assignment(self):
        bed, drv, nsids = make_bed()
        assert nsids == [1, 2, 3]
        assert set(bed.nvme.namespaces) == {1, 2, 3}

    def test_identify_controller_reports_count(self):
        bed, drv, nsids = make_bed()

        def flow(sim):
            ident = yield from drv.admin.identify_controller()
            return ident

        ident = bed.sim.run(until=bed.sim.process(flow(bed.sim)))
        assert ident.nn == 3

    def test_active_namespace_list(self):
        bed, drv, nsids = make_bed()

        def flow(sim):
            cpu, dev = drv.admin.pool.alloc(4096)
            yield from drv.admin.submit_ok(SubmissionEntry(
                opcode=AdminOpcode.IDENTIFY, nsid=0, prp1=dev,
                cdw10=CNS_ACTIVE_NS_LIST))
            data = bed.host.memory.read(cpu, 4096)
            drv.admin.pool.free(cpu)
            return [int.from_bytes(data[i * 4:(i + 1) * 4], "little")
                    for i in range(4)]

        ids = bed.sim.run(until=bed.sim.process(flow(bed.sim)))
        assert ids == [1, 2, 3, 0]

    def test_active_list_respects_floor_nsid(self):
        bed, drv, nsids = make_bed()

        def flow(sim):
            cpu, dev = drv.admin.pool.alloc(4096)
            yield from drv.admin.submit_ok(SubmissionEntry(
                opcode=AdminOpcode.IDENTIFY, nsid=1, prp1=dev,
                cdw10=CNS_ACTIVE_NS_LIST))
            data = bed.host.memory.read(cpu, 4096)
            drv.admin.pool.free(cpu)
            return [int.from_bytes(data[i * 4:(i + 1) * 4], "little")
                    for i in range(3)]

        ids = bed.sim.run(until=bed.sim.process(flow(bed.sim)))
        assert ids == [2, 3, 0]

    def test_identify_second_namespace_geometry(self):
        bed, drv, nsids = make_bed()

        def flow(sim):
            ident = yield from drv.admin.identify_namespace(2)
            return ident

        ident = bed.sim.run(until=bed.sim.process(flow(bed.sim)))
        assert ident.nsze == 1_000_000


class TestNamespaceIsolation:
    def test_namespaces_hold_independent_data(self):
        """Raw commands to ns1 and ns2 at the same LBA do not clash."""
        bed, drv, nsids = make_bed()
        ns1 = bed.nvme.namespaces[1]
        ns2 = bed.nvme.namespaces[2]
        ns1.write_blocks(0, b"\x11" * 512)
        ns2.write_blocks(0, b"\x22" * 512)
        assert ns1.read_blocks(0, 1) == b"\x11" * 512
        assert ns2.read_blocks(0, 1) == b"\x22" * 512

    def test_io_to_second_namespace_via_queue(self):
        """Submit raw NVMe I/O against nsid=2 through the real queue."""
        bed, drv, nsids = make_bed()

        def flow(sim):
            # write via bare SQE to ns2
            alloc = bed.host.alloc_dma(8192)
            buf = alloc + 4096
            bed.host.memory.write(buf, b"\x77" * 4096)
            sqe = SubmissionEntry(opcode=IoOpcode.WRITE, nsid=2,
                                  prp1=buf)
            sqe.prp2 = 0
            sqe.slba = 16
            sqe.nlb = 7
            cqe = yield drv._qp.submit(sqe)
            return cqe

        cqe = bed.sim.run(until=bed.sim.process(flow(bed.sim)))
        assert cqe.ok
        assert bed.nvme.namespaces[2].read_blocks(16, 8) == b"\x77" * 4096
        # ns1 untouched at that LBA
        assert bed.nvme.namespaces[1].read_blocks(16, 8) == bytes(4096)
