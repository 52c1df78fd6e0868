"""Direct coverage for the shared admin-queue layer and DMA pools."""

import pytest

from repro.driver import AdminError, AdminQueues, DmaPool, local_pool
from repro.nvme import AdminOpcode, SubmissionEntry
from repro.nvme.constants import FEAT_NUM_QUEUES
from repro.scenarios.testbed import LocalTestbed


def make_admin(seed=500):
    bed = LocalTestbed(seed=seed)
    admin = AdminQueues(bed.sim, bed.fabric, bed.host,
                        bed.nvme.bars[0].base, bed.config)
    return bed, admin


class TestAdminQueues:
    def test_enable_disable_cycle(self):
        bed, admin = make_admin()

        def flow(sim):
            yield from admin.enable_controller()
            assert bed.nvme.regs.ready
            yield from admin.disable_controller()
            assert not bed.nvme.regs.ready

        bed.sim.run(until=bed.sim.process(flow(bed.sim)))

    def test_identify_and_queue_count(self):
        bed, admin = make_admin()

        def flow(sim):
            yield from admin.enable_controller()
            ident = yield from admin.identify_controller()
            count = yield from admin.get_queue_count()
            return ident, count

        ident, count = bed.sim.run(until=bed.sim.process(flow(bed.sim)))
        assert ident.nn == 1
        assert count == 31

    def test_submit_ok_raises_on_error_status(self):
        bed, admin = make_admin()

        def flow(sim):
            yield from admin.enable_controller()
            # delete a queue that was never created
            yield from admin.submit_ok(SubmissionEntry(
                opcode=AdminOpcode.DELETE_IO_SQ, cdw10=9))

        proc = bed.sim.process(flow(bed.sim))
        with pytest.raises(AdminError):
            bed.sim.run(until=proc)

    def test_queue_lifecycle_via_helpers(self):
        bed, admin = make_admin()

        def flow(sim):
            yield from admin.enable_controller()
            cq_mem = bed.host.alloc_dma(64 * 16)
            sq_mem = bed.host.alloc_dma(64 * 64)
            yield from admin.create_io_cq(3, 64, cq_mem)
            yield from admin.create_io_sq(3, 64, sq_mem, cqid=3)
            assert bed.nvme.io_queue_count == 1
            yield from admin.delete_io_sq(3)
            yield from admin.delete_io_cq(3)
            assert bed.nvme.io_queue_count == 0

        bed.sim.run(until=bed.sim.process(flow(bed.sim)))


    def test_two_commands_in_flight_each_get_their_own_completion(self):
        """Two ``submit``s at once on one admin queue pair, no manager
        lock: the second is issued at the instant the first one's CQE
        lands, ahead of the first waiter's wake-up, so it is the first
        to find a CQE ready (the first command's).  Each must still end
        with the CQE of its own cid."""
        bed, admin = make_admin()
        sim = bed.sim
        got = {}

        def one(name, sqe):
            cqe = yield from admin.submit(sqe)
            got[name] = (sqe.cid, cqe.cid, cqe.status)

        def flow(sim):
            yield from admin.enable_controller()
            # Watching the admin CQ ahead of the first submit's own
            # watch: this flow wakes first when the first CQE lands.
            wp = admin._qp.watch()
            first = sim.process(one("features", SubmissionEntry(
                opcode=AdminOpcode.GET_FEATURES, cdw10=FEAT_NUM_QUEUES)))
            yield wp.signal.wait()
            bed.host.memory.unwatch(wp)
            second = sim.process(one("delete", SubmissionEntry(
                opcode=AdminOpcode.DELETE_IO_SQ, cdw10=9)))
            yield first
            yield second

        sim.run(until=sim.process(flow(sim)))
        issued, landed, status = got["features"]
        assert landed == issued and status == 0
        issued, landed, status = got["delete"]
        assert landed == issued and status != 0
        assert not admin._landed


class TestDmaPool:
    def test_local_pool_identity_translation(self):
        bed, _ = make_admin(seed=501)
        pool = local_pool(bed.host, 64 * 1024)
        cpu, dev = pool.alloc(4096)
        assert cpu == dev
        assert pool.to_device(cpu) == cpu
        pool.free(cpu)

    def test_offset_pool_translation(self):
        bed, _ = make_admin(seed=502)
        base = bed.host.alloc_dma(64 * 1024)
        pool = DmaPool(bed.host, base, 0xDEAD_0000, 64 * 1024)
        cpu, dev = pool.alloc(4096)
        assert dev - 0xDEAD_0000 == cpu - base
        with pytest.raises(ValueError):
            pool.to_device(base - 1)

    def test_pool_alignment(self):
        bed, _ = make_admin(seed=503)
        pool = local_pool(bed.host, 64 * 1024)
        cpu, _dev = pool.alloc(100, alignment=4096)
        assert cpu % 4096 == 0
