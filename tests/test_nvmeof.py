"""Integration tests for the NVMe-oF stack (initiator + SPDK target)."""

import numpy as np
import pytest

from repro.nvme import (CompletionEntry, IoOpcode, Status,
                        SubmissionEntry)
from repro.rdma import RdmaError, SendWR, WrOpcode
from repro.sim import Event
from repro.nvmeof import CommandCapsule, NvmeofInitiator, ResponseCapsule, SpdkTarget
from repro.driver.blockdev import BlockRequest
from repro.scenarios.testbed import RdmaTestbed


def make_stack(seed=81, queue_depth=32):
    bed = RdmaTestbed(seed=seed)
    target = SpdkTarget(bed.sim, bed.fabric, bed.target_host,
                        bed.nvme.bars[0].base, bed.target_nic, bed.config)
    bed.sim.run(until=bed.sim.process(target.start()))
    initiator = NvmeofInitiator(bed.sim, bed.initiator_host,
                                bed.initiator_nic, bed.config,
                                queue_depth=queue_depth)
    bed.sim.run(until=bed.sim.process(initiator.connect(target)))
    return bed, target, initiator


class TestCapsules:
    def test_command_roundtrip(self):
        sqe = SubmissionEntry(opcode=2, cid=42, nsid=1, cdw10=100)
        cap = CommandCapsule(sqe, buffer_addr=0x1234_5000, rkey=0x77)
        back = CommandCapsule.unpack(cap.pack())
        assert back.sqe == sqe
        assert back.buffer_addr == 0x1234_5000
        assert back.rkey == 0x77

    def test_command_with_inline_data(self):
        sqe = SubmissionEntry(opcode=1, cid=7)
        cap = CommandCapsule(sqe, inline_data=b"z" * 4096)
        back = CommandCapsule.unpack(cap.pack())
        assert back.inline_data == b"z" * 4096
        assert back.wire_size == cap.wire_size

    def test_response_roundtrip(self):
        cqe = CompletionEntry(cid=9, status=0, phase=1, sq_head=5)
        rsp = ResponseCapsule(cqe)
        assert ResponseCapsule.unpack(rsp.pack()).cqe == cqe

    def test_bad_capsules_rejected(self):
        with pytest.raises(ValueError):
            CommandCapsule.unpack(b"\x00" * 32)
        with pytest.raises(ValueError):
            ResponseCapsule.unpack(b"\x07" + b"\x00" * 31)


class TestDataPath:
    def test_write_read_roundtrip(self):
        bed, target, initiator = make_stack()
        payload = bytes((i * 3) % 256 for i in range(4096))

        def flow(sim):
            req = yield from initiator.io(BlockRequest("write", lba=40,
                                                       data=payload))
            assert req.ok, hex(req.status)
            req = yield from initiator.io(BlockRequest("read", lba=40,
                                                       nblocks=8))
            return req

        req = bed.sim.run(until=bed.sim.process(flow(bed.sim)))
        assert req.ok
        assert req.result == payload
        assert bed.nvme.namespaces[1].read_blocks(40, 8) == payload
        assert target.commands_served == 2

    def test_large_write_uses_rdma_read_pull(self):
        bed, target, initiator = make_stack()
        payload = bytes((i * 11) % 256 for i in range(32 * 1024))

        def flow(sim):
            req = yield from initiator.io(BlockRequest("write", lba=0,
                                                       data=payload))
            assert req.ok
            req = yield from initiator.io(BlockRequest("read", lba=0,
                                                       nblocks=64))
            return req

        req = bed.sim.run(until=bed.sim.process(flow(bed.sim)))
        assert req.ok and req.result == payload
        assert bed.target_nic.rdma_reads >= 1   # the pull happened

    def test_flush(self):
        bed, target, initiator = make_stack()

        def flow(sim):
            req = yield from initiator.io(BlockRequest("flush"))
            return req

        req = bed.sim.run(until=bed.sim.process(flow(bed.sim)))
        assert req.ok

    def test_queue_depth_pipelining(self):
        bed, target, initiator = make_stack(queue_depth=16)

        def flow(sim):
            start = sim.now
            events = [initiator.submit(BlockRequest("read", lba=i * 8,
                                                    nblocks=8))
                      for i in range(32)]
            yield sim.all_of(events)
            return sim.now - start

        elapsed = bed.sim.run(until=bed.sim.process(flow(bed.sim)))
        assert initiator.completed == 32
        # sequential would be ~ 32 * 19us = 615us
        assert elapsed < 350_000

    def test_latency_in_nvmeof_band(self):
        """4 KiB QD1 read over the fabric: local-linux + ~7.7 us."""
        bed, target, initiator = make_stack()

        def flow(sim):
            lat = []
            for i in range(150):
                req = yield from initiator.io(
                    BlockRequest("read", lba=i * 8, nblocks=8))
                assert req.ok
                lat.append(req.latency_ns)
            return np.array(lat)

        lat = bed.sim.run(until=bed.sim.process(flow(bed.sim)))
        # stock local min is ~11.9us; the paper's delta is 7.7us.
        assert 17_000 < lat.min() < 22_000
        assert np.median(lat) < 24_000


def test_depth_beyond_the_targets_ring_is_clamped():
    """The NVMe SQ behind a connection has 128 entries, so it holds 127
    commands: a deeper initiator used to overflow it by construction."""
    from repro.workloads import FioJob, run_fio
    bed, target, initiator = make_stack(queue_depth=160)
    assert initiator.queue_depth == 127
    assert len(target.connections[0].slots) == 127
    result = run_fio(initiator, FioJob(name="deep", rw="randread", bs=4096,
                                       iodepth=160, total_ios=400))
    assert (result.ios, result.errors) == (400, 0)


class TestLocalBuffers:
    """A SEND's local buffer must lie in a registered MR; the MR found
    for an address is remembered and checked again on every use."""

    def test_a_send_from_an_unregistered_buffer_is_refused(self):
        bed, target, initiator = make_stack(queue_depth=2)
        loose = initiator.host.alloc_dma(4096)
        sends = bed.initiator_nic.sends
        with pytest.raises(RdmaError, match="not registered"):
            initiator.qp.post_send(SendWR(wr_id=1, opcode=WrOpcode.SEND,
                                          local_addr=loose, length=64))
        bed.sim.run(until=bed.sim.now + 1_000_000)
        assert bed.initiator_nic.sends == sends         # nothing went out
        assert self._still_serves(bed, initiator)

    def test_a_remembered_region_is_checked_again(self):
        bed, target, initiator = make_stack(queue_depth=2)
        pd = initiator.pd
        addr = initiator.host.alloc_dma(4096)
        mr = pd.register(addr, 4096)
        assert pd.lookup_local(SendWR(wr_id=1, opcode=WrOpcode.SEND,
                                      local_addr=addr, length=64)) is mr
        assert pd.lookup_local(SendWR(wr_id=2, opcode=WrOpcode.SEND,
                                      local_addr=addr, length=4096)) is mr
        with pytest.raises(RdmaError, match="not registered"):
            pd.lookup_local(SendWR(wr_id=3, opcode=WrOpcode.SEND,
                                   local_addr=addr, length=4097))

    def _still_serves(self, bed, initiator):
        req = bed.sim.run(until=initiator.submit(
            BlockRequest("read", lba=0, nblocks=8)))
        return req.ok


class TestHostileCapsules:
    """The target treats a command capsule as outside input: whatever a
    hand-built one says, the answer is a defined status in bounded time,
    the data slot comes back and the pollers stay alive (first entries
    of ROADMAP's "hostile input at the NVMe-oF target" corpus)."""

    def _post(self, bed, initiator, capsule):
        done = Event(bed.sim)
        # A waiter in the command core, as its submit would register.
        initiator.commands.inflight[capsule.sqe.cid] = done
        raw = capsule.pack()
        initiator.qp.post_send(SendWR(
            wr_id=capsule.sqe.cid, opcode=WrOpcode.SEND, inline_data=raw,
            length=len(raw)))
        bed.sim.run(until=bed.sim.any_of((done,
                                          bed.sim.timeout(5_000_000))))
        assert done.triggered, "the target never answered"
        return done.value

    def _still_serves(self, bed, initiator):
        req = bed.sim.run(until=initiator.submit(
            BlockRequest("read", lba=0, nblocks=8)))
        return req.ok

    # 32 MiB used to raise out of prps_for_contiguous; 128.5 KiB and
    # 1 MiB used to pass and let the controller DMA beyond the slot.
    @pytest.mark.parametrize("nlb", [0xFFFF, 256, 2047])
    @pytest.mark.parametrize("opcode", [IoOpcode.READ, IoOpcode.WRITE])
    def test_transfer_beyond_the_slot_is_refused(self, opcode, nlb):
        bed, target, initiator = make_stack()
        conn = target.connections[0]
        baseline = len(conn.slots)
        sqe = SubmissionEntry(opcode=opcode, cid=0x51, nsid=1)
        sqe.nlb = nlb
        cqe = self._post(bed, initiator, CommandCapsule(sqe))
        assert cqe.cid == 0x51 and cqe.status == Status.INVALID_FIELD
        assert len(conn.slots) == baseline
        assert self._still_serves(bed, initiator)

    def test_inline_data_must_match_the_transfer_length(self):
        bed, target, initiator = make_stack()
        sqe = SubmissionEntry(opcode=IoOpcode.WRITE, cid=0x52, nsid=1)
        sqe.nlb = 7
        cqe = self._post(bed, initiator,
                         CommandCapsule(sqe, inline_data=b"\xee" * 512))
        assert cqe.status == Status.INVALID_FIELD
        assert bed.nvme.namespaces[1].read_blocks(0, 8) == bytes(4096)

    def test_failed_pull_never_reaches_the_medium(self):
        bed, target, initiator = make_stack()
        conn = target.connections[0]
        baseline = len(conn.slots)
        # An honest write first, so the slot holds somebody's bytes.
        req = bed.sim.run(until=initiator.submit(
            BlockRequest("write", lba=8, data=b"\xab" * 4096)))
        assert req.ok
        sqe = SubmissionEntry(opcode=IoOpcode.WRITE, cid=0x53, nsid=1)
        sqe.slba, sqe.nlb = 100, 7
        # No in-capsule data and a descriptor nobody registered: the
        # target's RDMA_READ completes in error.
        cqe = self._post(bed, initiator, CommandCapsule(sqe))
        assert cqe.status == Status.DATA_TRANSFER_ERROR
        assert bed.nvme.namespaces[1].read_blocks(100, 8) == bytes(4096)
        assert len(conn.slots) == baseline
        assert self._still_serves(bed, initiator)

    def test_read_data_with_no_region_to_land_in_is_refused(self):
        """The descriptor names a buffer nobody registered: the push
        would fail at the NIC, so the capsule is refused on arrival (it
        used to be answered SUCCESS with the buffer never written)."""
        bed, target, initiator = make_stack()
        conn = target.connections[0]
        baseline = len(conn.slots)
        loose = initiator.host.alloc_dma(4096)
        sqe = SubmissionEntry(opcode=IoOpcode.READ, cid=0x61, nsid=1)
        sqe.slba, sqe.nlb = 8, 7
        pushes = bed.target_nic.rdma_writes
        cqe = self._post(bed, initiator, CommandCapsule(
            sqe, buffer_addr=loose, rkey=0xdead))
        assert cqe.cid == 0x61 and cqe.status == Status.DATA_TRANSFER_ERROR
        assert bed.target_nic.rdma_writes == pushes
        assert target.commands_served == 0
        assert len(conn.slots) == baseline
        assert self._still_serves(bed, initiator)

    @pytest.mark.parametrize("raw", [
        b"\x00" * 32,                                       # too short
        b"\x02" + CommandCapsule(SubmissionEntry(cid=1)).pack()[1:],
        CommandCapsule(SubmissionEntry(opcode=IoOpcode.WRITE, cid=2),
                       inline_data=b"\xee" * 512).pack()[:-100],
    ], ids=["short", "response-type", "truncated-inline"])
    def test_a_send_that_does_not_unpack_is_counted_and_dropped(self, raw):
        """There is no cid to answer under: the target counts it,
        re-posts the receive buffer and keeps polling (it used to raise
        ``ValueError`` out of the recv poller, i.e. out of sim.run())."""
        bed, target, initiator = make_stack()
        conn = target.connections[0]
        baseline = len(conn.slots)
        posted = len(conn.qp.recv_queue)
        initiator.qp.post_send(SendWR(
            wr_id=0x54, opcode=WrOpcode.SEND, inline_data=raw,
            length=len(raw)))
        bed.sim.run(until=bed.sim.timeout(1_000_000))
        assert target.malformed_capsules == 1
        assert len(conn.qp.recv_queue) == posted
        assert len(conn.slots) == baseline
        assert self._still_serves(bed, initiator)

    def test_a_cid_already_in_flight_is_refused(self):
        """The second capsule used to overwrite the first's context and
        leak its data slot for good."""
        bed, target, initiator = make_stack()
        conn = target.connections[0]
        baseline = len(conn.slots)
        answers = []
        buf = initiator.host.alloc_dma(4096)
        rkey = initiator.pd.register(buf, 4096).rkey
        for _ in range(2):
            sqe = SubmissionEntry(opcode=IoOpcode.READ, cid=0x55, nsid=1)
            sqe.nlb = 7
            raw = CommandCapsule(sqe, buffer_addr=buf, rkey=rkey).pack()
            initiator.qp.post_send(SendWR(
                wr_id=0x55, opcode=WrOpcode.SEND, inline_data=raw,
                length=len(raw)))
        for _ in range(2):
            done = Event(bed.sim)
            initiator.commands.inflight[0x55] = done
            bed.sim.run(until=bed.sim.any_of((done,
                                              bed.sim.timeout(5_000_000))))
            assert done.triggered, "the target never answered"
            answers.append(done.value.status)
        # The refusal never reaches the controller, so it comes back
        # first; the command it collided with is served as usual.
        assert answers == [Status.CID_CONFLICT, Status.SUCCESS]
        assert conn.nvme.inflight == {} and conn.cids == {}
        assert len(conn.slots) == baseline
        assert self._still_serves(bed, initiator)
