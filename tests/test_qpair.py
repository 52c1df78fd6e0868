"""Unit tests for the queue-pair core (repro.driver.qpair): the ring
mechanics every driver stack shares, driven here without a controller —
a producer-side ``CompletionQueueState`` plays the device and a recording
fabric stands in for the BAR."""

import types

import pytest

from repro.driver.blockdev import BlockRequest
from repro.driver.qpair import (IO_OPCODES, QueuePair, io_sqe,
                                usable_depth)
from repro.memory import HostMemory
from repro.nvme import (CompletionEntry, CompletionQueueState, IoOpcode,
                        SubmissionEntry, cq_doorbell_offset,
                        sq_doorbell_offset)
from repro.sim import Simulator

BAR = 0xF000_0000
QID = 3
SQ_ADDR, CQ_ADDR = 0x1000_0000, 0x1000_4000


class RecordingFabric:
    """Doorbell stores as ``(register offset, value)``."""

    def __init__(self):
        self.rings = []

    def post_write(self, rc, host, addr, data):
        self.rings.append((addr - BAR, int.from_bytes(data, "little")))
        return types.SimpleNamespace(callbacks=[])

    def count(self, offset):
        return sum(1 for at, _value in self.rings if at == offset)


class Rig:
    def __init__(self, entries=4, **kwargs):
        self.sim = Simulator(seed=5)
        self.memory = HostMemory(self.sim, 1 << 20)
        self.fabric = RecordingFabric()
        host = types.SimpleNamespace(memory=self.memory, rc=object())
        self.qp = QueuePair.local(self.sim, self.fabric, host, BAR, QID,
                                  entries, SQ_ADDR, CQ_ADDR, **kwargs)
        # The device's view of the same CQ ring.
        self.device_cq = CompletionQueueState(qid=QID, base_addr=CQ_ADDR,
                                              entries=entries,
                                              probe=self.sim.probe)

    def complete(self, cid, deliver=True):
        """The device (which has fetched everything submitted so far)
        completes ``cid``; ``deliver=False`` loses the CQE write on the
        way (the producer still advances)."""
        slot, phase = self.device_cq.produce_slot()
        if deliver:
            cqe = CompletionEntry(cid=cid, phase=phase,
                                  sq_head=self.qp.sq.tail)
            self.memory.write(self.device_cq.slot_addr(slot), cqe.pack())

    def submit(self):
        return self.qp.submit(SubmissionEntry(opcode=IoOpcode.FLUSH))


class TestSubmit:
    def test_store_lands_before_the_ring_and_cids_are_fresh(self):
        rig = Rig(entries=8)
        waiters = [rig.submit() for _ in range(3)]
        assert sorted(rig.qp.inflight) == [1, 2, 3]
        assert [w.triggered for w in waiters] == [False] * 3
        stored = [SubmissionEntry.unpack(
            rig.memory.read(SQ_ADDR + 64 * slot, 64)).cid
            for slot in range(3)]
        assert stored == [1, 2, 3]
        assert rig.fabric.rings == [(sq_doorbell_offset(QID), tail)
                                    for tail in (1, 2, 3)]

    def test_issue_keeps_the_callers_cid_and_registers_no_waiter(self):
        """The NVMe-oF target's entry: the initiator's cid goes through
        to the NVMe SQ untouched."""
        rig = Rig()
        rig.qp.issue(SubmissionEntry(opcode=IoOpcode.READ, cid=0xBEEF))
        assert SubmissionEntry.unpack(
            rig.memory.read(SQ_ADDR, 64)).cid == 0xBEEF
        assert rig.qp.inflight == {}
        assert rig.fabric.rings == [(sq_doorbell_offset(QID), 1)]
        assert rig.qp.next_cid() == 1       # the fresh-cid counter untouched

    def test_window_producer_stores_at_its_slots_and_never_rings(self):
        """A shared-QP tenant: slot window, tenant-tagged cids, doorbell
        left to the tenant's own ring step."""
        rung = []
        rig = Rig(entries=4, first_slot=8, ring=rung.append, cq_bell=False,
                  cid_base=0x3000, cid_span=0x1000)
        rig.submit()
        assert list(rig.qp.inflight) == [0x3001]
        assert SubmissionEntry.unpack(
            rig.memory.read(SQ_ADDR + 8 * 64, 64)).cid == 0x3001
        assert rung == [None]               # once, after the store
        rig.complete(0x3001)
        assert rig.qp.drain() == 1
        assert rig.fabric.rings == []
        rig.qp._cid = 0xFFF                 # sequence wraps inside the tag
        rig.submit()
        assert 0x3000 in rig.qp.inflight


class TestConsume:
    def test_phase_flips_across_two_laps(self):
        rig = Rig(entries=4)
        seen = []
        for lap in range(2):
            for _ in range(4):
                done = rig.submit()
                cid = max(rig.qp.inflight)
                rig.complete(cid)
                assert rig.qp.drain() == 1
                rig.sim.run()
                seen.append((done.value.cid, done.value.phase))
            assert rig.qp.cq.head == 0 and rig.qp.cq.phase == lap
        assert [phase for _cid, phase in seen] == [1] * 4 + [0] * 4
        assert [cid for cid, _phase in seen] == list(range(1, 9))
        # Nothing ready: the stale entry at the head carries the old tag.
        assert rig.qp.drain() == 0 and rig.qp.pop() is None

    def test_drain_rings_once_pop_rings_per_entry(self):
        rig = Rig(entries=8)
        for _ in range(3):
            rig.submit()
        for cid in (1, 2, 3):
            rig.complete(cid)
        assert rig.qp.drain() == 3
        assert rig.fabric.count(cq_doorbell_offset(QID)) == 1
        assert rig.fabric.rings[-1] == (cq_doorbell_offset(QID), 3)
        assert rig.qp.inflight == {} and rig.qp.sq.head == 3

        for cid in (7, 8):
            rig.complete(cid)
        assert [rig.qp.pop().cid, rig.qp.pop().cid] == [7, 8]
        assert rig.qp.pop() is None
        assert rig.fabric.count(cq_doorbell_offset(QID)) == 3
        assert rig.qp.stale == 0            # pop leaves waiters alone

    def test_unknown_cid_is_counted_stale_not_delivered(self):
        rig = Rig()
        done = rig.submit()
        rig.complete(0x77)
        assert rig.qp.drain() == 1
        assert rig.qp.stale == 1 and not done.triggered

    def test_completion_delay_is_charged_on_the_trigger(self):
        rig = Rig(complete_delay=700)
        done = rig.submit()
        rig.complete(1)
        rig.qp.drain()
        rig.sim.run(until=done)
        assert rig.sim.now == 700

    def test_custom_sink_replaces_waiter_completion(self):
        """The manager's demux: a CQ consumer with no SQ."""
        sim = Simulator(seed=1)
        memory = HostMemory(sim, 1 << 20)
        fabric = RecordingFabric()
        got = []
        host = types.SimpleNamespace(memory=memory, rc=object())
        cq = CompletionQueueState(qid=QID, base_addr=CQ_ADDR, entries=4,
                                  probe=sim.probe)
        demux = QueuePair(sim, fabric, host, BAR, None, None, cq,
                          sink=got.append)
        memory.write(CQ_ADDR, CompletionEntry(cid=0x2005, phase=1).pack())
        assert demux.drain() == 1
        assert [cqe.cid for cqe in got] == [0x2005] and demux.stale == 0
        assert fabric.rings == [(cq_doorbell_offset(QID), 1)]


class TestResync:
    def test_recovers_past_two_holes_in_order(self):
        rig = Rig(entries=8)
        waiters = {cid: rig.submit() for cid in range(1, 6)}
        for cid, deliver in ((1, False), (2, True), (3, False), (4, True),
                             (5, True)):
            rig.complete(cid, deliver)
        assert rig.qp.drain() == 0          # wedged at the first hole
        assert rig.qp.resync() == 3
        rig.sim.run()
        assert [cid for cid, ev in waiters.items() if ev.triggered] \
            == [2, 4, 5]
        assert sorted(rig.qp.inflight) == [1, 3]   # left to their timeouts
        assert rig.qp.cq.head == 5
        assert rig.fabric.rings[-1] == (cq_doorbell_offset(QID), 5)
        # Nothing further ahead, and the skipped holes (which kept the
        # previous lap's tag, i.e. the next lap's) are not taken for
        # fresh entries by a scan that wraps onto them.
        assert rig.qp.resync() == 0 and rig.qp.stale == 0

    def test_holes_across_the_wrap_use_the_next_laps_tag(self):
        rig = Rig(entries=4)
        for _ in range(3):                  # head to slot 3, healthy
            rig.submit()
            rig.complete(max(rig.qp.inflight))
            rig.qp.drain()
        for _ in range(3):
            rig.submit()
        rig.complete(4, deliver=False)      # slot 3, this lap
        rig.complete(5, deliver=False)      # slot 0, next lap
        rig.complete(6)                     # slot 1, next lap: tag 0
        assert rig.qp.resync() == 1
        assert rig.qp.cq.head == 2 and rig.qp.cq.phase == 0
        assert sorted(rig.qp.inflight) == [4, 5]

    def test_stale_ring_content_is_not_mistaken_for_fresh(self):
        rig = Rig(entries=4)
        for _ in range(4):                  # one full healthy lap
            rig.submit()
            rig.complete(max(rig.qp.inflight))
            rig.qp.drain()
        assert rig.qp.resync() == 0


class TestFailAll:
    def test_every_waiter_gets_the_status_in_cid_order(self):
        rig = Rig(entries=8)
        waiters = [rig.submit() for _ in range(3)]
        order = []
        for ev in waiters:
            ev.callbacks.append(lambda ev: order.append(ev.value.cid))
        rig.qp.fail_all(0x702)
        rig.sim.run()
        assert order == [1, 2, 3]
        assert all(ev.value.status == 0x702 for ev in waiters)
        assert rig.qp.inflight == {}


class TestNotice:
    def test_poll_draws_from_its_stream_and_unwatches_when_stopped(self):
        rig = Rig(entries=4)
        done = rig.submit()
        proc = rig.qp.poll("poll:test", 100)
        rig.sim.run(until=rig.sim.timeout(1_000))
        assert not done.triggered
        rig.complete(1)
        rig.sim.run(until=done)
        expected = int(Simulator(seed=5).rng.stream("poll:test")
                       .integers(0, 101))
        assert rig.sim.now == 1_000 + expected
        proc.interrupt()
        rig.sim.run()
        assert not proc.is_alive and rig.memory._watchpoints == []

    def test_interrupt_pays_irq_latency_then_drains(self):
        rig = Rig(entries=4)
        mailbox = 0x1000_8000
        done = rig.submit()
        rig.qp.on_interrupt(mailbox, 900)
        rig.sim.run(until=rig.sim.timeout(500))
        rig.complete(1)                     # CQE alone wakes nobody
        rig.sim.run(until=rig.sim.timeout(500))
        assert not done.triggered
        rig.memory.write(mailbox, (1).to_bytes(4, "little"))
        rig.sim.run(until=done)
        assert rig.sim.now == 1_000 + 900


class TestBuilders:
    def test_one_opcode_table_for_every_op(self):
        assert set(IO_OPCODES) == {"read", "write", "flush", "compare",
                                   "write_zeroes"}
        sqe = io_sqe(BlockRequest("write_zeroes", lba=(1 << 33) + 5,
                                  nblocks=16), nsid=2)
        assert (sqe.opcode, sqe.nsid, sqe.slba, sqe.nlb) \
            == (IoOpcode.WRITE_ZEROES, 2, (1 << 33) + 5, 15)
        flush = io_sqe(BlockRequest("flush"))
        assert (flush.opcode, flush.slba, flush.nlb) == (IoOpcode.FLUSH, 0, 0)

    @pytest.mark.parametrize("depth, entries, usable",
                             [(8, 8, 7), (64, 8, 7), (7, 8, 7), (1, 2, 1)])
    def test_usable_depth(self, depth, entries, usable):
        assert usable_depth(depth, entries) == usable
