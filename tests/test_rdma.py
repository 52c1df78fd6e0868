"""Tests for the RDMA substrate: QPs, SEND/RDMA_WRITE/RDMA_READ."""

import pytest

from repro.config import RdmaConfig
from repro.rdma import (CompletionQueue, IbLink, ProtectionDomain, QueuePair,
                        RdmaError, RecvWR, SendWR, WrOpcode, WcStatus)
from repro.scenarios.testbed import RdmaTestbed
from repro.sim import Simulator


@pytest.fixture()
def bed():
    return RdmaTestbed(seed=71)


def make_qp_pair(bed):
    pd_t = ProtectionDomain(bed.target_host)
    pd_i = ProtectionDomain(bed.initiator_host)
    qp_t = QueuePair(bed.target_nic, pd_t,
                     CompletionQueue(bed.sim, "t-send"),
                     CompletionQueue(bed.sim, "t-recv"), name="t")
    qp_i = QueuePair(bed.initiator_nic, pd_i,
                     CompletionQueue(bed.sim, "i-send"),
                     CompletionQueue(bed.sim, "i-recv"), name="i")
    qp_i.connect(qp_t)
    return pd_t, pd_i, qp_t, qp_i


class TestSend:
    def test_send_delivers_to_posted_recv(self, bed):
        pd_t, pd_i, qp_t, qp_i = make_qp_pair(bed)
        src = bed.initiator_host.alloc_dma(4096)
        dst = bed.target_host.alloc_dma(4096)
        pd_i.register(src, 4096)
        pd_t.register(dst, 4096)
        bed.initiator_host.memory.write(src, b"capsule-data")
        qp_t.post_recv(RecvWR(wr_id=1, addr=dst, length=4096))
        qp_i.post_send(SendWR(wr_id=2, opcode=WrOpcode.SEND,
                              local_addr=src, length=12))
        bed.sim.run(until=bed.sim.now + 1_000_000)
        assert bed.target_host.memory.read(dst, 12) == b"capsule-data"
        recv_wcs = qp_t.recv_cq.poll()
        assert len(recv_wcs) == 1
        assert recv_wcs[0].byte_len == 12 and recv_wcs[0].is_recv
        send_wcs = qp_i.send_cq.poll()
        assert send_wcs[0].status is WcStatus.SUCCESS

    def test_inline_send_skips_fetch(self, bed):
        pd_t, pd_i, qp_t, qp_i = make_qp_pair(bed)
        dst = bed.target_host.alloc_dma(4096)
        qp_t.post_recv(RecvWR(wr_id=1, addr=dst, length=4096))
        qp_i.post_send(SendWR(wr_id=2, opcode=WrOpcode.SEND,
                              inline_data=b"tiny", length=4))
        bed.sim.run(until=bed.sim.now + 1_000_000)
        assert bed.target_host.memory.read(dst, 4) == b"tiny"

    def test_send_without_recv_fails(self, bed):
        pd_t, pd_i, qp_t, qp_i = make_qp_pair(bed)
        qp_i.post_send(SendWR(wr_id=1, opcode=WrOpcode.SEND,
                              inline_data=b"x", length=1))
        bed.sim.run(until=bed.sim.now + 1_000_000)
        wcs = qp_i.send_cq.poll()
        assert wcs[0].status is WcStatus.LOCAL_ERROR

    def test_unconnected_qp_rejected(self, bed):
        pd = ProtectionDomain(bed.initiator_host)
        qp = QueuePair(bed.initiator_nic, pd,
                       CompletionQueue(bed.sim, "s"),
                       CompletionQueue(bed.sim, "r"))
        with pytest.raises(RdmaError):
            qp.post_send(SendWR(wr_id=1, opcode=WrOpcode.SEND,
                                inline_data=b"x", length=1))


class TestOneSided:
    def test_rdma_write(self, bed):
        pd_t, pd_i, qp_t, qp_i = make_qp_pair(bed)
        src = bed.initiator_host.alloc_dma(8192)
        dst = bed.target_host.alloc_dma(8192)
        pd_i.register(src, 8192)
        mr = pd_t.register(dst, 8192)
        payload = bytes(range(256)) * 32
        bed.initiator_host.memory.write(src, payload)
        qp_i.post_send(SendWR(wr_id=5, opcode=WrOpcode.RDMA_WRITE,
                              local_addr=src, length=8192,
                              remote_addr=dst, rkey=mr.rkey))
        bed.sim.run(until=bed.sim.now + 1_000_000)
        assert bed.target_host.memory.read(dst, 8192) == payload
        # one-sided: no completion at the target
        assert len(qp_t.recv_cq.poll()) == 0

    def test_rdma_read(self, bed):
        pd_t, pd_i, qp_t, qp_i = make_qp_pair(bed)
        remote = bed.target_host.alloc_dma(4096)
        local = bed.initiator_host.alloc_dma(4096)
        mr = pd_t.register(remote, 4096)
        pd_i.register(local, 4096)
        bed.target_host.memory.write(remote, b"pull-me" * 8)
        qp_i.post_send(SendWR(wr_id=6, opcode=WrOpcode.RDMA_READ,
                              local_addr=local, length=56,
                              remote_addr=remote, rkey=mr.rkey))
        bed.sim.run(until=bed.sim.now + 1_000_000)
        assert bed.initiator_host.memory.read(local, 56) == b"pull-me" * 8

    def test_bad_rkey_fails(self, bed):
        pd_t, pd_i, qp_t, qp_i = make_qp_pair(bed)
        src = bed.initiator_host.alloc_dma(4096)
        pd_i.register(src, 4096)
        qp_i.post_send(SendWR(wr_id=7, opcode=WrOpcode.RDMA_WRITE,
                              local_addr=src, length=16,
                              remote_addr=0x2000_0000, rkey=0x9999))
        bed.sim.run(until=bed.sim.now + 1_000_000)
        wcs = qp_i.send_cq.poll()
        assert wcs[0].status is WcStatus.LOCAL_ERROR

    def test_mr_bounds_enforced(self, bed):
        pd = ProtectionDomain(bed.target_host)
        addr = bed.target_host.alloc_dma(4096)
        mr = pd.register(addr, 4096)
        with pytest.raises(RdmaError):
            mr.check(addr + 4000, 200)
        with pytest.raises(RdmaError):
            pd.register(0x1, 10)   # outside DRAM
        with pytest.raises(RdmaError):
            pd.lookup(0xdead)


class TestLatency:
    def test_send_one_way_in_microsecond_band(self, bed):
        """One-way small SEND: NIC tx + wire + NIC rx + DMA placement —
        a bit over a microsecond for ConnectX-5-class hardware."""
        pd_t, pd_i, qp_t, qp_i = make_qp_pair(bed)
        dst = bed.target_host.alloc_dma(4096)
        qp_t.post_recv(RecvWR(wr_id=1, addr=dst, length=4096))
        arrivals = []

        def waiter(sim):
            yield qp_t.recv_cq.signal.wait()
            arrivals.append(sim.now)

        bed.sim.process(waiter(bed.sim))
        start = bed.sim.now
        qp_i.post_send(SendWR(wr_id=2, opcode=WrOpcode.SEND,
                              inline_data=b"x" * 72, length=72))
        bed.sim.run(until=bed.sim.now + 1_000_000)
        assert arrivals
        one_way = arrivals[0] - start
        assert 1_000 < one_way < 2_500

    def test_bandwidth_serialisation(self, bed):
        """128 KiB RDMA_WRITE: wire serialization ~11.4 us at 11.5 GB/s
        dominates the transfer."""
        pd_t, pd_i, qp_t, qp_i = make_qp_pair(bed)
        src = bed.initiator_host.alloc_dma(128 * 1024)
        dst = bed.target_host.alloc_dma(128 * 1024)
        pd_i.register(src, 128 * 1024)
        mr = pd_t.register(dst, 128 * 1024)
        start = bed.sim.now
        qp_i.post_send(SendWR(wr_id=9, opcode=WrOpcode.RDMA_WRITE,
                              local_addr=src, length=128 * 1024,
                              remote_addr=dst, rkey=mr.rkey))
        done = []

        def waiter(sim):
            yield qp_i.send_cq.signal.wait()
            done.append(sim.now)

        bed.sim.process(waiter(bed.sim))
        bed.sim.run(until=bed.sim.now + 10_000_000)
        assert done
        elapsed = done[0] - start
        assert elapsed > 11_000   # at least the wire serialization
        assert elapsed < 60_000


class _End:
    """Stands in for a NIC at one end of a bare link."""


class TestIbLink:
    """Each direction of the wire is held through a HoldPlan: a free
    direction is claimed by count, a busy one queued for FIFO."""

    @staticmethod
    def _link():
        sim = Simulator(seed=5)
        link = IbLink(sim, RdmaConfig())
        a, b = _End(), _End()
        link.attach(a, b)
        return sim, link, a, b

    def test_one_direction_serializes_in_fifo_order(self):
        """Two transfers issued at one instant: the second leaves the
        wire one serialization after the first, and each arrives the
        wire latency later.  4 KiB + 64 framing bytes at 11.5 B/ns is
        362 ns on the wire; the latency is 450 ns."""
        sim, link, a, b = self._link()
        arrivals = []

        def send(tag):
            yield from link.transfer(a, b, 4096)
            arrivals.append((tag, sim.now))

        for tag in ("first", "second"):
            sim.process(send(tag))
        sim.run()
        assert arrivals == [("first", 362 + 450),
                            ("second", 2 * 362 + 450)]

    def test_an_uncontended_transfer_dispatches_two_events(self):
        """The release timer and the wire latency: no grant event."""
        def events(body):
            sim, link, a, b = self._link()
            sim.process(body(link, a, b))
            sim.run()
            return sim.events_processed

        def transfer(link, a, b):
            yield from link.transfer(a, b, 64)

        def nothing(link, a, b):
            yield from ()

        assert events(transfer) - events(nothing) == 2
