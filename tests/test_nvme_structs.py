"""Unit tests for NVMe binary structures, queues and PRP handling."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nvme import (CompletionEntry, CompletionQueueState,
                        IdentifyController, IdentifyNamespace, PrpError,
                        QueueError, SubmissionEntry, SubmissionQueueState,
                        build_prps, page_segments)
from repro.nvme.constants import PAGE_SIZE, parse_status, status_field
from repro.nvme.registers import (build_cap, cq_doorbell_offset,
                                  doorbell_index, sq_doorbell_offset)
from repro.sim import Probe


class TestSubmissionEntry:
    def test_roundtrip(self):
        sqe = SubmissionEntry(opcode=0x02, cid=0x1234, nsid=1,
                              prp1=0x1000, prp2=0x2000,
                              cdw10=0xAABBCCDD, cdw11=0x11, cdw12=7)
        packed = sqe.pack()
        assert len(packed) == 64
        back = SubmissionEntry.unpack(packed)
        assert back == sqe

    def test_slba_nlb_helpers(self):
        sqe = SubmissionEntry(opcode=0x01)
        sqe.slba = 0x1_2345_6789
        sqe.nlb = 7
        assert sqe.cdw10 == 0x2345_6789
        assert sqe.cdw11 == 0x1
        assert sqe.slba == 0x1_2345_6789
        assert sqe.nlb == 7

    def test_nlb_preserves_upper_cdw12(self):
        sqe = SubmissionEntry()
        sqe.cdw12 = 0x8000_0000   # e.g. FUA bit
        sqe.nlb = 3
        assert sqe.cdw12 == 0x8000_0003

    def test_invalid_cid_rejected(self):
        with pytest.raises(ValueError):
            SubmissionEntry(opcode=1, cid=0x10000).pack()

    def test_unpack_wrong_size(self):
        with pytest.raises(ValueError):
            SubmissionEntry.unpack(b"\x00" * 63)

    @given(st.integers(0, 0xFF), st.integers(0, 0xFFFF),
           st.integers(0, 2**32 - 1), st.integers(0, 2**64 - 1),
           st.integers(0, 2**64 - 1), st.integers(0, 2**64 - 1),
           st.lists(st.integers(0, 2**32 - 1), min_size=6, max_size=6),
           st.integers(0, 3), st.integers(0, 3))
    @settings(max_examples=80, deadline=None)
    def test_roundtrip_property(self, opcode, cid, nsid, mptr, prp1, prp2,
                                cdws, fuse, psdt):
        """Every field is drawn, so a decode that swaps two of them (a
        positional one, say) fails."""
        sqe = SubmissionEntry(opcode, cid, nsid, mptr, prp1, prp2, *cdws,
                              fuse=fuse, psdt=psdt)
        assert SubmissionEntry.unpack(sqe.pack()) == sqe


class TestCompletionEntry:
    def test_roundtrip(self):
        cqe = CompletionEntry(result=0x42, sq_head=10, sq_id=3, cid=77,
                              status=0, phase=1)
        back = CompletionEntry.unpack(cqe.pack())
        assert back == cqe
        assert back.ok

    def test_error_status_roundtrip(self):
        cqe = CompletionEntry(status=0x80, phase=0)   # LBA out of range
        back = CompletionEntry.unpack(cqe.pack())
        assert back.status == 0x80
        assert not back.ok

    def test_sct_encoding(self):
        cqe = CompletionEntry(status=0x01_02, phase=1)   # SCT=1, SC=2
        back = CompletionEntry.unpack(cqe.pack())
        assert back.status == 0x01_02

    def test_status_field_helpers(self):
        packed = status_field(0x01_02, 1)
        status, phase = parse_status(packed)
        assert status == 0x01_02 and phase == 1

    @given(st.integers(0, 2**32 - 1), st.integers(0, 0xFFFF),
           st.integers(0, 0xFFFF), st.integers(0, 0xFFFF),
           st.integers(0, 7), st.integers(0, 0xFF), st.integers(0, 1))
    @settings(max_examples=60, deadline=None)
    def test_roundtrip_property(self, result, sq_head, sq_id, cid, sct, sc,
                                phase):
        """Every field is drawn, the status as its SCT and SC."""
        cqe = CompletionEntry(result=result, sq_head=sq_head, sq_id=sq_id,
                              cid=cid, status=sct << 8 | sc, phase=phase)
        assert CompletionEntry.unpack(cqe.pack()) == cqe


class TestIdentify:
    def test_controller_roundtrip(self):
        ident = IdentifyController(nn=3)
        data = ident.pack()
        assert len(data) == 4096
        back = IdentifyController.unpack(data)
        assert back.model == ident.model
        assert back.serial == ident.serial
        assert back.nn == 3
        assert back.mdts == ident.mdts

    def test_namespace_roundtrip(self):
        ident = IdentifyNamespace(nsze=1000, ncap=1000, nuse=5, lba_shift=12)
        back = IdentifyNamespace.unpack(ident.pack())
        assert back == ident
        assert back.lba_bytes == 4096


class TestQueueStates:
    def test_sq_full_empty(self):
        sq = SubmissionQueueState(qid=1, base_addr=0x1000, entries=4,
                                  probe=Probe())
        assert sq.is_empty()
        for _ in range(3):
            sq.advance_tail()
        assert sq.is_full()
        with pytest.raises(QueueError):
            sq.advance_tail()
        sq.advance_head()
        assert not sq.is_full()
        assert sq.occupancy() == 2

    def test_sq_underflow(self):
        sq = SubmissionQueueState(qid=1, base_addr=0, entries=4, probe=Probe())
        with pytest.raises(QueueError):
            sq.advance_head()

    def test_sq_slot_addr(self):
        sq = SubmissionQueueState(qid=1, base_addr=0x1000, entries=8,
                                  probe=Probe())
        assert sq.slot_addr(0) == 0x1000
        assert sq.slot_addr(3) == 0x1000 + 3 * 64
        with pytest.raises(QueueError):
            sq.slot_addr(8)

    def test_min_entries(self):
        with pytest.raises(QueueError):
            SubmissionQueueState(qid=1, base_addr=0, entries=1, probe=Probe())
        with pytest.raises(QueueError):
            CompletionQueueState(qid=1, base_addr=0, entries=1, probe=Probe())

    def test_cq_phase_flip_on_wrap(self):
        cq = CompletionQueueState(qid=1, base_addr=0x2000, entries=3,
                                  probe=Probe())
        tags = [cq.produce_slot() for _ in range(7)]
        slots = [s for s, _ in tags]
        phases = [p for _, p in tags]
        assert slots == [0, 1, 2, 0, 1, 2, 0]
        assert phases == [1, 1, 1, 0, 0, 0, 1]

    def test_cq_consumer_phase_tracks_producer(self):
        prod = CompletionQueueState(qid=1, base_addr=0, entries=3,
                                    probe=Probe())
        cons = CompletionQueueState(qid=1, base_addr=0, entries=3,
                                    probe=Probe())
        for _ in range(10):
            _slot, phase = prod.produce_slot()
            assert cons.consumer_phase() == phase
            cons.consume()

    def test_cq_slot_addr(self):
        cq = CompletionQueueState(qid=1, base_addr=0x2000, entries=8,
                                  probe=Probe())
        assert cq.slot_addr(2) == 0x2000 + 2 * 16


class TestPrp:
    def test_page_segments_aligned(self):
        segs = page_segments(0x10000, 4096)
        assert segs == [(0x10000, 4096)]

    def test_page_segments_offset(self):
        segs = page_segments(0x10F00, 4096)
        assert segs == [(0x10F00, 0x100), (0x11000, 4096 - 0x100)]

    def test_page_segments_multi(self):
        segs = page_segments(0x10000, 3 * 4096)
        assert len(segs) == 3
        assert sum(s for _, s in segs) == 3 * 4096

    def test_page_segments_rejects_zero(self):
        with pytest.raises(PrpError):
            page_segments(0, 0)

    def test_build_single_page(self):
        d = build_prps(0x10000, 4096, list_alloc=None)
        assert d.prp1 == 0x10000 and d.prp2 == 0 and not d.list_pages

    def test_build_two_pages(self):
        d = build_prps(0x10000, 8192, list_alloc=None)
        assert d.prp1 == 0x10000 and d.prp2 == 0x11000

    def test_build_list(self):
        allocated = []

        def alloc(n):
            base = 0xA0000 + len(allocated) * 0x1000
            allocated.append(base)
            return base

        d = build_prps(0x10000, 16 * 4096, list_alloc=alloc)
        assert d.prp1 == 0x10000
        assert d.prp2 == 0xA0000
        assert len(d.list_pages) == 1
        addr, blob = d.list_pages[0]
        pointers = [int.from_bytes(blob[i * 8:(i + 1) * 8], "little")
                    for i in range(15)]
        assert pointers == [0x11000 + i * 0x1000 for i in range(15)]

    def test_build_chained_list(self):
        """Transfers needing >512 pointers chain across list pages."""
        allocated = []

        def alloc(n):
            base = 0xB00000 + len(allocated) * 0x1000
            allocated.append(base)
            return base

        npages = 600
        d = build_prps(0x100000, npages * 4096, list_alloc=alloc)
        assert len(d.list_pages) == 2
        _, first_blob = d.list_pages[0]
        chain = int.from_bytes(first_blob[511 * 8: 512 * 8], "little")
        assert chain == allocated[1]


class TestDoorbellLayout:
    def test_offsets(self):
        assert sq_doorbell_offset(0) == 0x1000
        assert cq_doorbell_offset(0) == 0x1004
        assert sq_doorbell_offset(5) == 0x1000 + 40
        assert cq_doorbell_offset(5) == 0x1000 + 44

    def test_index_inverse(self):
        for qid in range(32):
            assert doorbell_index(sq_doorbell_offset(qid)) == (qid, False)
            assert doorbell_index(cq_doorbell_offset(qid)) == (qid, True)

    def test_cap_fields(self):
        cap = build_cap(1024, 4)
        assert cap & 0xFFFF == 1023          # MQES
        assert (cap >> 37) & 1 == 1          # NVM command set
        with pytest.raises(ValueError):
            build_cap(1024, 8)
