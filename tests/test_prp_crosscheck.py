"""Cross-check: driver-built PRPs must resolve, on the controller side,
to exactly the driver's buffer — for every size and offset class."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.driver.prputil import prps_for_contiguous
from repro.nvme import PrpError, build_prps, prp_list_page, prp_segments
from repro.nvme.constants import PAGE_SIZE


def _resolve(prp1, prp2, length, list_memory):
    """Resolve PRPs the way the controller's command record does, with
    no sim: each list page it asks for comes out of ``list_memory``."""
    segs, list_addr, remaining = prp_segments(prp1, prp2, length)
    while list_addr:
        list_addr, remaining = prp_list_page(list_memory[list_addr], segs,
                                             remaining)
    return segs


class TestDriverControllerAgreement:
    @given(st.integers(1, 64))   # pages
    @settings(max_examples=40, deadline=None)
    def test_contiguous_prps_resolve_to_buffer(self, pages):
        base = 0x40_0000
        list_page_addr = 0x80_0000
        length = pages * PAGE_SIZE
        list_memory = {}

        prp1, prp2 = prps_for_contiguous(
            base, length, list_page_addr,
            lambda blob: list_memory.__setitem__(list_page_addr, blob))

        segs = _resolve(prp1, prp2, length, list_memory)
        # Coverage: exactly [base, base+length), in order, page-chunked.
        cursor = base
        total = 0
        for addr, size in segs:
            assert addr == cursor
            cursor += size
            total += size
        assert total == length

    @given(st.integers(1, 3 * PAGE_SIZE), st.integers(0, PAGE_SIZE - 4))
    @settings(max_examples=60, deadline=None)
    def test_build_prps_resolves_with_offsets(self, length, offset):
        """The generic builder handles unaligned PRP1 starts."""
        base = 0x40_0000 + offset
        allocated = []
        list_memory = {}

        def alloc(n):
            addr = 0x90_0000 + len(allocated) * PAGE_SIZE
            allocated.append(addr)
            return addr

        descriptor = build_prps(base, length, alloc)
        for addr, blob in descriptor.list_pages:
            list_memory[addr] = blob

        segs = _resolve(descriptor.prp1, descriptor.prp2, length,
                        list_memory)
        cursor = base
        total = 0
        for addr, size in segs:
            assert addr == cursor
            cursor += size
            total += size
        assert total == length
        # no segment crosses a page boundary
        for addr, size in segs:
            assert (addr % PAGE_SIZE) + size <= PAGE_SIZE


def _build_and_resolve(base, length):
    """build_prps -> list memory -> the parser; returns the segments
    and the list pages written."""
    allocated = []

    def alloc(n):
        allocated.append(0x90_0000 + len(allocated) * PAGE_SIZE)
        return allocated[-1]

    descriptor = build_prps(base, length, alloc)
    list_memory = dict(descriptor.list_pages)
    segs = _resolve(descriptor.prp1, descriptor.prp2, length, list_memory)
    return segs, list_memory


class TestListWalk:
    """The resolver decodes only the list slots a transfer uses."""

    # 1 page ... MDTS (32 pages), the last single-page list (513), the
    # first chained one (514) and a three-page chain
    @pytest.mark.parametrize("pages", [1, 2, 3, 16, 32, 513, 514, 1100])
    @pytest.mark.parametrize("offset", [0, 0x200])
    def test_build_resolve_roundtrip(self, pages, offset):
        base = 0x40_0000 + offset
        length = pages * PAGE_SIZE - offset
        segs, list_memory = _build_and_resolve(base, length)
        assert segs[0][0] == base
        assert sum(size for _, size in segs) == length
        cursor = base
        for addr, size in segs:
            assert addr == cursor
            assert (addr % PAGE_SIZE) + size <= PAGE_SIZE
            cursor += size
        per_page = PAGE_SIZE // 8
        entries = len(segs) - 1
        expected_lists = 0 if entries < 2 else \
            1 + max(0, entries - 2) // (per_page - 1)
        assert len(list_memory) == expected_lists

    def test_garbage_in_unused_slots_is_ignored(self):
        length = 16 * PAGE_SIZE
        clean, list_memory = _build_and_resolve(0x40_0000, length)
        (addr, blob), = list_memory.items()
        used = 15 * 8
        dirty = blob[:used] + b"\xa5" * (PAGE_SIZE - used)
        assert _resolve(0x40_0000, addr, length, {addr: dirty}) == clean

    @pytest.mark.parametrize("entry", [0, 0x41_0004, 0x41_0800])
    def test_zero_or_misaligned_used_entry(self, entry):
        length = 16 * PAGE_SIZE
        _, list_memory = _build_and_resolve(0x40_0000, length)
        (addr, blob), = list_memory.items()
        for slot in (0, 7, 14):
            bad = bytearray(blob)
            bad[slot * 8:slot * 8 + 8] = entry.to_bytes(8, "little")
            with pytest.raises(PrpError):
                _resolve(0x40_0000, addr, length, {addr: bytes(bad)})

    @pytest.mark.parametrize("have", [0, 8, 15 * 8 - 1])
    def test_short_page_is_a_prp_error(self, have):
        """Fewer bytes than the transfer's entries: INVALID_FIELD at the
        controller, never a struct.error out of the event loop."""
        length = 16 * PAGE_SIZE
        _, list_memory = _build_and_resolve(0x40_0000, length)
        (addr, blob), = list_memory.items()
        with pytest.raises(PrpError):
            _resolve(0x40_0000, addr, length, {addr: blob[:have]})

    def test_short_chained_page_is_a_prp_error(self):
        length = 600 * PAGE_SIZE
        _, list_memory = _build_and_resolve(0x40_0000, length)
        first = min(list_memory)
        list_memory[first] = list_memory[first][:PAGE_SIZE - 8]
        with pytest.raises(PrpError):
            _resolve(0x40_0000, first, length, list_memory)

    def test_zero_chain_pointer(self):
        length = 600 * PAGE_SIZE
        _, list_memory = _build_and_resolve(0x40_0000, length)
        first = min(list_memory)
        list_memory[first] = list_memory[first][:PAGE_SIZE - 8] + bytes(8)
        with pytest.raises(PrpError):
            _resolve(0x40_0000, first, length, list_memory)


class TestResolverRejectsGarbage:
    def test_zero_prp2_when_required(self):
        with pytest.raises(PrpError):
            _resolve(0x1000, 0, 3 * PAGE_SIZE, {})

    def test_unaligned_prp2(self):
        with pytest.raises(PrpError):
            _resolve(0x1000, 0x2100, 2 * PAGE_SIZE, {})

    def test_zero_list_entry(self):
        list_memory = {0x3000: bytes(PAGE_SIZE)}   # all-zero pointers
        with pytest.raises(PrpError):
            _resolve(0x1000, 0x3000, 4 * PAGE_SIZE, list_memory)

    def test_driver_rejects_unaligned_buffer(self):
        with pytest.raises(ValueError):
            prps_for_contiguous(0x1004, 4096, 0x2000, lambda b: None)

    def test_driver_rejects_chained_sizes(self):
        # > 512 pages would need a chained list.
        with pytest.raises(ValueError):
            prps_for_contiguous(0x10_0000, 514 * PAGE_SIZE, 0x2000,
                                lambda b: None)
