"""Cross-check: driver-built PRPs must resolve, on the controller side,
to exactly the driver's buffer — for every size and offset class."""

import struct

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.driver.prputil import prps_for_contiguous
from repro.nvme import PrpError, build_prps, prp_list_page, prp_segments
from repro.nvme.constants import PAGE_SIZE

from .hostcost import cost


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


def reference_prp_list_page(page, segs, remaining, page_size=PAGE_SIZE):
    """The per-entry list-page decoder the bulk :func:`prp_list_page`
    replaced, kept as its reference: one check, one ``min`` and one
    append per used entry."""
    per_page = page_size // 8
    needed = (remaining + page_size - 1) // page_size
    chained = needed > per_page
    try:
        data_ptrs = struct.unpack_from(
            "<%dQ" % (per_page if chained else needed), page)
    except struct.error:
        raise PrpError(
            f"PRP list page too short: {len(page)} bytes") from None
    list_addr = 0
    if chained:
        list_addr = data_ptrs[-1]
        data_ptrs = data_ptrs[:-1]
        if list_addr == 0:
            raise PrpError("PRP chain pointer is zero")
    for pointer in data_ptrs:
        if pointer == 0:
            raise PrpError("PRP list entry is zero")
        if pointer % page_size:
            raise PrpError(f"PRP list entry not aligned: {pointer:#x}")
        run = min(remaining, page_size)
        segs.append((pointer, run))
        remaining -= run
        if remaining == 0:
            break
    return list_addr, remaining


PER_PAGE = PAGE_SIZE // 8
#: where the walk's list pages live; slot 511 of page i chains to i + 1
LIST_BASE = 0x9000_0000
#: a bad value for any slot: zero, misaligned, or chain-like (a list
#: page's address, or any qword-aligned one)
BAD_ENTRY = st.one_of(
    st.just(0),
    st.builds(lambda k, off: k * PAGE_SIZE + off,
              st.integers(0, 1 << 40), st.integers(1, PAGE_SIZE - 1)),
    st.integers(0, 3).map(lambda i: LIST_BASE + i * PAGE_SIZE),
    st.integers(1, 1 << 50).map(lambda k: k * 8))
#: per list page: slot -> bad value, and the length it is cut to
PAGES = st.lists(st.tuples(
    st.dictionaries(st.integers(0, PER_PAGE - 1), BAD_ENTRY, max_size=3),
    st.one_of(st.none(), st.integers(0, PAGE_SIZE))), min_size=1, max_size=3)
#: bytes the list maps: short lists, around one full page (511/512
#: entries), and chains of two and three pages
REMAINING = st.one_of(st.integers(1, 40 * PAGE_SIZE),
                      st.integers(510 * PAGE_SIZE, 514 * PAGE_SIZE),
                      st.integers(1, 1600 * PAGE_SIZE))


def _list_pages(pages):
    """The walk's list memory: good data entries, each page chained to
    the next, then every page's bad slots written and its cut made."""
    memory = {}
    for i, (bad, cut) in enumerate(pages):
        entries = [0x40_0000 + (i * PER_PAGE + k) * PAGE_SIZE
                   for k in range(PER_PAGE)]
        entries[-1] = LIST_BASE + (i + 1) * PAGE_SIZE
        for slot, value in bad.items():
            entries[slot] = value
        blob = struct.pack("<%dQ" % PER_PAGE, *entries)
        memory[LIST_BASE + i * PAGE_SIZE] = blob[:cut]
    return memory


def _walk(decode, memory, remaining):
    """Every page ``decode`` asks for, in order (a page not in memory
    reads as no bytes): each step's ``(list_addr, remaining)``, whether
    a ``PrpError`` ended the walk, and the segments of a walk that
    ended well (a command whose PRPs raise completes INVALID_FIELD,
    whatever it had decoded)."""
    segs = [(0x3f_f800, 0x800)]          # what PRP1 maps
    steps = []
    list_addr = LIST_BASE
    try:
        while list_addr:
            list_addr, remaining = decode(memory.get(list_addr, b""), segs,
                                          remaining)
            steps.append((list_addr, remaining))
    except PrpError:
        return steps, True, None
    return steps, False, segs


class TestBulkDecodeMatchesReference:
    """The bulk list-page decode is the per-entry one: the same
    ``(list_addr, remaining)`` per page, a ``PrpError`` on the same page
    or none, and the same segments, over chains of up to three pages
    with zero, misaligned and chain-like values in used and unused slots
    and pages cut short."""

    @settings(max_examples=300, deadline=None, database=None)
    @given(remaining=REMAINING, pages=PAGES)
    # a zero, a misaligned and a chain-like entry in a used slot
    @example(remaining=16 * PAGE_SIZE, pages=[({3: 0}, None)])
    @example(remaining=16 * PAGE_SIZE, pages=[({14: 0x41_0004}, None)])
    @example(remaining=16 * PAGE_SIZE,
             pages=[({0: LIST_BASE + 8}, None)])
    # ... and in unused slots, past the transfer's last entry
    @example(remaining=16 * PAGE_SIZE,
             pages=[({15: 0, 200: 0x41_0004, 511: 8}, None)])
    # the last entry is a partial page, and both kinds of bad entry
    @example(remaining=15 * PAGE_SIZE + 1,
             pages=[({14: 0x41_0004, 3: 0}, None)])
    # chained: a bad chain pointer, a bad entry on the second page, and
    # the second page cut short
    @example(remaining=600 * PAGE_SIZE, pages=[({511: 0}, None)])
    @example(remaining=1100 * PAGE_SIZE,
             pages=[({}, None), ({510: 0x41_0800}, None), ({}, None)])
    @example(remaining=600 * PAGE_SIZE,
             pages=[({}, None), ({}, 8 * 88 + 3)])
    # short pages: empty, one entry short, chain slot cut off
    @example(remaining=16 * PAGE_SIZE, pages=[({}, 0)])
    @example(remaining=16 * PAGE_SIZE, pages=[({}, 15 * 8 - 1)])
    @example(remaining=513 * PAGE_SIZE, pages=[({}, PAGE_SIZE - 8)])
    def test_same_walk_as_the_per_entry_decoder(self, remaining, pages):
        memory = _list_pages(pages)
        assert _walk(prp_list_page, memory, remaining) \
            == _walk(reference_prp_list_page, memory, remaining)


class TestListPageCost:
    """A list page costs the same calls whatever its entry count
    (``tests/hostcost.py::cost``); the per-entry decoder paid a ``min``
    and an append for each one."""

    @staticmethod
    def _calls(entries, remaining):
        page = struct.pack("<%dQ" % len(entries), *entries)
        segs = []
        calls, _bytecodes = cost(
            lambda: prp_list_page(page, segs, remaining))
        return calls - cost(lambda: None)[0], segs

    @pytest.mark.parametrize("pages", [1, 2, 15, 200, 511, 512])
    def test_calls_do_not_grow_with_the_entries(self, pages):
        entries = [(k + 1) * PAGE_SIZE for k in range(pages)]
        calls, segs = self._calls(entries, pages * PAGE_SIZE - 100)
        # the frame, unpack_from, the alignment check, extend
        assert calls == 4
        assert len(segs) == pages and segs[-1][1] == PAGE_SIZE - 100

    def test_a_chained_page_too(self):
        entries = [(k + 1) * PAGE_SIZE for k in range(PER_PAGE)]
        calls, segs = self._calls(entries, 1000 * PAGE_SIZE)
        assert calls == 4 and len(segs) == PER_PAGE - 1
