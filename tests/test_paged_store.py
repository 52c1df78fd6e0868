"""The one paged byte store under host DRAM and every namespace
(``repro/memory/paged.py``): contents match a flat reference whatever an
access's length or alignment, a store far larger than RAM costs only
what is written, and an access costs the same calls at 16 bytes as at
64 KiB — it is one slice."""

import pathlib
import random
import re

from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.memory import HostMemory
from repro.nvme.media import NAND_CONFIG
from repro.nvme.namespace import Namespace
from repro.sim import Simulator

from .hostcost import cost

PAGE = 4096
BASE = 0x1000_0000
SPAN = 16 * PAGE

#: (offset, length, payload seed): lengths up to three pages, so most
#: accesses straddle a page boundary and many straddle two
_access = st.tuples(st.integers(0, SPAN - 1), st.integers(1, 3 * PAGE),
                    st.integers(0, 2**32))


def _payload(seed: int, length: int) -> bytes:
    return random.Random(seed).randbytes(length)


class TestAgainstAFlatReference:
    @given(st.lists(_access, min_size=1, max_size=10), _access)
    @settings(max_examples=60, deadline=None)
    def test_host_memory(self, writes, window):
        mem = HostMemory(Simulator(seed=1), size=SPAN, base=BASE)
        shadow = bytearray(SPAN)
        for offset, length, seed in writes:
            data = _payload(seed, min(length, SPAN - offset))
            mem.write(BASE + offset, data)
            shadow[offset: offset + len(data)] = data
        offset, length, _seed = window
        length = min(length, SPAN - offset)
        assert mem.read(BASE + offset, length) == shadow[offset:
                                                         offset + length]
        assert mem.read(BASE, SPAN) == shadow

    @given(st.lists(st.tuples(st.integers(0, 127), st.integers(1, 24),
                              st.integers(0, 2**32)),
                    min_size=1, max_size=10))
    @settings(max_examples=60, deadline=None)
    def test_namespace_and_its_written_pages(self, writes):
        ns = Namespace(1, capacity_lbas=128, lba_bytes=512)
        shadow = bytearray(128 * 512)
        pages: set[int] = set()
        for slba, nblocks, seed in writes:
            nblocks = min(nblocks, 128 - slba)
            start, end = slba * 512, (slba + nblocks) * 512
            data = _payload(seed, end - start)
            ns.write_blocks(slba, data)
            shadow[start:end] = data
            pages.update(range(start // PAGE, (end - 1) // PAGE + 1))
        assert ns.read_blocks(0, 128) == shadow
        assert ns.written_bytes() == len(pages) * PAGE
        assert ns.identify().nuse == len(pages) * PAGE // 512


def test_a_store_far_larger_than_ram_costs_what_is_written():
    size = 1 << 40      # 1 TiB of DRAM
    mem = HostMemory(Simulator(seed=1), size=size, base=BASE)
    mem.write(BASE + size - 8, b"lastword")
    assert mem.read(BASE + size - 16, 16) == bytes(8) + b"lastword"
    ns = Namespace(1, NAND_CONFIG.capacity_lbas)     # ~960 GB
    ns.write_blocks(NAND_CONFIG.capacity_lbas - 1, b"\x5a" * 512)
    assert ns.read_blocks(NAND_CONFIG.capacity_lbas - 2, 2) == (
        bytes(512) + b"\x5a" * 512)
    assert ns.written_bytes() == PAGE


class TestOneSlicePerAccess:
    """An access is its own frame plus a fixed handful of C calls,
    whatever its length: no per-page loop, lookup or scratch buffer."""

    def test_dram(self):
        mem = HostMemory(Simulator(seed=1), size=SPAN + 2 * PAGE, base=BASE)
        empty = cost(lambda: None)[0]
        for length in (16, PAGE, SPAN):
            data = bytes(length)
            # read: the frame; write: the frame and len()
            assert cost(lambda: mem.read(BASE + 8, length))[0] == empty + 1
            assert cost(lambda: mem.write(BASE + 8, data))[0] == empty + 2

    def test_namespace(self):
        ns = Namespace(1, capacity_lbas=1 << 20, lba_bytes=512)
        empty = cost(lambda: None)[0]
        for nblocks in (1, 8, 128):
            data = bytes(nblocks * 512)
            # read: the frame and check_range; write: the frame, len(),
            # check_range and one set.update of the pages it covers
            assert cost(lambda: ns.read_blocks(3, nblocks))[0] == empty + 2
            assert cost(lambda: ns.write_blocks(3, data))[0] == empty + 4


def test_dram_and_namespaces_share_one_store():
    """The backing-store format is known to one module: only it maps
    memory, host DRAM and the namespaces both take their store from it,
    and no hand-rolled extent table is left."""
    root = pathlib.Path(repro.__file__).parent
    texts = {path.relative_to(root).as_posix(): path.read_text()
             for path in sorted(root.rglob("*.py"))}
    assert [rel for rel, text in texts.items()
            if "paged_bytes(" in text] == [
        "memory/paged.py", "memory/physmem.py", "nvme/namespace.py"]
    stray = re.compile(r"^\s*(import|from) mmap\b|\b_extents\b|\bEXTENT\b",
                       re.M)
    assert [rel for rel, text in texts.items()
            if rel != "memory/paged.py" and stray.search(text)] == []
