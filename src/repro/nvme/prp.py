"""Physical Region Page (PRP) construction and resolution.

NVMe describes data buffers with PRP entries (NVMe 1.3 §4.3):

* **PRP1** points at the first page (may start at a page offset);
* for transfers ending within a second page, **PRP2** points at it;
* for longer transfers, PRP2 points at a *PRP list* — a page of 8-byte
  pointers (the last entry chains to the next list page if needed).

Drivers build PRPs; the controller resolves them, fetching list pages
from host memory with non-posted reads (a real extra round trip that
shows up in large-transfer latency).
"""

from __future__ import annotations

import dataclasses
import struct

from .constants import PAGE_SIZE


class PrpError(Exception):
    pass


@dataclasses.dataclass(frozen=True)
class PrpDescriptor:
    """What a driver places in the SQE: prp1, prp2 and (optionally) the
    content of PRP list pages it wrote into list memory."""

    prp1: int
    prp2: int
    list_pages: tuple[tuple[int, bytes], ...] = ()


def page_segments(buffer_addr: int, length: int,
                  page_size: int = PAGE_SIZE) -> list[tuple[int, int]]:
    """Split ``[buffer_addr, +length)`` at page boundaries.

    Returns ``(addr, size)`` runs, each confined to one page — the unit
    at which the controller issues DMA.
    """
    if length <= 0:
        raise PrpError("transfer length must be positive")
    segs: list[tuple[int, int]] = []
    addr = buffer_addr
    remaining = length
    while remaining > 0:
        run = min(remaining, page_size - (addr % page_size))
        segs.append((addr, run))
        addr += run
        remaining -= run
    return segs


def build_prps(buffer_addr: int, length: int, list_alloc,
               page_size: int = PAGE_SIZE) -> PrpDescriptor:
    """Build PRP entries for a transfer.

    ``list_alloc(nbytes) -> addr`` is called only when a PRP list is
    needed (transfers spanning 3+ pages); the returned descriptor carries
    the list-page contents for the driver to write into that memory.

    The buffer must be offset-aligned per spec: only PRP1 may carry a
    page offset; subsequent entries must be page-aligned, which is
    guaranteed by splitting at page boundaries.
    """
    segs = page_segments(buffer_addr, length, page_size)
    pointers = [addr for addr, _ in segs]
    if len(pointers) == 1:
        return PrpDescriptor(prp1=pointers[0], prp2=0)
    if len(pointers) == 2:
        return PrpDescriptor(prp1=pointers[0], prp2=pointers[1])

    # PRP list: entries 2..N, chained across pages of 512 pointers.
    entries = pointers[1:]
    per_page = page_size // 8
    pages: list[list[int]] = []
    cursor = 0
    while cursor < len(entries):
        # Reserve the final slot for a chain pointer when more remain.
        take = min(per_page, len(entries) - cursor)
        if len(entries) - cursor > per_page:
            take = per_page - 1
        pages.append(entries[cursor: cursor + take])
        cursor += take

    addrs = [list_alloc(page_size) for _ in pages]
    blobs: list[tuple[int, bytes]] = []
    for i, (page_entries, addr) in enumerate(zip(pages, addrs)):
        buf = bytearray(page_size)
        struct.pack_into("<%dQ" % len(page_entries), buf, 0, *page_entries)
        if i + 1 < len(addrs):
            struct.pack_into("<Q", buf, (per_page - 1) * 8, addrs[i + 1])
        blobs.append((addr, bytes(buf)))
    return PrpDescriptor(prp1=pointers[0], prp2=addrs[0],
                         list_pages=tuple(blobs))


def prp_segments(prp1: int, prp2: int, length: int,
                 page_size: int = PAGE_SIZE) -> tuple[list, int, int]:
    """Start resolving a transfer's PRPs, the controller's side of
    :func:`build_prps`: returns ``(segs, list_addr, remaining)`` — the
    ``(addr, size)`` segments PRP1 and PRP2 map, and, when a PRP list
    maps the other ``remaining`` bytes, the address of its first page
    for the caller to read (DMA, a real round trip) and hand to
    :func:`prp_list_page`; ``list_addr`` is 0 when ``segs`` is whole.
    Raises :class:`PrpError` for PRPs the spec forbids."""
    # hot-path: once per data-moving command
    if length <= 0:
        raise PrpError("transfer length must be positive")
    first_run = page_size - prp1 % page_size
    if length <= first_run:
        return [(prp1, length)], 0, 0
    segs = [(prp1, first_run)]
    remaining = length - first_run
    if remaining <= page_size:
        if prp2 == 0:
            raise PrpError("PRP2 required but zero")
        if prp2 % page_size:
            raise PrpError(f"PRP2 not page-aligned: {prp2:#x}")
        segs.append((prp2, remaining))
        return segs, 0, 0
    if prp2 == 0:
        raise PrpError("PRP list pointer (PRP2) is zero")
    if prp2 % 8:
        raise PrpError(f"PRP list pointer not qword-aligned: {prp2:#x}")
    return segs, prp2, remaining


def prp_list_page(page: bytes, segs: list, remaining: int,
                  page_size: int = PAGE_SIZE) -> tuple[int, int]:
    """Decode one fetched PRP list page onto ``segs`` for the
    ``remaining`` bytes still unmapped; returns ``(list_addr,
    remaining)`` — the next list page to read (its last slot chains to
    it) and the bytes it must map, or ``(0, 0)`` once ``segs`` is
    whole.  Raises :class:`PrpError` for a bad entry or a short page."""
    # Determine how many data pointers this page holds: if the
    # remaining transfer needs more than (per_page-1) more pages, the
    # last slot is a chain pointer.  Only the slots the transfer uses
    # are decoded; the rest of the page is never looked at.
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
