"""PRP construction for contiguous driver buffers.

All driver-owned data buffers in this codebase are physically contiguous
and page-aligned, so PRP lists are flat: entries 2..N point at the
successive pages, and one list page covers transfers up to 2 MiB — far
beyond the controller's 128 KiB MDTS.  The controller still *fetches the
list page via DMA* (an extra non-posted read that large transfers pay,
with NTB distance when the list lives in client memory).
"""

from __future__ import annotations

import struct
import typing as t

from ..nvme.constants import PAGE_SIZE


def prps_for_contiguous(data_device_addr: int, nbytes: int,
                        list_page_device_addr: int,
                        write_list_page: t.Callable[[bytes], None],
                        page_size: int = PAGE_SIZE) -> tuple[int, int]:
    """Return ``(prp1, prp2)`` for a page-aligned contiguous buffer.

    ``write_list_page`` is invoked with the packed list-page contents
    only when a PRP list is required (3+ pages).
    """
    if nbytes <= 0:
        raise ValueError("transfer must be positive")
    if data_device_addr % page_size:
        raise ValueError("driver buffers must be page-aligned")
    npages = (nbytes + page_size - 1) // page_size
    if npages == 1:
        return data_device_addr, 0
    if npages == 2:
        return data_device_addr, data_device_addr + page_size
    if npages - 1 > page_size // 8:
        raise ValueError(f"transfer of {nbytes} bytes needs a chained "
                         "PRP list; unsupported by this driver")
    blob = bytearray(page_size)
    struct.pack_into("<%dQ" % (npages - 1), blob, 0,
                     *range(data_device_addr + page_size,
                            data_device_addr + npages * page_size,
                            page_size))
    write_list_page(bytes(blob))
    return data_device_addr, list_page_device_addr
