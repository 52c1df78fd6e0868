"""One paged byte store: the backing of host DRAM and of every namespace.

A store is ``size`` zero-initialised bytes in an anonymous, private,
demand-paged mapping.  The kernel materialises a page on its first
write (a read of a page never written maps the shared zero page), so a
host presents gigabytes of DRAM and a namespace hundreds of gigabytes
while the process pays only for the pages a workload wrote.  The range
is contiguous, so every access is one slice whatever its length or
alignment: ``store[a:b]`` reads (as ``bytes``), ``store[a:b] = data``
writes any bytes-like object of length ``b - a``.  It needs a POSIX
``mmap`` (``MAP_PRIVATE``).
"""

from __future__ import annotations

import mmap
import sys

#: ``MAP_NORESERVE``: no swap is reserved for the mapping, so one larger
#: than RAM + swap (a 375 GB namespace) passes the kernel's heuristic
#: overcommit check.  Older Pythons do not export the Linux value.
_NORESERVE = getattr(mmap, "MAP_NORESERVE",
                     0x4000 if sys.platform.startswith("linux") else 0)


def paged_bytes(size: int) -> mmap.mmap:
    """A new store of ``size`` zero bytes (module docstring)."""
    if size <= 0:
        raise ValueError("store size must be positive")
    store = mmap.mmap(-1, size, flags=mmap.MAP_PRIVATE | _NORESERVE)
    if hasattr(mmap, "MADV_NOHUGEPAGE"):
        # With transparent huge pages set to "always", a first write
        # would materialise 2 MiB instead of one 4 KiB page.
        store.madvise(mmap.MADV_NOHUGEPAGE)
    return store
