"""First-fit physical range allocator.

Used for DMA-able allocations inside a host's DRAM (queue memory, bounce
buffers, SISCI segments) and for carving windows out of NTB BAR apertures.
Allocations are always contiguous — mirroring SISCI's "linear contiguous
regions in physical system memory" (paper Sec. IV).
"""

from __future__ import annotations

import bisect


class OutOfSpace(Exception):
    """No free contiguous range large enough for the request."""


def _align_up(value: int, alignment: int) -> int:
    return (value + alignment - 1) // alignment * alignment


class RangeAllocator:
    """First-fit allocator over ``[base, base+size)``."""

    def __init__(self, base: int, size: int, name: str = "alloc") -> None:
        if size <= 0:
            raise ValueError("allocator size must be positive")
        self.base = base
        self.size = size
        self.name = name
        # Sorted list of free (start, length) runs.
        self._free: list[tuple[int, int]] = [(base, size)]
        self._allocated: dict[int, int] = {}

    @property
    def free_bytes(self) -> int:
        return sum(length for _, length in self._free)

    @property
    def allocated_bytes(self) -> int:
        return sum(self._allocated.values())

    def alloc(self, length: int, alignment: int = 8) -> int:
        """Return the start address of a new allocation.

        Raises :class:`OutOfSpace` when no contiguous run fits.
        """
        if length <= 0:
            raise ValueError("allocation length must be positive")
        if alignment <= 0 or alignment & (alignment - 1):
            raise ValueError("alignment must be a positive power of two")
        for i, (start, run) in enumerate(self._free):
            aligned = _align_up(start, alignment)
            pad = aligned - start
            if run < pad + length:
                continue
            # Carve [aligned, aligned+length) out of the run.
            del self._free[i]
            if pad:
                self._free.insert(i, (start, pad))
                i += 1
            tail = run - pad - length
            if tail:
                self._free.insert(i, (aligned + length, tail))
            self._allocated[aligned] = length
            return aligned
        raise OutOfSpace(
            f"{self.name}: no room for {length} bytes "
            f"(free={self.free_bytes}, largest runs={self._free[:3]})")

    def free(self, addr: int) -> int:
        """Release an allocation, coalescing adjacent free runs; returns
        its length."""
        length = self._allocated.pop(addr, None)
        if length is None:
            raise ValueError(f"{self.name}: {addr:#x} was not allocated here")
        starts = [s for s, _ in self._free]
        i = bisect.bisect_left(starts, addr)
        self._free.insert(i, (addr, length))
        # Coalesce with right neighbour, then left.
        if i + 1 < len(self._free):
            s, l = self._free[i]
            s2, l2 = self._free[i + 1]
            if s + l == s2:
                self._free[i: i + 2] = [(s, l + l2)]
        if i > 0:
            s0, l0 = self._free[i - 1]
            s, l = self._free[i]
            if s0 + l0 == s:
                self._free[i - 1: i + 1] = [(s0, l0 + l)]
        return length

    def owns(self, addr: int) -> bool:
        return addr in self._allocated

    def allocation_size(self, addr: int) -> int:
        return self._allocated[addr]
