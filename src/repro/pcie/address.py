"""Per-host physical address maps.

Each host has a single flat physical address space into which DRAM, device
BARs and NTB apertures are mapped ("the defining feature of PCIe is that
devices are mapped into the same address space as the CPU", paper
Sec. III).  The map is an ordered list of non-overlapping ranges, each
owned by a handler object (DRAM, a device BAR, an NTB window region).
"""

from __future__ import annotations

import bisect
import dataclasses
import typing as t


class AddressError(Exception):
    """Address not mapped, or access straddles a mapping boundary."""


@dataclasses.dataclass(frozen=True, slots=True)
class Mapping:
    """One entry in an address map: ``[base, base+size)`` -> ``target``."""

    base: int
    size: int
    target: t.Any
    label: str = ""

    @property
    def end(self) -> int:
        return self.base + self.size

    def contains(self, addr: int, length: int = 1) -> bool:
        return self.base <= addr and addr + length <= self.end


class AddressMap:
    """Sorted, non-overlapping interval map over one address space."""

    def __init__(self, name: str = "") -> None:
        self.name = name
        self._bases: list[int] = []
        self._mappings: list[Mapping] = []
        #: bumped on every add/remove; flow records validate against it
        self.version = 0

    def add(self, base: int, size: int, target: t.Any,
            label: str = "") -> Mapping:
        if size <= 0:
            raise ValueError("mapping size must be positive")
        mapping = Mapping(base, size, target, label)
        i = bisect.bisect_left(self._bases, base)
        # Overlap checks against both neighbours.
        if i > 0 and self._mappings[i - 1].end > base:
            raise AddressError(
                f"{self.name}: [{base:#x},{mapping.end:#x}) overlaps "
                f"{self._mappings[i - 1]}")
        if i < len(self._mappings) and self._mappings[i].base < mapping.end:
            raise AddressError(
                f"{self.name}: [{base:#x},{mapping.end:#x}) overlaps "
                f"{self._mappings[i]}")
        self._bases.insert(i, base)
        self._mappings.insert(i, mapping)
        self.version += 1
        return mapping

    def remove(self, mapping: Mapping) -> None:
        i = bisect.bisect_left(self._bases, mapping.base)
        if i >= len(self._mappings) or self._mappings[i] is not mapping:
            raise AddressError(f"{self.name}: mapping not present: {mapping}")
        del self._bases[i]
        del self._mappings[i]
        self.version += 1

    def lookup(self, addr: int, length: int = 1) -> Mapping:
        """Find the mapping covering ``[addr, addr+length)``.

        Raises :class:`AddressError` for unmapped addresses and for
        accesses that straddle two mappings (hardware would split such a
        TLP; our device models never legitimately generate one, so a
        straddle is treated as a modelling bug).
        """
        i = bisect.bisect_right(self._bases, addr) - 1
        if i >= 0:
            m = self._mappings[i]
            if m.contains(addr, length):
                return m
            if m.contains(addr):
                raise AddressError(
                    f"{self.name}: access [{addr:#x},+{length}) straddles "
                    f"the end of {m.label or m}")
        raise AddressError(f"{self.name}: address {addr:#x} is not mapped")

    def mappings(self) -> tuple[Mapping, ...]:
        return tuple(self._mappings)

    def find_free(self, size: int, start: int, limit: int,
                  alignment: int = 0x1000) -> int:
        """First free base >= start where ``size`` bytes fit below limit."""
        def align(v: int) -> int:
            return (v + alignment - 1) // alignment * alignment

        candidate = align(start)
        for m in self._mappings:
            if m.end <= candidate:
                continue
            if m.base >= candidate + size:
                break
            candidate = align(m.end)
        if candidate + size > limit:
            raise AddressError(
                f"{self.name}: no free window of {size:#x} bytes "
                f"in [{start:#x},{limit:#x})")
        return candidate
