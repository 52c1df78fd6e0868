"""Host physical memory with real byte contents and write watchpoints.

Memory contents live in a paged byte store (:mod:`repro.memory.paged`,
the one the namespaces use too): hosts present gigabytes of DRAM while
the simulator only pays for pages the workload wrote, and every read or
write is one slice of it.  DMA and MMIO still move real bytes, so
end-to-end tests can verify data integrity through every layer (block
write on host A -> NVMe media -> block read on host B).

Watchpoints are the mechanism behind "polling local memory": the client
driver arms a watchpoint on its CQ ring; when the controller's posted
CQE write lands, the watchpoint fires a :class:`~repro.sim.Signal` and
the polling process wakes after its (configurable) poll-interval cost.
This models busy-polling without simulating billions of poll iterations.
"""

from __future__ import annotations

from ..sim import Signal, Simulator
from .paged import paged_bytes


class MemoryError_(Exception):
    """Access outside the populated physical range."""


class Watchpoint:
    """A write-triggered signal over a physical address range."""

    __slots__ = ("start", "end", "signal")

    def __init__(self, sim: Simulator, start: int, end: int) -> None:
        self.start = start
        self.end = end
        self.signal = Signal(sim)


class HostMemory:
    """Physical DRAM of one host (paged backing).

    Addresses are *physical addresses within this host's address space*;
    the base is configurable so tests can assert nothing accidentally
    treats a physical address as a buffer offset.
    """

    def __init__(self, sim: Simulator, size: int,
                 base: int = 0x1000_0000, name: str = "mem") -> None:
        if size <= 0:
            raise ValueError("memory size must be positive")
        self.sim = sim
        self.base = base
        self.size = size
        self.name = name
        self._bytes = paged_bytes(size)
        self._watchpoints: list[Watchpoint] = []
        self.probe = sim.probe

    @property
    def end(self) -> int:
        return self.base + self.size

    def contains(self, addr: int, length: int = 1) -> bool:
        return self.base <= addr and addr + length <= self.end

    def _check(self, addr: int, length: int) -> None:
        if not self.contains(addr, length):
            raise MemoryError_(
                f"{self.name}: access [{addr:#x}, +{length}) outside "
                f"[{self.base:#x}, {self.end:#x})")

    # -- data access ---------------------------------------------------------

    def read(self, addr: int, length: int) -> bytes:
        # hot-path: bounds check inlined; _check re-runs only to build
        # the error message.
        offset = addr - self.base
        if offset < 0 or offset + length > self.size:
            self._check(addr, length)
        for f in self.probe.mem_event:
            f(self, "read", addr, length)
        return self._bytes[offset: offset + length]

    def write(self, addr: int, data: bytes | bytearray | memoryview) -> None:
        # hot-path
        length = len(data)
        offset = addr - self.base
        if offset < 0 or offset + length > self.size:
            self._check(addr, length)
        for f in self.probe.mem_event:
            f(self, "write", addr, length)
        self._bytes[offset: offset + length] = data
        end = addr + length
        for wp in self._watchpoints:
            if wp.start < end and addr < wp.end:
                wp.signal.fire((addr, end))

    def read_u32(self, addr: int) -> int:
        return int.from_bytes(self.read(addr, 4), "little")

    def write_u32(self, addr: int, value: int) -> None:
        self.write(addr, (value & 0xFFFF_FFFF).to_bytes(4, "little"))

    def read_u64(self, addr: int) -> int:
        return int.from_bytes(self.read(addr, 8), "little")

    def write_u64(self, addr: int, value: int) -> None:
        self.write(addr, (value & 0xFFFF_FFFF_FFFF_FFFF).to_bytes(8, "little"))

    def fill(self, addr: int, length: int, byte: int = 0) -> None:
        self.write(addr, bytes([byte]) * length)

    # -- watchpoints ----------------------------------------------------------

    def watch(self, addr: int, length: int) -> Watchpoint:
        """Arm a watchpoint whose signal fires on any write overlapping
        ``[addr, addr+length)``."""
        self._check(addr, length)
        wp = Watchpoint(self.sim, addr, addr + length)
        self._watchpoints.append(wp)
        return wp

    def unwatch(self, wp: Watchpoint) -> None:
        try:
            self._watchpoints.remove(wp)
        except ValueError:
            pass

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<HostMemory {self.name} base={self.base:#x} "
                f"size={self.size:#x}>")
