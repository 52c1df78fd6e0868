"""DMA pools: pre-mapped memory regions with CPU- and device-side views.

The admin queues and their data buffers must be reachable both by the
CPU that runs the driver and by the controller's DMA engine.  When the
driver runs in the device's host the two addresses coincide; when it
runs *anywhere else in the cluster* (the paper's SmartIO promise), the
pool is a SISCI segment mapped for the device once at setup, and the
translation is a constant offset.
"""

from __future__ import annotations

import typing as t

from ..memory import RangeAllocator
from ..pcie import Host


class DmaPool:
    """A contiguous region with (cpu_addr, device_addr) pairs."""

    def __init__(self, host: Host, cpu_base: int, device_base: int,
                 size: int, name: str = "dmapool") -> None:
        self.host = host
        self.cpu_base = cpu_base
        self.device_base = device_base
        self.size = size
        self.name = name
        self._alloc = RangeAllocator(cpu_base, size, name=name)
        # A pool has no simulator of its own: it reports on the probe of
        # the HostMemory it carves its buffers from.
        self.probe = host.memory.probe
        for f in self.probe.mem_event:
            f(self, "pool", cpu_base, size)

    def alloc(self, size: int, alignment: int = 4096) -> tuple[int, int]:
        """Returns ``(cpu_addr, device_addr)`` for a new allocation."""
        cpu_addr = self._alloc.alloc(size, alignment)
        for f in self.probe.mem_event:
            f(self, "alloc", cpu_addr, self._alloc.allocation_size(cpu_addr))
        return cpu_addr, self.to_device(cpu_addr)

    def free(self, cpu_addr: int) -> None:
        for f in self.probe.mem_event:
            f(self, "free", cpu_addr, 0)
        self._alloc.free(cpu_addr)

    def to_device(self, cpu_addr: int) -> int:
        if not self.cpu_base <= cpu_addr < self.cpu_base + self.size:
            raise ValueError(f"{cpu_addr:#x} is outside the pool")
        return self.device_base + (cpu_addr - self.cpu_base)


def local_pool(host: Host, size: int) -> DmaPool:
    """Pool in the device's own host: CPU and device addresses match."""
    base = host.alloc_dma(size)
    return DmaPool(host, base, base, size, name=f"{host.name}.local-pool")
