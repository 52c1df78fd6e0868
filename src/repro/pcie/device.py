"""PCIe device functions and BARs.

A :class:`PCIeFunction` owns one or more BARs; each BAR is a contiguous
MMIO region whose reads/writes are dispatched to the function's handler
methods *at TLP delivery time* (not submission time), so doorbell side
effects observe correct arrival ordering.

Functions are attached to a :class:`~repro.pcie.topology.Node` in some
host; their BARs are assigned host physical addresses at install time
(modelling enumeration).
"""

from __future__ import annotations

import typing as t

from ..sim import Simulator
from .topology import Host, Node

if t.TYPE_CHECKING:  # pragma: no cover
    from .fabric import Fabric


class Bar:
    """One Base Address Register region of a function."""

    __slots__ = ("function", "index", "size", "base")

    def __init__(self, function: "PCIeFunction", index: int, size: int) -> None:
        if size <= 0 or size & (size - 1):
            raise ValueError("BAR size must be a positive power of two")
        self.function = function
        self.index = index
        self.size = size
        self.base: int | None = None  # assigned at install

    def contains(self, addr: int, length: int = 1) -> bool:
        return (self.base is not None and self.base <= addr
                and addr + length <= self.base + self.size)

    def offset_of(self, addr: int) -> int:
        assert self.base is not None
        return addr - self.base

    def __repr__(self) -> str:  # pragma: no cover
        loc = f"{self.base:#x}" if self.base is not None else "unassigned"
        return (f"<BAR{self.index} of {self.function.name} "
                f"size={self.size:#x} at {loc}>")


class PCIeFunction:
    """Base class for device functions (NVMe controller, NTB, NIC)."""

    def __init__(self, sim: Simulator, name: str) -> None:
        self.sim = sim
        self.probe = sim.probe
        self.name = name
        self.bars: dict[int, Bar] = {}
        self.host: Host | None = None
        self.node: Node | None = None
        self.fabric: "Fabric | None" = None

    # -- construction ----------------------------------------------------

    def add_bar(self, index: int, size: int) -> Bar:
        if index in self.bars:
            raise ValueError(f"{self.name}: BAR{index} already exists")
        bar = Bar(self, index, size)
        self.bars[index] = bar
        return bar

    def install(self, host: Host, node: Node, fabric: "Fabric") -> None:
        """Attach the function to a host at a topology node and assign
        BAR addresses in the host's physical address space."""
        if self.host is not None:
            raise RuntimeError(f"{self.name} is already installed")
        self.host = host
        self.node = node
        self.fabric = fabric
        host.functions.append(self)
        for bar in self.bars.values():
            bar.base = host.assign_bar(
                bar.size, bar, label=f"{self.name}.bar{bar.index}")
        self.on_installed()

    def on_installed(self) -> None:
        """Hook for subclasses (e.g. to start controller processes)."""

    # -- MMIO dispatch (invoked by the fabric at delivery time) -----------

    def mmio_read(self, bar: Bar, offset: int, length: int) -> bytes:
        raise NotImplementedError(
            f"{self.name}: BAR{bar.index} read at {offset:#x} unsupported")

    def mmio_write(self, bar: Bar, offset: int, data: bytes) -> None:
        raise NotImplementedError(
            f"{self.name}: BAR{bar.index} write at {offset:#x} unsupported")

    # -- DMA helpers (the function acting as bus master) --------------------

    def dma_read(self, addr: int, length: int):
        """Read ``length`` bytes at ``addr`` in the function's host
        address space (non-posted, full round trip): the fabric's read
        event, which fires with the bytes — ``data = yield
        dev.dma_read(...)``."""
        assert self.fabric is not None and self.host and self.node
        return self.fabric.read(self.node, self.host, addr, length)

    def dma_write(self, addr: int, data: bytes):
        """Posted write whose *delivery* the caller waits on: the
        fabric's delivery event, ``yield dev.dma_write(...)`` (device
        models typically don't wait, :meth:`Fabric.post_write`, but may
        when ordering matters)."""
        assert self.fabric is not None and self.host and self.node
        return self.fabric.write(self.node, self.host, addr, data)

    def __repr__(self) -> str:  # pragma: no cover
        where = self.host.name if self.host else "uninstalled"
        return f"<{type(self).__name__} {self.name} in {where}>"
