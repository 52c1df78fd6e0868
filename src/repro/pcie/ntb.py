"""Non-Transparent Bridge model.

An NTB appears as a regular device with a BAR, but reads and writes to
that BAR are *forwarded* to the other side, translating addresses via a
look-up table (paper Sec. III, Fig. 5).  We model the Dolphin-style
adapter: the BAR aperture is divided into windows, each window mapping a
contiguous range of some remote host's physical address space.

The adapter card itself is a PCIe switch chip — traversing it costs the
usual 100-150 ns — and the LUT lookup adds a small translation delay,
accounted per crossing by the fabric.
"""

from __future__ import annotations

import dataclasses

from ..memory import RangeAllocator
from ..sim import Simulator
from .device import Bar, PCIeFunction
from .topology import Host


class NtbError(Exception):
    pass


class NtbLinkDown(NtbError):
    """Raised at resolve time when a transaction would traverse a
    downed NTB adapter link (fault injection).  The fabric converts it
    into the hardware behaviour: posted writes vanish, non-posted reads
    end in a completion timeout."""

    def __init__(self, point: str) -> None:
        super().__init__(f"NTB link down at {point}")
        self.point = point


@dataclasses.dataclass(frozen=True, slots=True)
class NtbWindow:
    """One LUT entry: BAR offset range -> (remote host, remote base)."""

    bar_offset: int
    size: int
    remote_host: Host
    remote_base: int
    label: str = ""

    def contains(self, offset: int, length: int = 1) -> bool:
        return (self.bar_offset <= offset
                and offset + length <= self.bar_offset + self.size)


class NtbFunction(PCIeFunction):
    """NTB device function with a windowed aperture BAR."""

    BAR_INDEX = 0

    def __init__(self, sim: Simulator, name: str, aperture: int) -> None:
        super().__init__(sim, name)
        self.add_bar(self.BAR_INDEX, aperture)
        self._windows: dict[int, NtbWindow] = {}  # keyed by bar_offset
        self._lut_alloc: RangeAllocator | None = None
        self.aperture = aperture
        #: cable state; toggled by fault injection (``link:<host>``)
        self.link_up = True
        self.link_transitions = 0
        #: bumped on every map/unmap; flow records validate against it
        self.lut_version = 0
        #: accounting: successful LUT translations and bytes forwarded
        self.translations = 0
        self.bytes_forwarded = 0

    def on_installed(self) -> None:
        self._lut_alloc = RangeAllocator(0, self.aperture,
                                         name=f"{self.name}.lut")

    # -- window management ------------------------------------------------

    def map_window(self, remote_host: Host, remote_base: int, size: int,
                   label: str = "") -> int:
        """Create a window; returns the *local physical address* through
        which the remote range is reachable on this side."""
        if self._lut_alloc is None:
            raise NtbError(f"{self.name} is not installed")
        if remote_host is self.host:
            raise NtbError(f"{self.name}: window to own host is pointless")
        offset = self._lut_alloc.alloc(size, alignment=0x1000)
        self._windows[offset] = NtbWindow(offset, size, remote_host,
                                          remote_base, label)
        self.lut_version += 1
        bar = self.bars[self.BAR_INDEX]
        assert bar.base is not None
        return bar.base + offset

    def unmap_window(self, local_addr: int) -> None:
        bar = self.bars[self.BAR_INDEX]
        assert bar.base is not None and self._lut_alloc is not None
        offset = local_addr - bar.base
        if offset not in self._windows:
            raise NtbError(f"{self.name}: no window at {local_addr:#x}")
        del self._windows[offset]
        self._lut_alloc.free(offset)
        self.lut_version += 1

    def window_count(self) -> int:
        return len(self._windows)

    # -- link state (fault injection) ---------------------------------------

    def set_link_state(self, up: bool) -> None:
        """Sever or restore the adapter's cable.  While down, every
        translation through this NTB fails with :class:`NtbLinkDown`;
        LUT windows survive the outage (the paper's adapters retrain
        without reprogramming)."""
        if up != self.link_up:
            self.link_up = up
            self.link_transitions += 1

    # -- translation (used by the fabric during resolution) -----------------

    def translate(self, bar: Bar, addr: int, length: int) -> tuple[Host, int]:
        """Translate a local BAR hit into (remote host, remote address)."""
        if not self.link_up:
            raise NtbLinkDown(self.name)
        offset = bar.offset_of(addr)
        window = self._find_window(offset, length)
        if window is None:
            raise NtbError(
                f"{self.name}: access at BAR offset {offset:#x} (+{length}) "
                f"hits no LUT window")
        self.translations += 1
        self.bytes_forwarded += length
        for f in self.probe.mem_event:
            f(self, "translate", addr, length)
        return (window.remote_host,
                window.remote_base + (offset - window.bar_offset))

    def _find_window(self, offset: int, length: int) -> NtbWindow | None:
        # Windows are page-aligned and sparse; linear scan over the dict
        # is fine at realistic window counts (tens), but keep a sorted
        # fallback simple: direct containment test per window.
        for window in self._windows.values():
            if window.contains(offset, length):
                return window
        return None

    # NTB BARs are never accessed as plain MMIO registers in this model —
    # every access is translated and forwarded, so reaching the handlers
    # indicates a fabric bug.
    def mmio_read(self, bar: Bar, offset: int, length: int) -> bytes:
        raise NtbError(f"{self.name}: untranslated read should not happen")

    def mmio_write(self, bar: Bar, offset: int, data: bytes) -> None:
        raise NtbError(f"{self.name}: untranslated write should not happen")
