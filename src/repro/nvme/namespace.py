"""Namespace: the logical-block store behind the controller.

Data lives in a paged byte store (:mod:`repro.memory.paged`, the one
host DRAM uses too), so a namespace can present hundreds of gigabytes
while only written pages consume simulator RAM, and a block read or
write is one slice of it.  Reads of never-written blocks return zeroes,
as a freshly formatted device would.
"""

from __future__ import annotations

from ..memory.paged import paged_bytes
from .constants import PAGE_SIZE
from .structs import IdentifyNamespace


class NamespaceError(Exception):
    pass


class Namespace:
    """One NVMe namespace with real (paged) data contents."""

    def __init__(self, nsid: int, capacity_lbas: int,
                 lba_bytes: int = 512) -> None:
        if nsid < 1:
            raise NamespaceError("NSID must be >= 1")
        if lba_bytes & (lba_bytes - 1) or lba_bytes < 512:
            raise NamespaceError("LBA size must be a power of two >= 512")
        if capacity_lbas < 1:
            raise NamespaceError("capacity must be at least one LBA")
        self.nsid = nsid
        self.capacity_lbas = capacity_lbas
        self.lba_bytes = lba_bytes
        self._bytes = paged_bytes(capacity_lbas * lba_bytes)
        #: pages ever written: what ``written_bytes`` and NUSE report
        self._written: set[int] = set()

    def check_range(self, slba: int, nblocks: int) -> None:
        if nblocks <= 0:
            raise NamespaceError("block count must be positive")
        if slba < 0 or slba + nblocks > self.capacity_lbas:
            raise NamespaceError(
                f"LBA range [{slba}, +{nblocks}) exceeds capacity "
                f"{self.capacity_lbas}")

    # -- byte-level access (LBA*size arithmetic done by the controller) -----

    def read_blocks(self, slba: int, nblocks: int) -> bytes:
        self.check_range(slba, nblocks)
        start = slba * self.lba_bytes
        return self._bytes[start: start + nblocks * self.lba_bytes]

    def write_blocks(self, slba: int, data: bytes) -> None:
        length = len(data)
        if length % self.lba_bytes:
            raise NamespaceError(
                f"write length {length} not a multiple of LBA size")
        self.check_range(slba, length // self.lba_bytes)
        start = slba * self.lba_bytes
        self._bytes[start: start + length] = data
        self._written.update(range(start // PAGE_SIZE,
                                   (start + length - 1) // PAGE_SIZE + 1))

    def written_bytes(self) -> int:
        """Bytes of the pages ever written: what the store materialised."""
        return len(self._written) * PAGE_SIZE

    def identify(self) -> IdentifyNamespace:
        return IdentifyNamespace(
            nsze=self.capacity_lbas,
            ncap=self.capacity_lbas,
            nuse=self.written_bytes() // self.lba_bytes,
            lba_shift=self.lba_bytes.bit_length() - 1,
        )
