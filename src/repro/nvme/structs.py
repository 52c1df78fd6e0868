"""Binary layouts of NVMe commands, completions and identify data.

Everything round-trips through real little-endian bytes — the controller
*fetches 64-byte SQEs from queue memory over the fabric and decodes them*,
exactly as hardware does, so a driver bug that builds a malformed SQE is
observable the same way it would be on metal.
"""

from __future__ import annotations

import dataclasses
import struct

from .constants import CQE_SIZE, SQE_SIZE

_SQE_PACK = struct.Struct("<I I Q Q Q Q I I I I I I")
assert _SQE_PACK.size == SQE_SIZE


@dataclasses.dataclass(slots=True)
class SubmissionEntry:
    """One 64-byte submission queue entry."""

    opcode: int = 0
    cid: int = 0
    nsid: int = 0
    mptr: int = 0
    prp1: int = 0
    prp2: int = 0
    cdw10: int = 0
    cdw11: int = 0
    cdw12: int = 0
    cdw13: int = 0
    cdw14: int = 0
    cdw15: int = 0
    fuse: int = 0
    psdt: int = 0

    def pack(self) -> bytes:
        if not 0 <= self.cid <= 0xFFFF:
            raise ValueError(f"cid out of range: {self.cid}")
        if not 0 <= self.opcode <= 0xFF:
            raise ValueError(f"opcode out of range: {self.opcode}")
        dw0 = (self.opcode | ((self.fuse & 0x3) << 8)
               | ((self.psdt & 0x3) << 14) | (self.cid << 16))
        return _SQE_PACK.pack(dw0, self.nsid, 0, self.mptr, self.prp1,
                              self.prp2, self.cdw10, self.cdw11, self.cdw12,
                              self.cdw13, self.cdw14, self.cdw15)

    @classmethod
    def unpack(cls, data: bytes) -> "SubmissionEntry":
        if len(data) != SQE_SIZE:
            raise ValueError(f"SQE must be {SQE_SIZE} bytes, got {len(data)}")
        # hot-path: one per fetched command; positional, since keyword
        # construction was most of a decode's cost
        (dw0, nsid, _rsvd, mptr, prp1, prp2, c10, c11, c12, c13, c14,
         c15) = _SQE_PACK.unpack(data)
        return cls(dw0 & 0xFF, dw0 >> 16, nsid, mptr, prp1, prp2, c10, c11,
                   c12, c13, c14, c15, (dw0 >> 8) & 0x3, (dw0 >> 14) & 0x3)

    # -- I/O command helpers --------------------------------------------------

    @property
    def slba(self) -> int:
        return self.cdw10 | (self.cdw11 << 32)

    @slba.setter
    def slba(self, value: int) -> None:
        self.cdw10 = value & 0xFFFF_FFFF
        self.cdw11 = (value >> 32) & 0xFFFF_FFFF

    @property
    def nlb(self) -> int:
        """Number of logical blocks, 0-based (0 means 1 block)."""
        return self.cdw12 & 0xFFFF

    @nlb.setter
    def nlb(self, value: int) -> None:
        self.cdw12 = (self.cdw12 & ~0xFFFF) | (value & 0xFFFF)


_CQE_PACK = struct.Struct("<I I H H H H")
assert _CQE_PACK.size == CQE_SIZE


@dataclasses.dataclass(slots=True)
class CompletionEntry:
    """One 16-byte completion queue entry."""

    result: int = 0
    sq_head: int = 0
    sq_id: int = 0
    cid: int = 0
    status: int = 0      # combined SCT<<8 | SC (see constants.Status)
    phase: int = 0

    def pack(self) -> bytes:
        sct = (self.status >> 8) & 0x7
        sc = self.status & 0xFF
        dw3_hi = (((sct << 8) | sc) << 1) | (self.phase & 1)
        return _CQE_PACK.pack(self.result, 0, self.sq_head, self.sq_id,
                              self.cid, dw3_hi)

    @classmethod
    def unpack(cls, data: bytes) -> "CompletionEntry":
        if len(data) != CQE_SIZE:
            raise ValueError(f"CQE must be {CQE_SIZE} bytes, got {len(data)}")
        # hot-path: positional, as SubmissionEntry.unpack
        result, _rsvd, sq_head, sq_id, cid, dw3_hi = _CQE_PACK.unpack(data)
        code = dw3_hi >> 1
        return cls(result, sq_head, sq_id, cid,
                   ((code >> 8) & 0x7) << 8 | (code & 0xFF), dw3_hi & 1)

    @property
    def ok(self) -> bool:
        return self.status == 0


# --- identify data ----------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class IdentifyController:
    """Subset of the Identify Controller data structure (CNS=01h)."""

    vid: int = 0x8086
    serial: str = "SIMPCIE000000001"
    model: str = "Simulated Optane P4800X"
    firmware: str = "E2010435"
    #: max data transfer size as a power-of-two multiple of the min page
    mdts: int = 5            # 2^5 * 4KiB = 128 KiB
    #: number of namespaces
    nn: int = 1
    #: submission/completion queue entry sizes (log2), required 6 and 4
    sqes: int = 0x66
    cqes: int = 0x44

    def pack(self) -> bytes:
        buf = bytearray(4096)
        struct.pack_into("<H", buf, 0, self.vid)
        struct.pack_into("<H", buf, 2, self.vid)          # SSVID
        buf[4:24] = self.serial.encode("ascii")[:20].ljust(20)
        buf[24:64] = self.model.encode("ascii")[:40].ljust(40)
        buf[64:72] = self.firmware.encode("ascii")[:8].ljust(8)
        buf[77] = self.mdts
        buf[512] = self.sqes
        buf[513] = self.cqes
        struct.pack_into("<I", buf, 516, self.nn)
        return bytes(buf)

    @classmethod
    def unpack(cls, data: bytes) -> "IdentifyController":
        return cls(
            vid=struct.unpack_from("<H", data, 0)[0],
            serial=data[4:24].decode("ascii").strip(),
            model=data[24:64].decode("ascii").strip(),
            firmware=data[64:72].decode("ascii").strip(),
            mdts=data[77],
            nn=struct.unpack_from("<I", data, 516)[0],
            sqes=data[512],
            cqes=data[513],
        )


@dataclasses.dataclass(frozen=True)
class IdentifyNamespace:
    """Subset of the Identify Namespace data structure (CNS=00h)."""

    nsze: int = 0            # namespace size in LBAs
    ncap: int = 0            # capacity in LBAs
    nuse: int = 0            # utilisation in LBAs
    lba_shift: int = 9       # 2^9 = 512-byte LBAs

    def pack(self) -> bytes:
        buf = bytearray(4096)
        struct.pack_into("<Q", buf, 0, self.nsze)
        struct.pack_into("<Q", buf, 8, self.ncap)
        struct.pack_into("<Q", buf, 16, self.nuse)
        buf[25] = 0           # NLBAF: one format
        buf[26] = 0           # FLBAS: format 0
        # LBA format 0 descriptor at offset 128: LBADS in bits 23:16
        struct.pack_into("<I", buf, 128, self.lba_shift << 16)
        return bytes(buf)

    @classmethod
    def unpack(cls, data: bytes) -> "IdentifyNamespace":
        nsze, ncap, nuse = struct.unpack_from("<QQQ", data, 0)
        lbaf0 = struct.unpack_from("<I", data, 128)[0]
        return cls(nsze=nsze, ncap=ncap, nuse=nuse,
                   lba_shift=(lbaf0 >> 16) & 0xFF)

    @property
    def lba_bytes(self) -> int:
        return 1 << self.lba_shift
