"""SISCI segment model.

SISCI exposes "segments": linear, physically contiguous regions of a
host's system memory identified cluster-wide by ``(node_id, segment_id)``.
Remote hosts *connect* to a segment and *map* it through their local NTB,
after which plain loads/stores reach the remote memory (paper Sec. IV).

The cluster-global segment directory models Dolphin's fabric services;
its lookups happen at setup time only, never on the I/O path.
"""

from __future__ import annotations

import dataclasses
import typing as t

from ..pcie import Fabric, Host, NtbFunction
from ..sim import Event, Simulator


class SisciError(Exception):
    pass


@dataclasses.dataclass(frozen=True)
class SegmentId:
    node_id: int
    segment_id: int

    def __str__(self) -> str:
        return f"{self.node_id}:{self.segment_id}"


class LocalSegment:
    """A segment allocated in (and owned by) one host's DRAM."""

    def __init__(self, owner: "SisciNode", segment_id: int, size: int) -> None:
        if size <= 0:
            raise SisciError("segment size must be positive")
        self.owner = owner
        self.id = SegmentId(owner.node_id, segment_id)
        self.size = size
        self.phys_addr = owner.host.alloc_dma(size)
        self.available = False
        self.connections: list["RemoteSegment"] = []

    @property
    def host(self) -> Host:
        return self.owner.host

    def set_available(self) -> None:
        self.available = True

    def set_unavailable(self) -> None:
        self.available = False

    def remove(self) -> None:
        if self.connections:
            raise SisciError(
                f"segment {self.id} still has {len(self.connections)} "
                "connections")
        self.owner.host.free_dma(self.phys_addr)
        self.owner._segments.pop(self.id.segment_id, None)
        directory = self.owner.directory
        directory.pop(self.id, None)

    # Local access (the owner's CPU touching its own memory).
    def write(self, offset: int, data: bytes) -> None:
        self.host.memory.write(self.phys_addr + offset, data)

    def read(self, offset: int, length: int) -> bytes:
        return self.host.memory.read(self.phys_addr + offset, length)


class RemoteSegment:
    """A connection to a (possibly remote) segment, mapped via the NTB.

    ``map_addr`` is the physical address in the *connecting* host's
    address space; loads/stores to it are forwarded by the NTB.  When the
    segment happens to live in the connecting host itself, the mapping is
    direct (no NTB window).
    """

    def __init__(self, node: "SisciNode", segment: LocalSegment) -> None:
        self.node = node
        self.segment = segment
        self.size = segment.size
        if segment.host is node.host:
            self.map_addr = segment.phys_addr
            self._window = None
        else:
            self.map_addr = node.ntb.map_window(
                segment.host, segment.phys_addr, segment.size,
                label=f"sisci-{segment.id}")
            self._window = self.map_addr
        segment.connections.append(self)

    def disconnect(self) -> None:
        if self._window is not None:
            self.node.ntb.unmap_window(self._window)
            self._window = None
        try:
            self.segment.connections.remove(self)
        except ValueError:
            pass

    # -- CPU access through the mapping (real fabric cost) -----------------

    def write(self, offset: int, data: bytes):
        """Posted store(s) through the NTB mapping (fire and forget)."""
        if offset + len(data) > self.size:
            raise SisciError("write beyond segment end")
        return self.node.fabric.post_write(
            self.node.host.rc, self.node.host, self.map_addr + offset, data)

    def write_wait(self, offset: int, data: bytes) -> Event:
        """Store and wait for delivery: the fabric's delivery event,
        ``yield conn.write_wait(...)``."""
        if offset + len(data) > self.size:
            raise SisciError("write beyond segment end")
        return self.node.fabric.write(
            self.node.host.rc, self.node.host, self.map_addr + offset, data)

    def read(self, offset: int, length: int) -> Event:
        """Load through the mapping (non-posted, full RTT): the fabric's
        read event, which fires with the bytes — ``yield
        conn.read(...)``."""
        if offset + length > self.size:
            raise SisciError("read beyond segment end")
        return self.node.fabric.read(
            self.node.host.rc, self.node.host, self.map_addr + offset,
            length)


class SisciNode:
    """Per-host SISCI runtime: owns the node id, the adapter, segments."""

    def __init__(self, sim: Simulator, host: Host, ntb: NtbFunction,
                 fabric: Fabric, node_id: int,
                 directory: dict[SegmentId, LocalSegment]) -> None:
        self.sim = sim
        self.host = host
        self.ntb = ntb
        self.fabric = fabric
        self.node_id = node_id
        self.directory = directory
        self._segments: dict[int, LocalSegment] = {}

    def create_segment(self, segment_id: int, size: int) -> LocalSegment:
        if segment_id in self._segments:
            raise SisciError(f"segment id {segment_id} already exists "
                             f"on node {self.node_id}")
        seg = LocalSegment(self, segment_id, size)
        self._segments[segment_id] = seg
        self.directory[seg.id] = seg
        return seg

    def connect_segment(self, node_id: int, segment_id: int) -> RemoteSegment:
        seg = self.directory.get(SegmentId(node_id, segment_id))
        if seg is None:
            raise SisciError(f"no segment {node_id}:{segment_id}")
        if not seg.available:
            raise SisciError(f"segment {node_id}:{segment_id} "
                             "is not available")
        return RemoteSegment(self, seg)

    def local_segment(self, segment_id: int) -> LocalSegment:
        try:
            return self._segments[segment_id]
        except KeyError:
            raise SisciError(f"node {self.node_id} has no segment "
                             f"{segment_id}") from None
