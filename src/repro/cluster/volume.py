"""ANA-style multipath volume over striped/replicated members.

A :class:`ClusterVolume` is the client-side face of the cluster block
layer: a :class:`~repro.driver.blockdev.BlockDevice` whose members are
per-device :class:`~repro.driver.client.DistributedNvmeClient` paths,
addressed through a :class:`~repro.cluster.layout.VolumeLayout`.

Path-state semantics mirror NVMe ANA (Asymmetric Namespace Access):

* each member path is ``optimized`` (serving I/O) or ``inaccessible``
  (a host-side transport verdict took it down);
* only *host-side* vendor statuses (SCT 7: timeout, shutdown, crash)
  demote a path — media and protocol errors (e.g. an out-of-range read
  the backend rejects) are device answers delivered over a healthy
  path and pass through unchanged;
* reads retry down the replica preference order and only surface
  :data:`STATUS_NO_PATH` once every replica of the extent is gone;
* writes fan out to all live replicas in parallel and succeed while at
  least one replica lands (``degraded_writes`` counts the narrower
  ones);
* there is no resilvering: a demoted path stays down for the life of
  the run, and chunks whose every replica died stay unreachable.  The
  repair story is out of scope here (docs/cluster.md discusses it).
"""

from __future__ import annotations

import typing as t

from ..driver.blockdev import BlockDevice, BlockError, BlockRequest
from ..driver.qpair import HOST_PATH_STATUSES
from ..sim import Simulator
from .layout import Extent, VolumeLayout

#: no optimized path holds a live replica of the addressed chunk
STATUS_NO_PATH = 0x7_10

#: host-side transport verdicts that demote a path (everything else is
#: an answer from the device, not evidence the path died)
PATH_FAILING_STATUSES = HOST_PATH_STATUSES

ANA_OPTIMIZED = "optimized"
ANA_INACCESSIBLE = "inaccessible"


class ClusterVolume(BlockDevice):
    """Multipath striped volume over per-device client paths."""

    def __init__(self, sim: Simulator, layout: VolumeLayout,
                 paths: t.Sequence[BlockDevice],
                 queue_depth: int = 64, name: str | None = None) -> None:
        if len(paths) != layout.width:
            raise BlockError(
                f"layout wants {layout.width} paths, got {len(paths)}")
        lba = paths[0].lba_bytes
        if any(p.lba_bytes != lba for p in paths):
            raise BlockError("paths disagree on LBA size")
        if any(p.sim is not sim for p in paths):
            raise BlockError("paths must share a simulator")
        for path in paths:
            if path.capacity_lbas < layout.member_lbas:
                raise BlockError(
                    f"path {path.name} holds {path.capacity_lbas} LBAs, "
                    f"volume needs {layout.member_lbas} per member")
        self.layout = layout
        self.paths = list(paths)
        self.path_states = [ANA_OPTIMIZED] * layout.width
        # Cluster-layer counters (scraped by telemetry).
        self.failovers = 0          # reads redirected to another replica
        self.path_errors = 0        # host-status failures observed
        self.degraded_writes = 0    # writes that lost >= 1 replica
        super().__init__(sim, name or layout.name, lba_bytes=lba,
                         capacity_lbas=layout.capacity_lbas,
                         queue_depth=queue_depth)
        # All member paths act for the one host that owns the volume;
        # volume-level histogram records (including NO_PATH failures
        # that never reach a member path) belong to that tenant.
        self.tenant = paths[0].tenant

    # -- path state -------------------------------------------------------

    @property
    def live_paths(self) -> int:
        return sum(1 for s in self.path_states if s == ANA_OPTIMIZED)

    def path_is_live(self, member: int) -> bool:
        return self.path_states[member] == ANA_OPTIMIZED

    def path_health(self) -> tuple[int, ...]:
        """Per-member 1/0 health vector, member order (for the
        time-series sampler's ``cluster_path_health`` series)."""
        return tuple(1 if s == ANA_OPTIMIZED else 0
                     for s in self.path_states)

    def _demote(self, member: int, status: int) -> None:
        self.path_errors += 1
        if self.path_states[member] == ANA_INACCESSIBLE:
            return
        self.path_states[member] = ANA_INACCESSIBLE
        for f in self.probe.recovery:
            f(self, "path-down", volume=self.name, member=member,
              path=self.paths[member].name, status=status)

    # -- data path --------------------------------------------------------

    def _driver_submit(self, request: BlockRequest) -> t.Generator:
        if request.op == "flush":
            yield from self._submit_flush(request)
            return
        extents = self.layout.split(request.lba, request.nblocks)
        procs = [self.sim.process(self._run_extent(request, e))
                 for e in extents]
        done = yield self.sim.all_of(procs)
        results = list(done.values())   # (status, data) in extent order
        request.status = max(status for status, _data in results)
        if request.op == "read" and request.ok:
            out = bytearray(request.nblocks * self.lba_bytes)
            for extent, (_status, data) in zip(extents, results):
                assert data is not None
                start = extent.offset_blocks * self.lba_bytes
                out[start:start + len(data)] = data
            request.result = bytes(out)

    def _run_extent(self, request: BlockRequest,
                    extent: Extent) -> t.Generator:
        """Extent process body; returns ``(status, read_data_or_None)``."""
        if request.op in BlockRequest.MUTATING_OPS:
            status = yield from self._write_extent(request, extent)
            return status, None
        return (yield from self._read_extent(request, extent))

    def _sub(self, request: BlockRequest, extent: Extent,
             member_lba: int) -> BlockRequest:
        if request.op in BlockRequest.DATA_OUT_OPS:
            assert request.data is not None
            start = extent.offset_blocks * self.lba_bytes
            piece = request.data[start:start
                                 + extent.nblocks * self.lba_bytes]
            return BlockRequest(request.op, lba=member_lba, data=piece)
        return BlockRequest(request.op, lba=member_lba,
                            nblocks=extent.nblocks)

    def _read_extent(self, request: BlockRequest,
                     extent: Extent) -> t.Generator:
        """Try replicas in preference order; fail over on host status."""
        tried_any = False
        for member, member_lba in extent.targets:
            if not self.path_is_live(member):
                continue
            if tried_any:
                self.failovers += 1
                for f in self.probe.recovery:
                    f(self, "failover", volume=self.name, lba=request.lba,
                      member=member)
            tried_any = True
            sub = self._sub(request, extent, member_lba)
            yield self.paths[member].submit(sub)
            if sub.status in PATH_FAILING_STATUSES:
                self._demote(member, sub.status)
                continue            # next replica, if any
            if request.op == "read" and sub.ok:
                return sub.status, sub.result or b""
            return sub.status, None   # device's answer, pass through
        return STATUS_NO_PATH, None

    def _write_extent(self, request: BlockRequest,
                      extent: Extent) -> t.Generator:
        """Fan out to all live replicas; one survivor is success."""
        live = [(m, mlba) for m, mlba in extent.targets
                if self.path_is_live(m)]
        if not live:
            return STATUS_NO_PATH
        subs = [(m, self._sub(request, extent, mlba)) for m, mlba in live]
        yield self.sim.all_of([self.paths[m].submit(s) for m, s in subs])
        ok = 0
        worst = 0
        for member, sub in subs:
            if sub.status in PATH_FAILING_STATUSES:
                self._demote(member, sub.status)
            elif sub.ok:
                ok += 1
            else:
                worst = max(worst, sub.status)
        if ok == 0:
            # All replicas refused or died: surface the device's error
            # if any path answered, else the transport verdict.
            return worst or STATUS_NO_PATH
        if ok < len(extent.targets):
            self.degraded_writes += 1
        return 0

    def _submit_flush(self, request: BlockRequest) -> t.Generator:
        subs = [(m, BlockRequest("flush"))
                for m in range(self.layout.width) if self.path_is_live(m)]
        if not subs:
            request.status = STATUS_NO_PATH
            return
        yield self.sim.all_of([self.paths[m].submit(s) for m, s in subs])
        answered = False
        worst = 0
        for member, sub in subs:
            if sub.status in PATH_FAILING_STATUSES:
                self._demote(member, sub.status)
            else:
                answered = True
                worst = max(worst, sub.status)
        request.status = worst if answered else STATUS_NO_PATH
