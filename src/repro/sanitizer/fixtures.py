"""Intentional-bug fixtures: one seeded violation per detector.

Each fixture builds a small cluster with ShareSan attached, breaks the
sharing discipline in exactly one way — revoking a window behind a
tenant's back, skipping the drain barrier on handoff, completing a
command twice, rewinding a CQ consumer, storing into a freed pool
buffer — and returns the sanitizer, whose findings must name exactly
the targeted detector.  ``tests/test_sanitizer.py`` asserts that, and
``repro sanitize selftest`` runs the pack from the CLI.

The violations are injected from *outside* the simulated protocol
(direct state surgery between sim steps), so the production code paths
stay honest: nothing here exercises a bug in the simulator, only in
the fixture's deliberately lawless hands.
"""

from __future__ import annotations

import dataclasses
import typing as t

from ..config import SimulationConfig
from ..driver import DistributedNvmeClient, NvmeManager
from ..driver.dmapool import local_pool
from ..nvme.controller import IoCommand
from ..scenarios.testbed import PcieTestbed
from ..workloads import FioJob, fio_generator, run_fio
from .sanitizer import (DET_DMA_FREED, DET_DOUBLE_COMPLETION,
                        DET_FOREIGN_WINDOW, DET_MISDELIVERY, DET_PHASE,
                        DET_STALE_DOORBELL, ShareSan)


def _sharing_cluster(n_hosts: int, seed: int = 71):
    """A testbed + started manager with one shared-QP reserve, ShareSan
    attached before anything runs (same ordering as the builders)."""
    cfg = SimulationConfig()
    cfg = dataclasses.replace(
        cfg, sharing=dataclasses.replace(cfg.sharing, reserved_qps=1))
    bed = PcieTestbed(n_hosts=n_hosts, with_nvme=True, seed=seed,
                      config=cfg)
    san = ShareSan(bed.sim).attach(controllers=[bed.nvme])
    manager = NvmeManager(bed.sim, bed.smartio, bed.node(0),
                          bed.nvme_device_id, bed.config)
    san.attach(managers=[manager])
    bed.sim.run(until=bed.sim.process(manager.start()))
    return bed, manager, san


def _client(bed, san: ShareSan, host_index: int,
            **kwargs) -> DistributedNvmeClient:
    client = DistributedNvmeClient(bed.sim, bed.smartio,
                                   bed.node(host_index),
                                   bed.nvme_device_id, bed.config,
                                   slot_index=host_index - 1,
                                   name=f"host{host_index}-nvme",
                                   **kwargs)
    san.attach(clients=[client])
    bed.sim.run(until=bed.sim.process(client.start()))
    return client


def foreign_window_write(seed: int = 71) -> ShareSan:
    """Use-after-handoff: the manager revokes a tenant's window, the
    tenant (which never heard) keeps submitting into it."""
    bed, manager, san = _sharing_cluster(3, seed=seed)
    tenant = _client(bed, san, 1, sharing="force")
    # The bug: a revocation path that forgets to notify the tenant.
    manager._release_window(tenant.slot_index)
    job = FioJob(name="foreign", rw="randread", total_ios=1, iodepth=1,
                 seed_stream="fx-foreign")
    bed.sim.process(fio_generator(tenant, job))
    # The orphaned command never completes; run to a horizon instead.
    bed.sim.run(until=bed.sim.timeout(5_000_000))
    return san


def stale_doorbell(seed: int = 71) -> ShareSan:
    """A doorbell rung for a window whose lease already expired (no
    accompanying SQE store, so only the doorbell is at fault)."""
    bed, manager, san = _sharing_cluster(3, seed=seed)
    tenant = _client(bed, san, 1, sharing="force")
    manager._release_window(tenant.slot_index)
    tenant._ring_shared_sq_doorbell(None)
    bed.sim.run(until=bed.sim.timeout(1_000_000))
    return san


def cqe_misdelivery(seed: int = 71) -> ShareSan:
    """Broken handoff: the window moves to a successor while the
    predecessor's commands are still in flight *and* the drain barrier
    is skipped, so their CQEs demux into the successor's mailbox."""
    bed, manager, san = _sharing_cluster(4, seed=seed)
    first = _client(bed, san, 1, sharing="force")
    job = FioJob(name="misdeliver", rw="randread", total_ios=4,
                 iodepth=4, seed_stream="fx-misdeliver")
    bed.sim.process(fio_generator(first, job))
    for _ in range(10_000):
        if len(first._inflight) >= 4:
            break
        bed.sim.run(until=bed.sim.timeout(200))
    assert len(first._inflight) >= 4, "fixture never got commands in flight"
    # The bug: revoke with commands outstanding, then drop the
    # quarantine so the next tenant is admitted into a live window.
    manager._release_window(first.slot_index)
    qp = manager._shared_qps[first.qid]
    qp.draining.clear()
    _client(bed, san, 2, sharing="force")
    bed.sim.run(until=bed.sim.timeout(10_000_000))
    return san


class _CompletedTwice(IoCommand):
    """An I/O command whose completion step runs twice.  (No
    ``__slots__``: an instance keeps its ``again`` mark in a dict.)"""

    def _done(self) -> None:
        if getattr(self, "again", False):
            super()._done()
            return
        self.again = True
        self._complete(self.status, self.result)


def double_completion(seed: int = 71) -> ShareSan:
    """Firmware fault: every I/O command is completed twice."""
    bed, manager, san = _sharing_cluster(2, seed=seed)
    client = _client(bed, san, 1)
    # Swap the record after start() so queue setup (admin phase) stays
    # clean: from here on each I/O command, once completed, completes
    # again, at once, with the same status.
    bed.nvme.command_record = _CompletedTwice
    run_fio(client, FioJob(name="double", rw="randread", total_ios=2,
                           iodepth=1, seed_stream="fx-double"))
    # Drain the trailing duplicate of the final command.
    bed.sim.run(until=bed.sim.timeout(1_000_000))
    return san


def phase_violation(seed: int = 71) -> ShareSan:
    """A CQ consumer rewound mid-run re-walks slots the protocol says
    are behind it (fewer I/Os than one ring lap, so the re-walk meets
    already-consumed entries, not fresh ones)."""
    bed, manager, san = _sharing_cluster(2, seed=seed)
    client = _client(bed, san, 1)
    run_fio(client, FioJob(name="phase", rw="randread", total_ios=10,
                           iodepth=2, seed_stream="fx-phase"))
    assert client.cq.head == 10 < client.cq.entries
    # The bug: the consumer's position resets (say, a botched resync).
    client.cq.head = 0
    run_fio(client, FioJob(name="phase2", rw="randread", total_ios=1,
                           iodepth=1, seed_stream="fx-phase2"))
    return san


def dma_freed_buffer(seed: int = 71) -> ShareSan:
    """A store lands in a dmapool allocation after it was freed."""
    bed = PcieTestbed(n_hosts=2, with_nvme=False, seed=seed)
    san = ShareSan(bed.sim)
    pool = local_pool(bed.hosts[0], 64 * 1024)
    cpu, _dev = pool.alloc(4096)
    pool.free(cpu)
    bed.hosts[0].memory.write(cpu + 64, b"\x5a" * 64)
    return san


#: detector name -> fixture proving that detector fires (and only it)
FIXTURES: dict[str, t.Callable[..., ShareSan]] = {
    DET_FOREIGN_WINDOW: foreign_window_write,
    DET_STALE_DOORBELL: stale_doorbell,
    DET_MISDELIVERY: cqe_misdelivery,
    DET_DOUBLE_COMPLETION: double_completion,
    DET_PHASE: phase_violation,
    DET_DMA_FREED: dma_freed_buffer,
}


def selftest(seed: int = 71) -> dict[str, dict[str, t.Any]]:
    """Run every fixture; report which detectors fired vs. expected."""
    out = {}
    for name, fixture in FIXTURES.items():
        san = fixture(seed=seed)
        fired = sorted(san.detectors_fired())
        out[name] = {"fired": fired, "ok": fired == [name],
                     "findings": len(san.findings)}
    return out
