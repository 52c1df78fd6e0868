"""SPDK-like local userspace NVMe driver.

The polling, zero-interrupt, zero-copy design the paper's target side
uses (and the design point its Related Work contrasts with: queue-level
sharing *within* one host, as in SPDK / NVMeDirect [23]).  Included as a
first-class baseline so the benchmarks can separate "polling vs
interrupts" from "naive vs optimised software path":

* no interrupts — completions are discovered by busy-polling CQ memory;
* no bounce buffer — data buffers are registered hugepage memory the
  device DMAs into directly;
* minimal per-command software cost (userspace, no syscalls).
"""

from __future__ import annotations

from ..config import SimulationConfig
from ..pcie import Fabric, Host
from ..sim import Simulator
from .local import LocalNvmeDriver


class SpdkLocalDriver(LocalNvmeDriver):
    """Userspace polling driver for a local NVMe controller."""

    #: userspace submission cost: build SQE + ring doorbell, no kernel.
    SUBMIT_NS = 250
    #: completion handling after the CQE is observed.
    COMPLETE_NS = 180
    #: busy-poll granularity (expected notice delay: uniform in [0, this]).
    POLL_INTERVAL_NS = 120

    def __init__(self, sim: Simulator, fabric: Fabric, host: Host,
                 bar_addr: int, config: SimulationConfig,
                 qid: int = 1, queue_entries: int = 256,
                 queue_depth: int = 64, name: str = "spdk-nvme") -> None:
        super().__init__(
            sim, fabric, host, bar_addr, config, qid, queue_entries,
            queue_depth, name, submit_ns=self.SUBMIT_NS,
            wake_ns=self.COMPLETE_NS, poll_stream=f"spdk-poll:{name}",
            poll_ns=self.POLL_INTERVAL_NS)
