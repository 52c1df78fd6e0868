"""Stock Linux NVMe driver model (the paper's local baseline, Fig. 9a).

Interrupt-driven: MSI-X vector -> mailbox watchpoint -> IRQ latency ->
CQ drain.  No bounce buffer — request data is DMA'd directly (the kernel
maps user pages).  Software-path costs come from
:class:`~repro.config.HostSoftwareConfig` and are calibrated so 4 KiB QD1
reads land at the P4800X's typical ~11 us.
"""

from __future__ import annotations

from ..config import SimulationConfig
from ..pcie import Fabric, Host
from ..sim import Simulator
from .local import LocalNvmeDriver


class StockNvmeDriver(LocalNvmeDriver):
    """Local, interrupt-driven NVMe block driver."""

    def __init__(self, sim: Simulator, fabric: Fabric, host: Host,
                 bar_addr: int, config: SimulationConfig,
                 qid: int = 1, queue_entries: int = 256,
                 queue_depth: int = 64, name: str = "nvme0n1") -> None:
        cfg = config.host
        super().__init__(
            sim, fabric, host, bar_addr, config, qid, queue_entries,
            queue_depth, name,
            # Block-layer + driver submission software path.
            submit_ns=cfg.block_submit_ns + cfg.nvme_submit_ns,
            # completion processing cost charged inside the waiter
            trigger_ns=cfg.complete_ns,
            irq_ns=cfg.interrupt_latency_ns)
