"""Verbs-like RDMA substrate (QPs, CQs, MRs) with a ConnectX-5-class NIC
and 100 Gb/s wire model — the transport under the NVMe-oF baseline."""

from .nic import IbLink, RdmaNic
from .verbs import (CompletionQueue, MemoryRegion, ProtectionDomain,
                    QueuePair, RdmaError, RecvLoop, RecvWR, SendWR,
                    WcStatus, WorkCompletion, WrOpcode)

__all__ = [
    "RdmaNic", "IbLink",
    "QueuePair", "CompletionQueue", "ProtectionDomain", "MemoryRegion",
    "SendWR", "RecvWR", "WorkCompletion", "WcStatus", "WrOpcode",
    "RdmaError", "RecvLoop",
]
