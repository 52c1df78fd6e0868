"""NVMe device model: spec-level structures, queues, PRPs, media timing
and the controller state machine."""

from .constants import (AdminOpcode, IoOpcode, Status, DOORBELL_BASE,
                        PAGE_SIZE, SQE_SIZE, CQE_SIZE, IDENTIFY_SIZE)
from .controller import NvmeController
from .media import Media, NandMedia, OptaneMedia, NAND_CONFIG
from .namespace import Namespace, NamespaceError
from .prp import (PrpDescriptor, PrpError, build_prps, page_segments,
                  prp_list_page, prp_segments)
from .queues import (CompletionQueueState, QueueError, SqWindowState,
                     SubmissionQueueState)
from .registers import (RegisterFile, build_cap, cq_doorbell_offset,
                        doorbell_index, sq_doorbell_offset,
                        MSIX_TABLE_OFFSET, MSIX_ENTRY_SIZE, MSIX_VECTORS)
from .structs import (CompletionEntry, IdentifyController,
                      IdentifyNamespace, SubmissionEntry)

__all__ = [
    "NvmeController",
    "AdminOpcode", "IoOpcode", "Status",
    "DOORBELL_BASE", "PAGE_SIZE", "SQE_SIZE", "CQE_SIZE", "IDENTIFY_SIZE",
    "Media", "OptaneMedia", "NandMedia", "NAND_CONFIG",
    "Namespace", "NamespaceError",
    "PrpDescriptor", "PrpError", "build_prps", "page_segments",
    "prp_segments", "prp_list_page",
    "SubmissionQueueState", "CompletionQueueState", "SqWindowState",
    "QueueError",
    "RegisterFile", "build_cap", "doorbell_index", "sq_doorbell_offset",
    "cq_doorbell_offset", "MSIX_TABLE_OFFSET", "MSIX_ENTRY_SIZE",
    "MSIX_VECTORS",
    "SubmissionEntry", "CompletionEntry", "IdentifyController",
    "IdentifyNamespace",
]
