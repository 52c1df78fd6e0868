"""NVMe drivers: the distributed manager/client pair (the paper's
contribution) plus the stock-Linux local baseline, over a shared
block-device abstraction."""

from .adminq import AdminError, AdminQueues
from .blockdev import BlockDevice, BlockError, BlockRequest
from .client import ClientError, DistributedNvmeClient
from .dmapool import DmaPool, local_pool
from .manager import ManagerError, NvmeManager
from .qpair import (HOST_PATH_STATUSES, STATUS_HOST_CRASHED,
                    STATUS_HOST_SHUTDOWN, STATUS_HOST_TIMEOUT)
from .spdk_local import SpdkLocalDriver
from .stock import StockNvmeDriver

__all__ = [
    "BlockDevice", "BlockRequest", "BlockError",
    "AdminQueues", "AdminError",
    "DmaPool", "local_pool",
    "NvmeManager", "ManagerError",
    "DistributedNvmeClient", "ClientError",
    "STATUS_HOST_TIMEOUT", "STATUS_HOST_SHUTDOWN", "STATUS_HOST_CRASHED",
    "HOST_PATH_STATUSES",
    "StockNvmeDriver", "SpdkLocalDriver",
]
