"""Online tertiary storage: batching queue, metrics, striped volumes.

The serving loop itself is :class:`repro.library.MultiDriveSystem`
(one drive with a preloaded tape for the paper's single-tape setting).
"""

from repro.online.batch_queue import (
    BatchPolicy,
    BatchQueue,
    DeadlineBatchPolicy,
)
from repro.online.metrics import CacheStats, ResponseStats
from repro.online.striping import (
    LogicalRead,
    StripeMapping,
    StripedReadCoordinator,
    StripedVolume,
    striped_volume,
)

__all__ = [
    "BatchPolicy",
    "BatchQueue",
    "CacheStats",
    "DeadlineBatchPolicy",
    "ResponseStats",
    "LogicalRead",
    "StripeMapping",
    "StripedReadCoordinator",
    "StripedVolume",
    "striped_volume",
]
