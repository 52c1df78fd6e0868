"""Discrete-event simulation kernel (integer-nanosecond clock).

Public surface::

    from repro.sim import Simulator, Resource, Store, Signal
"""

from .core import Simulator
from .events import AllOf, AnyOf, Event, Timeout
from .process import Interrupt, Process
from .resources import (Request, Resource, Signal, Store, giver,
                        take_all)
from .rng import RngRegistry
from .shard import (ShardBoundary, ShardError, ShardRun, merge_disjoint,
                    merge_metric_snapshots, run_sharded, value_fingerprint)
from .stats import (BoxplotStats, Counter, LatencyRecorder, iops,
                    throughput_bytes_per_s)
from .trace import NULL_TRACER, NullTracer, Tracer, TraceRecord

__all__ = [
    "Simulator", "Event", "Timeout", "AnyOf", "AllOf",
    "Process", "Interrupt",
    "Resource", "Request", "Store", "Signal", "take_all", "giver",
    "RngRegistry",
    "ShardBoundary", "ShardError", "ShardRun", "run_sharded",
    "merge_disjoint", "merge_metric_snapshots", "value_fingerprint",
    "LatencyRecorder", "BoxplotStats", "Counter", "iops",
    "throughput_bytes_per_s",
    "Tracer", "TraceRecord", "NullTracer", "NULL_TRACER",
]
