"""Discrete-event simulation kernel (integer-nanosecond clock).

Public surface::

    from repro.sim import Simulator, Resource, Store, Signal
"""

from .core import Simulator
from .events import AllOf, AnyOf, Event, Timeout
from .probe import Probe
from .process import Interrupt, Process
from .resources import HoldPlan, Request, Resource, Signal, Store
from .rng import BufferedDraw, RngRegistry
from .stats import (BoxplotStats, Counter, LatencyRecorder, iops,
                    throughput_bytes_per_s)
from .trace import Tracer, TraceRecord

__all__ = [
    "Simulator", "Event", "Timeout", "AnyOf", "AllOf",
    "Process", "Interrupt",
    "Resource", "Request", "Store", "Signal", "HoldPlan",
    "RngRegistry", "BufferedDraw",
    "LatencyRecorder", "BoxplotStats", "Counter", "iops",
    "throughput_bytes_per_s",
    "Probe", "Tracer", "TraceRecord",
]
