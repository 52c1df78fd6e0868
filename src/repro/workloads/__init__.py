"""Synthetic storage workloads: fio-like jobs plus realistic access
patterns (zipfian popularity, bursty arrivals, mixed-size profiles)."""

from .fio import FioJob, FioResult, fio_generator, run_fio, run_fio_many
from .open_loop import (ARRIVAL_MODELS, OpenLoopJob, OpenLoopResult,
                        arrival_times, open_loop_generator, peak_rate,
                        rate_at, run_open_loop, run_open_loop_many)
from .patterns import (BurstyArrivals, MixedBlockProfile, PatternResult,
                       PROFILES, ZipfianAccess, pattern_generator,
                       run_pattern)
from .replay import (TRACE_OPS, BlockTrace, RecordingDevice, TraceEntry,
                     TraceError, replay_trace)

__all__ = ["FioJob", "FioResult", "fio_generator", "run_fio",
           "run_fio_many",
           "ARRIVAL_MODELS", "OpenLoopJob", "OpenLoopResult",
           "arrival_times", "open_loop_generator", "peak_rate",
           "rate_at", "run_open_loop", "run_open_loop_many",
           "ZipfianAccess", "BurstyArrivals", "MixedBlockProfile",
           "PROFILES", "PatternResult", "pattern_generator",
           "run_pattern",
           "BlockTrace", "TraceEntry", "TraceError", "TRACE_OPS",
           "RecordingDevice", "replay_trace"]
