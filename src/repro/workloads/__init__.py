"""Synthetic storage workloads: fio-like closed-loop jobs (with fio's
size mixes and zipf hot blocks, and application profiles built from
them), open-loop arrival models and block-trace replay."""

from .fio import (PROFILES, FioJob, FioResult, fio_generator, run_fio,
                  run_fio_many)
from .open_loop import (ARRIVAL_MODELS, OpenLoopJob, OpenLoopResult,
                        arrival_times, open_loop_generator, peak_rate,
                        rate_at, run_open_loop, run_open_loop_many)
from .replay import (TRACE_OPS, BlockTrace, RecordingDevice, TraceEntry,
                     TraceError, replay_trace)

__all__ = ["FioJob", "FioResult", "fio_generator", "run_fio",
           "run_fio_many", "PROFILES",
           "ARRIVAL_MODELS", "OpenLoopJob", "OpenLoopResult",
           "arrival_times", "open_loop_generator", "peak_rate",
           "rate_at", "run_open_loop", "run_open_loop_many",
           "BlockTrace", "TraceEntry", "TraceError", "TRACE_OPS",
           "RecordingDevice", "replay_trace"]
