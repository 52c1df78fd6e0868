"""Flexible-I/O-Tester-like synthetic workload generator.

Models the fio usage in the paper's evaluation (Sec. VI): random
read/write, configurable block size, queue depth and duration, per-I/O
completion-latency recording.  ``iodepth`` is implemented the way fio's
async engines behave: that many I/Os are kept outstanding at all times,
each by a worker record (:class:`_Worker`), no process per I/O.

The paper runs 60-second wall-clock tests; simulated runs are configured
by I/O count or simulated time instead — QD1 latency distributions on a
consistent device converge after a few thousand samples (the media
jitter model is stationary), which tests assert.
"""

from __future__ import annotations

import dataclasses
import typing as t

import numpy as np

from ..driver.blockdev import BlockDevice, BlockRequest
from ..sim import BoxplotStats, Event, LatencyRecorder
from ..sim.resources import Record


@dataclasses.dataclass(frozen=True)
class FioJob:
    """A synthetic workload specification (fio-style)."""

    name: str = "job"
    rw: str = "randread"          # randread|randwrite|randrw|read|write
    bs: int = 4096                # bytes per I/O
    iodepth: int = 1
    total_ios: int | None = 1000  # stop after this many I/Os…
    runtime_ns: int | None = None  # …or after this much simulated time
    rwmixread: int = 50           # % reads for randrw
    region_lbas: int | None = None  # working-set bound (default: device)
    ramp_ios: int = 0             # warm-up I/Os excluded from stats
    seed_stream: str = "fio"
    verify: bool = False          # re-read and compare after writes

    def __post_init__(self) -> None:
        if self.rw not in ("randread", "randwrite", "randrw", "read",
                           "write"):
            raise ValueError(f"unknown rw mode: {self.rw}")
        if self.bs <= 0 or self.iodepth <= 0:
            raise ValueError("bs and iodepth must be positive")
        if self.total_ios is None and self.runtime_ns is None:
            raise ValueError("need total_ios or runtime_ns")
        if not 0 <= self.rwmixread <= 100:
            raise ValueError("rwmixread must be 0..100")


@dataclasses.dataclass
class FioResult:
    """Measurements from one job run.

    ``elapsed_ns`` is the whole job, warm-up included; ``measured_ns``
    is the window ``ios`` and ``bytes_moved`` were counted in, from the
    ``ramp_ios``-th completion (the job's start without a warm-up) to
    the job's end.  Throughput is taken over the measured window."""

    job: FioJob
    device_name: str
    ios: int
    bytes_moved: int
    elapsed_ns: int
    read_latencies: LatencyRecorder
    write_latencies: LatencyRecorder
    errors: int = 0
    measured_ns: int = 0

    @property
    def iops(self) -> float:
        if self.measured_ns <= 0:
            return 0.0
        return self.ios / (self.measured_ns / 1e9)

    @property
    def bandwidth_bytes_per_s(self) -> float:
        if self.measured_ns <= 0:
            return 0.0
        return self.bytes_moved / (self.measured_ns / 1e9)

    def summary(self, op: str = "read") -> BoxplotStats:
        rec = (self.read_latencies if op == "read"
               else self.write_latencies)
        return rec.summary()

    def all_latencies(self) -> np.ndarray:
        return np.concatenate([self.read_latencies.values(),
                               self.write_latencies.values()])


class _Job:
    """One fio job's shared state: what it picks next, what it counted."""

    def __init__(self, device: BlockDevice, job: FioJob,
                 result: FioResult, rng, slots, base_payload: bytes,
                 max_slot: int, lba_per_io: int,
                 deadline: int | None) -> None:
        self.device = device
        self.job = job
        self.result = result
        self.rng = rng
        self.slots = slots
        self.base_payload = base_payload
        self.max_slot = max_slot
        self.lba_per_io = lba_per_io
        self.deadline = deadline
        self.issued = 0
        self.done = 0
        #: when the measured window opened: the start, then the instant
        #: of the ``ramp_ios``-th completion
        self.warmed_ns = device.sim.now

    def pick_op(self) -> str:
        job = self.job
        if job.rw in ("randread", "read"):
            return "read"
        if job.rw in ("randwrite", "write"):
            return "write"
        return ("read" if self.rng.integers(0, 100) < job.rwmixread
                else "write")

    def pick_lba(self, seq_index: int) -> int:
        if self.job.rw in ("read", "write"):          # sequential modes
            return (seq_index % self.max_slot) * self.lba_per_io
        slots = self.slots
        if slots is None:
            return int(self.rng.integers(0, self.max_slot)) * self.lba_per_io
        try:
            slot = slots.buf[slots.pos]
            slots.pos += 1
        except IndexError:
            slot = slots.refill()
        return slot * self.lba_per_io

    def should_stop(self) -> bool:
        job = self.job
        if job.total_ios is not None and self.issued >= job.total_ios:
            return True
        deadline = self.deadline
        return deadline is not None and self.device.sim.now >= deadline


class _Worker(Record):
    """One of a job's ``iodepth`` outstanding I/Os, walked from
    callbacks: submit, account the completion (in verify mode, read it
    back first), submit the next.  It boots on the URGENT lane and ends
    (:meth:`~repro.sim.resources.Record._end`, queued for the job's
    ``all_of``) once the job stops, or fails, queued, if a read-back
    differs."""

    __slots__ = ("fio", "op", "lba", "request")

    def __init__(self, fio: _Job) -> None:
        self.fio = fio
        Record.__init__(self, fio.device.sim, self._next)

    def _next(self, _event: Event | None = None) -> None:
        # hot-path
        fio = self.fio
        if fio.should_stop():
            self._end()
            return
        index = fio.issued
        fio.issued = index + 1
        self.op = op = fio.pick_op()
        self.lba = lba = fio.pick_lba(index)
        if op == "write":
            payload = (index.to_bytes(8, "little")
                       + lba.to_bytes(8, "little")
                       + fio.base_payload[16:])
            request = BlockRequest("write", lba=lba, data=payload)
        else:
            request = BlockRequest("read", lba=lba,
                                   nblocks=fio.lba_per_io)
        self.request = request
        fio.device.submit(request).callbacks.append(self._completed)

    def _completed(self, done: Event) -> None:
        # hot-path
        completed = done._value
        fio = self.fio
        fio.done += 1
        result = fio.result
        job = fio.job
        if fio.done == job.ramp_ios:
            fio.warmed_ns = self.sim._now
        if not completed.ok:
            result.errors += 1
            self._next()
            return
        op = self.op
        if fio.done > job.ramp_ios:
            if op == "read":
                result.read_latencies.record(completed.latency_ns)
            else:
                result.write_latencies.record(completed.latency_ns)
            result.ios += 1
            result.bytes_moved += job.bs
        if job.verify and op == "write":
            fio.device.submit(BlockRequest(
                "read", lba=self.lba, nblocks=fio.lba_per_io)
            ).callbacks.append(self._verified)
            return
        self._next()

    def _verified(self, done: Event) -> None:
        check = done._value
        if check.ok and check.result != self.request.data:
            self.fail(AssertionError(
                f"verify failed at lba {self.lba}: data corrupted"))
            return
        self._next()


def fio_generator(device: BlockDevice, job: FioJob
                  ) -> t.Generator[t.Any, t.Any, FioResult]:
    """Process body running one fio job against a block device.

    Use :func:`run_fio` for the common single-job case; compose this
    directly for simultaneous multi-device workloads.
    """
    sim = device.sim
    lba_per_io = max(1, job.bs // device.lba_bytes)
    if job.bs % device.lba_bytes:
        raise ValueError(f"bs {job.bs} not a multiple of the LBA size")
    region = job.region_lbas or device.capacity_lbas
    region = min(region, device.capacity_lbas)
    max_slot = region // lba_per_io
    if max_slot < 1:
        raise ValueError("region smaller than one I/O")
    stream = f"{job.seed_stream}:{job.name}:{device.name}"
    rng = sim.rng.stream(stream)

    result = FioResult(
        job=job, device_name=device.name, ios=0, bytes_moved=0,
        elapsed_ns=0,
        read_latencies=LatencyRecorder(f"{job.name}-read"),
        write_latencies=LatencyRecorder(f"{job.name}-write"))

    # One reusable payload; the first 16 bytes are patched per-I/O so
    # verify mode can detect misdirected writes without regenerating
    # kilobytes of random data per request (see HPC guide: no per-op
    # allocation in hot loops).
    base_payload = bytes(rng.integers(0, 256, size=job.bs,
                                      dtype=np.uint8))
    # A pure random job draws nothing but LBAs from here on: batched
    # until it ends (a later job on the stream draws its payload raw).
    slots = (sim.rng.integers(stream, 0, max_slot)
             if job.rw in ("randread", "randwrite") else None)

    start = sim.now
    deadline = (start + job.runtime_ns if job.runtime_ns is not None
                else None)
    fio = _Job(device, job, result, rng, slots, base_payload, max_slot,
               lba_per_io, deadline)
    workers = [_Worker(fio) for _ in range(job.iodepth)]
    try:
        yield sim.all_of(workers)
    finally:
        if slots is not None:
            sim.rng.release(stream)
    result.elapsed_ns = sim.now - start
    result.measured_ns = sim.now - fio.warmed_ns
    return result


def run_fio(device: BlockDevice, job: FioJob) -> FioResult:
    """Run one job to completion on the device's simulator."""
    sim = device.sim
    proc = sim.process(fio_generator(device, job))
    return sim.run(until=proc)


def run_fio_many(pairs: t.Sequence[tuple[BlockDevice, FioJob]]
                 ) -> list[FioResult]:
    """Run several jobs *simultaneously* (multi-host workloads).

    All devices must share one simulator.
    """
    if not pairs:
        return []
    sim = pairs[0][0].sim
    for device, _job in pairs:
        if device.sim is not sim:
            raise ValueError("all devices must share a simulator")
    procs = [sim.process(fio_generator(device, job))
             for device, job in pairs]
    done = sim.all_of(procs)
    sim.run(until=done)
    return [proc.value for proc in procs]
