"""Flexible-I/O-Tester-like synthetic workload generator.

Models the fio usage in the paper's evaluation (Sec. VI): random
read/write, configurable block size, queue depth and duration, per-I/O
completion-latency recording.  ``iodepth`` is implemented the way fio's
async engines behave: that many I/Os are kept outstanding at all times,
each by a worker record (:class:`_Worker`), no process per I/O.

A size mix (fio's ``bssplit``) and zipf hot blocks (its
``random_distribution=zipf``) make the application profiles of
:data:`PROFILES`, the paper's future-work "realistic workloads".

The paper runs 60-second wall-clock tests; simulated runs are configured
by I/O count or simulated time instead — QD1 latency distributions on a
consistent device converge after a few thousand samples (the media
jitter model is stationary), which tests assert.
"""

from __future__ import annotations

import dataclasses
import typing as t
from bisect import bisect_right

import numpy as np

from ..driver.blockdev import BlockDevice, BlockRequest
from ..sim import BoxplotStats, Event, LatencyRecorder
from ..sim.resources import Record
from ..sim.rng import BufferedDraw


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
    #: per-I/O sizes, ``(bs, weight, read share)`` each (fio's bssplit)
    bssplit: tuple[tuple[int, float, float], ...] | None = None
    zipf: float | None = None     # theta of a bssplit's hot blocks

    def __post_init__(self) -> None:
        if self.rw not in ("randread", "randwrite", "randrw", "read",
                           "write"):
            raise ValueError(f"unknown rw mode: {self.rw}")
        if self.bs <= 0 or self.iodepth <= 0:
            raise ValueError("bs and iodepth must be positive")
        if self.total_ios is None and self.runtime_ns is None:
            raise ValueError("need total_ios or runtime_ns")
        for field in ("total_ios", "runtime_ns", "region_lbas", "zipf"):
            value = getattr(self, field)
            if value is not None and not value > 0:
                raise ValueError(f"{field} must be positive")
        if not 0 <= self.rwmixread <= 100:
            raise ValueError("rwmixread must be 0..100")
        if self.ramp_ios < 0:
            raise ValueError("ramp_ios must not be negative")
        if self.bssplit is not None:
            if not self.bssplit or not all(
                    bs > 0 and bs % 512 == 0 and weight > 0
                    and 0 <= share <= 1
                    for bs, weight, share in self.bssplit):
                raise ValueError(
                    "bssplit needs (bs, weight, read share) entries: bs a "
                    "positive multiple of 512, weight > 0, share 0..1")
            if self.rw != "randrw" or (self.bs, self.rwmixread) \
                    != (FioJob.bs, FioJob.rwmixread):
                raise ValueError("a bssplit draws each I/O's size and "
                                 "direction: rw randrw, no bs or "
                                 "rwmixread")
        elif self.zipf is not None:
            raise ValueError("zipf needs a bssplit")


#: slots a zipf job ranks, of its smallest size, placed over the region
#: by a permutation drawn at the job's start
ZIPF_SLOTS = 4096

#: fio-style application profiles on the stream ``pattern:<name>:<device>``
#: (set ``iodepth`` and ``total_ios`` with :func:`dataclasses.replace`):
#: OLTP, small I/O ~70/30 read/write on a hot set; a webserver, mostly
#: reads of mixed sizes on a hot set; backup, large writes anywhere
PROFILES = {job.name: job for job in (
    FioJob(name="oltp", rw="randrw", bssplit=((8192, 1.0, 0.7),), zipf=1.2,
           region_lbas=1 << 21, seed_stream="pattern"),
    FioJob(name="webserver", rw="randrw", bssplit=(
        (4096, 0.65, 1.0), (16384, 0.25, 1.0), (65536, 0.10, 0.95)),
        zipf=1.1, region_lbas=1 << 22, seed_stream="pattern"),
    FioJob(name="backup", rw="randrw", bssplit=((131072, 1.0, 0.05),),
           seed_stream="pattern"))}


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
    """One fio job's shared state: what it picks next, what it counted.
    Built at the job's start, where :meth:`_start` makes its up-front
    draws."""

    def __init__(self, device: BlockDevice, job: FioJob,
                 result: FioResult, stream: str, region: int,
                 deadline: int | None) -> None:
        self.device = device
        self.lba_bytes = device.lba_bytes
        self.job = job
        self.result = result
        self.rng = device.sim.rng.stream(stream)
        self.slots: BufferedDraw | None = None
        self.deadline = deadline
        self.issued = 0
        self.done = 0
        #: when the measured window opened: the start, then the instant
        #: of the ``ramp_ios``-th completion
        self.warmed_ns = device.sim.now
        self._start(stream, region)

    def _start(self, stream: str, region: int) -> None:
        job = self.job
        self.lba_per_io = job.bs // self.lba_bytes
        self.max_slot = region // self.lba_per_io
        # One reusable payload; the first 16 bytes are patched per-I/O so
        # verify mode can detect misdirected writes without regenerating
        # kilobytes of random data per request.
        self.base_payload = bytes(self.rng.integers(
            0, 256, size=job.bs, dtype=np.uint8))
        # A pure random job draws nothing but LBAs from here on: batched
        # until it ends (a later job on the stream draws its payload raw).
        if job.rw in ("randread", "randwrite"):
            self.slots = self.device.sim.rng.integers(stream, 0,
                                                      self.max_slot)

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


def region_of(device: BlockDevice, region_lbas: int | None,
              sizes: t.Iterable[int]) -> int:
    """A job's ``region_lbas`` on the device (default: all of it), once
    each of ``sizes`` is checked to be whole blocks that fit in it."""
    region = min(region_lbas or device.capacity_lbas, device.capacity_lbas)
    for bs in sizes:
        if bs % device.lba_bytes:
            raise ValueError(f"bs {bs} not a multiple of the LBA size")
        if region < bs // device.lba_bytes:
            raise ValueError("region smaller than one I/O")
    return region


def _cdf(weights: np.ndarray) -> list[float]:
    """The CDF ``Generator.choice(p=weights / weights.sum())`` searches:
    one ``rng.random()`` through :func:`bisect.bisect_right` on it picks
    the index that call would."""
    cdf = (weights / weights.sum()).cumsum()
    cdf /= cdf[-1]
    return cdf.tolist()


class _Mix(_Job):
    """A ``bssplit`` job's picks, raw from the job's stream: at the
    start a zipf job's placement permutation; per I/O the size, then its
    read share, then the LBA (a zipf rank aligned down to the size, or a
    uniform slot of that size); a size's payload at its first write.
    :meth:`pick_op` leaves the size in ``lba_per_io`` and
    :meth:`pick_lba` the payload in ``base_payload`` for the worker."""

    zipf_cdf = None

    def _start(self, _stream: str, region: int) -> None:
        job = self.job
        mix = job.bssplit or ()
        #: ``(bs, lba_per_io, read share, max_slot)`` per size
        self.sizes = [(bs, bs // self.lba_bytes, share,
                       region // (bs // self.lba_bytes))
                      for bs, _weight, share in mix]
        self.size_cdf = _cdf(np.array([entry[1] for entry in mix],
                                      dtype=np.float64))
        self.payloads: dict[int, bytes] = {}
        if job.zipf is not None:
            self.zipf_lba_per_io = min(size[1] for size in self.sizes)
            slots = min(ZIPF_SLOTS, region // self.zipf_lba_per_io)
            self.zipf_cdf = _cdf(
                np.arange(1, slots + 1, dtype=np.float64) ** -job.zipf)
            self.placement = self.rng.permutation(slots).tolist()

    def pick_op(self) -> str:
        rng = self.rng
        self.size = size = self.sizes[bisect_right(self.size_cdf,
                                                   rng.random())]
        self.lba_per_io = size[1]
        self.writing = not rng.random() < size[2]
        return "write" if self.writing else "read"

    def pick_lba(self, seq_index: int) -> int:
        rng = self.rng
        bs, lba_per_io, _share, max_slot = self.size
        if self.zipf_cdf is not None:
            lba = self.placement[bisect_right(
                self.zipf_cdf, rng.random())] * self.zipf_lba_per_io
            lba -= lba % lba_per_io
        else:
            lba = int(rng.integers(0, max_slot)) * lba_per_io
        if self.writing:
            payload = self.payloads.get(bs)
            if payload is None:
                payload = self.payloads[bs] = bytes(
                    rng.integers(0, 256, size=bs, dtype=np.uint8))
            self.base_payload = payload
        return lba


class _Worker(Record):
    """One of a job's ``iodepth`` outstanding I/Os, walked from
    callbacks: submit, account the completion (in verify mode, read it
    back first), submit the next.  It boots on the URGENT lane and ends
    (:meth:`~repro.sim.resources.Record._end`, queued for the job's
    ``all_of``) once the job stops, or fails, queued, if a read-back
    differs.  A completion carries its own op and size: the worker
    keeps only the request."""

    __slots__ = ("fio", "request")

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
        op = fio.pick_op()
        lba = fio.pick_lba(index)
        if op == "write":
            payload = (index.to_bytes(8, "little")
                       + lba.to_bytes(8, "little")
                       + fio.base_payload[16:])
            request = BlockRequest("write", lba=lba, data=payload)
        else:
            request = BlockRequest("read", lba=lba,
                                   nblocks=fio.lba_per_io)
        self.request = request
        fio.device.submit(request, self._completed)

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
        op = completed.op
        if fio.done > job.ramp_ios:
            if op == "read":
                result.read_latencies.record(completed.latency_ns)
            else:
                result.write_latencies.record(completed.latency_ns)
            result.ios += 1
            result.bytes_moved += completed.nblocks * fio.lba_bytes
        if job.verify and op == "write":
            fio.device.submit(BlockRequest(
                "read", lba=completed.lba, nblocks=completed.nblocks),
                self._verified)
            return
        self._next()

    def _verified(self, done: Event) -> None:
        check = done._value
        request = self.request
        if not check.ok:
            self.fio.result.errors += 1
        elif check.result != request.data:
            self.fail(AssertionError(
                f"verify failed at lba {request.lba}: data corrupted"))
            return
        self._next()


def fio_generator(device: BlockDevice, job: FioJob
                  ) -> t.Generator[t.Any, t.Any, FioResult]:
    """Process body running one fio job against a block device.

    Use :func:`run_fio` for the common single-job case; compose this
    directly for simultaneous multi-device workloads.
    """
    sim = device.sim
    sizes = [bs for bs, _weight, _share in job.bssplit or ()] or [job.bs]
    region = region_of(device, job.region_lbas, sizes)
    stream = f"{job.seed_stream}:{job.name}:{device.name}"
    result = FioResult(
        job=job, device_name=device.name, ios=0, bytes_moved=0,
        elapsed_ns=0,
        read_latencies=LatencyRecorder(f"{job.name}-read"),
        write_latencies=LatencyRecorder(f"{job.name}-write"))
    start = sim.now
    deadline = (start + job.runtime_ns if job.runtime_ns is not None
                else None)
    fio = (_Mix if job.bssplit else _Job)(device, job, result, stream,
                                          region, deadline)
    workers = [_Worker(fio) for _ in range(job.iodepth)]
    try:
        yield sim.all_of(workers)
    finally:
        if fio.slots is not None:
            sim.rng.release(stream)
    result.elapsed_ns = sim.now - start
    result.measured_ns = sim.now - fio.warmed_ns
    return result


def run_fio(device: BlockDevice, job: FioJob) -> FioResult:
    """Run one job to completion on the device's simulator."""
    sim = device.sim
    proc = sim.process(fio_generator(device, job))
    return sim.run(until=proc)


def run_jobs(body: t.Callable[[BlockDevice, t.Any], t.Generator],
             pairs: t.Sequence[tuple[BlockDevice, t.Any]]) -> list:
    """Run one ``body(device, job)`` process per pair *simultaneously*
    (multi-host or multi-tenant load), all on one simulator."""
    if not pairs:
        return []
    sim = pairs[0][0].sim
    if any(device.sim is not sim for device, _job in pairs):
        raise ValueError("all devices must share a simulator")
    procs = [sim.process(body(device, job)) for device, job in pairs]
    sim.run(until=sim.all_of(procs))
    return [proc.value for proc in procs]


def run_fio_many(pairs: t.Sequence[tuple[BlockDevice, FioJob]]
                 ) -> list[FioResult]:
    """Run several fio jobs simultaneously (multi-host workloads)."""
    return run_jobs(fio_generator, pairs)
