"""Open-loop traffic service: arrivals that do not wait for the device.

The fio-style jobs in :mod:`.fio` are *closed-loop*: ``iodepth``
requests circulate, so a slower device automatically slows the request
stream down and flatters itself.  Serving "millions of users" is the
opposite regime — arrivals are generated by the outside world at a
rate the device does not control.  This module generates seeded
open-loop arrival streams (Poisson, bursty ON/OFF, diurnal sine) and
submits each request at its *scheduled* arrival time, bounded only by
a per-tenant in-flight cap (a real driver's queue resources).

Latency is therefore measured from the scheduled arrival, not from the
moment the device deigned to accept the request: software backlog —
the thing QoS arbitration is supposed to bound — shows up in the
numbers instead of hiding in a stalled generator.

:class:`Issue` is the one issue loop, a record (docs/performance.md,
"Every request is a record"): each arrival is a step of its owned timer
and a completion is a callback on the block layer's done event — no
process resumes per arrival or per request.  :func:`open_loop_generator`
runs one for generated arrivals, :func:`issue` one for any
``(offset_ns, make_request)`` schedule, such as
:func:`~.replay.replay_trace`'s recorded trace.

Determinism discipline: arrival streams draw only from
``sim.rng.stream(...)`` (``tests/test_rng.py``'s tripwire),
envelopes are deterministic functions of sim time, and all gaps are
integer nanoseconds — identical seeds give identical streams.
"""

from __future__ import annotations

import dataclasses
import math
import typing as t
from functools import partial

import numpy as np

from ..driver.blockdev import BlockDevice, BlockRequest
from ..sim import Event, LatencyRecorder
from ..sim.resources import Record
from .fio import region_of, run_jobs

ARRIVAL_MODELS = ("poisson", "bursty", "diurnal")


@dataclasses.dataclass(frozen=True)
class OpenLoopJob:
    """An open-loop workload specification."""

    name: str = "open"
    rw: str = "randread"            # randread|randwrite|randrw
    bs: int = 4096                  # bytes per I/O
    #: long-run mean arrival rate (all three models average to this)
    rate_iops: float = 10_000.0
    arrival: str = "poisson"        # poisson|bursty|diurnal
    total_arrivals: int | None = 1000   # stop after this many arrivals…
    runtime_ns: int | None = None       # …or past this much sim time
    #: max outstanding requests; an arrival past the cap waits for a
    #: completion (its wait still counts in the open-loop latency)
    inflight_cap: int = 256
    rwmixread: int = 50             # % reads for randrw
    region_lbas: int | None = None  # working-set bound (default: device)
    seed_stream: str = "openloop"
    # -- bursty (ON/OFF square wave) knobs --------------------------------
    #: fraction of each period spent ON; arrivals only happen ON, at
    #: ``rate_iops / burst_duty`` so the long-run mean stays honest
    burst_duty: float = 0.25
    burst_period_ns: int = 2_000_000
    # -- diurnal (sine) knobs ---------------------------------------------
    #: rate swings rate*(1 ± amplitude) over one period
    diurnal_amplitude: float = 0.8
    diurnal_period_ns: int = 20_000_000

    def __post_init__(self) -> None:
        if self.rw not in ("randread", "randwrite", "randrw"):
            raise ValueError(f"unknown rw mode: {self.rw}")
        if self.bs <= 0:
            raise ValueError("bs must be positive")
        if self.rate_iops <= 0:
            raise ValueError("rate_iops must be positive")
        if self.arrival not in ARRIVAL_MODELS:
            raise ValueError(f"unknown arrival model {self.arrival!r} "
                             f"(expected one of {ARRIVAL_MODELS})")
        if self.total_arrivals is None and self.runtime_ns is None:
            raise ValueError("need total_arrivals or runtime_ns")
        if self.inflight_cap < 1:
            raise ValueError("inflight_cap must be >= 1")
        if not 0 <= self.rwmixread <= 100:
            raise ValueError("rwmixread must be 0..100")
        if not 0.0 < self.burst_duty <= 1.0:
            raise ValueError("burst_duty must be in (0, 1]")
        if self.burst_period_ns <= 0 or self.diurnal_period_ns <= 0:
            raise ValueError("periods must be positive")
        if not 0.0 <= self.diurnal_amplitude < 1.0:
            raise ValueError("diurnal_amplitude must be in [0, 1)")


def rate_at(job: OpenLoopJob, t_ns: int) -> float:
    """Instantaneous offered rate (IOPS) at ``t_ns`` after job start.

    The deterministic envelope the arrival stream is thinned against;
    tests assert the generated stream honours it.
    """
    if job.arrival == "poisson":
        return job.rate_iops
    if job.arrival == "bursty":
        on_ns = job.burst_duty * job.burst_period_ns
        if (t_ns % job.burst_period_ns) < on_ns:
            return job.rate_iops / job.burst_duty
        return 0.0
    # diurnal
    phase = 2.0 * math.pi * (t_ns % job.diurnal_period_ns) \
        / job.diurnal_period_ns
    return job.rate_iops * (1.0 + job.diurnal_amplitude * math.sin(phase))


def peak_rate(job: OpenLoopJob) -> float:
    """Upper bound of :func:`rate_at` (the thinning majorant)."""
    if job.arrival == "poisson":
        return job.rate_iops
    if job.arrival == "bursty":
        return job.rate_iops / job.burst_duty
    return job.rate_iops * (1.0 + job.diurnal_amplitude)


class _Arrivals:
    """One job's arrival clock: a homogeneous Poisson process at
    :func:`peak_rate`, thinned down to the deterministic envelope
    :func:`rate_at` (Lewis-Shedler).  For the constant-rate model the
    thinning step accepts everything, so it degenerates to exact
    exponential interarrivals and draws nothing else."""

    __slots__ = ("job", "rng", "lam_max", "mean_gap_ns", "now", "poisson")

    def __init__(self, job: OpenLoopJob, rng: np.random.Generator) -> None:
        self.job = job
        self.rng = rng
        self.lam_max = peak_rate(job)
        self.mean_gap_ns: float = 1e9 / self.lam_max  # draws are int'd
        self.now = 0
        self.poisson = job.arrival == "poisson"

    def draw(self) -> int:
        """The next arrival time (ns after job start)."""
        # hot-path
        rng = self.rng
        now = self.now
        while True:
            gap = int(rng.exponential(self.mean_gap_ns))
            now += gap if gap > 0 else 1
            if self.poisson:
                break
            rate = rate_at(self.job, now)
            if rate >= self.lam_max or (
                    rate > 0.0 and rng.random() < rate / self.lam_max):
                break
        self.now = now
        return now


def arrival_times(job: OpenLoopJob, rng: np.random.Generator
                  ) -> t.Iterator[int]:
    """Strictly increasing arrival times (ns after job start), unbounded:
    the Lewis-Shedler clock a job's issuer draws from."""
    return iter(_Arrivals(job, rng).draw, None)


@dataclasses.dataclass
class OpenLoopResult:
    """Measurements from one open-loop run: a job, or a trace replay."""

    #: the job that ran (None for a trace replay)
    job: OpenLoopJob | None
    device_name: str
    #: latency from *scheduled arrival* to completion — includes any
    #: software backlog behind the in-flight cap (the open-loop number)
    latencies: LatencyRecorder
    #: device-level latency from actual submission to completion
    service_latencies: LatencyRecorder
    issued: int = 0
    completed: int = 0
    errors: int = 0
    bytes_moved: int = 0
    elapsed_ns: int = 0
    #: worst lateness of an issue past its scheduled arrival
    max_backlog_ns: int = 0
    #: arrivals that had to wait for the in-flight cap
    capped_arrivals: int = 0

    @property
    def offered_iops(self) -> float:
        if self.elapsed_ns <= 0:
            return 0.0
        return self.issued / (self.elapsed_ns / 1e9)

    @property
    def achieved_iops(self) -> float:
        if self.elapsed_ns <= 0:
            return 0.0
        return self.completed / (self.elapsed_ns / 1e9)


class Issue(Record):
    """The one open-loop issue loop, walked from callbacks.

    ``schedule`` holds ``(offset_ns, make_request)`` pairs in time
    order.  ``make_request()`` is submitted ``offset_ns`` after the
    record is built — its scheduled arrival — unless ``inflight_cap``
    requests are outstanding; then it waits for a completion, and the
    wait counts in its open-loop latency.

    * Each arrival is a step of the owned timer, armed at the end of
      its instant's list, where the loop's sleep was; one already due
      is issued inline.
    * A completion is a callback on the block layer's done event.  One
      that frees the slot the loop waits for — or the last one — arms
      the timer at this instant, where ``wake.succeed()`` pushed the
      loop's wake.  At the end the record runs its waiter inline with
      ``result``, as a read does (:class:`~repro.pcie.fabric._Read`).

    The constructor runs the first step, so build it in the process that
    waits for it (:func:`issue`, :func:`open_loop_generator`).
    """

    __slots__ = ("device", "result", "cap", "inflight", "limit", "start",
                 "target", "schedule", "make")

    def __init__(self, device: BlockDevice,
                 schedule: t.Iterable[tuple[int, t.Callable[[],
                                                            BlockRequest]]],
                 inflight_cap: int, result: OpenLoopResult) -> None:
        Record.__init__(self, device.sim)
        self.device = device
        self.result = result
        self.cap = inflight_cap
        self.inflight = 0
        #: a waiting loop wakes once ``inflight`` drops below this: the
        #: cap while issuing, 1 (all done) at the end; 0 while none waits
        self.limit = 0
        self.start = device.sim._now
        self.schedule = iter(schedule)
        self._next()
        self._arrived(None)

    def _next(self) -> None:
        """Take the next arrival: ``target``, its absolute time (None
        once the schedule is done), and ``make``, its request."""
        pair = next(self.schedule, None)
        if pair is None:
            self.target = None
        else:
            offset_ns, self.make = pair
            self.target = self.start + offset_ns

    def _request(self) -> BlockRequest:
        return self.make()

    def _arrived(self, _timer: Event | None) -> None:
        """Issue every arrival due by now, then sleep until the next;
        the cap full or the schedule done, wait for a completion."""
        # hot-path
        sim = self.sim
        result = self.result
        while True:
            target = self.target
            if target is None:              # the schedule is done
                if self.inflight:
                    self.limit = 1
                else:
                    result.elapsed_ns = sim._now - self.start
                    self._deliver(result)
                return
            now = sim._now
            if now < target:
                self._arm(target - now, self._arrived)
                return
            # Open-loop: the arrival happened at `target` no matter what
            # the device is doing; only the in-flight cap may delay the
            # issue, and that wait is charged to its open-loop latency.
            if self.inflight >= self.cap:
                result.capped_arrivals += 1
                self.limit = self.cap
                return
            if now - target > result.max_backlog_ns:
                result.max_backlog_ns = now - target
            self.device.submit(self._request(),
                               partial(self._completed, target))
            self.inflight += 1
            result.issued += 1
            self._next()

    def _completed(self, scheduled_at: int, done: Event) -> None:
        # hot-path
        self.inflight -= 1
        if self.inflight < self.limit:
            self.limit = 0
            self._arm(0, self._arrived)
        result = self.result
        result.completed += 1
        request = done._value
        if request.status:
            result.errors += 1
        else:
            result.latencies.record(self.sim._now - scheduled_at)
            result.service_latencies.record(
                request.complete_time - request.submit_time)
            result.bytes_moved += request.nblocks * self.device.lba_bytes


class _JobIssue(Issue):
    """The :class:`Issue` of one :class:`OpenLoopJob`: it draws the
    job's arrivals (:class:`_Arrivals`) and builds its requests itself,
    from the job's one stream, in the order arrival, op, lba, next
    arrival, ..."""

    __slots__ = ("job", "rng", "arrivals", "lba_per_io", "max_slot",
                 "base_payload")

    def __init__(self, device: BlockDevice, job: OpenLoopJob) -> None:
        region = region_of(device, job.region_lbas, [job.bs])
        self.job = job
        self.lba_per_io = job.bs // device.lba_bytes
        self.max_slot = region // self.lba_per_io
        self.rng = rng = device.sim.rng.stream(
            f"{job.seed_stream}:{job.name}:{device.name}")
        result = OpenLoopResult(job, device.name,
                                LatencyRecorder(f"{job.name}-open"),
                                LatencyRecorder(f"{job.name}-svc"))
        # One reusable payload, patched per-I/O (no per-op kilobyte draws).
        self.base_payload = bytes(rng.integers(0, 256, size=job.bs,
                                               dtype=np.uint8))
        self.arrivals = _Arrivals(job, rng)
        Issue.__init__(self, device, (), job.inflight_cap, result)

    def _next(self) -> None:
        # hot-path
        job = self.job
        if self.result.issued == job.total_arrivals:
            self.target = None
            return
        arrival_ns = self.arrivals.draw()
        if job.runtime_ns is not None and arrival_ns > job.runtime_ns:
            self.target = None
        else:
            self.target = self.start + arrival_ns

    def _request(self) -> BlockRequest:
        # hot-path
        # Drawn at the issue, after the arrival's own draws.
        job = self.job
        rng = self.rng
        if job.rw == "randrw":
            write = rng.integers(0, 100) >= job.rwmixread
        else:
            write = job.rw == "randwrite"
        lba = int(rng.integers(0, self.max_slot)) * self.lba_per_io
        if write:
            payload = (self.result.issued.to_bytes(8, "little")
                       + lba.to_bytes(8, "little") + self.base_payload[16:])
            return BlockRequest("write", lba=lba, data=payload)
        return BlockRequest("read", lba=lba, nblocks=self.lba_per_io)


def issue(device: BlockDevice,
          schedule: t.Iterable[tuple[int, t.Callable[[], BlockRequest]]],
          inflight_cap: int, result: OpenLoopResult
          ) -> t.Generator[t.Any, t.Any, OpenLoopResult]:
    """Process body: issue ``schedule`` with an :class:`Issue` record
    and return ``result`` once its last request has completed."""
    return (yield Issue(device, schedule, inflight_cap, result))


def open_loop_generator(device: BlockDevice, job: OpenLoopJob
                        ) -> t.Generator[t.Any, t.Any, OpenLoopResult]:
    """Process body running one open-loop job against a block device.

    Use :func:`run_open_loop` for the single-job case; compose this
    directly (one process per tenant) for noisy-neighbour scenarios.
    """
    return (yield _JobIssue(device, job))


def run_open_loop(device: BlockDevice, job: OpenLoopJob) -> OpenLoopResult:
    """Run one open-loop job to completion on the device's simulator."""
    sim = device.sim
    proc = sim.process(open_loop_generator(device, job))
    return sim.run(until=proc)


def run_open_loop_many(pairs: t.Sequence[tuple[BlockDevice, OpenLoopJob]]
                       ) -> list[OpenLoopResult]:
    """Run several open-loop jobs simultaneously (multi-tenant load)."""
    return run_jobs(open_loop_generator, pairs)
