"""Block-device abstraction (the Linux block layer, functionally).

Drivers register a :class:`BlockDevice`; workloads submit
:class:`BlockRequest` objects and wait on the returned event.  The layer
enforces a per-device queue depth (blk-mq tag allocation) and records
per-request latency from submission to completion callback, which is
exactly the interval fio reports.

A driver stack serves each request with a :class:`RequestRecord`: the
tag, the stack's steps and the finish walked from callbacks, with no
process per request (docs/performance.md, "Every request is a
record").  A device stacked on other block devices (a recorder, a
striped volume) writes its path as a generator, ``_driver_submit``,
run in a process per request.
"""

from __future__ import annotations

import dataclasses
import typing as t

from ..sim import Event, LatencyRecorder, Process, Resource, Simulator
from ..sim.resources import Record, Step


class BlockError(Exception):
    pass


@dataclasses.dataclass
class BlockRequest:
    """One I/O request handed to a block device."""

    op: str                       # "read" | "write" | "flush"
    lba: int = 0
    nblocks: int = 0
    data: bytes | None = None     # payload for writes
    #: filled in by the device for reads
    result: bytes | None = None
    status: int = 0               # NVMe status code; 0 = success
    submit_time: int = -1
    complete_time: int = -1
    #: scratch slot of whoever watches ``io_submitted`` (the span
    #: recorder parks its :class:`~repro.telemetry.IoSpan` here)
    span: t.Any = None

    #: ops that move data (their SQE carries a data pointer)
    DATA_OPS = ("read", "write", "compare")
    #: of those, the ones that carry host data toward the device
    DATA_OUT_OPS = ("write", "compare")
    #: ops that change media state (replicated layers land these on
    #: every live copy; "compare" only reads one)
    MUTATING_OPS = ("write", "write_zeroes")

    def __post_init__(self) -> None:
        if self.op not in ("read", "write", "flush", "write_zeroes",
                           "compare"):
            raise BlockError(f"unknown op: {self.op}")
        if self.op in self.DATA_OUT_OPS and self.data is None:
            raise BlockError(f"{self.op} requires data")
        if self.op in ("read", "write_zeroes") and self.nblocks <= 0:
            raise BlockError(f"{self.op} requires nblocks > 0")

    @property
    def ok(self) -> bool:
        return self.status == 0

    @property
    def latency_ns(self) -> int:
        if self.submit_time < 0 or self.complete_time < 0:
            raise BlockError("request not completed")
        return self.complete_time - self.submit_time


class BlockDevice:
    """Base class: a driver stack names its :class:`RequestRecord` in
    ``request_record``; a device stacked on other block devices leaves
    it None and implements :meth:`_driver_submit`."""

    #: the record type that serves one request (None: ``_driver_submit``
    #: in a process per request)
    request_record: type[RequestRecord] | None = None

    def __init__(self, sim: Simulator, name: str, lba_bytes: int,
                 capacity_lbas: int, queue_depth: int = 64) -> None:
        if queue_depth < 1:
            raise BlockError("queue depth must be >= 1")
        self.sim = sim
        self.name = name
        self.lba_bytes = lba_bytes
        self.capacity_lbas = capacity_lbas
        self.queue_depth = queue_depth
        self._tags = Resource(sim, capacity=queue_depth)
        self.probe = sim.probe
        #: histogram tenant label; drivers that act for a remote host
        #: override this with the host's name (see DistributedNvmeClient)
        self.tenant = name
        self.latencies = LatencyRecorder(name)
        self.completed = 0
        self.errors = 0
        self.bytes_moved = 0

    # -- public API -------------------------------------------------------

    def submit(self, request: BlockRequest, step: Step | None = None) -> Event:
        """Queue a request; the returned event triggers with the request
        when it completes (its ``status``/``result`` fields filled) and
        runs ``step`` when given.

        Latency is measured from *this* call — including any wait for a
        free queue tag — matching what fio reports under overload.
        """
        self._validate(request)
        request.submit_time = self.sim._now
        for f in self.probe.io_submitted:
            f(self, request)
        record = self.request_record
        if record is not None:
            return record(self, request, step)
        done = Event(self.sim)
        if step:
            done.callbacks = [step]
        Process(self.sim, self._run(request, done), detached=True)
        return done

    def io(self, request: BlockRequest) -> t.Generator[Event, t.Any, BlockRequest]:
        """Generator convenience: ``req = yield from dev.io(req)``."""
        completed = yield self.submit(request)
        return completed

    # -- internals -------------------------------------------------------------

    def _validate(self, request: BlockRequest) -> None:
        """Refuse, before anything is announced or queued, a request
        this device can never serve.  A stack extends it with its own
        limits (not started, a staging buffer too small)."""
        if request.op in BlockRequest.DATA_OUT_OPS:
            assert request.data is not None
            if not request.data or len(request.data) % self.lba_bytes:
                raise BlockError(
                    f"{request.op} of {len(request.data)} bytes is not a "
                    f"positive multiple of the {self.lba_bytes}-byte "
                    f"block size")
            request.nblocks = len(request.data) // self.lba_bytes
        if request.op != "flush":
            if request.lba < 0 or \
                    request.lba + request.nblocks > self.capacity_lbas:
                raise BlockError(
                    f"I/O beyond device end: lba={request.lba} "
                    f"nblocks={request.nblocks}")

    def _run(self, request: BlockRequest, done: Event) -> t.Generator:
        """A stacked device's request: tag, ``_driver_submit``, finish."""
        tag = self._tags.request()
        yield tag
        try:
            yield from self._driver_submit(request)
        finally:
            self._tags.release(tag)
        self._completed(request)
        done.succeed(request)

    def _completed(self, request: BlockRequest) -> None:
        """The request is over and its tag returned: stamp it, announce
        it, count it."""
        # hot-path
        request.complete_time = self.sim._now
        for f in self.probe.io_completed:
            f(self, request)
        self.latencies.record(request.complete_time - request.submit_time)
        self.completed += 1
        if request.status:
            self.errors += 1
        elif request.op in BlockRequest.DATA_OPS:
            self.bytes_moved += request.nblocks * self.lba_bytes

    def _driver_submit(self, request: BlockRequest) -> t.Generator:
        """A stacked device's path: perform the I/O on the devices
        below, set status/result."""
        raise NotImplementedError


class RequestRecord(Record):
    """One request served from plain callbacks; the record *is* the
    event :meth:`BlockDevice.submit` returns, and fires with the
    request.  Steps: boot on the URGENT lane at ``submit``; take a
    queue tag (:meth:`~repro.sim.resources.Record._take`: the grant
    event ``Resource.request()`` pushes, or a FIFO place for one); the
    stack's steps from :meth:`_serve` on, each delay on the owned timer;
    :meth:`_finish`.  A waiter that leaves (an interrupted process)
    cancels nothing: the request goes on without it."""

    __slots__ = ("device", "request")

    def __init__(self, device: BlockDevice, request: BlockRequest,
                 step: Step | None = None) -> None:
        # hot-path: one per request
        self.device = device
        self.request = request
        Record.__init__(self, device.sim, self._tag, step)

    def _tag(self, _boot: Event) -> None:
        # hot-path
        self._take(self.device._tags, self._serve)

    def _serve(self, _grant: Event) -> None:
        """The stack's first step, with the tag held."""
        raise NotImplementedError

    def _finish(self) -> None:
        """Return the tag, account the request, queue the record for
        its waiter (``succeed``: queued whether or not the waiter is
        still there)."""
        # hot-path
        device = self.device
        device._tags.give()
        request = self.request
        device._completed(request)
        self.succeed(request)

    def cancel(self) -> None:
        """Nothing to cancel: the request goes on without the waiter."""
