"""Block-trace record and replay.

Records the I/O stream a workload produced (arrival time, op, lba,
size) and replays it — open-loop, honouring inter-arrival gaps — against
any block device.  This is how storage evaluations compare transports
under *identical* offered load rather than identical closed-loop
pressure: at QD1 a slower transport also slows the request stream down,
which flatters it; a replayed trace does not.

A replay is a schedule for the open-loop jobs' issue loop
(:func:`.open_loop.issue`) and returns their
:class:`~.open_loop.OpenLoopResult`.  A JSONL trace is untrusted input:
every malformed line or record is a :class:`TraceError` naming it,
never a traceback from deeper down.
"""

from __future__ import annotations

import dataclasses
import json
import reprlib
import typing as t
from functools import partial

from ..driver.blockdev import BlockDevice, BlockRequest
from ..sim import LatencyRecorder
from .open_loop import OpenLoopResult, issue

#: the only ops a portable trace may carry
TRACE_OPS = ("read", "write")


class TraceError(ValueError):
    """A malformed trace record (parse- or validation-time)."""


@dataclasses.dataclass(frozen=True)
class TraceEntry:
    arrival_ns: int          # relative to trace start
    op: str                  # "read" | "write"
    lba: int
    nblocks: int

    #: exactly the wire fields, in canonical order
    FIELDS = ("arrival_ns", "op", "lba", "nblocks")

    def validate(self) -> "TraceEntry":
        if self.op not in TRACE_OPS:
            raise TraceError(f"unknown op {reprlib.repr(self.op)} "
                             f"(expected one of {TRACE_OPS})")
        for field in ("arrival_ns", "lba", "nblocks"):
            value = getattr(self, field)
            # bool is an int subclass; a trace with "lba": true is junk.
            if not isinstance(value, int) or isinstance(value, bool):
                raise TraceError(f"{field} must be an integer, "
                                 f"got {reprlib.repr(value)}")
            if value < 0:
                raise TraceError(f"{field} must be >= 0, got {value}")
            if value >= 1 << 64:
                raise TraceError(f"{field} must fit in 64 bits")
        if self.nblocks == 0:
            raise TraceError("nblocks must be >= 1")
        return self


@dataclasses.dataclass
class BlockTrace:
    """An ordered stream of block I/Os."""

    entries: list[TraceEntry] = dataclasses.field(default_factory=list)

    def append(self, entry: TraceEntry) -> None:
        if self.entries and entry.arrival_ns < self.entries[-1].arrival_ns:
            raise TraceError(
                f"record {len(self.entries) + 1}: arrival_ns "
                f"{entry.arrival_ns} earlier than predecessor "
                f"{self.entries[-1].arrival_ns} — trace entries must "
                f"be time-ordered")
        self.entries.append(entry)

    def validate_order(self) -> "BlockTrace":
        """Check monotone arrivals, naming the offending record.

        ``append`` enforces ordering incrementally, but a trace built
        by passing a list straight to the constructor bypasses it; the
        replayer calls this so such a trace fails loudly instead of
        being silently replayed out of order.
        """
        prev = None
        for i, entry in enumerate(self.entries, start=1):
            if prev is not None and entry.arrival_ns < prev:
                raise TraceError(
                    f"record {i}: arrival_ns {entry.arrival_ns} earlier "
                    f"than predecessor {prev} — trace entries must be "
                    f"time-ordered")
            prev = entry.arrival_ns
        return self

    def __len__(self) -> int:
        return len(self.entries)

    @property
    def duration_ns(self) -> int:
        return self.entries[-1].arrival_ns if self.entries else 0

    def scaled(self, factor: float) -> "BlockTrace":
        """Time-dilated copy (factor < 1 compresses = more load)."""
        if factor <= 0:
            raise ValueError("scale factor must be positive")
        return BlockTrace([dataclasses.replace(
            e, arrival_ns=int(e.arrival_ns * factor))
            for e in self.entries])

    # -- portable form -----------------------------------------------------

    def as_dicts(self) -> list[dict]:
        """Plain-data view: one dict per entry, canonical field order."""
        return [{f: getattr(e, f) for f in TraceEntry.FIELDS}
                for e in self.entries]

    @classmethod
    def from_dicts(cls, records: t.Iterable[dict]) -> "BlockTrace":
        """Rebuild a trace from plain dicts, validating every record.

        Raises :class:`TraceError` naming the offending record number
        for unknown/missing fields, bad types, negative values, an op
        outside :data:`TRACE_OPS`, or out-of-order arrivals.
        """
        trace = cls()
        for i, record in enumerate(records, start=1):
            if not isinstance(record, dict):
                raise TraceError(f"record {i}: expected an object, "
                                 f"got {type(record).__name__}")
            unknown = set(record) - set(TraceEntry.FIELDS)
            if unknown:
                raise TraceError(f"record {i}: unknown field(s) "
                                 f"{sorted(unknown)}")
            missing = set(TraceEntry.FIELDS) - set(record)
            if missing:
                raise TraceError(f"record {i}: missing field(s) "
                                 f"{sorted(missing)}")
            try:
                entry = TraceEntry(**record).validate()
                trace.append(entry)
            except TraceError as exc:
                raise TraceError(f"record {i}: {exc}") from None
            except ValueError as exc:
                raise TraceError(f"record {i}: {exc}") from None
        return trace

    def to_jsonl(self) -> str:
        """One JSON object per line — the interchange format."""
        return "".join(json.dumps(rec, sort_keys=True) + "\n"
                       for rec in self.as_dicts())

    @classmethod
    def from_jsonl(cls, text: str) -> "BlockTrace":
        """Parse :meth:`to_jsonl` output, validating each line.

        Blank lines are tolerated; anything else malformed raises
        :class:`TraceError` with the 1-based line number.
        """
        records: list[dict] = []
        for lineno, line in enumerate(text.splitlines(), start=1):
            if not line.strip():
                continue
            try:
                records.append(json.loads(line))
            except json.JSONDecodeError as exc:
                raise TraceError(f"line {lineno}: invalid JSON "
                                 f"({exc.msg})") from None
            except RecursionError:
                raise TraceError(f"line {lineno}: JSON nested too "
                                 f"deeply") from None
            except ValueError as exc:   # e.g. an integer of 5,000 digits
                raise TraceError(f"line {lineno}: {exc}") from None
        return cls.from_dicts(records)


class RecordingDevice(BlockDevice):
    """Wraps a device, recording every request's arrival into a trace."""

    def __init__(self, inner: BlockDevice) -> None:
        self.inner = inner
        self.trace = BlockTrace()
        self._t0: int | None = None
        super().__init__(inner.sim, f"{inner.name}+rec",
                         lba_bytes=inner.lba_bytes,
                         capacity_lbas=inner.capacity_lbas,
                         queue_depth=inner.queue_depth)

    def _driver_submit(self, request: BlockRequest) -> t.Generator:
        if self._t0 is None:
            self._t0 = self.sim.now
        if request.op in ("read", "write"):
            self.trace.append(TraceEntry(self.sim.now - self._t0,
                                         request.op, request.lba,
                                         request.nblocks))
        inner_request = _clone(request)
        completed = yield self.inner.submit(inner_request)
        request.status = completed.status
        request.result = completed.result


def _clone(request: BlockRequest) -> BlockRequest:
    if request.op in BlockRequest.DATA_OUT_OPS:
        return BlockRequest(request.op, lba=request.lba,
                            data=request.data)
    if request.op == "flush":
        return BlockRequest("flush")
    return BlockRequest(request.op, lba=request.lba,
                        nblocks=request.nblocks)


def replay_trace(device: BlockDevice, trace: BlockTrace,
                 payload_byte: int = 0x5A, *,
                 speedup: float = 1.0,
                 inflight_cap: int | None = None) -> OpenLoopResult:
    """Replay a trace open-loop against a device.

    Arrivals are scheduled at their recorded times (divided by
    ``speedup`` — 2.0 offers the same stream twice as fast) and issued
    by the open-loop jobs' own loop, :func:`~.open_loop.issue`.
    ``inflight_cap`` bounds outstanding requests the way a real
    driver's queue resources would: an arrival past the cap waits for a
    completion and is issued late (``max_backlog_ns``).  ``latencies``
    run from the scheduled arrival, ``service_latencies`` from the
    submission: the two are equal whenever no cap delays an issue.

    The trace is checked up front, naming the offending record in a
    :class:`TraceError`: arrivals must be time-ordered and every extent
    must lie on the device, so a bad record fails before any I/O runs.
    """
    if speedup <= 0:
        raise ValueError("speedup must be positive")
    if inflight_cap is not None and inflight_cap < 1:
        raise ValueError("inflight_cap must be >= 1")
    trace.validate_order()
    for i, entry in enumerate(trace.entries, start=1):
        if entry.lba + entry.nblocks > device.capacity_lbas:
            raise TraceError(
                f"record {i}: lba {entry.lba} + nblocks {entry.nblocks} "
                f"beyond the end of {device.name} "
                f"({device.capacity_lbas} blocks)")

    def make_request(entry: TraceEntry) -> BlockRequest:
        if entry.op == "write":
            return BlockRequest("write", lba=entry.lba, data=bytes(
                [payload_byte]) * (entry.nblocks * device.lba_bytes))
        return BlockRequest("read", lba=entry.lba, nblocks=entry.nblocks)

    schedule = ((entry.arrival_ns if speedup == 1.0
                 else int(entry.arrival_ns / speedup),
                 partial(make_request, entry)) for entry in trace.entries)
    result = OpenLoopResult(None, device.name, LatencyRecorder("replay"),
                            LatencyRecorder("replay-svc"))
    sim = device.sim
    # Uncapped: one slot per entry, so the cap is never reached.
    return sim.run(until=sim.process(issue(
        device, schedule, inflight_cap or max(1, len(trace)), result)))
