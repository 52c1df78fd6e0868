"""Per-I/O spans: sim-time-stamped stage boundaries for one request.

A span is opened by the block layer when a request is submitted and
closed when it completes; in between, the driver client and the NVMe
controller stamp *boundary marks* as the command moves through the
stack.  The canonical boundary sequence for the distributed driver's
data path is:

========================  =====================================================
boundary                  instant it is stamped at
========================  =====================================================
(span start)              request entered the block layer (``submit_time``)
``sqe-issued``            client posts the SQE store toward SQ memory
``sqe-delivered``         the SQE store lands in SQ memory (across the NTB)
``doorbell-delivered``    the SQ tail doorbell lands in the controller BAR
``fetched``               controller fetched and decoded the SQE
``media-done``            the media access for the command finished
``cqe-delivered``         the CQE posted write landed in CQ memory
(span end)                request completed at the block layer
========================  =====================================================

Consecutive boundaries telescope into the seven named **stages** of
:data:`STAGES` (submit, sq-ntb-write, doorbell, fetch, media,
cq-ntb-write, poll), so per-stage durations sum to the end-to-end
latency *exactly*, by construction.  A shared (arbitrated) SQ also
stamps ``arb-granted`` when its arbiter grants the fetch: an *inner*
mark of the fetch stage (:data:`INNER_MARKS`), not a boundary.

The recorder itself is plain data with no simulator reference: the
:class:`~repro.telemetry.hub.Telemetry` hub drives it from the probe
events it subscribes to (:mod:`repro.sim.probe`), so with no hub the
hot path pays an empty ``for`` and zero heap allocations.
"""

from __future__ import annotations

import typing as t

#: Canonical boundary marks, in data-path order (between start and end).
BOUNDARIES: tuple[str, ...] = (
    "sqe-issued", "sqe-delivered", "doorbell-delivered",
    "fetched", "media-done", "cqe-delivered",
)

#: Marks stamped inside a stage rather than at its ends: the shared-SQ
#: arbiter's grant falls between ``doorbell-delivered`` and ``fetched``.
INNER_MARKS: frozenset[str] = frozenset({"arb-granted"})

#: The two mark sequences of a clean span: private SQ, shared SQ.
_CLEAN_PATHS: tuple[tuple[str, ...], ...] = (
    BOUNDARIES, BOUNDARIES[:3] + ("arb-granted",) + BOUNDARIES[3:])

#: Canonical stage names; stage ``i`` spans boundary ``i-1`` -> ``i``
#: (with the span start before the first and the span end after the
#: last boundary).
STAGES: tuple[str, ...] = (
    "submit",        # span start      -> sqe-issued
    "sq-ntb-write",  # sqe-issued      -> sqe-delivered
    "doorbell",      # sqe-delivered   -> doorbell-delivered
    "fetch",         # doorbell-deliv. -> fetched
    "media",         # fetched         -> media-done
    "cq-ntb-write",  # media-done      -> cqe-delivered
    "poll",          # cqe-delivered   -> span end
)


class IoSpan:
    """One request's journey through the stack (plain data, no sim ref)."""

    __slots__ = ("device", "op", "lba", "nbytes", "start_ns", "end_ns",
                 "qid", "cid", "marks", "index")

    def __init__(self, index: int, device: str, op: str, lba: int,
                 nbytes: int, start_ns: int) -> None:
        self.index = index
        self.device = device
        self.op = op
        self.lba = lba
        self.nbytes = nbytes
        self.start_ns = start_ns
        self.end_ns = -1
        self.qid = -1
        self.cid = -1
        self.marks: list[tuple[str, int]] = []

    def mark(self, boundary: str, time_ns: int) -> None:
        self.marks.append((boundary, time_ns))

    @property
    def finished(self) -> bool:
        return self.end_ns >= 0

    @property
    def duration_ns(self) -> int:
        if not self.finished:
            raise ValueError("span not finished")
        return self.end_ns - self.start_ns

    @property
    def clean(self) -> bool:
        """True when the span followed the canonical path exactly once:
        every boundary of :data:`BOUNDARIES` stamped once, in order
        (no retries, drops or resyncs), with at most the fetch stage's
        inner ``arb-granted`` mark between them."""
        return (self.finished
                and tuple(name for name, _t in self.marks) in _CLEAN_PATHS)

    def boundaries(self) -> list[tuple[str, int]]:
        """All boundaries including the implicit start and end."""
        out = [("start", self.start_ns)]
        out.extend(self.marks)
        if self.finished:
            out.append(("end", self.end_ns))
        return out

    def stage_durations(self) -> dict[str, int] | None:
        """The seven canonical stage durations, or None for a span that
        strayed from the canonical path (retries, faults, non-NVMe
        devices).  The values always sum to :attr:`duration_ns`; an
        inner mark splits no stage."""
        if not self.clean:
            return None
        times = ([self.start_ns]
                 + [t_ns for name, t_ns in self.marks
                    if name not in INNER_MARKS]
                 + [self.end_ns])
        return {name: times[i + 1] - times[i]
                for i, name in enumerate(STAGES)}

    def as_dict(self) -> dict[str, t.Any]:
        return {
            "index": self.index, "device": self.device, "op": self.op,
            "lba": self.lba, "nbytes": self.nbytes, "qid": self.qid,
            "cid": self.cid, "start_ns": self.start_ns,
            "end_ns": self.end_ns, "marks": list(self.marks),
        }


class SpanRecorder:
    """Creates, indexes and collects :class:`IoSpan` objects.

    ``bind(ctrl, qid, cid, span)`` publishes a span under its
    on-the-wire identity so layers that only see NVMe commands (the
    controller) can stamp boundaries via :meth:`mark_cmd`; the binding
    is dropped when the command completes or its cid is retired by a
    timeout.  The controller is part of the identity: every controller
    numbers its qids from 1, so on a multi-device rig ``(qid, cid)``
    alone names several live commands.
    """

    def __init__(self) -> None:
        self.spans: list[IoSpan] = []
        self._active: dict[tuple[t.Any, int, int], IoSpan] = {}
        self._next_index = 0

    def begin(self, device: str, op: str, lba: int, nbytes: int,
              start_ns: int) -> IoSpan:
        span = IoSpan(self._next_index, device, op, lba, nbytes, start_ns)
        self._next_index += 1
        self.spans.append(span)
        return span

    # -- command-identity marks (controller side) --------------------------

    def bind(self, ctrl: t.Any, qid: int, cid: int, span: IoSpan) -> None:
        span.qid = qid
        span.cid = cid
        self._active[(ctrl, qid, cid)] = span

    def unbind(self, ctrl: t.Any, qid: int, cid: int) -> None:
        self._active.pop((ctrl, qid, cid), None)

    def active(self, ctrl: t.Any, qid: int, cid: int) -> IoSpan | None:
        """The span bound to ``(ctrl, qid, cid)`` right now, if any."""
        return self._active.get((ctrl, qid, cid))

    def mark_cmd(self, ctrl: t.Any, qid: int, cid: int, boundary: str,
                 time_ns: int) -> None:
        """Stamp a boundary on the span bound to ``(ctrl, qid, cid)``; a
        miss (admin command, retired cid) is a silent no-op."""
        span = self._active.get((ctrl, qid, cid))
        if span is not None:
            span.mark(boundary, time_ns)

    # -- queries -----------------------------------------------------------

    def finished(self) -> list[IoSpan]:
        return [s for s in self.spans if s.finished]

    def clean_spans(self) -> list[IoSpan]:
        return [s for s in self.spans if s.clean]

    def clear(self) -> None:
        self.spans.clear()
        self._active.clear()
        self._next_index = 0
