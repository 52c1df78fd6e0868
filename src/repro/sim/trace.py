"""Lightweight structured tracing.

A :class:`Tracer` is an observer of the probe seam
(:mod:`repro.sim.probe`): ``sim.probe.subscribe(tracer)`` and every
later event it listens to becomes a record ``(time_ns, category,
message, payload)``.  Used by tests to assert ordering properties (e.g.
"the controller never fetched a command before its doorbell write
arrived"), by chaos runs as the audit log of what was injected and how
the stack recovered, and by examples to narrate a run.
"""

from __future__ import annotations

import dataclasses
import typing as t

if t.TYPE_CHECKING:  # pragma: no cover
    from .core import Simulator


@dataclasses.dataclass(frozen=True)
class TraceRecord:
    time_ns: int
    category: str
    message: str
    payload: dict[str, t.Any] = dataclasses.field(default_factory=dict)

    def as_tuple(self) -> tuple:
        """Stable, hashable, order-independent view of the record —
        the canonical comparison key for replay/determinism tests."""
        return (self.time_ns, self.category, self.message,
                tuple(sorted(self.payload.items())))


#: audit-log category of the ``recovery`` actions the stack itself
#: takes; any other action is the fault injector's ("fault")
_RECOVERY_CATEGORY = {"timeout": "recovery", "retry": "recovery",
                      "cq-resync": "recovery", "lease-reclaim": "recovery",
                      "path-down": "cluster", "failover": "cluster"}
#: trace message of the window changes worth a record
_LEASE_MESSAGE = {"granted": "shared-admit", "released": "window-released"}


class Tracer:
    """Collects :class:`TraceRecord` items, optionally filtered by category."""

    def __init__(self, sim: "Simulator",
                 categories: t.Collection[str] | None = None) -> None:
        self.sim = sim
        self.records: list[TraceRecord] = []
        self.categories = frozenset(categories) if categories else None
        self._enabled = True

    def emit(self, category: str, message: str, **payload: t.Any) -> None:
        if not self._enabled:
            return
        if self.categories is not None and category not in self.categories:
            return
        self.records.append(
            TraceRecord(self.sim.now, category, message, payload))

    def disable(self) -> None:
        self._enabled = False

    def enable(self) -> None:
        self._enabled = True

    def filter(self, category: str) -> list[TraceRecord]:
        return [r for r in self.records if r.category == category]

    def clear(self) -> None:
        self.records.clear()

    # -- the probe events this observer records ----------------------------

    def on_tlp_done(self, fabric, read, addr, size, res, lost_at) -> None:
        if lost_at is not None:
            if read:
                self.emit("fault", "read-timeout", point=lost_at, addr=addr)
            else:
                self.emit("fault", "write-dropped", point=lost_at,
                          addr=addr, size=size)
        elif read:
            self.emit("pcie", "read-complete", addr=addr, size=size,
                      crossings=res.crossings)
        else:
            self.emit("pcie", "write-delivered", addr=addr,
                      final=res.addr if res.kind == "mem" else res.offset,
                      size=size, crossings=res.crossings)

    def on_doorbell_landed(self, ctrl, qid, is_cq, value, ok) -> None:
        if ok:
            self.emit("nvme", "doorbell", qid=qid, cq=is_cq, value=value)

    def on_sqe_fetched(self, ctrl, qid, sqe, win, granted_at,
                       wait_ns) -> None:
        window = {} if win is None else {"window": win.index}
        self.emit("nvme", "fetched", qid=qid, opcode=sqe.opcode,
                  cid=sqe.cid, **window)

    def on_cqe_posted(self, ctrl, qid, cid, status) -> None:
        self.emit("nvme", "completed", qid=qid, cid=cid, status=status)

    def on_cqe_seen(self, qp, cqe, waiter) -> None:
        if waiter is None:
            self.emit("recovery", "stale-completion", client=qp.name,
                      cid=cqe.cid)

    def on_lease_changed(self, manager, what, slot, qid, widx,
                         since_ns) -> None:
        if what in _LEASE_MESSAGE:
            self.emit("manager", _LEASE_MESSAGE[what], slot=slot, qid=qid,
                      window=widx)

    def on_recovery(self, source, action, **detail) -> None:
        self.emit(_RECOVERY_CATEGORY.get(action, "fault"), action, **detail)

    def on_lifecycle(self, component, what, *detail) -> None:
        if what == "enabled":
            self.emit("nvme", "enabled", name=component.name)
        elif what == "shared-qp-created":
            qp, = detail
            self.emit("manager", what, qid=qp.qid, windows=qp.nwindows)
        elif what == "shared-qp-joined":
            tenant, win_start, win_len = detail
            self.emit("client", what, client=component.name,
                      qid=component.qid, tenant=tenant,
                      win_start=win_start, win_len=win_len)
        elif what == "client-crashed":
            self.emit("fault", what, client=component.name)
