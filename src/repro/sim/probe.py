"""The probe seam: the one place observers attach to a running model.

Every :class:`~repro.sim.core.Simulator` owns one :class:`Probe`: a
fixed table of events (:data:`EVENTS`; emit site, subscribers and the
instant of each are in docs/observability.md).  ``probe.<event>`` is a
tuple of bound subscriber methods and every emit site reads the same::

    for f in self.probe.sqe_fetched:
        f(self, qid, sqe, win, granted_at, wait_ns)

With nobody listening the tuple is empty: no call, no guard, no NULL
object.  Observers must never move the model: no simulator events, no
RNG draws, no writes to simulated state.
"""

from __future__ import annotations

import typing as t

#: event -> the arguments its subscribers receive
EVENTS: dict[str, str] = {
    # a block request entered / left the block layer
    "io_submitted": "device, request",
    "io_completed": "device, request",
    # SQE store posted; `store` is its delivery event (None: a local
    # store, landed already; `.callbacks` None: dropped)
    "sqe_issued": "qp, sqe, slot, store, request",
    # SQ tail doorbell posted by the initiator / landed in the BAR
    # (`ok` False for one the controller refused)
    "doorbell_rung": "qp, ticket, request",
    "doorbell_landed": "ctrl, qid, is_cq, value, ok",
    # controller pipeline; `win` is None on a private SQ
    "sqe_fetched": "ctrl, qid, sqe, win, granted_at, wait_ns",
    "media_done": "ctrl, qid, cid",
    "cqe_posted": "ctrl, qid, cid, status",
    # host consumed a CQE (`waiter` None: its cid was retired) / the
    # manager demuxed one (`slot` None: an orphan, dropped)
    "cqe_seen": "qp, cqe, waiter",
    "cqe_routed": "manager, qp, cqe, widx, slot",
    # a TLP was delivered (`lost_at` None) or swallowed at that fault
    # point (`res` None)
    "tlp_done": "fabric, read, addr, size, res, lost_at",
    # an RPC answered (`what` its op, `widx` -1, `since_ns` when it was
    # picked up) or a window "granted" / "released" / "drained"
    "lease_changed": "manager, what, slot, qid, widx, since_ns",
    # one line of the chaos audit log: a fault the injector applied or
    # a step the stack took to recover
    "recovery": "source, action, **detail",
    # a controller, queue, manager or client came up or went away
    "lifecycle": "component, what, *detail",
    # DRAM "read" / "write", NTB "translate", DMA "pool" / "alloc" /
    # "free"
    "mem_event": "where, kind, addr, length",
    # a ring index is about to move
    "ring_step": "state, op",
}


class Probe:
    """Subscriber tuples, one per event of :data:`EVENTS`."""

    __slots__ = tuple(EVENTS)

    def __init__(self) -> None:
        for name in EVENTS:
            setattr(self, name, ())

    def subscribe(self, observer: t.Any) -> t.Any:
        """Append ``observer.on_<event>`` to every event it defines and
        return the observer.  Subscribing late is fine for an observer
        that keeps no model state: it hears every later event.  An
        ``on_`` method naming no event is a typo or a deleted event,
        not a silent no-op."""
        hooks = [name[3:] for name in dir(observer)
                 if name.startswith("on_")]
        unknown = sorted(set(hooks) - set(EVENTS))
        if unknown or not hooks:
            raise ValueError(
                f"{type(observer).__name__} subscribes to "
                f"{unknown or 'nothing'}; the probe's events are "
                f"{tuple(EVENTS)}")
        for name in hooks:
            setattr(self, name,
                    getattr(self, name) + (getattr(observer, "on_" + name),))
        return observer
