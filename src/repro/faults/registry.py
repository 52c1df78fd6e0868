"""Named fault points and their live state.

Components expose *fault points* — stable string names at which a
:class:`~repro.faults.injector.FaultInjector` can flip state:

``link:<host>``
    The host's NTB adapter uplink.  Down means every transaction whose
    initiator or final target lives in that host is severed: posted
    writes are dropped on the floor, non-posted reads time out.  The
    point may also carry a TLP drop probability and an extra forwarding
    delay (a lossy/degraded cable instead of a dead one).

``ctrl:<name>``
    An NVMe controller.  Can be *stalled* (its fetch loops stop fetching
    until resumed — firmware hiccup, internal GC pause) or given a
    per-command *abort* probability.

``client:<name>``
    A distributed-driver client; the only supported action is killing
    it (surprise removal, paper Sec. IV session cleanup).

The registry is pure bookkeeping — it draws randomness only from the
simulator's seeded :class:`~repro.sim.rng.RngRegistry` streams (one
stream per fault point, so adding a point never perturbs another) and
never reads wall-clock time, keeping chaos runs bit-reproducible.
"""

from __future__ import annotations

import dataclasses
import typing as t

from ..sim import Event, Simulator
from ..sim.rng import RngRegistry


class FaultError(Exception):
    pass


@dataclasses.dataclass
class PointState:
    """Mutable fault state of one named point."""

    obj: t.Any = None             # component behind the point (if any)
    link_up: bool = True
    drop_probability: float = 0.0
    extra_delay_ns: int = 0
    abort_probability: float = 0.0
    stall_clear: Event | None = None   # pending => point is stalled


class FaultPointRegistry:
    """All fault points of one simulation, keyed by name."""

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim
        self._points: dict[str, PointState] = {}
        #: fault decisions actually taken, by kind (telemetry scrapes
        #: this; plain ints so the hot path stays allocation-free)
        self.injected: dict[str, int] = {}

    def _count(self, kind: str) -> None:
        self.injected[kind] = self.injected.get(kind, 0) + 1

    # -- registration -----------------------------------------------------

    def register(self, name: str, obj: t.Any = None) -> None:
        """Declare a fault point (idempotent for the same object)."""
        state = self._points.get(name)
        if state is None:
            self._points[name] = PointState(obj=obj)
        elif obj is not None:
            state.obj = obj

    def names(self) -> list[str]:
        return sorted(self._points)

    def lookup(self, name: str) -> PointState:
        try:
            return self._points[name]
        except KeyError:
            raise FaultError(f"unknown fault point {name!r}; "
                             f"registered: {self.names()}") from None

    # -- state mutators (used by the injector) ----------------------------

    def set_link(self, name: str, up: bool) -> None:
        state = self.lookup(name)
        if not up and state.link_up:
            self._count("link-down")
        state.link_up = up
        obj = state.obj
        if obj is not None and hasattr(obj, "set_link_state"):
            obj.set_link_state(up)

    def set_drop(self, name: str, probability: float) -> None:
        if not 0.0 <= probability <= 1.0:
            raise FaultError(f"drop probability out of range: {probability}")
        self.lookup(name).drop_probability = probability

    def set_delay(self, name: str, delay_ns: int) -> None:
        if delay_ns < 0:
            raise FaultError(f"negative injected delay: {delay_ns}")
        self.lookup(name).extra_delay_ns = int(delay_ns)

    def set_abort(self, name: str, probability: float) -> None:
        if not 0.0 <= probability <= 1.0:
            raise FaultError(f"abort probability out of range: {probability}")
        self.lookup(name).abort_probability = probability

    def stall(self, name: str) -> None:
        state = self.lookup(name)
        if state.stall_clear is None:
            state.stall_clear = Event(self.sim)
            self._count("stall")

    def resume(self, name: str) -> None:
        state = self.lookup(name)
        clear, state.stall_clear = state.stall_clear, None
        if clear is not None and not clear.triggered:
            clear.succeed()

    # -- hot-path queries --------------------------------------------------

    def link_blocked(self, *host_names: str) -> str | None:
        """Name of the first downed ``link:`` point among hosts, or None."""
        for host in host_names:
            state = self._points.get(f"link:{host}")
            if state is not None and not state.link_up:
                return f"link:{host}"
        return None

    def tlp_dropped(self, rng: RngRegistry, *host_names: str) -> str | None:
        """Seeded per-point coin flips; name of the dropping point or None.

        The coin stream is keyed per (point, initiating host): a lossy
        link crossed by flows from several hosts flips an independent
        coin stream per flow, so each stream's consumption depends only
        on that host's own traffic."""
        initiator = host_names[0] if host_names else ""
        for host in host_names:
            name = f"link:{host}"
            state = self._points.get(name)
            if state is not None and state.drop_probability > 0.0 \
                    and rng.bernoulli(f"fault:{name}:from:{initiator}",
                                      state.drop_probability):
                self._count("tlp-drop")
                return name
        return None

    def tlp_delay_ns(self, *host_names: str) -> int:
        """Sum of injected forwarding delays along the named hosts."""
        total = 0
        for host in host_names:
            state = self._points.get(f"link:{host}")
            if state is not None:
                total += state.extra_delay_ns
        return total

    def command_aborted(self, rng: RngRegistry, name: str) -> bool:
        state = self._points.get(name)
        aborted = (state is not None and state.abort_probability > 0.0
                   and rng.bernoulli(f"fault:{name}:abort",
                                     state.abort_probability))
        if aborted:
            self._count("cmd-abort")
        return aborted

    def stalled(self, name: str) -> Event | None:
        """The pending event that fires when the point's stall is
        lifted, or None while it is not stalled: a waiter subscribes and
        asks again when it fires (the point may be stalled anew)."""
        state = self._points.get(name)
        return None if state is None else state.stall_clear
