"""Declarative fault schedules.

A :class:`FaultPlan` is an ordered list of :class:`FaultEvent` items —
*what* goes wrong, *where* (a fault-point name) and *when* (nanoseconds
after the injector starts, so a plan stays meaningful however long
cluster bring-up took).  Plans are plain data: they can be written by
hand in tests, generated from a seeded RNG stream with
:meth:`FaultPlan.random`, or round-tripped through dicts for CLI use.
A ``(seed, plan)`` pair fully determines a chaos run; two runs with the
same pair replay bit-identically (asserted in tests/test_determinism.py).

Actions
=======

========================  ===================================================
``link_down``             sever ``link:<host>`` (auto ``link_up`` after
                          ``duration_ns`` when it is non-zero)
``link_up``               restore a severed link
``tlp_drop``              set the point's TLP drop probability to
                          ``probability`` (auto-clear after ``duration_ns``)
``tlp_delay``             add ``delay_ns`` forwarding delay at the point
                          (auto-clear after ``duration_ns``)
``ctrl_stall``            stall a controller's fetch loops (auto
                          ``ctrl_resume`` after ``duration_ns``)
``ctrl_resume``           resume a stalled controller
``ctrl_abort``            set a controller's per-command abort probability
``kill_client``           crash a driver client without cleanup (surprise
                          removal; never auto-reverts)
========================  ===================================================
"""

from __future__ import annotations

import dataclasses
import typing as t

from ..sim.rng import RngRegistry

ACTIONS = frozenset({
    "link_down", "link_up", "tlp_drop", "tlp_delay",
    "ctrl_stall", "ctrl_resume", "ctrl_abort", "kill_client",
})

#: actions that auto-revert after ``duration_ns`` and their inverse
_REVERT = {
    "link_down": "link_up",
    "tlp_drop": "tlp_drop",     # reverts to probability 0
    "tlp_delay": "tlp_delay",   # reverts to delay 0
    "ctrl_stall": "ctrl_resume",
    "ctrl_abort": "ctrl_abort",  # reverts to probability 0
}


@dataclasses.dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault action."""

    at_ns: int                  # ns after the injector starts
    action: str
    target: str                 # fault-point name, e.g. "link:host2"
    duration_ns: int = 0        # 0 = permanent (no auto-revert)
    probability: float = 0.0    # for tlp_drop / ctrl_abort
    delay_ns: int = 0           # for tlp_delay

    def __post_init__(self) -> None:
        if self.action not in ACTIONS:
            raise ValueError(f"unknown fault action {self.action!r}")
        if self.at_ns < 0 or self.duration_ns < 0 or self.delay_ns < 0:
            raise ValueError(f"negative time in {self!r}")
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError(f"probability out of range in {self!r}")

    def revert_event(self) -> "FaultEvent | None":
        """The auto-scheduled inverse action, if this event has one."""
        if self.duration_ns <= 0:
            return None
        inverse = _REVERT.get(self.action)
        if inverse is None:
            return None
        return FaultEvent(self.at_ns + self.duration_ns, inverse,
                          self.target)


@dataclasses.dataclass(frozen=True)
class FaultPlan:
    """An immutable, time-ordered fault schedule."""

    events: tuple[FaultEvent, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "events", tuple(self.events))

    def __len__(self) -> int:
        return len(self.events)

    def expanded(self) -> list[FaultEvent]:
        """Timed primitive actions including auto-reverts, stably sorted
        by (time, original position) — the injector's work list."""
        out = list(self.events)
        for ev in self.events:
            revert = ev.revert_event()
            if revert is not None:
                out.append(revert)
        keyed = sorted((ev.at_ns, i) for i, ev in enumerate(out))
        return [out[i] for _at, i in keyed]

    def targets(self) -> list[str]:
        return sorted({ev.target for ev in self.events})

    def as_dicts(self) -> list[dict]:
        return [dataclasses.asdict(ev) for ev in self.events]

    @classmethod
    def from_dicts(cls, rows: t.Iterable[dict]) -> "FaultPlan":
        return cls(tuple(FaultEvent(**row) for row in rows))

    # -- builders ---------------------------------------------------------

    @classmethod
    def link_flap(cls, host: str, at_ns: int, duration_ns: int) -> "FaultPlan":
        """Single link-down/up cycle on one host's adapter."""
        return cls((FaultEvent(at_ns, "link_down", f"link:{host}",
                               duration_ns=duration_ns),))

    @classmethod
    def kill(cls, client: str, at_ns: int) -> "FaultPlan":
        return cls((FaultEvent(at_ns, "kill_client", f"client:{client}"),))

    def merged(self, other: "FaultPlan") -> "FaultPlan":
        both = sorted(self.events + other.events, key=lambda ev: ev.at_ns)
        return FaultPlan(tuple(both))

    @classmethod
    def random(cls, rng: RngRegistry, stream: str, horizon_ns: int,
               link_points: t.Sequence[str] = (),
               ctrl_points: t.Sequence[str] = (),
               client_points: t.Sequence[str] = (),
               n_events: int = 8,
               max_outage_ns: int = 300_000,
               max_drop_probability: float = 0.05,
               max_extra_delay_ns: int = 2_000,
               kill_at_most: int = 0) -> "FaultPlan":
        """Seeded random plan over the given fault points.

        Draws come from one named registry stream, so the schedule is a
        pure function of ``(master seed, stream name, arguments)`` —
        changing any other component of the simulation cannot perturb
        it.  ``kill_at_most`` bounds client kills (each client dies at
        most once).
        """
        gen = rng.stream(stream)
        events: list[FaultEvent] = []

        menu: list[tuple[str, str]] = []
        for point in link_points:
            menu += [("link_down", point), ("tlp_drop", point),
                     ("tlp_delay", point)]
        for point in ctrl_points:
            menu += [("ctrl_stall", point), ("ctrl_abort", point)]
        if not menu and not (client_points and kill_at_most):
            return cls(())

        for _ in range(n_events if menu else 0):
            action, target = menu[int(gen.integers(0, len(menu)))]
            at_ns = int(gen.integers(0, max(1, horizon_ns)))
            duration_ns = int(gen.integers(1, max(2, max_outage_ns)))
            probability = 0.0
            delay_ns = 0
            if action == "tlp_drop":
                probability = float(gen.uniform(0.0, max_drop_probability))
            elif action == "tlp_delay":
                delay_ns = int(gen.integers(0, max(1, max_extra_delay_ns)))
            events.append(FaultEvent(at_ns, action, target,
                                     duration_ns=duration_ns,
                                     probability=probability,
                                     delay_ns=delay_ns))

        victims = list(client_points)
        for _ in range(min(kill_at_most, len(victims))):
            idx = int(gen.integers(0, len(victims)))
            victim = victims.pop(idx)
            at_ns = int(gen.integers(0, max(1, horizon_ns)))
            events.append(FaultEvent(at_ns, "kill_client", victim))

        events.sort(key=lambda ev: ev.at_ns)
        return cls(tuple(events))
