"""The fault injector: drives a :class:`FaultPlan` against a registry.

One simulator process walks the plan's expanded (time-sorted) action
list, sleeping between events and applying each to the
:class:`~repro.faults.registry.FaultPointRegistry`.  Every applied
action is emitted on the probe's ``recovery`` event (the tracer files
it under category ``"fault"``) and counted, so a chaos run leaves an
inspectable record of exactly what was injected and when — the other
half of that record, category ``"recovery"``, comes from the driver's
timeout/lease machinery.
"""

from __future__ import annotations

import typing as t

from ..sim import Counter, Simulator
from .plan import FaultEvent, FaultPlan
from .registry import FaultError, FaultPointRegistry


class FaultInjector:
    """Applies a plan's events to registered fault points on schedule."""

    def __init__(self, sim: Simulator, registry: FaultPointRegistry,
                 plan: FaultPlan) -> None:
        self.sim = sim
        self.registry = registry
        self.plan = plan
        self.stats = Counter()
        self.applied: list[FaultEvent] = []
        self._proc = None

    def start(self):
        """Spawn the injection process (idempotent)."""
        for ev in self.plan.events:
            # Fail fast on typos before any time passes.
            self.registry.lookup(ev.target)
        if self._proc is None:
            self._proc = self.sim.process(self._run())
        return self._proc

    # -- the injection process --------------------------------------------

    def _run(self) -> t.Generator:
        # Plan times are relative to injector start: cluster bring-up
        # consumes simulated time (admin RPCs, queue creation), and
        # anchoring at start keeps a plan meaningful regardless of how
        # long that took.
        base = self.sim.now
        for ev in self.plan.expanded():
            due = base + ev.at_ns
            if due > self.sim.now:
                yield self.sim.timeout(due - self.sim.now)
            self._apply(ev)

    def _apply(self, ev: FaultEvent) -> None:
        reg = self.registry
        if ev.action == "link_down":
            reg.set_link(ev.target, False)
        elif ev.action == "link_up":
            reg.set_link(ev.target, True)
        elif ev.action == "tlp_drop":
            reg.set_drop(ev.target, ev.probability)
        elif ev.action == "tlp_delay":
            reg.set_delay(ev.target, ev.delay_ns)
        elif ev.action == "ctrl_stall":
            reg.stall(ev.target)
        elif ev.action == "ctrl_resume":
            reg.resume(ev.target)
        elif ev.action == "ctrl_abort":
            reg.set_abort(ev.target, ev.probability)
        elif ev.action == "kill_client":
            obj = reg.lookup(ev.target).obj
            if obj is None or not hasattr(obj, "crash"):
                raise FaultError(
                    f"{ev.target} has no crash-capable object registered")
            obj.crash()
        else:  # pragma: no cover - FaultEvent validates actions
            raise FaultError(f"unhandled action {ev.action!r}")
        self.applied.append(ev)
        self.stats.add(ev.action)
        for f in self.sim.probe.recovery:
            f(self, ev.action, target=ev.target,
              probability=ev.probability, delay_ns=ev.delay_ns)
