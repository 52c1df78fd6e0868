"""Admission throttling driven by burn-rate SLO alerts.

The arbiter (``qos/arbiter.py``) bounds how much fetch service a
misbehaving tenant gets, but a tenant ringing its full window still
occupies every slot of its sub-ring and keeps the controller's fetch
loop busy skipping it.  The cheaper fix is upstream: clamp the
*driver-side* window of outstanding commands while the tenant's
burn-rate alert (docs/observability.md) is active, so the excess load
never reaches the shared ring at all.

:class:`AdmissionThrottle` is a sim loop that periodically reads the
:class:`~repro.telemetry.slo.SloEngine`'s per-tenant alert state and
applies/lifts the clamp on every
:class:`~repro.driver.client.DistributedNvmeClient` of the tenant (a
cluster host reaches each member device of its volume through a path
client of its own).  Tenants are
scanned in sorted order and the check interval is fixed, so runs are
deterministic.  The clamp is lifted only after the alert has stayed
resolved for ``throttle_cooldown_ns`` (hysteresis against burn-rate
flapping).
"""

from __future__ import annotations

import typing as t

from ..sim import Event
from ..sim.resources import Record

if t.TYPE_CHECKING:  # pragma: no cover
    from ..config import QosConfig
    from ..driver.client import DistributedNvmeClient
    from ..sim import Simulator
    from ..telemetry.slo import SloEngine


class AdmissionThrottle:
    """Clamps alerting tenants' submission windows (docs/qos.md)."""

    def __init__(self, sim: "Simulator", qos: "QosConfig",
                 slo: "SloEngine") -> None:
        self.sim = sim
        self.qos = qos
        self.slo = slo
        #: tenant -> its path clients, attach order
        self.clients: dict[str, list["DistributedNvmeClient"]] = {}
        self.throttles_applied = 0
        self.throttles_released = 0
        self._last_active: dict[str, int] = {}
        self._running = False

    def attach(self, clients: t.Iterable["DistributedNvmeClient"]) -> None:
        """Register the clients (grouped by tenant name) to police."""
        for client in clients:
            self.clients.setdefault(client.tenant, []).append(client)

    @property
    def enabled(self) -> bool:
        return self.qos.throttle_window > 0

    def start(self) -> None:
        if not self.enabled or self._running:
            return
        self._running = True
        _Watch(self)

    def stop(self) -> None:
        self._running = False

    def _check(self) -> None:
        """One look at the alerts: clamp or release each tenant."""
        cooldown = self.qos.throttle_cooldown_ns
        clamp = self.qos.throttle_window
        now = self.sim.now
        for tenant in sorted(self.clients):
            paths = self.clients[tenant]
            active = any(a.active for a in self.slo.alerts_for(tenant))
            if active:
                self._last_active[tenant] = now
                if paths[0].qos_window is None:
                    for client in paths:
                        client.set_qos_window(clamp)
                    self.throttles_applied += 1
            elif paths[0].qos_window is not None:
                last = self._last_active.get(tenant, now)
                if now - last >= cooldown:
                    for client in paths:
                        client.set_qos_window(None)
                    self.throttles_released += 1

    def report(self) -> dict[str, t.Any]:
        """Deterministic summary for exports/tests."""
        return {
            "enabled": self.enabled,
            "throttles_applied": self.throttles_applied,
            "throttles_released": self.throttles_released,
            "clamped": sorted(t for t, paths in self.clients.items()
                              if paths[0].qos_window is not None),
        }


class _Watch(Record):
    """The throttle's check loop, walked from its owned timer: a check
    every ``throttle_check_interval_ns`` while the throttle runs.  The
    first wake after :meth:`AdmissionThrottle.stop` ends it, queued, as
    the loop's process ended."""

    __slots__ = ("throttle",)

    def __init__(self, throttle: AdmissionThrottle) -> None:
        self.throttle = throttle
        Record.__init__(self, throttle.sim, self._sleep)

    def _sleep(self, _event: Event | None) -> None:
        throttle = self.throttle
        if throttle._running:
            self._arm(throttle.qos.throttle_check_interval_ns, self._woken)
        else:
            self.succeed()

    def _woken(self, _timer: Event) -> None:
        if not self.throttle._running:
            self.succeed()
            return
        self.throttle._check()
        self._sleep(None)
