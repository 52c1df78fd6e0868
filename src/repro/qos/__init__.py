"""Per-tenant QoS at the shared-SQ arbitration point.

Three pieces (docs/qos.md):

* **Fetch arbitration** (:mod:`.arbiter`) — the policy deciding which
  tenant window every shared-SQ fetch loop grants the next SQE fetch to:
  ``off`` (the NVMe round-robin, the default), ``fifo`` (global
  arrival order, the baseline that fails to isolate), ``wfq`` (deficit
  round-robin, weight-proportional) and ``strict`` (priority tiers);
  :data:`~.arbiter.POLICIES` is the one list of them.
* **Admission throttling** (:mod:`.throttle`) — a sim process that
  clamps an alerting tenant's driver-side window of outstanding
  commands while its burn-rate SLO alert is active
  (docs/observability.md).
* **The noisy-neighbour story** (:mod:`.runner`) — ``run_qos`` spells
  the ``noisy`` :class:`~repro.run.RunSpec` (one open-loop aggressor
  against bystanders on a single shared QP); loaded lazily because the
  run module pulls in the scenario builders (which import the driver
  stack, which imports the controller, which imports :mod:`.arbiter`).
"""

from .arbiter import (POLICIES, Arbiter, DrrArbiter, FifoArbiter,
                      RoundRobinArbiter, StrictArbiter, make_arbiter)
from .throttle import AdmissionThrottle

__all__ = [
    "AdmissionThrottle", "Arbiter", "DrrArbiter", "FifoArbiter",
    "POLICIES", "RoundRobinArbiter", "StrictArbiter", "make_arbiter",
    "run_qos",
]


def __getattr__(name: str):
    if name == "run_qos":
        from .runner import run_qos
        return run_qos
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
