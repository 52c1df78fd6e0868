"""Per-tenant QoS at the shared-SQ arbitration point (ISSUE 10).

Three pieces (docs/qos.md):

* **Fetch arbitration** (:mod:`.arbiter`) — pluggable policies deciding
  which tenant window the shared-SQ worker grants the next SQE fetch
  to: ``fifo`` (global arrival order, the baseline that fails to
  isolate), ``wfq`` (deficit round-robin, weight-proportional), and
  ``strict`` (priority tiers).
* **Admission throttling** (:mod:`.throttle`) — a sim process that
  clamps an alerting tenant's driver-side window of outstanding
  commands while its burn-rate SLO alert is active, consuming the
  ISSUE-8 measurement half.
* **The noisy-neighbour story** (:mod:`.runner`) — ``run_qos`` spells
  the ``noisy`` :class:`~repro.run.RunSpec` (one open-loop aggressor
  against bystanders on a single shared QP); loaded lazily because the
  run module pulls in the scenario builders (which import the driver
  stack, which imports the controller, which imports :mod:`.arbiter`).

Everything defaults to off: :class:`~repro.config.QosConfig` with
``enabled=False`` leaves the original round-robin grant loop and seed
runs bit-identical.
"""

from .arbiter import (Arbiter, DrrArbiter, FifoArbiter, StrictArbiter,
                      make_arbiter)
from .throttle import AdmissionThrottle

__all__ = [
    "AdmissionThrottle", "Arbiter", "DrrArbiter", "FifoArbiter",
    "StrictArbiter", "make_arbiter", "run_qos",
]


def __getattr__(name: str):
    if name == "run_qos":
        from .runner import run_qos
        return run_qos
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
