"""The noisy-neighbour story as one call (docs/qos.md): ``run_qos`` is
a :class:`~repro.run.RunSpec` constructor with the signature it has
always had; :data:`QOS_SLO` lives with the other run defaults."""

from __future__ import annotations

from ..run import QOS_SLO, Run, RunSpec, run
from ..telemetry.slo import SloSpec

__all__ = ["QOS_SLO", "run_qos"]


def run_qos(policy: str = "wfq", *, throttle: bool = False,
            n_bystanders: int = 3, seed: int = 7,
            aggressor_iops: float = 1_000_000.0,
            bystander_iops: float = 50_000.0,
            arrival: str = "poisson",
            horizon_ns: int = 8_000_000,
            interval_ns: int = 100_000,
            throttle_window: int = 1,
            aggressor_active: bool = True,
            spec: SloSpec | None = None,
            sanitizer: bool = False) -> Run:
    """Drive the ``noisy`` rig under one policy with the hub,
    histograms, sampler and SLO engine on; the :class:`~repro.run.Run`
    carries per-tenant latencies, the SLO verdict and the throttle's
    actions.

    One aggressor (client 0) offers ``aggressor_iops`` open-loop —
    far beyond its fair share of the shared-SQ fetch loop — while
    ``n_bystanders`` tenants offer ``bystander_iops`` each.  With
    ``throttle=True`` the admission throttle watches the SLO engine's
    burn-rate alerts and clamps an alerting tenant's outstanding
    window to ``throttle_window`` commands.

    ``aggressor_active=False`` runs the *solo baseline*: identical
    bystander arrival streams (they are keyed by tenant name, not
    position) with the aggressor idle — the denominator for "bystander
    p99 under policy X vs. its undisturbed p99".
    """
    return run(RunSpec(
        "noisy", seed=seed, horizon_ns=horizon_ns, interval_ns=interval_ns,
        slo=spec,
        observe={"spans", "slo"} | ({"sanitize"} if sanitizer else set()),
        policy=policy, throttle=throttle, bystanders=n_bystanders,
        aggressor_iops=aggressor_iops, bystander_iops=bystander_iops,
        arrival=arrival, throttle_window=throttle_window,
        aggressor_active=aggressor_active))
