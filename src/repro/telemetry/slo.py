"""SLO specs and multi-window burn-rate evaluation over sim time.

An :class:`SloSpec` states the objective — "``target`` of requests
complete within ``objective_ns``" — and the alerting policy: the
classic multi-window burn-rate rule (fast window catches sharp
regressions quickly, slow window keeps one bad sampling tick from
paging).  *Burn rate* is the ratio of the observed bad fraction to the
error budget ``1 - target``; burn 1.0 spends the budget exactly,
burn 20 spends it twenty times too fast.

The :class:`SloEngine` is one more sampler source
(:meth:`SloEngine.sample` has the ``fn(bank, now)`` shape
:class:`~repro.telemetry.timeseries.TelemetrySampler` expects): each
tick it folds the per-``(tenant, op, device)`` histograms down to
per-tenant cumulative ``(good, total)`` counters — a request is *good*
when it succeeded within the objective; an error is always *bad*, no
matter how fast it failed — keeps a bounded history of those counters,
and evaluates trailing-window burn rates against the threshold.  Alert
fire/resolve transitions carry exact sim timestamps, so a chaos test
can assert the victim tenant's alert fired inside the kill window.

Everything here is pure integer/bucket arithmetic on monotone
counters; two runs with identical seeds produce identical timelines,
alerts, and reports.
"""

from __future__ import annotations

import collections
import dataclasses
import json
import typing as t

from .hist import LatencyHistograms

if t.TYPE_CHECKING:  # pragma: no cover
    from .timeseries import SeriesBank


@dataclasses.dataclass(frozen=True)
class SloSpec:
    """A latency SLO: ``target`` of requests within ``objective_ns``."""

    name: str = "latency"
    objective_ns: int = 1_000_000          # requests should finish within
    target: float = 0.99                   # ...for this fraction of them
    fast_window_ns: int = 5_000_000        # sharp-regression window
    slow_window_ns: int = 25_000_000       # sustained-regression window
    burn_threshold: float = 4.0            # alert when BOTH windows exceed

    def __post_init__(self) -> None:
        if not 0.0 < self.target < 1.0:
            raise ValueError(f"target must be in (0, 1): {self.target}")
        if self.objective_ns <= 0:
            raise ValueError(f"objective_ns must be positive")
        if not 0 < self.fast_window_ns <= self.slow_window_ns:
            raise ValueError(
                f"need 0 < fast_window_ns <= slow_window_ns "
                f"({self.fast_window_ns} vs {self.slow_window_ns})")

    @property
    def budget(self) -> float:
        """The error budget, ``1 - target``."""
        return 1.0 - self.target


@dataclasses.dataclass
class SloAlert:
    """One fire(/resolve) transition of a tenant's burn-rate alert."""

    spec: str
    tenant: str
    fired_at_ns: int
    burn_fast: float
    burn_slow: float
    resolved_at_ns: int | None = None

    @property
    def active(self) -> bool:
        return self.resolved_at_ns is None

    def as_dict(self) -> dict[str, t.Any]:
        return {"spec": self.spec, "tenant": self.tenant,
                "fired_at_ns": self.fired_at_ns,
                "resolved_at_ns": self.resolved_at_ns,
                "burn_fast": round(self.burn_fast, 6),
                "burn_slow": round(self.burn_slow, 6)}


class _TenantState:
    """Per-tenant counter history, window baselines, series and alert."""

    __slots__ = ("samples", "appended", "cursors", "series", "alert")

    def __init__(self, capacity: int) -> None:
        #: (t_ns, cumulative good, cumulative total), oldest first
        self.samples: collections.deque[tuple[int, int, int]] = \
            collections.deque(maxlen=capacity)
        self.appended = 0       # samples ever appended: the next serial
        self.cursors = [0, 0]   # serial of the [fast, slow] baseline
        #: (bank, burn_fast, burn_slow, compliance): handles, bound once
        self.series: tuple = (None,)
        self.alert: SloAlert | None = None


def _window_burn(state: _TenantState, slot: int, now: int,
                 window_ns: int, budget: float) -> tuple[float, int]:
    """(burn rate, total requests) over the trailing window.

    The window baseline is the most recent sample at or before
    ``now - window_ns`` (so the window covers *at least* ``window_ns``
    once enough history exists); with no sample that old yet, the
    oldest sample is the baseline — the cold-start window is simply
    shorter.  An empty window burns nothing.  Time only moves forward,
    so the search resumes at ``cursors[slot]``, the previous baseline.
    """
    samples = state.samples
    cutoff = now - window_ns
    first = state.appended - len(samples)       # serial of samples[0]
    cursor = state.cursors[slot]
    if cursor < first:
        cursor = first                          # baseline was evicted
    newest = state.appended - 1
    while cursor < newest and samples[cursor + 1 - first][0] <= cutoff:
        cursor += 1
    state.cursors[slot] = cursor
    base = samples[cursor - first]
    last = samples[-1]
    good = last[1] - base[1]
    total = last[2] - base[2]
    if total <= 0:
        return 0.0, 0
    return ((total - good) / total) / budget, total


class SloEngine:
    """Evaluates one :class:`SloSpec` per tenant from live histograms."""

    def __init__(self, spec: SloSpec, hists: LatencyHistograms,
                 history: int = 4096) -> None:
        self.spec = spec
        self.hists = hists
        self.history = history
        self.alerts: list[SloAlert] = []
        self._tenants: dict[str, _TenantState] = {}

    # -- counter folding ---------------------------------------------------

    def _tenant_counters(self) -> dict[str, tuple[int, int]]:
        """Cumulative per-tenant ``(good, total)`` right now."""
        out: dict[str, tuple[int, int]] = {}
        objective = self.spec.objective_ns
        for key in self.hists.keys():
            tenant = key[0]
            hist = self.hists.hist(*key)
            ok, errors = self.hists.totals(key)
            good = hist.rank_to(objective) if hist is not None else 0
            prev_good, prev_total = out.get(tenant, (0, 0))
            out[tenant] = (prev_good + good, prev_total + ok + errors)
        return out

    # -- sampler source ----------------------------------------------------

    def sample(self, bank: "SeriesBank", now: int) -> None:
        """One evaluation tick (registered as a sampler source)."""
        spec = self.spec
        for tenant, (good, total) in sorted(self._tenant_counters().items()):
            state = self._tenants.get(tenant)
            if state is None:
                state = self._tenants[tenant] = _TenantState(self.history)
            state.samples.append((now, good, total))
            state.appended += 1

            fast, n_fast = _window_burn(state, 0, now,
                                        spec.fast_window_ns, spec.budget)
            slow, _ = _window_burn(state, 1, now,
                                   spec.slow_window_ns, spec.budget)
            compliance = good / total if total else 1.0

            if state.series[0] is not bank:     # label keys: built once
                state.series = (bank, *(
                    bank.series(f"slo_{name}", slo=spec.name, tenant=tenant)
                    for name in ("burn_fast", "burn_slow", "compliance")))
            for ts, value in zip(state.series[1:], (fast, slow, compliance)):
                ts.append(now, round(value, 6))

            firing = (fast > spec.burn_threshold
                      and slow > spec.burn_threshold
                      and n_fast > 0)
            if firing and state.alert is None:
                state.alert = SloAlert(spec=spec.name, tenant=tenant,
                                       fired_at_ns=now, burn_fast=fast,
                                       burn_slow=slow)
                self.alerts.append(state.alert)
            elif not firing and state.alert is not None:
                state.alert.resolved_at_ns = now
                state.alert = None

    # -- reporting ---------------------------------------------------------

    def tenants(self) -> list[str]:
        return sorted(self._tenants)

    def compliance(self, tenant: str) -> float:
        """Whole-run compliance for one tenant (1.0 when idle)."""
        state = self._tenants.get(tenant)
        if state is None or not state.samples:
            return 1.0
        _, good, total = state.samples[-1]
        return good / total if total else 1.0

    def alerts_for(self, tenant: str) -> list[SloAlert]:
        return [a for a in self.alerts if a.tenant == tenant]

    def report(self) -> dict[str, t.Any]:
        """Deterministic compliance report (JSON-serialisable)."""
        tenants = {}
        for tenant in self.tenants():
            state = self._tenants[tenant]
            last = state.samples[-1]
            tenants[tenant] = {
                "good": last[1], "total": last[2],
                "compliance": round(self.compliance(tenant), 6),
                "met": self.compliance(tenant) >= self.spec.target,
                "alerts": [a.as_dict() for a in self.alerts_for(tenant)],
            }
        return {
            "spec": {"name": self.spec.name,
                     "objective_ns": self.spec.objective_ns,
                     "target": self.spec.target,
                     "fast_window_ns": self.spec.fast_window_ns,
                     "slow_window_ns": self.spec.slow_window_ns,
                     "burn_threshold": self.spec.burn_threshold},
            "tenants": tenants,
            "alerts": [a.as_dict() for a in self.alerts],
        }

    def report_json(self) -> str:
        return json.dumps(self.report(), indent=2, sort_keys=True) + "\n"
