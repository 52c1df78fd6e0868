"""What a run is: one frozen :class:`RunSpec`, one :func:`run`, one
:class:`Run`.

A spec names a scenario, the load it is put under (one closed-loop fio
job per tenant; the ``noisy`` rig's open-loop aggressor and
bystanders), how its shared SQs arbitrate and whether alerting tenants
are throttled (``policy``, ``throttle``: any NTB rig), who watches
(``observe``: ``spans`` = the telemetry hub and its Perfetto/Prometheus
exports, ``slo`` = histograms + sampler + burn-rate engine on top,
``sanitize`` = ShareSan) and what goes wrong (``faults``: a seeded
``random`` plan or a device ``kill``).  The CLI
(``repro run``), :func:`repro.qos.run_qos`, the tests and CI all build
runs from it, so observers and faults compose — and because nothing an
observer does may move the model, a run with ``observe`` empty is I/O
for I/O the run with all three on.

Everything is seeded: two runs of one spec export identical bytes.
"""

from __future__ import annotations

import dataclasses
import typing as t

import numpy as np

from .config import QosConfig, ReliabilityConfig, SimulationConfig
from .faults import FaultEvent, FaultPlan
from .qos.throttle import AdmissionThrottle
from .scenarios import (FIG10_SCENARIOS, NO_SHARESAN, Rig,
                        build_fig10_scenario, chaos_cluster, cluster,
                        multihost, noisy_neighbor, scale_out_cluster)
from .telemetry.hub import Telemetry
from .telemetry.slo import SloSpec
from .workloads import (FioJob, OpenLoopJob, OpenLoopResult, fio_generator,
                        open_loop_generator)

#: scenario name -> one line for ``repro list``
SCENARIOS: dict[str, str] = {
    "local-linux": "stock Linux driver, local NVMe (Fig. 9a)",
    "nvmeof-remote": "kernel initiator -> RDMA -> SPDK target",
    "ours-local": "distributed driver, client in the device host",
    "ours-remote": "distributed driver, client across the NTB",
    "multihost": "N hosts sharing one controller (4)",
    "scale-out": "beyond 31 hosts on shared queue pairs (64)",
    "chaos": "multihost with fault points and recovery wired in (3)",
    "cluster": "M clients (8) on N devices behind striped/replicated "
               "volumes",
    "noisy": "open-loop aggressor beside bystanders on ONE shared QP",
}
OBSERVERS = ("spans", "slo", "sanitize")
FAULTS = ("none", "random", "kill")

#: clients when the spec names none
_DEFAULT_CLIENTS = {"multihost": 4, "scale-out": 64, "chaos": 3,
                    "cluster": 8}
_CLOSED = tuple(s for s in SCENARIOS if s != "noisy")
#: the rigs on the NTB fabric: their controllers take the spec's QoS
_NTB = tuple(s for s in SCENARIOS if s not in FIG10_SCENARIOS[:2])
#: spec field -> the scenarios it means something to; anywhere else a
#: non-default value is an error, not a silently dropped argument
_APPLIES = {
    **dict.fromkeys(("rw", "bs", "iodepth", "ios"), _CLOSED),
    "clients": tuple(_DEFAULT_CLIENTS),
    "faults": ("chaos", "cluster"),       # the rigs with fault points
    **dict.fromkeys(("devices", "width", "replicas"), ("cluster",)),
    **dict.fromkeys(("policy", "throttle", "throttle_window"), _NTB),
    **dict.fromkeys(("bystanders", "aggressor_iops", "bystander_iops",
                     "arrival", "aggressor_active"), ("noisy",)),
}

#: Reliability profile for a device kill: snappier than
#: CHAOS_RELIABILITY so a killed device resolves to fast-failing
#: NO_PATH within ~1.2 ms of simulated time instead of ~10.
SLO_RELIABILITY = ReliabilityConfig(
    command_timeout_ns=500_000,
    max_retries=1,
    retry_backoff_ns=100_000,
    heartbeat_interval_ns=100_000,
    lease_timeout_ns=1_000_000,
    lease_check_interval_ns=250_000,
)

#: Default SLO of closed-loop runs: 95 % of requests within 300 us,
#: multi-window burn alerting tuned to the run's millisecond scale.
DEFAULT_SLO = SloSpec(name="latency", objective_ns=300_000, target=0.95,
                      fast_window_ns=600_000, slow_window_ns=2_000_000,
                      burn_threshold=2.0)

#: Default SLO of the noisy rig: 90 % of each tenant's requests within
#: 30 us.  Solo bystanders finish in ~10 us, so a compliant tenant has
#: head-room; a fifo run behind a 63-deep aggressor backlog (~63 grants
#: ~ 65 us) breaches it, and the burn windows are sized to the
#: millisecond-scale horizon so alerts fire mid-run, in time for the
#: admission throttle to act.
QOS_SLO = SloSpec(name="latency", objective_ns=30_000, target=0.9,
                  fast_window_ns=400_000, slow_window_ns=1_600_000,
                  burn_threshold=2.0)

#: sampler cadence of the noisy rig (alerts must fire within its
#: millisecond horizons); every other rig ticks at the hub's 1 ms
_NOISY_INTERVAL_NS = 100_000
#: drive horizons when the spec names none: a kill is watched for 6 ms,
#: a random plan gets 200 ms to cover its faults and the retry tail,
#: the noisy rig offers 8 ms of arrivals
_HORIZON_NS = {"kill": 6_000_000, "random": 200_000_000,
               "noisy": 8_000_000}
#: post-horizon settle so lease reclaims land before the snapshot
_SETTLE_NS = 5_000_000


@dataclasses.dataclass(frozen=True)
class RunSpec:
    """One run, declaratively.  Validated on construction."""

    scenario: str = "ours-remote"
    # -- closed-loop load: one fio job per tenant (not ``noisy``)
    rw: str = "randread"
    bs: int = 4096
    iodepth: int = 1
    ios: int = 1000               # per tenant
    seed: int = 42
    # -- rig shape
    clients: int | None = None    # None: the scenario's usual count
    devices: int = 2              # cluster only, like width / replicas
    width: int = 1
    replicas: int = 1
    # -- who watches, what goes wrong
    observe: t.Collection[str] = frozenset()
    faults: str = "none"
    kill_ns: int = 1_000_000      # when ``kill`` stalls the last device
    #: how long to drive.  None: until every job drained (no faults) or
    #: the fault mode's / noisy rig's usual horizon.  A horizon on a
    #: closed-loop run cuts it there: undrained jobs report ``None``.
    horizon_ns: int | None = None
    interval_ns: int | None = None    # sampler cadence (``slo``)
    slo: SloSpec | None = None        # objective (``slo``)
    # -- QoS on an NTB rig: how its shared SQs arbitrate (None: the
    # rig's own, ``wfq`` on ``noisy``, ``off`` elsewhere; a rig that
    # built no shared SQ refuses a named one) and the admission throttle
    policy: str | None = None
    throttle: bool = False        # clamp alerting tenants (needs ``slo``)
    throttle_window: int = 1
    # -- the noisy rig's per-tenant open loops
    bystanders: int = 3
    aggressor_iops: float = 1_000_000.0
    bystander_iops: float = 50_000.0
    arrival: str = "poisson"      # the aggressor's arrival model
    aggressor_active: bool = True     # False: the solo baseline

    def __post_init__(self) -> None:
        object.__setattr__(self, "observe", frozenset(self.observe))
        name = self.scenario
        if name not in SCENARIOS:
            raise ValueError(f"unknown scenario {name!r}; "
                             f"pick one of {tuple(SCENARIOS)}")
        if not self.observe <= set(OBSERVERS):
            raise ValueError(f"unknown observer in {sorted(self.observe)}; "
                             f"pick from {OBSERVERS}")
        if self.faults not in FAULTS:
            raise ValueError(f"unknown fault mode {self.faults!r}; "
                             f"pick one of {FAULTS}")
        for field in dataclasses.fields(self):
            takes = _APPLIES.get(field.name)
            if takes is not None and name not in takes \
                    and getattr(self, field.name) != field.default:
                raise ValueError(
                    f"{field.name}= means nothing to scenario {name!r} "
                    f"(only to {', '.join(takes)})")
        if self.kill_ns != RunSpec.kill_ns and self.faults != "kill":
            raise ValueError("kill_ns= needs faults='kill'")
        if "sanitize" in self.observe and name in FIG10_SCENARIOS[:2]:
            raise ValueError(NO_SHARESAN.format(name))
        if "slo" not in self.observe and (
                self.interval_ns is not None or self.slo is not None
                or self.throttle):
            raise ValueError("interval_ns=, slo= and throttle= act on the "
                             "SLO engine: they need 'slo' in observe")
        if self.interval_ns is not None and self.interval_ns <= 0:
            raise ValueError("interval_ns must be positive")
        if min(self.ios, self.iodepth,
               1 if self.clients is None else self.clients) < 1:
            raise ValueError("ios, iodepth and clients must be positive")
        if self.bs <= 0 or self.bs % 512:
            raise ValueError(f"bs {self.bs} not a multiple of the "
                             f"512-byte LBA size")
        if self.horizon_ns is not None and self.horizon_ns <= 0:
            raise ValueError("horizon_ns must be positive")
        if self.faults == "kill" and not 0 <= self.kill_ns < self.horizon:
            raise ValueError("kill_ns must fall inside the horizon")

    @property
    def horizon(self) -> int | None:
        if self.horizon_ns is not None:
            return self.horizon_ns
        return _HORIZON_NS.get("noisy" if self.scenario == "noisy"
                               else self.faults)


@dataclasses.dataclass
class Run:
    """A finished run: the spec, the rig it ran on, what came out."""

    spec: RunSpec
    rig: Rig
    #: one per tenant, client order (``noisy``: index 0 is the
    #: aggressor); None for an idle tenant or a job the horizon cut
    results: list[t.Any]
    report: dict[str, t.Any]          # SLO engine compliance ({} if off)
    throttle_report: dict[str, t.Any]     # {} unless ``slo`` observed
    kill_at_ns: int = -1              # absolute sim time of the kill
    killed: str = ""                  # fault point killed ("" if none)
    #: tenants with a path to the killed device
    victims: list[str] = dataclasses.field(default_factory=list)

    @property
    def policy(self) -> str:
        """The arbitration policy the rig's controllers were built
        with."""
        return self.rig.testbed.config.qos.policy

    @property
    def telemetry(self) -> Telemetry | None:
        return self.rig.telemetry

    @property
    def sanitizer(self) -> t.Any:
        return self.rig.sanitizer

    @property
    def tenants(self) -> list[str]:
        """Histogram tenant labels, client order."""
        return [dev.tenant for dev in self.rig.clients]

    @property
    def aggressor(self) -> str:
        return self.tenants[0]

    @property
    def bystanders(self) -> list[str]:
        return self.tenants[1:]

    def perfetto_json(self) -> str:
        return self.rig.telemetry.perfetto_json()

    def prometheus_text(self) -> str:
        return self.rig.telemetry.prometheus_text()

    def timeseries_jsonl(self) -> str:
        return self.rig.telemetry.timeseries_jsonl()

    def slo_report_json(self) -> str:
        return self.rig.telemetry.slo_report_json()

    def sanitizer_report(self) -> dict[str, t.Any]:
        from .sanitizer import build_report
        devices = self.rig.clients
        return build_report(
            self.rig.sanitizer, scenario=self.spec.scenario,
            seed=self.spec.seed,
            extra={"ios": sum(dev.completed for dev in devices),
                   "errors": sum(dev.errors for dev in devices)})

    def p99_ns(self, tenant: str) -> float:
        """One tenant's p99 as its job measured it (open loop: from the
        scheduled arrival); 0 for an idle or cut-short tenant."""
        result = self.results[self.tenants.index(tenant)]
        if result is None:
            return 0.0
        values = (result.latencies.values()
                  if isinstance(result, OpenLoopResult)
                  else result.all_latencies())
        return float(np.percentile(values, 99)) if len(values) else 0.0

    def bystander_p99_ns(self) -> float:
        """Worst bystander p99 — the isolation headline."""
        return max(self.p99_ns(tenant) for tenant in self.bystanders)

    def tenant_alerts(self, tenant: str) -> list[dict]:
        return self.report.get("tenants", {}).get(tenant, {}) \
                          .get("alerts", [])

    def summary(self) -> dict[str, t.Any]:
        """Deterministic per-tenant digest (JSON-serialisable)."""
        tenants = {}
        for i, (tenant, result) in enumerate(zip(self.tenants,
                                                 self.results)):
            entry: dict[str, t.Any] = {}
            if self.spec.scenario == "noisy":
                entry["role"] = "aggressor" if i == 0 else "bystander"
            if self.report:
                verdict = self.report["tenants"].get(tenant, {})
                entry.update(alerts=len(verdict.get("alerts", [])),
                             met=verdict.get("met", True))
            if isinstance(result, OpenLoopResult):
                entry.update(
                    issued=result.issued, completed=result.completed,
                    offered_iops=round(result.offered_iops, 1),
                    iops=round(result.achieved_iops, 1),
                    capped_arrivals=result.capped_arrivals)
            elif result is not None:
                entry.update(completed=result.ios,
                             iops=round(result.iops, 1))
            if result is not None:
                entry.update(errors=result.errors,
                             p99_ns=round(self.p99_ns(tenant), 1))
            tenants[tenant] = entry
        out = {"scenario": self.spec.scenario, "tenants": tenants}
        if self.spec.scenario == "noisy":
            out.update(policy=self.policy, throttle=self.throttle_report)
        return out


def _build(spec: RunSpec) -> Rig:
    name = spec.scenario
    watch: dict[str, t.Any] = dict(
        seed=spec.seed, telemetry=bool(spec.observe & {"spans", "slo"}),
        sanitizer="sanitize" in spec.observe)
    if name not in _NTB:
        return build_fig10_scenario(name, **watch)
    qos: dict[str, t.Any] = dict(
        throttle_window=spec.throttle_window if spec.throttle else 0)
    if spec.policy is not None:
        qos["policy"] = spec.policy
    if name == "noisy":
        return noisy_neighbor(n_bystanders=spec.bystanders, **qos, **watch)
    watch["config"] = SimulationConfig(qos=QosConfig(**qos))
    if name in FIG10_SCENARIOS:
        return build_fig10_scenario(name, **watch)
    n_clients = spec.clients or _DEFAULT_CLIENTS[name]
    watch["queue_depth"] = spec.iodepth
    if name == "multihost":
        return multihost(n_clients, **watch)
    if name == "scale-out":
        return scale_out_cluster(n_clients, **watch)
    # What the rig is must not depend on who is watching: the recovery
    # profile follows the fault mode alone.
    watch["reliability"] = SLO_RELIABILITY if spec.faults == "kill" \
        else None
    if name == "chaos":
        return chaos_cluster(n_clients, **watch)
    return cluster(n_clients=n_clients, n_devices=spec.devices,
                   width=spec.width, replicas=spec.replicas,
                   faults=spec.faults != "none", **watch)


def _jobs(spec: RunSpec, rig: Rig) -> t.Iterator[t.Generator | None]:
    """One generator per tenant.  Names and stream names are model
    inputs (they key the workload RNG streams) — one naming for every
    closed-loop run, ``run_qos``'s for the noisy rig."""
    if spec.scenario != "noisy":
        for i, device in enumerate(rig.clients):
            yield fio_generator(device, FioJob(
                name=f"j{i}", rw=spec.rw, bs=spec.bs, iodepth=spec.iodepth,
                total_ios=spec.ios, seed_stream=f"fio{i}"))
        return
    for i, client in enumerate(rig.clients):
        if i == 0 and not spec.aggressor_active:
            yield None
            continue
        yield open_loop_generator(client, OpenLoopJob(
            name=f"bystander{i}" if i else "aggressor", rw="randread",
            rate_iops=spec.bystander_iops if i else spec.aggressor_iops,
            arrival="poisson" if i else spec.arrival,
            total_arrivals=None, runtime_ns=spec.horizon,
            inflight_cap=16 if i else client.queue_depth,
            seed_stream="qos"))


def run(spec: RunSpec) -> Run:
    """Build the rig, arm the faults, start one job per tenant, drive,
    stop what would keep the queue alive, collect."""
    rig = _build(spec)
    if spec.policy is not None and not any(
            manager.shared_qps for manager in rig.managers.values()):
        raise ValueError(
            f"policy={spec.policy!r} arbitrates shared SQs and "
            f"{spec.scenario!r} built none: every client got a private "
            f"queue pair")
    sim, tele = rig.sim, rig.telemetry
    out = Run(spec, rig, results=[], report={}, throttle_report={})
    noisy = spec.scenario == "noisy"

    slo = sampler = throttle = None
    if "slo" in spec.observe:
        tele.enable_histograms()
        sampler = tele.enable_sampler(
            interval_ns=spec.interval_ns
            or (_NOISY_INTERVAL_NS if noisy else None), start=False)
        slo = tele.enable_slo(spec.slo
                              or (QOS_SLO if noisy else DEFAULT_SLO))
        sampler.start()
        throttle = AdmissionThrottle(sim, rig.testbed.config.qos, slo)
        if throttle.enabled:
            throttle.attach(rig.subclients)
            throttle.start()

    if spec.faults == "kill":
        out.killed = rig.ctrl_points()[-1]
        dead = list(rig.managers)[-1]     # insertion order = ctrl order
        out.victims = sorted({path.tenant for path in rig.subclients
                              if path.device_id == dead})
        rig.injector.plan = FaultPlan((FaultEvent(
            spec.kill_ns, "ctrl_stall", out.killed, duration_ns=0),))
        out.kill_at_ns = sim.now + spec.kill_ns
    elif spec.faults == "random":
        # Drawn from the run's own RNG registry on a private stream, so
        # the plan never perturbs the workload's draws — and does not
        # depend on who is watching.  The device hosts' links are spared
        # so the cluster always finishes the workload.
        rig.injector.plan = FaultPlan.random(
            sim.rng, "fault-plan", horizon_ns=3_000_000,
            link_points=rig.link_points()[len(rig.controllers):],
            ctrl_points=rig.ctrl_points(), n_events=6,
            max_outage_ns=400_000, max_drop_probability=0.1)
    if spec.faults != "none":
        rig.injector.start()

    procs = [sim.process(gen) if gen is not None else None
             for gen in _jobs(spec, rig)]
    live = [proc for proc in procs if proc is not None]
    # A sampler keeps the event queue non-empty, so every rule names
    # its stop event: all jobs done (the noisy rig's horizon bounds its
    # arrivals, not the drive), or the horizon.
    if noisy or spec.horizon is None:
        sim.run(until=sim.all_of(live))
    else:
        sim.run(until=sim.timeout(spec.horizon))
        if spec.faults == "random":
            if not all(proc.triggered for proc in live):
                raise RuntimeError(
                    "workload did not drain by the horizon")
            sim.run(until=sim.timeout(_SETTLE_NS))

    if sampler is not None:
        sampler.stop()
        throttle.stop()
        out.report = slo.report()
        out.throttle_report = throttle.report()
    if tele is not None:
        tele.collect()
    out.results = [proc.value if proc is not None and proc.triggered
                   else None for proc in procs]
    return out
