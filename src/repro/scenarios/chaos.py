"""Chaos testbed: a multi-client cluster with fault injection wired in.

Builds the :func:`~repro.scenarios.builders.multihost` topology and
threads one :class:`~repro.faults.FaultPointRegistry` through every
layer that exposes fault points:

* ``link:<host>``   — each host's NTB adapter (down / drop / delay),
  hooked into both the adapter (:class:`~repro.pcie.ntb.NtbFunction`)
  and the fabric's per-transaction checks;
* ``ctrl:<name>``   — the NVMe controller (stall / per-command abort);
* ``client:<name>`` — every distributed-driver client (kill).

Recovery is enabled via :class:`~repro.config.ReliabilityConfig`
(command timeouts + retries in the clients, heartbeat liveness leases in
the manager) and a shared :class:`~repro.sim.Tracer` records the
``fault``/``recovery`` event streams, so a run is fully auditable and —
given the same ``(seed, plan)`` — bit-identical across replays.
"""

from __future__ import annotations

import dataclasses
import typing as t

from ..config import ReliabilityConfig, SimulationConfig
from ..driver import DistributedNvmeClient, NvmeManager
from ..faults import FaultInjector, FaultPlan, FaultPointRegistry
from ..sim import Simulator, Tracer
from ..telemetry.hub import Telemetry
from .testbed import PcieTestbed

#: Reliability knobs used when the caller does not bring their own:
#: timeouts well above healthy latencies, sub-millisecond leases so
#: chaos tests converge in a few simulated milliseconds.
CHAOS_RELIABILITY = ReliabilityConfig(
    command_timeout_ns=2_000_000,
    max_retries=3,
    retry_backoff_ns=200_000,
    heartbeat_interval_ns=100_000,
    lease_timeout_ns=1_000_000,
    lease_check_interval_ns=250_000,
)


def with_chaos_reliability(base: SimulationConfig,
                           reliability: ReliabilityConfig | None = None,
                           ) -> SimulationConfig:
    """Resolve the reliability profile for a fault-injected run.

    The caller's explicit choice wins; the all-off default (under which
    every injected fault is a silent hang) falls back to
    :data:`CHAOS_RELIABILITY`.
    """
    rel = reliability or base.reliability
    if rel.command_timeout_ns == 0 and rel.lease_timeout_ns == 0:
        rel = CHAOS_RELIABILITY
    return dataclasses.replace(base, reliability=rel)


@dataclasses.dataclass
class ChaosScenario:
    """A live cluster plus its fault-injection plumbing."""

    sim: Simulator
    clients: list[DistributedNvmeClient]
    manager: NvmeManager
    testbed: PcieTestbed
    registry: FaultPointRegistry
    injector: FaultInjector
    tracer: Tracer
    plan: FaultPlan
    telemetry: Telemetry | None = None
    sanitizer: t.Any = None

    def link_points(self) -> list[str]:
        return [f"link:{h.name}" for h in self.testbed.hosts]

    def client_points(self) -> list[str]:
        return [f"client:{c.name}" for c in self.clients]

    @property
    def ctrl_point(self) -> str:
        assert self.testbed.nvme is not None
        return self.testbed.nvme.fault_point

    def trace_log(self, *categories: str) -> list[tuple]:
        """Flat, comparable view of the trace (for replay assertions)."""
        wanted = set(categories) or None
        return [r.as_tuple() for r in self.tracer.records
                if wanted is None or r.category in wanted]


def chaos_cluster(n_clients: int = 4,
                  plan: FaultPlan | None = None,
                  config: SimulationConfig | None = None,
                  seed: int | None = None,
                  queue_depth: int = 8,
                  queue_entries: int = 64,
                  reliability: ReliabilityConfig | None = None,
                  trace_categories: t.Collection[str] | None = None,
                  telemetry: bool = False,
                  sharing: str = "auto",
                  sanitizer: bool = False,
                  ) -> ChaosScenario:
    """N remote clients sharing host0's controller, faults injectable.

    The injector is created but **not started**; tests start it (and the
    workload) so nothing fires before the cluster is fully up.
    """
    base = with_chaos_reliability(config or SimulationConfig(),
                                  reliability)

    n_hosts = 1 + n_clients
    bed = PcieTestbed(config=base, n_hosts=max(2, n_hosts),
                      with_nvme=True, seed=seed)
    tracer = Tracer(bed.sim, categories=trace_categories)
    # The testbed creates the simulator, so the shared tracer can only
    # exist now; retrofit it into the already-built components.
    bed.tracer = tracer
    bed.fabric.tracer = tracer
    assert bed.nvme is not None
    bed.nvme.tracer = tracer

    registry = FaultPointRegistry(bed.sim)
    for host, ntb in zip(bed.hosts, bed.ntbs):
        registry.register(f"link:{host.name}", obj=ntb)
    registry.register(bed.nvme.fault_point, obj=bed.nvme)
    bed.fabric.faults = registry
    bed.nvme.faults = registry

    tele = None
    if telemetry:
        tele = Telemetry(bed.sim).attach(fabric=bed.fabric, ntbs=bed.ntbs,
                                         controllers=[bed.nvme],
                                         faults=registry)

    san = None
    if sanitizer:
        from ..sanitizer import ShareSan
        san = ShareSan(bed.sim, telemetry=tele).attach(
            controllers=[bed.nvme], ntbs=bed.ntbs, hosts=bed.hosts)

    manager = NvmeManager(bed.sim, bed.smartio, bed.node(0),
                          bed.nvme_device_id, base, tracer=tracer)
    if tele is not None:
        tele.attach(managers=[manager])
    if san is not None:
        san.attach(managers=[manager])
    bed.sim.run(until=bed.sim.process(manager.start()))

    clients: list[DistributedNvmeClient] = []
    for i in range(n_clients):
        host_index = 1 + i
        client = DistributedNvmeClient(
            bed.sim, bed.smartio, bed.node(host_index),
            bed.nvme_device_id, base, queue_depth=queue_depth,
            queue_entries=queue_entries, sharing=sharing,
            slot_index=i, name=f"host{host_index}-nvme",
            tracer=tracer)
        if tele is not None:
            tele.attach(clients=[client])
        if san is not None:
            san.attach(clients=[client])
        bed.sim.run(until=bed.sim.process(client.start()))
        clients.append(client)
        registry.register(f"client:{client.name}", obj=client)

    injector = FaultInjector(bed.sim, registry, plan or FaultPlan(()),
                             tracer=tracer)
    return ChaosScenario(sim=bed.sim, clients=clients, manager=manager,
                         testbed=bed, registry=registry,
                         injector=injector, tracer=tracer,
                         plan=injector.plan, telemetry=tele,
                         sanitizer=san)
