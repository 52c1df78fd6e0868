"""Multi-device cluster scenarios: M clients over N shared controllers.

The paper's topology shares *one* single-function controller; this
builder installs a controller (plus its :class:`NvmeManager`) in each
of the first ``n_devices`` hosts, registers them all with a
:class:`~repro.cluster.ClusterCoordinator`, and gives every client
host a :class:`~repro.cluster.ClusterVolume` — a striped, optionally
replicated namespace whose members the placement scheduler chose.

The same builder serves the perf path (``cluster_scale_out``: 64
clients across 4 devices, opening the aggregate-IOPS axis beyond the
single-controller ceiling) and the chaos path (``faults=True`` wires
the PR-2 fault plumbing through every controller and link so a device
can be killed mid-run and failover observed).
"""

from __future__ import annotations

import dataclasses
import typing as t

from ..cluster import ClusterCoordinator, ClusterVolume
from ..config import ReliabilityConfig, SimulationConfig
from ..driver import DistributedNvmeClient, NvmeManager
from ..faults import FaultInjector, FaultPlan, FaultPointRegistry
from ..sim import NULL_TRACER, Simulator, Tracer
from ..telemetry.hub import Telemetry
from .chaos import with_chaos_reliability
from .testbed import PcieTestbed


def widen_sharing(config: SimulationConfig,
                  tenants_per_device: int) -> SimulationConfig:
    """Grow ``sharing.reserved_qps`` until one controller can admit
    ``tenants_per_device`` clients; raises if even a fully shared
    controller cannot."""
    limit = config.nvme.max_queue_pairs - 1
    share = config.sharing
    if not share.enabled or tenants_per_device <= limit:
        return config
    reserve = share.reserved_qps
    while (reserve < limit
           and dataclasses.replace(
               share,
               reserved_qps=reserve).capacity(limit) < tenants_per_device):
        reserve += 1
    if dataclasses.replace(
            share, reserved_qps=reserve).capacity(limit) \
            < tenants_per_device:
        raise ValueError(
            f"{tenants_per_device} clients exceed even a fully shared "
            f"controller ({limit} QPs x {share.windows_per_qp} windows)")
    if reserve == share.reserved_qps:
        return config
    return dataclasses.replace(
        config, sharing=dataclasses.replace(share, reserved_qps=reserve))


@dataclasses.dataclass
class ClusterScenario:
    """A live multi-device cluster, one volume per client host."""

    sim: Simulator
    volumes: list[ClusterVolume]
    subclients: list[DistributedNvmeClient]
    managers: dict[int, NvmeManager]        # device_id -> manager
    controllers: list[t.Any]
    coordinator: ClusterCoordinator
    testbed: PcieTestbed
    telemetry: Telemetry | None = None
    sanitizer: t.Any = None
    # fault plumbing, present when built with ``faults=True``
    registry: FaultPointRegistry | None = None
    injector: FaultInjector | None = None
    tracer: Tracer | None = None
    plan: FaultPlan | None = None

    @property
    def clients(self) -> list[ClusterVolume]:
        """Workload-facing devices (``run_fio_many`` symmetry)."""
        return self.volumes

    def ctrl_points(self) -> list[str]:
        return [c.fault_point for c in self.controllers]

    def trace_log(self, *categories: str) -> list[tuple]:
        assert self.tracer is not None, "built without faults=True"
        wanted = set(categories) or None
        return [r.as_tuple() for r in self.tracer.records
                if wanted is None or r.category in wanted]


def cluster(n_clients: int = 8, n_devices: int = 2,
            width: int = 1, replicas: int = 1,
            stripe_lbas: int = 128, volume_lbas: int = 1 << 20,
            config: SimulationConfig | None = None,
            seed: int | None = None, queue_depth: int = 16,
            sharing: str = "auto",
            telemetry: bool = False, sanitizer: bool = False,
            faults: bool = False, plan: FaultPlan | None = None,
            reliability: ReliabilityConfig | None = None,
            trace_categories: t.Collection[str] | None = None,
            ) -> ClusterScenario:
    """N controllers in hosts ``0..n_devices-1``, clients behind them.

    Every client host gets one volume, placed by the least-loaded
    scheduler over ``width`` member devices with ``replicas`` copies
    per chunk.  With ``faults=True`` the chaos plumbing (tracer, fault
    registry, injector) is threaded through every controller and link;
    the injector is created but **not started**.
    """
    if n_devices < 1:
        raise ValueError("need at least one device")
    if not 1 <= width <= n_devices:
        raise ValueError(f"width {width} must be in [1, {n_devices}]")
    base = config or SimulationConfig()
    if faults:
        base = with_chaos_reliability(base, reliability)
    # Placement balances equal-size volumes, so the per-device tenant
    # count is the balanced share; widen the shared-QP reserve for it.
    per_device = -(-n_clients * width // n_devices)
    base = widen_sharing(base, per_device)

    n_hosts = n_devices + n_clients
    bed = PcieTestbed(config=base, n_hosts=max(2, n_hosts),
                      with_nvme=True, seed=seed)
    assert bed.nvme is not None
    controllers = [bed.nvme]
    for i in range(1, n_devices):
        controllers.append(bed.install_nvme(i))

    tracer: Tracer | None = None
    registry: FaultPointRegistry | None = None
    if faults:
        tracer = Tracer(bed.sim, categories=trace_categories)
        bed.tracer = tracer
        bed.fabric.tracer = tracer
        registry = FaultPointRegistry(bed.sim)
        for host, ntb in zip(bed.hosts, bed.ntbs):
            registry.register(f"link:{host.name}", obj=ntb)
        bed.fabric.faults = registry
        for ctrl in controllers:
            ctrl.tracer = tracer
            ctrl.faults = registry
            registry.register(ctrl.fault_point, obj=ctrl)

    tele = None
    if telemetry:
        tele = Telemetry(bed.sim).attach(fabric=bed.fabric, ntbs=bed.ntbs,
                                         controllers=controllers,
                                         faults=registry)
    san = None
    if sanitizer:
        from ..sanitizer import ShareSan
        san = ShareSan(bed.sim, telemetry=tele).attach(
            controllers=controllers, ntbs=bed.ntbs, hosts=bed.hosts)

    trc = tracer if tracer is not None else NULL_TRACER
    coordinator = ClusterCoordinator()
    managers: dict[int, NvmeManager] = {}
    device_ids = list(bed.nvme_device_ids)
    for i, ctrl in enumerate(controllers):
        device_id = device_ids[i]
        manager = NvmeManager(bed.sim, bed.smartio, bed.node(i),
                              device_id, base, tracer=trc)
        if tele is not None:
            tele.attach(managers=[manager])
        if san is not None:
            san.attach(managers=[manager])
        bed.sim.run(until=bed.sim.process(manager.start()))
        managers[device_id] = manager
        coordinator.add_backend(device_id, manager)

    next_slot = {d: 0 for d in device_ids}
    volumes: list[ClusterVolume] = []
    subclients: list[DistributedNvmeClient] = []
    for i in range(n_clients):
        host_index = n_devices + i
        layout = coordinator.create_volume(
            f"vol{i}", capacity_lbas=volume_lbas, width=width,
            replicas=replicas, stripe_lbas=stripe_lbas)
        paths: list[DistributedNvmeClient] = []
        for device_id in layout.devices:
            slot = next_slot[device_id]
            next_slot[device_id] += 1
            sub = DistributedNvmeClient(
                bed.sim, bed.smartio, bed.node(host_index),
                device_id, base, queue_depth=queue_depth,
                sharing=sharing, slot_index=slot,
                name=f"host{host_index}-d{device_id}", tracer=trc)
            if tele is not None:
                tele.attach(clients=[sub])
            if san is not None:
                san.attach(clients=[sub])
            bed.sim.run(until=bed.sim.process(sub.start()))
            if registry is not None:
                registry.register(f"client:{sub.name}", obj=sub)
            paths.append(sub)
            subclients.append(sub)
        volume = ClusterVolume(bed.sim, layout, paths,
                               queue_depth=queue_depth, tracer=trc)
        if tele is not None:
            tele.attach(volumes=[volume])
        volumes.append(volume)

    injector = None
    the_plan = None
    if faults:
        assert registry is not None and tracer is not None
        injector = FaultInjector(bed.sim, registry, plan or FaultPlan(()),
                                 tracer=tracer)
        the_plan = injector.plan
    return ClusterScenario(sim=bed.sim, volumes=volumes,
                           subclients=subclients, managers=managers,
                           controllers=controllers,
                           coordinator=coordinator, testbed=bed,
                           telemetry=tele, sanitizer=san,
                           registry=registry, injector=injector,
                           tracer=tracer, plan=the_plan)


def cluster_scale_out(n_clients: int = 64, n_devices: int = 4,
                      width: int = 1, replicas: int = 1,
                      config: SimulationConfig | None = None,
                      seed: int | None = None, queue_depth: int = 16,
                      telemetry: bool = False,
                      sanitizer: bool = False) -> ClusterScenario:
    """The aggregate-IOPS scenario: 64 clients spread over 4 devices.

    With one device this degenerates to the PR-5 shared-QP cluster
    (64 tenants on a 31-QP controller); with four, placement spreads
    the same clients 16-per-device and the aggregate scales with the
    added media and queue resources — the ratio
    ``benchmarks/bench_cluster_scaling.py`` records and CI gates.
    """
    return cluster(n_clients=n_clients, n_devices=n_devices,
                   width=width, replicas=replicas, config=config,
                   seed=seed, queue_depth=queue_depth,
                   telemetry=telemetry, sanitizer=sanitizer)
