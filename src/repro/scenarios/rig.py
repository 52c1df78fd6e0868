"""The one bring-up body: how an NTB cluster comes up and who is wired
in to watch or perturb it.

:func:`build_rig` is the only place that knows the order

    PcieTestbed -> tracer / fault registry -> telemetry hub -> ShareSan
    -> manager(s) -> clients (-> volumes)

and how each watcher is subscribed to the simulator's probe
(:mod:`repro.sim.probe`) and each fault hook attached; every named
scenario in :mod:`.builders` is a call to it with different arguments
and gets the same :class:`Rig` back.  Three things about it are *behaviour*, not
style (the golden tests in ``tests/test_determinism.py`` pin them):

* **wiring order** — the tracer and the fault retrofit come first, then
  the hub (it takes ``faults=registry``), then ShareSan (it takes
  ``telemetry=``; subscribers hear an event in subscription order and
  a finding quotes the span the hub bound in that same event);
  managers and clients are attached *before* ``start()`` (ShareSan
  refuses a component that is already up); a client becomes a fault
  point only *after* it started; a volume is attached to the hub only;
* **names** — workload RNG streams are keyed by device name, so
  ``host{h}-nvme`` (``host{h}-d{device_id}`` under a volume) decides
  the draws;
* **slots** — a client's metadata slot is its admission order on its
  device, except with ``host_slots`` where the client derives it from
  its host index (the Fig. 10 rigs: ``ours_remote`` sits in slot 1).
"""

from __future__ import annotations

import dataclasses
import typing as t

from ..cluster import ClusterCoordinator, ClusterVolume
from ..config import ReliabilityConfig, SimulationConfig
from ..driver import BlockDevice, DistributedNvmeClient, NvmeManager
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


def widen_sharing(config: SimulationConfig,
                  tenants_per_device: int) -> SimulationConfig:
    """Grow ``sharing.reserved_qps`` until one controller can admit
    ``tenants_per_device`` clients; raises if even a fully shared
    controller cannot."""
    limit = config.nvme.max_queue_pairs - 1
    share = config.sharing
    if not share.enabled or tenants_per_device <= limit:
        return config
    for reserve in range(share.reserved_qps, limit + 1):
        wider = dataclasses.replace(share, reserved_qps=reserve)
        if wider.capacity(limit) >= tenants_per_device:
            return dataclasses.replace(config, sharing=wider)
    raise ValueError(
        f"{tenants_per_device} clients exceed even a fully shared "
        f"controller ({limit} QPs x {share.windows_per_qp} windows)")


@dataclasses.dataclass
class Rig:
    """A live, started configuration, ready for a workload."""

    label: str
    sim: Simulator
    testbed: t.Any
    #: workload-facing block devices, one per client host (the volumes
    #: of a multi-device rig, else the clients themselves)
    clients: list[BlockDevice]
    #: the distributed-driver clients (a volume's member paths)
    subclients: list[DistributedNvmeClient] = \
        dataclasses.field(default_factory=list)
    managers: dict[int, NvmeManager] = \
        dataclasses.field(default_factory=dict)      # device_id -> manager
    controllers: list[t.Any] = dataclasses.field(default_factory=list)
    coordinator: ClusterCoordinator | None = None
    telemetry: Telemetry | None = None
    sanitizer: t.Any = None
    # fault plumbing, present when built with ``faults=True``; the
    # injector is created but **not started**
    registry: FaultPointRegistry | None = None
    injector: FaultInjector | None = None
    tracer: Tracer | None = None

    @property
    def device(self) -> BlockDevice:
        return self.clients[0]

    @property
    def manager(self) -> NvmeManager:
        return next(iter(self.managers.values()))

    @property
    def volumes(self) -> list[BlockDevice]:
        return self.clients if self.coordinator is not None else []

    def link_points(self) -> list[str]:
        return [f"link:{h.name}" for h in self.testbed.hosts]

    def client_points(self) -> list[str]:
        return [f"client:{c.name}" for c in self.subclients]

    def ctrl_points(self) -> list[str]:
        return [c.fault_point for c in self.controllers]

    @property
    def ctrl_point(self) -> str:
        return self.controllers[0].fault_point

    def trace_log(self, *categories: str) -> list[tuple]:
        """Flat, comparable view of the trace (for replay assertions)."""
        if self.tracer is None:
            raise ValueError("built without faults=True: no tracer")
        wanted = set(categories) or None
        return [r.as_tuple() for r in self.tracer.records
                if wanted is None or r.category in wanted]


def baseline_rig(label: str, bed: t.Any, device: BlockDevice,
                 bring_up: t.Generator, telemetry: bool) -> Rig:
    """A rig off the NTB fabric (the two Fig. 9a baselines): one
    controller, one driver, the hub attached before the driver starts."""
    rig = Rig(label, bed.sim, bed, clients=[device],
              controllers=[bed.nvme])
    if telemetry:
        rig.telemetry = Telemetry(bed.sim).attach(
            fabric=bed.fabric, controllers=[bed.nvme], devices=[device])
    bed.sim.run(until=bed.sim.process(bring_up))
    return rig


def build_rig(client_hosts: t.Sequence[int], *, label: str = "",
              n_devices: int = 1,
              volumes: dict[str, int] | None = None,
              config: SimulationConfig | None = None,
              seed: int | None = None, queue_depth: int = 16,
              sharing: str = "auto", host_slots: bool = False,
              telemetry: bool = False, sanitizer: bool = False,
              faults: bool = False, plan: FaultPlan | None = None,
              reliability: ReliabilityConfig | None = None,
              **client_kwargs) -> Rig:
    """Controllers (each with its manager) in hosts ``0..n_devices-1``,
    one client in every host of ``client_hosts``.

    With ``volumes`` (``create_volume``'s ``width`` / ``replicas`` /
    ``stripe_lbas`` / ``capacity_lbas``) each client host gets a
    :class:`~repro.cluster.ClusterVolume` over one path client per
    member device the placement scheduler chose; without, one client on
    the first device.  ``reliability`` is plain configuration and
    always applies.  ``faults=True`` subscribes one tracer and threads
    one fault registry through every link, controller and client
    (``link:<host>``, ``ctrl:<name>``, ``client:<name>``) and falls
    back to :data:`CHAOS_RELIABILITY` when the profile is all-off —
    under which every injected fault would be a silent hang.
    """
    if n_devices < 1:
        raise ValueError("need at least one device")
    if not faults and plan is not None:
        raise ValueError("plan= needs faults=True")
    cfg = config or SimulationConfig()
    if reliability is not None:
        cfg = dataclasses.replace(cfg, reliability=reliability)
    rel = cfg.reliability
    if faults and rel.command_timeout_ns == 0 and rel.lease_timeout_ns == 0:
        cfg = dataclasses.replace(cfg, reliability=CHAOS_RELIABILITY)

    n_hosts = max(2, n_devices, 1 + max(client_hosts, default=0))
    bed = PcieTestbed(config=cfg, n_hosts=n_hosts, with_nvme=True,
                      seed=seed)
    controllers = [bed.nvme] + [bed.install_nvme(i)
                                for i in range(1, n_devices)]
    rig = Rig(label, bed.sim, bed, clients=[], controllers=controllers)

    if faults:
        rig.tracer = bed.sim.probe.subscribe(Tracer(bed.sim))
        rig.registry = registry = FaultPointRegistry(bed.sim)
        for host, ntb in zip(bed.hosts, bed.ntbs):
            registry.register(f"link:{host.name}", obj=ntb)
        bed.fabric.faults = registry
        for ctrl in controllers:
            ctrl.faults = registry
            registry.register(ctrl.fault_point, obj=ctrl)
    if telemetry:
        rig.telemetry = Telemetry(bed.sim).attach(
            fabric=bed.fabric, ntbs=bed.ntbs, controllers=controllers,
            faults=rig.registry)
    if sanitizer:
        from ..sanitizer import ShareSan
        rig.sanitizer = ShareSan(bed.sim, telemetry=rig.telemetry).attach(
            controllers=controllers)

    def bring_up(component, **kind) -> None:
        """Tell the observers, *then* start."""
        if rig.telemetry is not None:
            rig.telemetry.attach(**kind)
        if rig.sanitizer is not None:
            rig.sanitizer.attach(**kind)
        bed.sim.run(until=bed.sim.process(component.start()))

    if volumes is not None:
        rig.coordinator = ClusterCoordinator()
    for i, device_id in enumerate(bed.nvme_device_ids):
        manager = NvmeManager(bed.sim, bed.smartio, bed.node(i),
                              device_id, cfg)
        bring_up(manager, managers=[manager])
        rig.managers[device_id] = manager
        if rig.coordinator is not None:
            rig.coordinator.add_backend(device_id, manager)

    next_slot = dict.fromkeys(bed.nvme_device_ids, 0)
    for i, host_index in enumerate(client_hosts):
        layout = None
        devices: t.Sequence[int] = bed.nvme_device_ids[:1]
        if rig.coordinator is not None:
            layout = rig.coordinator.create_volume(f"vol{i}", **volumes)
            devices = layout.devices
        paths = []
        for device_id in devices:
            slot = next_slot[device_id]
            next_slot[device_id] += 1
            client = DistributedNvmeClient(
                bed.sim, bed.smartio, bed.node(host_index), device_id, cfg,
                queue_depth=queue_depth, sharing=sharing,
                slot_index=None if host_slots else slot,
                name=(f"host{host_index}-nvme" if layout is None
                      else f"host{host_index}-d{device_id}"),
                **client_kwargs)
            bring_up(client, clients=[client])
            if rig.registry is not None:
                rig.registry.register(f"client:{client.name}", obj=client)
            paths.append(client)
        rig.subclients += paths
        if layout is None:
            rig.clients += paths
            continue
        volume = ClusterVolume(bed.sim, layout, paths,
                               queue_depth=queue_depth)
        if rig.telemetry is not None:
            rig.telemetry.attach(volumes=[volume])
        rig.clients.append(volume)

    if faults:
        rig.injector = FaultInjector(bed.sim, rig.registry,
                                     plan or FaultPlan(()))
    return rig
