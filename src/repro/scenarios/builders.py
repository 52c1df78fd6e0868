"""The named scenarios — the paper's Fig. 9 configurations and the
clusters grown from them.  Each returns a live, started
:class:`~.rig.Rig`, ready for :func:`repro.workloads.run_fio`:

* ``local_linux``      — stock Linux driver, local NVMe (Fig. 9a left);
* ``nvmeof_remote``    — kernel initiator -> 100 Gb/s RDMA -> SPDK
  target -> NVMe (Fig. 9a right);
* ``ours_local``       — distributed driver, client in the device's own
  host (Fig. 9b left);
* ``ours_remote``      — distributed driver, client one NTB hop away
  (Fig. 9b right);
* ``multihost``        — N clients sharing one controller (Sec. VI's
  31-host claim); ``scale_out_cluster`` takes it beyond 31 hosts on
  shared queue pairs, ``noisy_neighbor`` packs it onto ONE shared QP;
* ``chaos_cluster``    — the same topology with fault injection and
  driver-side recovery wired in (docs/fault_injection.md);
* ``cluster``          — M clients over N controllers behind striped,
  optionally replicated volumes (docs/cluster.md).

The two baselines build their own single-purpose testbeds; everything
on the NTB fabric is :func:`~.rig.build_rig` with different arguments.
"""

from __future__ import annotations

from ..config import (MediaConfig, QosConfig, ReliabilityConfig,
                      SimulationConfig, replace)
from ..driver import StockNvmeDriver
from ..faults import FaultPlan
from ..nvmeof import NvmeofInitiator, SpdkTarget
from .rig import Rig, baseline_rig, build_rig, widen_sharing
from .testbed import LocalTestbed, RdmaTestbed

#: The four Fig. 10 scenario names, in the paper's presentation order.
FIG10_SCENARIOS = ("local-linux", "nvmeof-remote", "ours-local",
                   "ours-remote")
#: why the two baselines among them refuse ``sanitizer=True``
NO_SHARESAN = ("ShareSan has nothing to check on {!r}: one host owns the "
               "controller and no queue, window or buffer is shared "
               "across an NTB; pick an NTB cluster scenario")


def local_linux(config: SimulationConfig | None = None,
                seed: int | None = None,
                queue_depth: int = 64,
                telemetry: bool = False) -> Rig:
    """Stock Linux NVMe driver on a local device."""
    bed = LocalTestbed(config=config, seed=seed)
    driver = StockNvmeDriver(bed.sim, bed.fabric, bed.host,
                             bed.nvme.bars[0].base, bed.config,
                             queue_depth=queue_depth)
    return baseline_rig("local-linux", bed, driver, driver.start(),
                        telemetry)


def nvmeof_remote(config: SimulationConfig | None = None,
                  seed: int | None = None,
                  queue_depth: int = 32,
                  telemetry: bool = False) -> Rig:
    """NVMe-oF: kernel initiator over RDMA to an SPDK target."""
    bed = RdmaTestbed(config=config, seed=seed)
    target = SpdkTarget(bed.sim, bed.fabric, bed.target_host,
                        bed.nvme.bars[0].base, bed.target_nic, bed.config)
    bed.sim.run(until=bed.sim.process(target.start()))
    initiator = NvmeofInitiator(bed.sim, bed.initiator_host,
                                bed.initiator_nic, bed.config,
                                queue_depth=queue_depth)
    return baseline_rig("nvmeof-remote", bed, initiator,
                        initiator.connect(target), telemetry)


def ours_local(config: SimulationConfig | None = None,
               seed: int | None = None, queue_depth: int = 32,
               telemetry: bool = False, **client_kwargs) -> Rig:
    """Distributed driver, client co-located with the device."""
    return build_rig([0], label="ours-local", config=config, seed=seed,
                     queue_depth=queue_depth, host_slots=True,
                     telemetry=telemetry, **client_kwargs)


def ours_remote(config: SimulationConfig | None = None,
                seed: int | None = None, queue_depth: int = 32,
                telemetry: bool = False, **client_kwargs) -> Rig:
    """Distributed driver, client across the NTB cluster switch."""
    return build_rig([1], label="ours-remote", config=config, seed=seed,
                     queue_depth=queue_depth, host_slots=True,
                     telemetry=telemetry, **client_kwargs)


def build_fig10_scenario(name: str,
                         config: SimulationConfig | None = None,
                         seed: int | None = None,
                         telemetry: bool = False,
                         sanitizer: bool = False) -> Rig:
    builders = dict(zip(FIG10_SCENARIOS, (local_linux, nvmeof_remote,
                                          ours_local, ours_remote)))
    if name not in builders:
        raise ValueError(f"unknown scenario {name!r}; "
                         f"pick one of {FIG10_SCENARIOS}")
    watch = {"telemetry": telemetry}
    if sanitizer:
        if name in FIG10_SCENARIOS[:2]:
            raise ValueError(NO_SHARESAN.format(name))
        watch["sanitizer"] = True
    return builders[name](config=config, seed=seed, **watch)


def multihost(n_clients: int, config: SimulationConfig | None = None,
              seed: int | None = None, queue_depth: int = 16,
              include_device_host: bool = False,
              sharing: str = "auto",
              telemetry: bool = False,
              sanitizer: bool = False) -> Rig:
    """N clients sharing the single-function controller in host0.

    With ``include_device_host`` the device's own host also runs a
    client (the paper's sharing is symmetric); otherwise all clients
    are remote.  With QP sharing enabled (the default) the client
    count may exceed the controller's 31 queue pairs, up to
    ``config.sharing.capacity(31)``; overflow clients become tenants
    of manager-hosted shared queue pairs (docs/queue_sharing.md).
    """
    cfg = config or SimulationConfig()
    limit = cfg.nvme.max_queue_pairs - 1
    cap = cfg.sharing.capacity(limit) if sharing != "never" else limit
    if n_clients > cap:
        raise ValueError(
            f"cluster admits at most {cap} clients "
            f"({limit} I/O queue pairs, sharing "
            f"{'on' if cap > limit else 'off'})")
    first = 0 if include_device_host else 1
    return build_rig(range(first, first + n_clients), label="multihost",
                     config=cfg, seed=seed, queue_depth=queue_depth,
                     sharing=sharing, telemetry=telemetry,
                     sanitizer=sanitizer)


def scale_out_cluster(n_clients: int = 64,
                      config: SimulationConfig | None = None,
                      seed: int | None = None, queue_depth: int = 16,
                      telemetry: bool = False,
                      sanitizer: bool = False) -> Rig:
    """A beyond-31-hosts cluster exercising shared queue pairs.

    The default 64 clients need 33 more seats than the controller has
    queue pairs; the builder widens the shared-QP reserve so capacity
    covers ``n_clients`` and lets admission place the overflow."""
    cfg = config or SimulationConfig()
    if not cfg.sharing.enabled:
        raise ValueError("scale_out_cluster requires sharing.enabled")
    return multihost(n_clients, config=widen_sharing(cfg, n_clients),
                     seed=seed, queue_depth=queue_depth,
                     telemetry=telemetry, sanitizer=sanitizer)


#: Fast NVMe media (Z-NAND/XL-FLASH class) for QoS runs.  The QoS
#: arbitration point (docs/qos.md) sits where the controller picks which
#: tenant window to fetch the next SQE from, and only *matters* when it
#: is the saturated stage: with the default Optane-class media (~6.9 us,
#: 5 channels ~ 0.72 IO/us) the media drains slower than the serialized
#: fetch loop (~1 IO/us), so backlog pools inside the device where no
#: fetch policy can reorder it.  This device (~1.2 us, 8 channels ~
#: 6.7 IO/us) makes the shared-SQ fetch loop the bottleneck — the regime
#: where arbitration decides who waits.
QOS_MEDIA = MediaConfig(
    name="lowlat-znand",
    read_median_ns=1_200,
    write_median_ns=1_500,
    sigma=0.02,
    read_cap_ns=1_500,
    write_cap_ns=1_900,
    channels=8,
)

def noisy_neighbor(n_bystanders: int = 3,
                   policy: str = "wfq",
                   quantum: int = 4,
                   weights: tuple[int, ...] = (),
                   throttle_window: int = 0,
                   config: SimulationConfig | None = None,
                   seed: int | None = None,
                   queue_depth: int = 63,
                   window_entries: int = 64,
                   telemetry: bool = True,
                   sanitizer: bool = False) -> Rig:
    """One aggressor + ``n_bystanders`` bystanders on ONE shared QP
    (``reserved_qps=1``, ``sharing="force"``); window index = admission
    order = tenant index, so ``qos.weights`` line up with the clients.

    Client 0 (tenant ``host1``) is the designated aggressor — the
    builder only shapes the queue topology; the caller decides what
    load each tenant offers (see :func:`repro.qos.run_qos`).

    ``policy`` and its knobs become the rig's :class:`QosConfig`;
    ``throttle_window`` is recorded there for
    :class:`repro.qos.AdmissionThrottle`, the builder itself does not
    start the throttle process.
    """
    qos = QosConfig(policy=policy, quantum=quantum, weights=weights,
                    throttle_window=throttle_window)
    n_tenants = 1 + n_bystanders
    if n_tenants < 2:
        raise ValueError("need at least one bystander")
    if n_tenants > 16:
        raise ValueError("a shared QP holds at most 16 tenants")
    cfg = config or SimulationConfig()
    sq_entries = window_entries * n_tenants
    if sq_entries > cfg.nvme.max_queue_entries:
        raise ValueError(
            f"{n_tenants} windows x {window_entries} entries exceed "
            f"the device's {cfg.nvme.max_queue_entries}-entry queues")
    sharing = replace(cfg.sharing, enabled=True, reserved_qps=1,
                      sq_entries=sq_entries,
                      window_entries=window_entries)
    cfg = replace(cfg, sharing=sharing, qos=qos,
                  nvme=replace(cfg.nvme, media=QOS_MEDIA))
    return multihost(n_tenants, config=cfg, seed=seed,
                     queue_depth=queue_depth, sharing="force",
                     telemetry=telemetry, sanitizer=sanitizer)


def chaos_cluster(n_clients: int = 4,
                  plan: FaultPlan | None = None,
                  config: SimulationConfig | None = None,
                  seed: int | None = None,
                  queue_depth: int = 8,
                  queue_entries: int = 64,
                  reliability: ReliabilityConfig | None = None,
                  telemetry: bool = False,
                  sharing: str = "auto",
                  sanitizer: bool = False) -> Rig:
    """N remote clients sharing host0's controller, faults injectable.

    Recovery is on (command timeouts + retries in the clients,
    heartbeat liveness leases in the manager) and a shared
    :class:`~repro.sim.Tracer` records the ``fault``/``recovery``
    streams, so a run is auditable and — given the same ``(seed,
    plan)`` — bit-identical across replays.  The injector is created
    but **not started**; callers start it (and the workload) so nothing
    fires before the cluster is fully up.
    """
    return build_rig(range(1, 1 + n_clients), label="chaos",
                     config=config, seed=seed, queue_depth=queue_depth,
                     sharing=sharing, telemetry=telemetry,
                     sanitizer=sanitizer, faults=True, plan=plan,
                     reliability=reliability,
                     queue_entries=queue_entries)


def cluster(n_clients: int = 8, n_devices: int = 2,
            width: int = 1, replicas: int = 1,
            stripe_lbas: int = 128,
            config: SimulationConfig | None = None,
            seed: int | None = None, queue_depth: int = 16,
            sharing: str = "auto",
            telemetry: bool = False, sanitizer: bool = False,
            faults: bool = False, plan: FaultPlan | None = None,
            reliability: ReliabilityConfig | None = None) -> Rig:
    """N controllers in hosts ``0..n_devices-1``, clients behind them.

    Every client host gets one volume, placed by the least-loaded
    scheduler over ``width`` member devices with ``replicas`` copies
    per chunk.  The same builder serves the perf path
    (:func:`cluster_scale_out`) and the chaos path: ``faults=True``
    threads the fault plumbing through every controller and link so a
    device can be killed mid-run and failover observed.
    """
    if n_devices < 1:
        raise ValueError("need at least one device")
    if not 1 <= width <= n_devices:
        raise ValueError(f"width {width} must be in [1, {n_devices}]")
    # Placement balances equal-size volumes, so the per-device tenant
    # count is the balanced share; widen the shared-QP reserve for it.
    per_device = -(-n_clients * width // n_devices)
    cfg = widen_sharing(config or SimulationConfig(), per_device)
    return build_rig(range(n_devices, n_devices + n_clients),
                     label="cluster", n_devices=n_devices,
                     volumes={"width": width, "replicas": replicas,
                              "stripe_lbas": stripe_lbas,
                              "capacity_lbas": 1 << 20},
                     config=cfg, seed=seed, queue_depth=queue_depth,
                     sharing=sharing, telemetry=telemetry,
                     sanitizer=sanitizer, faults=faults, plan=plan,
                     reliability=reliability)


def cluster_scale_out(n_clients: int = 64, n_devices: int = 4,
                      width: int = 1, replicas: int = 1,
                      config: SimulationConfig | None = None,
                      seed: int | None = None, queue_depth: int = 16,
                      telemetry: bool = False,
                      sanitizer: bool = False) -> Rig:
    """The aggregate-IOPS scenario: 64 clients spread over 4 devices.

    With one device this degenerates to the PR-5 shared-QP cluster
    (64 tenants on a 31-QP controller); with four, placement spreads
    the same clients 16-per-device and the aggregate scales with the
    added media and queue resources — the ratio the ``cluster`` rows
    of ``tests/test_fidelity.py`` hold.
    """
    return cluster(n_clients=n_clients, n_devices=n_devices,
                   width=width, replicas=replicas, config=config,
                   seed=seed, queue_depth=queue_depth,
                   telemetry=telemetry, sanitizer=sanitizer)
