"""Prebuilt benchmark scenarios — the paper's Fig. 9 configurations.

Each builder returns a :class:`Scenario` holding a live simulator and a
started block device, ready for :func:`repro.workloads.run_fio`:

* ``local_linux``      — stock Linux driver, local NVMe (Fig. 9a left);
* ``nvmeof_remote``    — kernel initiator -> 100 Gb/s RDMA -> SPDK
  target -> NVMe (Fig. 9a right);
* ``ours_local``       — distributed driver, client in the device's own
  host (Fig. 9b left);
* ``ours_remote``      — distributed driver, client one NTB hop away
  (Fig. 9b right);
* ``multihost``        — N clients sharing one controller (Sec. VI's
  31-host claim).
"""

from __future__ import annotations

import dataclasses
import typing as t

from ..config import SimulationConfig
from ..driver import (BlockDevice, DistributedNvmeClient, NvmeManager,
                      StockNvmeDriver)
from ..nvmeof import NvmeofInitiator, SpdkTarget
from ..sim import Simulator
from ..telemetry.hub import Telemetry
from .testbed import LocalTestbed, PcieTestbed, RdmaTestbed

#: The four Fig. 10 scenario names, in the paper's presentation order.
FIG10_SCENARIOS = ("local-linux", "nvmeof-remote", "ours-local",
                   "ours-remote")


@dataclasses.dataclass
class Scenario:
    """A live, started benchmark configuration."""

    label: str
    sim: Simulator
    device: BlockDevice
    testbed: t.Any
    extras: dict = dataclasses.field(default_factory=dict)

    @property
    def telemetry(self) -> Telemetry | None:
        """The hub wired in at build time (``telemetry=True``), if any."""
        return self.extras.get("telemetry")


def local_linux(config: SimulationConfig | None = None,
                seed: int | None = None,
                queue_depth: int = 64,
                telemetry: bool = False) -> Scenario:
    """Stock Linux NVMe driver on a local device."""
    bed = LocalTestbed(config=config, seed=seed)
    driver = StockNvmeDriver(bed.sim, bed.fabric, bed.host,
                             bed.nvme.bars[0].base, bed.config,
                             queue_depth=queue_depth)
    extras = {}
    if telemetry:
        extras["telemetry"] = Telemetry(bed.sim).attach(
            fabric=bed.fabric, controllers=[bed.nvme], devices=[driver])
    bed.sim.run(until=bed.sim.process(driver.start()))
    return Scenario("local-linux", bed.sim, driver, bed, extras=extras)


def nvmeof_remote(config: SimulationConfig | None = None,
                  seed: int | None = None,
                  queue_depth: int = 32,
                  telemetry: bool = False) -> Scenario:
    """NVMe-oF: kernel initiator over RDMA to an SPDK target."""
    bed = RdmaTestbed(config=config, seed=seed)
    target = SpdkTarget(bed.sim, bed.fabric, bed.target_host,
                        bed.nvme.bars[0].base, bed.target_nic, bed.config)
    bed.sim.run(until=bed.sim.process(target.start()))
    initiator = NvmeofInitiator(bed.sim, bed.initiator_host,
                                bed.initiator_nic, bed.config,
                                queue_depth=queue_depth)
    extras: dict = {"target": target}
    if telemetry:
        extras["telemetry"] = Telemetry(bed.sim).attach(
            fabric=bed.fabric, controllers=[bed.nvme],
            devices=[initiator])
    bed.sim.run(until=bed.sim.process(initiator.connect(target)))
    return Scenario("nvmeof-remote", bed.sim, initiator, bed,
                    extras=extras)


def _ours(client_host: int, config: SimulationConfig | None,
          seed: int | None, queue_depth: int, label: str,
          n_hosts: int = 2, telemetry: bool = False,
          **client_kwargs) -> Scenario:
    bed = PcieTestbed(config=config, n_hosts=n_hosts, with_nvme=True,
                      seed=seed)
    tele = None
    if telemetry:
        tele = Telemetry(bed.sim).attach(fabric=bed.fabric, ntbs=bed.ntbs,
                                         controllers=[bed.nvme])
    manager = NvmeManager(bed.sim, bed.smartio, bed.node(0),
                          bed.nvme_device_id, bed.config)
    if tele is not None:
        tele.attach(managers=[manager])
    bed.sim.run(until=bed.sim.process(manager.start()))
    client = DistributedNvmeClient(bed.sim, bed.smartio,
                                   bed.node(client_host),
                                   bed.nvme_device_id, bed.config,
                                   queue_depth=queue_depth,
                                   **client_kwargs)
    if tele is not None:
        tele.attach(clients=[client])
    bed.sim.run(until=bed.sim.process(client.start()))
    extras: dict = {"manager": manager}
    if tele is not None:
        extras["telemetry"] = tele
    return Scenario(label, bed.sim, client, bed, extras=extras)


def ours_local(config: SimulationConfig | None = None,
               seed: int | None = None, queue_depth: int = 32,
               telemetry: bool = False, **client_kwargs) -> Scenario:
    """Distributed driver, client co-located with the device."""
    return _ours(0, config, seed, queue_depth, "ours-local",
                 telemetry=telemetry, **client_kwargs)


def ours_remote(config: SimulationConfig | None = None,
                seed: int | None = None, queue_depth: int = 32,
                telemetry: bool = False, **client_kwargs) -> Scenario:
    """Distributed driver, client across the NTB cluster switch."""
    return _ours(1, config, seed, queue_depth, "ours-remote",
                 telemetry=telemetry, **client_kwargs)


def build_fig10_scenario(name: str,
                         config: SimulationConfig | None = None,
                         seed: int | None = None,
                         telemetry: bool = False) -> Scenario:
    builders = {
        "local-linux": local_linux,
        "nvmeof-remote": nvmeof_remote,
        "ours-local": ours_local,
        "ours-remote": ours_remote,
    }
    try:
        return builders[name](config=config, seed=seed,
                              telemetry=telemetry)
    except KeyError:
        raise ValueError(f"unknown scenario {name!r}; "
                         f"pick one of {FIG10_SCENARIOS}") from None


@dataclasses.dataclass
class MultiHostScenario:
    sim: Simulator
    clients: list[DistributedNvmeClient]
    manager: NvmeManager
    testbed: PcieTestbed
    telemetry: Telemetry | None = None
    sanitizer: t.Any = None


def multihost(n_clients: int, config: SimulationConfig | None = None,
              seed: int | None = None, queue_depth: int = 16,
              include_device_host: bool = False,
              sharing: str = "auto",
              telemetry: bool = False,
              sanitizer: bool = False) -> MultiHostScenario:
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
    n_hosts = first + n_clients
    bed = PcieTestbed(config=cfg, n_hosts=max(2, n_hosts),
                      with_nvme=True, seed=seed)
    tele = None
    if telemetry:
        tele = Telemetry(bed.sim).attach(fabric=bed.fabric,
                                         controllers=[bed.nvme])
    san = None
    if sanitizer:
        from ..sanitizer import ShareSan
        san = ShareSan(bed.sim, telemetry=tele).attach(
            controllers=[bed.nvme], ntbs=bed.ntbs, hosts=bed.hosts)
    manager = NvmeManager(bed.sim, bed.smartio, bed.node(0),
                          bed.nvme_device_id, bed.config)
    if tele is not None:
        tele.attach(managers=[manager])
    if san is not None:
        san.attach(managers=[manager])
    bed.sim.run(until=bed.sim.process(manager.start()))
    clients = []
    for i in range(n_clients):
        host_index = first + i
        client = DistributedNvmeClient(
            bed.sim, bed.smartio, bed.node(host_index),
            bed.nvme_device_id, bed.config, queue_depth=queue_depth,
            sharing=sharing, slot_index=i,
            name=f"host{host_index}-nvme")
        if tele is not None:
            tele.attach(clients=[client])
        if san is not None:
            san.attach(clients=[client])
        bed.sim.run(until=bed.sim.process(client.start()))
        clients.append(client)
    return MultiHostScenario(bed.sim, clients, manager, bed,
                             telemetry=tele, sanitizer=san)


def scale_out_cluster(n_clients: int = 64,
                      config: SimulationConfig | None = None,
                      seed: int | None = None, queue_depth: int = 16,
                      telemetry: bool = False,
                      sanitizer: bool = False) -> MultiHostScenario:
    """A beyond-31-hosts cluster exercising shared queue pairs.

    The default 64 clients need 33 more seats than the controller has
    queue pairs; the builder widens the shared-QP reserve so capacity
    covers ``n_clients`` and lets admission place the overflow."""
    from .cluster import widen_sharing
    cfg = config or SimulationConfig()
    if not cfg.sharing.enabled:
        raise ValueError("scale_out_cluster requires sharing.enabled")
    cfg = widen_sharing(cfg, n_clients)
    return multihost(n_clients, config=cfg, seed=seed,
                     queue_depth=queue_depth, telemetry=telemetry,
                     sanitizer=sanitizer)
