"""Reusable cluster testbeds.

:class:`PcieTestbed` builds the paper's hardware: N hosts, each with a
Dolphin-style NTB adapter (MXH932), cabled to a central NTB cluster
switch (MXS924), with a single-function NVMe controller installed in one
host (Fig. 9b).  SISCI runtimes and the SmartIO service are instantiated
on top, so driver code can be written exactly as the paper describes.

Path host_i -> NVMe-host crosses three switch chips each direction
(adapter, cluster switch, adapter), matching ``ClusterConfig`` defaults.
"""

from __future__ import annotations

import typing as t

from ..config import SimulationConfig
from ..nvme import NvmeController
from ..nvme.media import Media
from ..pcie import Cluster, Fabric, Host, NtbFunction
from ..sim import Simulator
from ..sisci import SegmentId, SisciNode
from ..smartio import SmartIoService
from ..units import MiB


class PcieTestbed:
    """N NTB-connected hosts; optional NVMe controller in ``hosts[0]``."""

    def __init__(self, config: SimulationConfig | None = None,
                 n_hosts: int = 2, with_nvme: bool = True,
                 media: Media | None = None,
                 dram_size: int = 512 * MiB,
                 extra_path_chips: int = 0,
                 seed: int | None = None) -> None:
        self.config = config or SimulationConfig()
        self.sim = Simulator(seed=self.config.seed
                             if seed is None else seed)
        self.cluster = Cluster(self.sim, self.config.pcie)
        self.fabric = Fabric(self.sim, self.cluster, self.config.pcie)

        self.hosts: list[Host] = []
        self.ntbs: list[NtbFunction] = []
        self.sisci_nodes: list[SisciNode] = []
        directory: dict[SegmentId, t.Any] = {}
        self.smartio = SmartIoService(self.sim)

        xswitch = self.cluster.add_switch("mxs924")
        ccfg = self.config.cluster
        for i in range(n_hosts):
            host = self.cluster.add_host(f"host{i}",
                                         dram_size=dram_size)
            adapter = self.cluster.add_switch(f"host{i}.mxh932",
                                              host=host)
            self.cluster.connect(host.rc, adapter,
                                 bandwidth=ccfg.ntb_link_bandwidth)
            # ``extra_path_chips`` chains additional switch chips
            # between host0's adapter and the cluster switch — the
            # hop-count ablation for the paper's 100-150 ns/chip
            # claim.
            upstream = adapter
            if i == 0:
                for k in range(extra_path_chips):
                    chip = self.cluster.add_switch(f"extra-chip{k}")
                    self.cluster.connect(
                        upstream, chip,
                        bandwidth=ccfg.ntb_link_bandwidth)
                    upstream = chip
            self.cluster.connect(upstream, xswitch,
                                 bandwidth=ccfg.ntb_link_bandwidth)
            ntb = NtbFunction(self.sim, f"host{i}.ntb",
                              aperture=ccfg.ntb_aperture_bytes)
            ntb.install(host, adapter, self.fabric)
            node = SisciNode(self.sim, host, ntb, self.fabric,
                             node_id=i + 4, directory=directory)
            self.smartio.register_node(node)
            self.hosts.append(host)
            self.ntbs.append(ntb)
            self.sisci_nodes.append(node)

        self.nvme: NvmeController | None = None
        self.nvme_device_id: int | None = None
        self.nvme_device_ids: list[int] = []
        if with_nvme:
            self.nvme = self.install_nvme(0, media=media)

    def install_nvme(self, host_index: int,
                     media: Media | None = None,
                     name: str | None = None) -> NvmeController:
        """Install an NVMe controller endpoint in a host (Gen3 x4 link)
        and register it with SmartIO."""
        host = self.hosts[host_index]
        name = name or f"nvme{host_index}"
        node = self.cluster.add_endpoint(f"{host.name}.{name}",
                                         host=host)
        self.cluster.connect(host.rc, node, bandwidth=3.2)
        ctrl = NvmeController(self.sim, name, self.config.nvme,
                              media=media, qos=self.config.qos)
        ctrl.install(host, node, self.fabric)
        device_id = self.smartio.register_device(ctrl)
        self.nvme_device_ids.append(device_id)
        if self.nvme_device_id is None:
            self.nvme_device_id = device_id
        return ctrl

    def node(self, index: int) -> SisciNode:
        return self.sisci_nodes[index]


class RdmaTestbed:
    """Two standalone hosts joined by a 100 Gb/s RDMA link; NVMe in
    ``target_host`` — the NVMe-oF scenario of Fig. 9a."""

    def __init__(self, config: SimulationConfig | None = None,
                 media: Media | None = None,
                 dram_size: int = 512 * MiB,
                 seed: int | None = None) -> None:
        from ..rdma import IbLink, RdmaNic

        self.config = config or SimulationConfig()
        self.sim = Simulator(seed=self.config.seed
                             if seed is None else seed)
        self.cluster = Cluster(self.sim, self.config.pcie)
        self.fabric = Fabric(self.sim, self.cluster, self.config.pcie)

        self.target_host = self.cluster.add_host("target",
                                                 dram_size=dram_size)
        self.initiator_host = self.cluster.add_host("initiator",
                                                    dram_size=dram_size)

        nvme_node = self.cluster.add_endpoint("target.nvme0",
                                              host=self.target_host)
        self.cluster.connect(self.target_host.rc, nvme_node, bandwidth=3.2)
        self.nvme = NvmeController(self.sim, "nvme0", self.config.nvme,
                                   media=media, qos=self.config.qos)
        self.nvme.install(self.target_host, nvme_node, self.fabric)

        # ConnectX-5-class NICs on Gen3 x16-ish links.
        tgt_nic_node = self.cluster.add_endpoint("target.cx5",
                                                 host=self.target_host)
        ini_nic_node = self.cluster.add_endpoint("initiator.cx5",
                                                 host=self.initiator_host)
        self.cluster.connect(self.target_host.rc, tgt_nic_node,
                             bandwidth=14.0)
        self.cluster.connect(self.initiator_host.rc, ini_nic_node,
                             bandwidth=14.0)
        self.target_nic = RdmaNic(self.sim, "target-cx5",
                                  self.config.rdma)
        self.target_nic.install(self.target_host, tgt_nic_node,
                                self.fabric)
        self.initiator_nic = RdmaNic(self.sim, "initiator-cx5",
                                     self.config.rdma)
        self.initiator_nic.install(self.initiator_host, ini_nic_node,
                                   self.fabric)
        self.link = IbLink(self.sim, self.config.rdma)
        self.link.attach(self.target_nic, self.initiator_nic)


class LocalTestbed:
    """A single host with a local NVMe controller and no NTB fabric —
    the 'local baseline' machine of Fig. 9a."""

    def __init__(self, config: SimulationConfig | None = None,
                 media: Media | None = None,
                 dram_size: int = 512 * MiB,
                 seed: int | None = None) -> None:
        self.config = config or SimulationConfig()
        self.sim = Simulator(seed=self.config.seed
                             if seed is None else seed)
        self.cluster = Cluster(self.sim, self.config.pcie)
        self.fabric = Fabric(self.sim, self.cluster, self.config.pcie)
        self.host = self.cluster.add_host("host0", dram_size=dram_size)
        node = self.cluster.add_endpoint("host0.nvme0", host=self.host)
        self.cluster.connect(self.host.rc, node, bandwidth=3.2)
        self.nvme = NvmeController(self.sim, "nvme0", self.config.nvme,
                                   media=media, qos=self.config.qos)
        self.nvme.install(self.host, node, self.fabric)
