"""Prebuilt testbeds and benchmark scenarios (the paper's Fig. 9)."""

from .builders import (FIG10_SCENARIOS, NO_SHARESAN, QOS_MEDIA,
                       build_fig10_scenario, chaos_cluster, cluster,
                       cluster_scale_out, local_linux, multihost,
                       noisy_neighbor, nvmeof_remote, ours_local,
                       ours_remote, scale_out_cluster)
from .rig import CHAOS_RELIABILITY, Rig, build_rig, widen_sharing
from .testbed import LocalTestbed, PcieTestbed, RdmaTestbed

__all__ = [
    "PcieTestbed", "LocalTestbed", "RdmaTestbed",
    "Rig", "build_rig", "FIG10_SCENARIOS", "NO_SHARESAN",
    "build_fig10_scenario", "local_linux", "nvmeof_remote",
    "ours_local", "ours_remote", "multihost", "scale_out_cluster",
    "chaos_cluster", "CHAOS_RELIABILITY",
    "cluster", "cluster_scale_out", "widen_sharing",
    "QOS_MEDIA", "noisy_neighbor",
]
