"""Config-level ablations: the model responds to its knobs in the
physically expected direction (sensitivity testing of the calibration)."""

import dataclasses

import numpy as np
import pytest

from repro.config import (ClusterConfig, HostSoftwareConfig, MediaConfig,
                          NvmeConfig, NvmeofConfig, PcieConfig,
                          QpSharingConfig, ReliabilityConfig,
                          SimulationConfig, replace)
from repro.nvme.media import NAND_CONFIG
from repro.scenarios import local_linux, ours_local, ours_remote
from repro.workloads import FioJob, run_fio


def median_read(scenario, ios=250):
    result = run_fio(scenario.device,
                     FioJob(rw="randread", total_ios=ios, ramp_ios=20))
    return float(result.summary("read").median)


def with_media(**kwargs) -> SimulationConfig:
    base = SimulationConfig()
    media = dataclasses.replace(base.nvme.media, **kwargs)
    return replace(base, nvme=dataclasses.replace(base.nvme, media=media))


class TestSwitchLatencySensitivity:
    def test_slower_chips_hurt_remote_not_local(self):
        base = SimulationConfig()
        slow = replace(base, pcie=dataclasses.replace(
            base.pcie, switch_latency_min_ns=400,
            switch_latency_max_ns=450))

        local_base = median_read(ours_local(config=base, seed=200))
        local_slow = median_read(ours_local(config=slow, seed=200))
        remote_base = median_read(ours_remote(config=base, seed=201))
        remote_slow = median_read(ours_remote(config=slow, seed=201))

        # Local path has no cluster switch chips: nearly unchanged.
        assert abs(local_slow - local_base) < 300
        # Remote path crosses 3 chips several times per I/O: clearly up.
        assert remote_slow > remote_base + 1_200


class TestMediaSensitivity:
    def test_nand_media_dominates_transport_choice(self):
        """On TLC flash (~70 us reads) the NTB-vs-RDMA difference
        becomes irrelevant — context for why the paper pairs fast media
        with a fast fabric."""
        base = SimulationConfig()
        nand = replace(base, nvme=dataclasses.replace(
            base.nvme, media=NAND_CONFIG))
        optane_remote = median_read(ours_remote(config=base, seed=202))
        nand_remote = median_read(ours_remote(config=nand, seed=202))
        assert nand_remote > 4 * optane_remote

    def test_sigma_widens_distribution(self):
        tight = with_media(sigma=0.01)
        loose = with_media(sigma=0.2, read_cap_ns=30_000)

        def spread(config, seed):
            result = run_fio(local_linux(config=config, seed=seed).device,
                             FioJob(rw="randread", total_ios=300))
            s = result.summary("read")
            return (s.p99 - s.minimum)

        assert spread(loose, 203) > 2 * spread(tight, 203)


class TestSoftwarePathSensitivity:
    def test_dist_submit_cost_shifts_ours_only(self):
        base = SimulationConfig()
        heavy = replace(base, host=dataclasses.replace(
            base.host, dist_submit_ns=5_000))
        stock_base = median_read(local_linux(config=base, seed=204))
        stock_heavy = median_read(local_linux(config=heavy, seed=204))
        ours_base = median_read(ours_local(config=base, seed=205))
        ours_heavy = median_read(ours_local(config=heavy, seed=205))
        assert abs(stock_heavy - stock_base) < 200
        assert ours_heavy > ours_base + 3_000

    def test_poll_interval_adds_expected_latency(self):
        base = SimulationConfig()
        coarse = replace(base, host=dataclasses.replace(
            base.host, poll_interval_ns=4_000))
        fine = median_read(ours_local(config=base, seed=206), ios=400)
        slow = median_read(ours_local(config=coarse, seed=206), ios=400)
        # expected added median ~ half the interval
        assert 1_000 < slow - fine < 3_500

    def test_interrupt_latency_hits_stock_driver(self):
        base = SimulationConfig()
        slow_irq = replace(base, host=dataclasses.replace(
            base.host, interrupt_latency_ns=6_000))
        fast = median_read(local_linux(config=base, seed=207))
        slow = median_read(local_linux(config=slow_irq, seed=207))
        assert 4_000 < slow - fast < 6_000


class TestBandwidthSensitivity:
    def test_narrow_ntb_link_throttles_large_remote_reads(self):
        base = SimulationConfig()
        narrow = replace(base, cluster=dataclasses.replace(
            base.cluster, ntb_link_bandwidth=0.5))   # 0.5 GB/s

        def bw(config, seed):
            scenario = ours_remote(config=config, seed=seed,
                                   queue_depth=8)
            result = run_fio(scenario.device,
                             FioJob(rw="randread", bs=128 * 1024,
                                    iodepth=8, total_ios=80))
            return result.bandwidth_bytes_per_s

        assert bw(base, 208) > 3 * bw(narrow, 208)
        assert bw(narrow, 208) < 0.55e9


class TestRefusedAtConstruction:
    """A config no run can honour raises ``ValueError`` where it is
    built or replaced, not a ``ZeroDivisionError`` or numpy error out of
    the run: one case per field kind."""

    @pytest.mark.parametrize("cls, bad", [
        (PcieConfig, {"switch_latency_min_ns": -300,
                      "switch_latency_max_ns": -200}),
        (HostSoftwareConfig, {"poll_interval_ns": -5}),
        (PcieConfig, {"max_payload_size": 0}),
        (PcieConfig, {"max_read_request_size": 0}),
        (MediaConfig, {"channels": 0}),
        (ClusterConfig, {"ntb_link_bandwidth": 0.0}),
        (PcieConfig, {"switch_latency_min_ns": 200}),
        (MediaConfig, {"read_error_rate": 1.5}),
        (MediaConfig, {"sigma": -0.1}),
    ], ids=["time", "interval", "payload-size", "read-request-size",
            "count", "bandwidth", "min-above-max", "rate", "sigma"])
    def test_refused(self, cls, bad):
        field = next(iter(bad))
        with pytest.raises(ValueError, match=f"{cls.__name__}.{field}"):
            cls(**bad)
        with pytest.raises(ValueError, match=f"{cls.__name__}.{field}"):
            replace(cls(), **bad)

    def test_none_is_a_legal_count_where_it_means_off(self):
        replace(SimulationConfig(), seed=0, reliability=ReliabilityConfig(
            max_retries=0), sharing=QpSharingConfig(reserved_qps=0),
            nvmeof=NvmeofConfig(in_capsule_data_size=0),
            pcie=PcieConfig(switch_latency_min_ns=0,
                            switch_latency_max_ns=0))
