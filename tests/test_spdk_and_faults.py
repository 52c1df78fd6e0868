"""Tests for the SPDK-like local polling driver and media fault
injection through every layer."""

import dataclasses

import numpy as np
import pytest

from repro.config import MediaConfig, NvmeConfig, SimulationConfig
from repro.driver import BlockRequest, SpdkLocalDriver, StockNvmeDriver
from repro.nvme import Status
from repro.scenarios import ours_remote
from repro.scenarios.testbed import LocalTestbed
from repro.workloads import FioJob, run_fio


def make_spdk(seed=160, config=None):
    bed = LocalTestbed(seed=seed, config=config)
    drv = SpdkLocalDriver(bed.sim, bed.fabric, bed.host,
                          bed.nvme.bars[0].base, bed.config)
    bed.sim.run(until=bed.sim.process(drv.start()))
    return bed, drv


class TestSpdkLocalDriver:
    def test_roundtrip(self):
        bed, drv = make_spdk()
        payload = bytes(range(256)) * 16

        def flow(sim):
            req = yield from drv.io(BlockRequest("write", lba=5,
                                                 data=payload))
            assert req.ok
            req = yield from drv.io(BlockRequest("read", lba=5,
                                                 nblocks=8))
            return req

        req = bed.sim.run(until=bed.sim.process(flow(bed.sim)))
        assert req.ok and req.result == payload

    def test_faster_than_stock_kernel_driver(self):
        """Polling + userspace path beats IRQ + kernel path by >1 us."""
        bed_s, spdk = make_spdk(seed=161)
        spdk_med = run_fio(spdk, FioJob(rw="randread", total_ios=300,
                                        ramp_ios=20)).summary("read").median

        bed_k = LocalTestbed(seed=161)
        stock = StockNvmeDriver(bed_k.sim, bed_k.fabric, bed_k.host,
                                bed_k.nvme.bars[0].base, bed_k.config)
        bed_k.sim.run(until=bed_k.sim.process(stock.start()))
        stock_med = run_fio(stock, FioJob(rw="randread", total_ios=300,
                                          ramp_ios=20)
                            ).summary("read").median
        assert spdk_med < stock_med - 1_000

    def test_large_io_with_prp_list(self):
        bed, drv = make_spdk()
        payload = bytes((i * 7) % 256 for i in range(64 * 1024))

        def flow(sim):
            req = yield from drv.io(BlockRequest("write", lba=0,
                                                 data=payload))
            assert req.ok
            req = yield from drv.io(BlockRequest("read", lba=0,
                                                 nblocks=128))
            return req

        req = bed.sim.run(until=bed.sim.process(flow(bed.sim)))
        assert req.ok and req.result == payload


@pytest.mark.parametrize("driver", [StockNvmeDriver, SpdkLocalDriver])
@pytest.mark.parametrize("queue_depth", [8, 64])
def test_depth_at_or_above_the_ring_size_is_clamped(driver, queue_depth):
    """An N-entry ring holds N-1 commands; every stack gets the clamp
    the distributed client always had (qpair.usable_depth) instead of
    a ``QueueError: SQ1 overflow`` out of ``sim.run``."""
    bed = LocalTestbed(seed=161)
    drv = driver(bed.sim, bed.fabric, bed.host, bed.nvme.bars[0].base,
                 bed.config, queue_entries=8, queue_depth=queue_depth)
    bed.sim.run(until=bed.sim.process(drv.start()))
    assert drv.queue_depth == 7
    result = run_fio(drv, FioJob(name="deep", rw="randread", bs=4096,
                                 iodepth=8, total_ios=64))
    assert (result.ios, result.errors) == (64, 0)


def faulty_config(read_rate=0.0, write_rate=0.0) -> SimulationConfig:
    base = SimulationConfig()
    media = dataclasses.replace(base.nvme.media,
                                read_error_rate=read_rate,
                                write_error_rate=write_rate)
    nvme = dataclasses.replace(base.nvme, media=media)
    return dataclasses.replace(base, nvme=nvme)


class TestFaultInjection:
    def test_read_errors_reach_block_layer(self):
        config = faulty_config(read_rate=0.2)
        bed, drv = make_spdk(seed=162, config=config)
        result = run_fio(drv, FioJob(rw="randread", total_ios=300))
        # ~20% of reads must fail, reported as errors not latencies.
        assert 25 <= result.errors <= 100
        assert result.ios == 300 - result.errors
        assert bed.nvme.media.media_errors == result.errors

    def test_write_fault_status_code(self):
        config = faulty_config(write_rate=1.0)   # every write fails
        bed, drv = make_spdk(seed=163, config=config)

        def flow(sim):
            req = yield from drv.io(BlockRequest("write", lba=0,
                                                 data=b"x" * 4096))
            return req

        req = bed.sim.run(until=bed.sim.process(flow(bed.sim)))
        assert not req.ok
        assert req.status == Status.WRITE_FAULT

    def test_read_error_status_code(self):
        config = faulty_config(read_rate=1.0)
        bed, drv = make_spdk(seed=164, config=config)

        def flow(sim):
            req = yield from drv.io(BlockRequest("read", lba=0,
                                                 nblocks=8))
            return req

        req = bed.sim.run(until=bed.sim.process(flow(bed.sim)))
        assert not req.ok
        assert req.status == Status.UNRECOVERED_READ_ERROR

    def test_failed_write_leaves_medium_unmodified(self):
        config = faulty_config(write_rate=1.0)
        bed, drv = make_spdk(seed=165, config=config)

        def flow(sim):
            req = yield from drv.io(BlockRequest("write", lba=0,
                                                 data=b"z" * 4096))
            return req

        bed.sim.run(until=bed.sim.process(flow(bed.sim)))
        assert bed.nvme.namespaces[1].read_blocks(0, 8) == bytes(4096)

    def test_errors_propagate_through_distributed_driver(self):
        """Faults injected at the medium surface as statuses on a
        *remote* client — across the SQE/CQE path and the NTB."""
        config = faulty_config(read_rate=0.3)
        scenario = ours_remote(config=config, seed=166)
        result = run_fio(scenario.device,
                         FioJob(rw="randread", total_ios=200))
        assert result.errors > 20
        assert result.ios == 200 - result.errors

    def test_error_free_by_default(self):
        bed, drv = make_spdk(seed=167)
        result = run_fio(drv, FioJob(rw="randrw", total_ios=300))
        assert result.errors == 0
        assert bed.nvme.media.media_errors == 0
