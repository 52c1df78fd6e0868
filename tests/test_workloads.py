"""Tests for the fio-like workload generator."""

import dataclasses

import numpy as np
import pytest

from repro.driver import BlockDevice
from repro.scenarios import local_linux, ours_remote
from repro.sim import Simulator
from repro.workloads import FioJob, FioResult, run_fio, run_fio_many

#: a valid size mix, for the cases that break something else
MIX = ((4096, 1.0, 0.5),)


class ReadsFail(BlockDevice):
    """Takes every write, fails every read (0x281, unrecovered read
    error), each after 100 ns."""

    def __init__(self, sim):
        super().__init__(sim, "reads-fail", lba_bytes=512,
                         capacity_lbas=1 << 20)

    def _driver_submit(self, request):
        yield self.sim.timeout(100)
        if request.op == "read":
            request.status = 0x281


class TestJobValidation:
    def test_bad_rw(self):
        with pytest.raises(ValueError):
            FioJob(rw="randtrim")

    def test_bad_sizes(self):
        with pytest.raises(ValueError):
            FioJob(bs=0)
        with pytest.raises(ValueError):
            FioJob(iodepth=0)

    def test_needs_stop_condition(self):
        with pytest.raises(ValueError):
            FioJob(total_ios=None, runtime_ns=None)

    def test_bad_mix(self):
        with pytest.raises(ValueError):
            FioJob(rw="randrw", rwmixread=150)

    @pytest.mark.parametrize("fields", [
        dict(region_lbas=0), dict(region_lbas=-8), dict(ramp_ios=-1),
        dict(total_ios=0), dict(total_ios=-3),
        dict(total_ios=None, runtime_ns=0), dict(runtime_ns=-1)])
    def test_bad_bounds(self, fields):
        with pytest.raises(ValueError):
            FioJob(**fields)

    @pytest.mark.parametrize("fields", [
        dict(bssplit=()),
        dict(bssplit=((4096, 0.0, 0.5),)),
        dict(bssplit=((4096, -1.0, 0.5),)),
        dict(bssplit=((4096, 1.0, 1.5),)),
        dict(bssplit=((4096, 1.0, -0.1),)),
        dict(bssplit=((1000, 1.0, 0.5),)),
        dict(bssplit=((0, 1.0, 0.5),)),
        dict(bssplit=MIX, zipf=0.0),
        dict(bssplit=MIX, zipf=-1.2),
        dict(zipf=1.2),
        dict(bssplit=MIX, rw="read"),
        dict(bssplit=MIX, rw="write"),
        dict(bssplit=MIX, rw="randread"),
        dict(bssplit=MIX, bs=8192),
        dict(bssplit=MIX, rwmixread=70)])
    def test_bad_size_mix(self, fields):
        with pytest.raises(ValueError):
            FioJob(**{"rw": "randrw", **fields})

    def test_a_size_mix(self):
        job = FioJob(rw="randrw", bssplit=MIX + ((65536, 0.5, 1.0),),
                     zipf=0.9)
        assert job.bssplit[1] == (65536, 0.5, 1.0)


class TestRunFio:
    def test_randread_collects_latencies(self):
        scenario = local_linux(seed=11)
        result = run_fio(scenario.device,
                         FioJob(rw="randread", total_ios=300))
        assert result.ios == 300
        assert len(result.read_latencies) == 300
        assert len(result.write_latencies) == 0
        assert result.bytes_moved == 300 * 4096
        assert result.errors == 0
        assert result.iops > 0

    def test_randwrite(self):
        scenario = local_linux(seed=12)
        result = run_fio(scenario.device,
                         FioJob(rw="randwrite", total_ios=100))
        assert len(result.write_latencies) == 100

    def test_randrw_mix(self):
        scenario = local_linux(seed=13)
        result = run_fio(scenario.device,
                         FioJob(rw="randrw", rwmixread=70,
                                total_ios=400))
        reads = len(result.read_latencies)
        writes = len(result.write_latencies)
        assert reads + writes == 400
        assert 0.55 < reads / 400 < 0.85   # ~70% with sampling noise

    def test_sequential_mode_walks_lbas(self):
        scenario = local_linux(seed=14)
        result = run_fio(scenario.device,
                         FioJob(rw="write", total_ios=16, verify=True))
        assert result.errors == 0

    def test_runtime_bound(self):
        scenario = local_linux(seed=15)
        start = scenario.sim.now
        result = run_fio(scenario.device,
                         FioJob(rw="randread", total_ios=None,
                                runtime_ns=2_000_000))
        assert result.elapsed_ns >= 2_000_000
        # ~12us per IO -> ~160 IOs in 2ms
        assert 80 < result.ios < 300

    def test_ramp_excluded(self):
        scenario = local_linux(seed=16)
        result = run_fio(scenario.device,
                         FioJob(rw="randread", total_ios=100,
                                ramp_ios=20))
        assert len(result.read_latencies) == 80

    def test_throughput_is_over_the_measured_window(self):
        """The window opens at the ``ramp_ios``-th completion: at QD1 a
        job of that many I/Os on the same rig ends at that instant.  The
        whole-job rate would count the warm-up's time against the I/Os
        after it."""
        job = FioJob(rw="randread", total_ios=100, ramp_ios=20)
        result = run_fio(local_linux(seed=16).device, job)
        warm_up = run_fio(local_linux(seed=16).device,
                          dataclasses.replace(job, total_ios=20, ramp_ios=0))
        assert result.measured_ns == result.elapsed_ns - warm_up.elapsed_ns
        assert warm_up.measured_ns == warm_up.elapsed_ns
        assert result.iops == result.ios / (result.measured_ns / 1e9)
        assert result.bandwidth_bytes_per_s \
            == result.bytes_moved / (result.measured_ns / 1e9)
        assert result.iops > 1.1 * result.ios / (result.elapsed_ns / 1e9)

    def test_a_job_all_warm_up_measured_nothing(self):
        result = run_fio(local_linux(seed=16).device,
                         FioJob(rw="randread", total_ios=10, ramp_ios=10))
        assert result.ios == 0 and result.iops == 0.0

    def test_iodepth_increases_throughput(self):
        qd1 = run_fio(local_linux(seed=17).device,
                      FioJob(rw="randread", total_ios=400, iodepth=1))
        qd8 = run_fio(local_linux(seed=17).device,
                      FioJob(rw="randread", total_ios=400, iodepth=8))
        assert qd8.iops > 2.5 * qd1.iops

    def test_verify_mode_passes_on_honest_device(self):
        scenario = ours_remote(seed=18)
        result = run_fio(scenario.device,
                         FioJob(rw="randwrite", total_ios=60,
                                verify=True, region_lbas=10_000))
        assert result.errors == 0

    def test_a_failed_read_back_is_an_error(self):
        device = ReadsFail(Simulator(seed=23))
        result = run_fio(device, FioJob(rw="randwrite", total_ios=20,
                                        verify=True))
        assert device.errors == 20
        assert (result.ios, result.errors) == (20, 20)

    def test_region_bound_respected(self):
        scenario = local_linux(seed=19)
        result = run_fio(scenario.device,
                         FioJob(rw="randwrite", total_ios=50,
                                region_lbas=64))
        # All writes landed within the first 64 LBAs x 512 B = 4 extents.
        ns = scenario.testbed.nvme.namespaces[1]
        assert ns.written_bytes() <= 8 * 4096

    def test_bs_must_be_lba_multiple(self):
        scenario = local_linux(seed=20)
        with pytest.raises(ValueError):
            run_fio(scenario.device, FioJob(bs=1000, total_ios=10))

    def test_latency_distribution_converges(self):
        """Two different-length runs agree on the median within noise —
        the justification for simulating less than the paper's 60 s."""
        short = run_fio(local_linux(seed=21).device,
                        FioJob(rw="randread", total_ios=300))
        long = run_fio(local_linux(seed=22).device,
                       FioJob(rw="randread", total_ios=1500))
        med_s = short.summary("read").median
        med_l = long.summary("read").median
        assert abs(med_s - med_l) / med_l < 0.03


class TestRunMany:
    def test_simultaneous_jobs_share_clock(self):
        from repro.scenarios import multihost
        scenario = multihost(2, seed=23)
        jobs = [(c, FioJob(name=f"j{i}", rw="randread", total_ios=100))
                for i, c in enumerate(scenario.clients)]
        results = run_fio_many(jobs)
        assert len(results) == 2
        assert all(r.ios == 100 for r in results)

    def test_empty(self):
        assert run_fio_many([]) == []

    def test_mixed_sims_rejected(self):
        a = local_linux(seed=24)
        b = local_linux(seed=25)
        with pytest.raises(ValueError):
            run_fio_many([(a.device, FioJob(total_ios=1)),
                          (b.device, FioJob(total_ios=1))])
