"""Tests for the open-loop traffic service (workloads/open_loop.py)."""

import itertools
import pathlib

import numpy as np
import pytest

import repro
from repro.scenarios import local_linux, multihost, ours_remote
from repro.sim.process import Process
from repro.staticcheck import check_file, get_rule
from repro.workloads import (ARRIVAL_MODELS, OpenLoopJob, arrival_times,
                             open_loop_generator, peak_rate, rate_at,
                             run_open_loop, run_open_loop_many)


def take(job, n, seed=0):
    rng = np.random.default_rng(seed)
    return list(itertools.islice(arrival_times(job, rng), n))


class TestArrivalStreams:
    def test_poisson_matches_target_rate(self):
        job = OpenLoopJob(rate_iops=10_000.0, total_arrivals=None,
                          runtime_ns=1)
        times = take(job, 20_000)
        mean_gap = times[-1] / len(times)
        assert mean_gap == pytest.approx(1e9 / job.rate_iops, rel=0.05)

    def test_streams_are_strictly_increasing_ints(self):
        for arrival in ARRIVAL_MODELS:
            job = OpenLoopJob(arrival=arrival, rate_iops=50_000.0,
                              total_arrivals=None, runtime_ns=1)
            times = take(job, 2_000)
            assert all(isinstance(t, int) for t in times)
            assert all(b > a for a, b in zip(times, times[1:]))

    def test_identical_seeds_identical_streams(self):
        job = OpenLoopJob(arrival="diurnal", rate_iops=25_000.0,
                          total_arrivals=None, runtime_ns=1)
        assert take(job, 3_000, seed=9) == take(job, 3_000, seed=9)
        assert take(job, 3_000, seed=9) != take(job, 3_000, seed=10)

    def test_bursty_arrivals_only_inside_on_phase(self):
        job = OpenLoopJob(arrival="bursty", rate_iops=100_000.0,
                          burst_duty=0.25, burst_period_ns=1_000_000,
                          total_arrivals=None, runtime_ns=1)
        times = take(job, 5_000)
        for t in times:
            assert rate_at(job, t) > 0.0, \
                f"arrival at {t} falls in the OFF phase"
        # long-run mean still honours rate_iops
        mean_gap = times[-1] / len(times)
        assert mean_gap == pytest.approx(1e9 / job.rate_iops, rel=0.08)

    def test_diurnal_density_follows_envelope(self):
        period = 10_000_000
        job = OpenLoopJob(arrival="diurnal", rate_iops=50_000.0,
                          diurnal_amplitude=0.8,
                          diurnal_period_ns=period,
                          total_arrivals=None, runtime_ns=1)
        times = take(job, 20_000)
        # Peak half-period (sin > 0) must hold far more arrivals than
        # the trough half.
        peak = sum(1 for t in times if (t % period) < period // 2)
        trough = len(times) - peak
        assert peak > 2 * trough
        mean_gap = times[-1] / len(times)
        assert mean_gap == pytest.approx(1e9 / job.rate_iops, rel=0.08)

    def test_envelope_peaks_and_means(self):
        bursty = OpenLoopJob(arrival="bursty", rate_iops=10_000.0,
                             burst_duty=0.2)
        assert peak_rate(bursty) == pytest.approx(50_000.0)
        diurnal = OpenLoopJob(arrival="diurnal", rate_iops=10_000.0,
                              diurnal_amplitude=0.5)
        assert peak_rate(diurnal) == pytest.approx(15_000.0)
        # rate_at averages to rate_iops over one full period
        for job in (bursty, diurnal):
            period = (job.burst_period_ns if job.arrival == "bursty"
                      else job.diurnal_period_ns)
            grid = np.arange(0, period, period // 1000)
            mean = float(np.mean([rate_at(job, int(t)) for t in grid]))
            assert mean == pytest.approx(job.rate_iops, rel=0.01)

    def test_validation(self):
        with pytest.raises(ValueError):
            OpenLoopJob(arrival="lognormal")
        with pytest.raises(ValueError):
            OpenLoopJob(rate_iops=0)
        with pytest.raises(ValueError):
            OpenLoopJob(total_arrivals=None, runtime_ns=None)
        with pytest.raises(ValueError):
            OpenLoopJob(inflight_cap=0)
        with pytest.raises(ValueError):
            OpenLoopJob(burst_duty=0.0)
        with pytest.raises(ValueError):
            OpenLoopJob(diurnal_amplitude=1.0)
        with pytest.raises(ValueError):
            OpenLoopJob(rw="seqread")


class TestOpenLoopRuns:
    def test_run_completes_and_measures_from_arrival(self):
        scenario = local_linux(seed=500)
        job = OpenLoopJob(rate_iops=20_000.0, total_arrivals=150,
                          region_lbas=1 << 20)
        result = run_open_loop(scenario.device, job)
        assert result.issued == 150
        assert result.completed == 150
        assert result.errors == 0
        assert len(result.latencies) == 150
        # Open-loop latency (from scheduled arrival) can only exceed
        # the device-level service latency.
        assert result.latencies.summary().median >= \
            result.service_latencies.summary().median
        assert result.offered_iops == pytest.approx(20_000.0, rel=0.25)

    def test_identical_seeds_identical_results(self):
        job = OpenLoopJob(rate_iops=30_000.0, total_arrivals=120,
                          rw="randrw", region_lbas=1 << 20)
        a = run_open_loop(local_linux(seed=501).device, job)
        b = run_open_loop(local_linux(seed=501).device, job)
        assert a.latencies.values().tolist() == \
            b.latencies.values().tolist()
        assert a.elapsed_ns == b.elapsed_ns
        assert a.bytes_moved == b.bytes_moved

    def test_overload_charges_backlog_not_generator(self):
        """Offering far beyond the device's throughput with a tiny
        in-flight cap: arrivals keep their schedule, the cap queues
        them, and the wait lands in the open-loop latency."""
        scenario = local_linux(seed=502)
        job = OpenLoopJob(rate_iops=2_000_000.0, total_arrivals=120,
                          inflight_cap=2, region_lbas=1 << 20)
        result = run_open_loop(scenario.device, job)
        assert result.completed == 120
        assert result.capped_arrivals > 0
        assert result.max_backlog_ns > 0
        assert result.latencies.summary().median > \
            4 * result.service_latencies.summary().median

    def test_writes_and_mixed_ops(self):
        scenario = local_linux(seed=503)
        job = OpenLoopJob(rw="randwrite", rate_iops=20_000.0,
                          total_arrivals=60, region_lbas=1 << 20)
        result = run_open_loop(scenario.device, job)
        assert result.completed == 60
        assert result.bytes_moved == 60 * job.bs

    def test_many_tenants_run_concurrently(self):
        sc = multihost(2, seed=504, queue_depth=8)
        jobs = [OpenLoopJob(name=f"t{i}", rate_iops=20_000.0,
                            total_arrivals=80, region_lbas=1 << 20)
                for i in range(2)]
        results = run_open_loop_many(list(zip(sc.clients, jobs)))
        assert [r.completed for r in results] == [80, 80]
        assert all(r.errors == 0 for r in results)

    def test_runtime_bound_stops_arrivals(self):
        scenario = local_linux(seed=505)
        job = OpenLoopJob(rate_iops=100_000.0, total_arrivals=None,
                          runtime_ns=2_000_000, region_lbas=1 << 20)
        result = run_open_loop(scenario.device, job)
        # ~rate * runtime arrivals, all completed
        assert result.issued == pytest.approx(200, rel=0.3)
        assert result.completed == result.issued


class TestArrivalCost:
    def test_an_arrival_costs_no_process_of_its_own(self, monkeypatch):
        """A completion is a callback on the block layer's done event,
        and the controller's command and the block layer's request are
        records: a run spawns its issue loop and nothing per arrival,
        and dispatches no boot or end event of a completer.  Each run
        used to cost one process and two events more per arrival, (49,
        698) and (97, 1,390); then one process more, the command's, (33,
        666) and (65, 1,326); then the request's process, (17, 666) and
        (33, 1,326) — each record boots from the same URGENT event its
        process did."""
        spawned = [0]
        construct = Process.__init__

        def counting(self, *args, **kwargs):
            spawned[0] += 1
            construct(self, *args, **kwargs)

        monkeypatch.setattr(Process, "__init__", counting)
        counts = []
        for arrivals in (16, 32):
            scenario = ours_remote(seed=440)
            spawned[0] = 0
            before = scenario.sim.events_processed
            result = run_open_loop(scenario.device, OpenLoopJob(
                rate_iops=50_000.0, total_arrivals=arrivals,
                inflight_cap=4))
            assert result.completed == arrivals
            counts.append((spawned[0],
                           scenario.sim.events_processed - before))
        assert counts == [(1, 666), (1, 1326)]


class TestDeterminismDiscipline:
    def test_open_loop_passes_seeded_rng_only(self):
        """The generator draws only from the registry's seeded streams
        (and the other determinism rules hold too)."""
        src = (pathlib.Path(repro.__file__).resolve().parent
               / "workloads" / "open_loop.py")
        for rule in ("seeded-rng-only", "no-wallclock",
                     "units-discipline"):
            assert check_file(src, [get_rule(rule)]) == []
