"""Tripwire: the per-I/O path leaves no cyclic garbage.

An object in a reference cycle outlives its last use until the cyclic
collector finds it, and every collection walks the whole young heap;
at tens of cycles per I/O that was a few per cent of a run's wall time
that no call or bytecode count shows (docs/performance.md, "Seconds the
counts cannot see").  Here a rig is built and collected first, then
driven with the collector off; a collection under ``DEBUG_SAVEALL``
afterwards must find no object of the package — whatever the I/Os
allocated was freed by reference counting alone.
"""

import gc

import pytest

from repro.qos import AdmissionThrottle
from repro.qos.runner import QOS_SLO
from repro.scenarios import (FIG10_SCENARIOS, build_fig10_scenario,
                             multihost, noisy_neighbor)
from repro.workloads import (FioJob, OpenLoopJob, open_loop_generator,
                             run_fio, run_fio_many)


def cyclic_garbage(drive):
    """Package objects a collection finds after ``drive()`` ran with the
    collector off."""
    gc.collect()
    gc.disable()
    try:
        drive()
        gc.set_debug(gc.DEBUG_SAVEALL)
        gc.collect()
        return sorted({type(obj).__qualname__ for obj in gc.garbage
                       if type(obj).__module__.startswith("repro")})
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()


@pytest.mark.parametrize("name", FIG10_SCENARIOS)
def test_fig10_legs(name):
    device = build_fig10_scenario(name, seed=3).device

    def drive():
        run_fio(device, FioJob(name="r", rw="randread", total_ios=40))
        run_fio(device, FioJob(name="w", rw="randwrite", total_ios=40))

    assert cyclic_garbage(drive) == []


def test_multihost_small_and_bulk():
    """Four hosts at depth 8: 4 KiB reads, then 64 KiB reads beside a
    64 KiB writer (PRP lists, TLP trains, queued link holds)."""
    clients = multihost(4, seed=3, queue_depth=16).clients

    def drive():
        for bs, rws in ((4096, ["randread"] * 4),
                        (65536, ["randread"] * 3 + ["randwrite"])):
            run_fio_many([(device, FioJob(name=f"mh{i}-{bs}", rw=rw, bs=bs,
                                          iodepth=8, total_ios=24,
                                          region_lbas=1 << 20))
                          for i, (device, rw) in enumerate(zip(clients,
                                                               rws))])

    assert cyclic_garbage(drive) == []


def test_noisy_open_loop_with_every_hook():
    """The shared-QP rig with wfq, the throttle, histograms, the sampler
    and the SLO engine on, driven by open loops."""
    sc = noisy_neighbor(n_bystanders=3, policy="wfq", throttle_window=1,
                        seed=3)
    tele = sc.telemetry
    tele.enable_histograms()
    sampler = tele.enable_sampler(interval_ns=100_000, start=False)
    admission = AdmissionThrottle(sc.sim, sc.testbed.config.qos,
                                  tele.enable_slo(QOS_SLO))
    admission.attach(sc.clients)

    def drive():
        sampler.start()
        admission.start()
        procs = [sc.sim.process(open_loop_generator(device, OpenLoopJob(
            name=f"t{i}", rw="randread", rate_iops=400_000.0 if i == 0
            else 100_000.0, total_arrivals=None, runtime_ns=400_000,
            inflight_cap=16)))
            for i, device in enumerate(sc.clients)]
        sc.sim.run(until=sc.sim.all_of(procs))
        sampler.stop()
        admission.stop()

    assert cyclic_garbage(drive) == []
