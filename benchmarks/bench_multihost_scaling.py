"""Section VI: "The P4800X used in our experiments supports up to 32
queue pairs (where one pair is reserved for the admin queues), and we
have confirmed that it can be shared by up to 31 hosts simultaneously."

This bench shares the single-function controller among 1..31 client
hosts running simultaneous random reads and reports per-client and
aggregate IOPS.  The shape to hold: aggregate throughput scales with
host count until the device's media channels saturate, then flattens —
the device, not the NTB fabric, is the bottleneck.
"""

from __future__ import annotations

import os
import platform

from conftest import run_experiment

from repro.analysis import format_table
from repro.scenarios import multihost
from repro.workloads import FioJob, run_fio_many

HOST_COUNTS = (1, 2, 4, 8, 16, 31)
IOS_PER_CLIENT = 300
QD = 2


def test_multihost_scaling(benchmark, results_writer):
    def experiment():
        rows = []
        for n in HOST_COUNTS:
            scenario = multihost(n, seed=400 + n, queue_depth=QD)
            jobs = [(client, FioJob(name=f"mh{i}", rw="randread",
                                    bs=4096, iodepth=QD,
                                    total_ios=IOS_PER_CLIENT,
                                    region_lbas=1 << 20))
                    for i, client in enumerate(scenario.clients)]
            results = run_fio_many(jobs)
            agg_iops = sum(r.iops for r in results)
            med_lat = sum(r.summary("read").median
                          for r in results) / len(results)
            rows.append((n, agg_iops, agg_iops / n, med_lat / 1000.0))
        return rows

    rows = run_experiment(benchmark, experiment)

    art = format_table(
        ["clients", "aggregate kIOPS", "per-client kIOPS",
         "median lat (us)"],
        [[n, f"{agg / 1e3:.1f}", f"{per / 1e3:.1f}", f"{lat:.2f}"]
         for n, agg, per, lat in rows],
        title="Multi-host sharing of one single-function P4800X "
              "(4 KiB randread, QD=2 per client)")
    art += (f"\nseed 400 + clients; modeled (the same on any machine), "
            f"run on {platform.machine()}, {os.cpu_count()} vCPU, "
            f"Python {platform.python_version()}")
    results_writer("multihost_scaling", art)

    agg = {n: a for n, a, _p, _l in rows}
    # Scaling region: 2 clients ~2x one client, 4 clients ~3.5x.
    assert agg[2] > 1.8 * agg[1]
    assert agg[4] > 3.0 * agg[1]
    # Saturation: the device caps out; 31 clients get no more than ~15%
    # over 16 clients, and far from 31x a single client.
    assert agg[31] < 1.3 * agg[16]
    assert agg[31] < 8 * agg[1]
    # The device-level ceiling: channels/media_latency ~ 600-700 kIOPS.
    assert 350_000 < agg[31] < 800_000
    # 31 clients actually ran (the paper's claim).
    assert rows[-1][0] == 31
