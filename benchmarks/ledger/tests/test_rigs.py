"""The rigs against the public runners they re-wire."""

import numpy as np
import pytest

from floor import drive
from repro.qos import run_qos
from rigs import WORKLOADS, CheckError, Multihost4Rw64k


def run_once(workload, rig):
    drive(workload.start(rig), workload.slice_ns)
    return workload.collect(rig)


def test_qos_rig_is_run_qos_wiring():
    """Slicing needs the harness to wire the noisy-neighbour rig itself;
    given run_qos's stream name for the aggressor it must reproduce
    run_qos's per-tenant p99s exactly."""
    workload = WORKLOADS["qos-noisy-open"]
    s = workload.sizes
    rig = workload.build(seed=1)
    rig.extra["aggressor_stream"] = "qos"
    outcome = run_once(workload, rig)
    ref = run_qos(s["policy"], throttle=True,
                  n_bystanders=s["n_bystanders"], seed=workload.RIG_SEED,
                  aggressor_iops=s["aggressor_iops"],
                  bystander_iops=s["bystander_iops"], arrival=s["arrival"],
                  horizon_ns=s["horizon_ns"], interval_ns=s["interval_ns"],
                  throttle_window=s["throttle_window"])
    p99s = [float(np.percentile(proc.value.latencies.values(), 99))
            for proc in rig.procs]
    assert p99s == [ref.p99_ns(tenant) for tenant in ref.tenants]
    assert outcome.failed == 0 and outcome.ios == outcome.attempted
    workload.verify(1, outcome)


def test_seed_draws_the_aggressor_only():
    workload = WORKLOADS["qos-noisy-open"]
    a = run_once(workload, workload.build(seed=1))
    b = run_once(workload, workload.build(seed=2))
    assert a.digest != b.digest
    assert len(a.latencies_ns) == len(b.latencies_ns)   # same probe traffic


def small_rw(region_lbas):
    workload = Multihost4Rw64k(
        "small", slice_ns=300_000,
        rw_per_client=("randread", "randwrite", "randwrite"), bs=65536,
        ios_per_client=48)
    workload.sizes["region_lbas"] = region_lbas
    return workload


def test_readback_accepts_overwritten_extents():
    # 4 slots, two writers at depth 8: every extent is overwritten many
    # times, often by writes in flight together
    workload = small_rw(region_lbas=4 * 65536 // 512)
    outcome = run_once(workload, workload.build(seed=3))
    workload.verify(3, outcome)
    assert outcome.details["readback_extents"] == 4


def test_readback_rejects_a_diverged_replay():
    workload = small_rw(region_lbas=1 << 20)
    outcome = run_once(workload, workload.build(seed=3))
    with pytest.raises(CheckError, match="diverged"):
        workload.verify(4, outcome)
