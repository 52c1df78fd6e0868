#!/usr/bin/env python3
"""Reproduce the paper's headline comparison (Fig. 10) interactively.

Runs 4 KiB QD1 random reads and writes through all four evaluation
scenarios — stock Linux local, NVMe-oF over RDMA, our driver local, our
driver remote — and prints boxplots plus the minimum-latency deltas the
paper quotes (7.7/7.5 us for NVMe-oF, ~1/~2 us for the PCIe driver).

Run:  python examples/latency_comparison.py
(the fig10 rows of tests/test_fidelity.py check the same comparison)
"""

from repro import FioJob, run_fio
from repro.analysis import Fig10Report, render_boxplots
from repro.scenarios import FIG10_SCENARIOS, build_fig10_scenario
from repro.sim import BoxplotStats

IOS = 600


def collect(op: str, seed_base: int) -> dict[str, BoxplotStats]:
    stats = {}
    rw = "randread" if op == "read" else "randwrite"
    for i, name in enumerate(FIG10_SCENARIOS):
        print(f"  {name} {op} ...")
        scenario = build_fig10_scenario(name, seed=seed_base + i)
        result = run_fio(scenario.device,
                         FioJob(rw=rw, bs=4096, iodepth=1,
                                total_ios=IOS, ramp_ios=50))
        rec = (result.read_latencies if op == "read"
               else result.write_latencies)
        stats[name] = BoxplotStats.from_values(rec.values(), name=name)
    return stats


def main() -> None:
    print("Running the four Fig. 9 scenarios (this simulates ~4800 "
          "I/Os)...")
    reads = collect("read", 10)
    writes = collect("write", 20)
    report = Fig10Report(reads, writes)

    print("\nRandom 4 KiB READ, QD=1 (whiskers min..p99, as in Fig. 10):")
    print(render_boxplots([reads[n] for n in FIG10_SCENARIOS]))
    print("\nRandom 4 KiB WRITE, QD=1:")
    print(render_boxplots([writes[n] for n in FIG10_SCENARIOS]))
    print()
    print(report.delta_table())
    print(f"\nshape matches the paper: {report.shape_ok()}")


if __name__ == "__main__":
    main()
