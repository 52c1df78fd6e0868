#!/usr/bin/env python
"""Wall-clock overhead of the SLO telemetry stack on the multihost run.

The time-series sampler, the per-tenant latency histograms and the
burn-rate engine all live on the hot path of every completed command
(one ``record_io`` call) plus one sampling event per interval.  This
benchmark measures what that costs in *host* wall-clock on the
cluster/multihost scenario, by timing the identical seeded workload
twice:

* ``off`` — telemetry disabled entirely (the default for every run);
* ``on``  — telemetry hub + histograms + SLO engine + sampler at the
  SLO run's default interval (1 ms of simulated time — the cadence the
  < 10 % gate has always actually measured; docs/performance.md has
  the cost at 200 us and 100 us).

Both arms run with the SLO reliability profile (command timeouts,
heartbeats, leases) on, as an SLO-watched cluster does.

The simulated results are bit-identical between the two (the sampler
only reads state — see ``tests/test_slo.py::TestZeroPerturbation``), so
the wall-clock delta is pure instrumentation overhead.  The gate is
**< 10 %** overhead; ``BENCH_slo_overhead.json`` records the
``before``/``after`` trajectory per PR, same shape as
``BENCH_sim_speed.json``.

Usage::

    python benchmarks/bench_slo_overhead.py                  # full run
    python benchmarks/bench_slo_overhead.py --quick          # CI smoke
    python benchmarks/bench_slo_overhead.py --quick --check  # gate
    python benchmarks/bench_slo_overhead.py --record after \
        --json BENCH_slo_overhead.json                       # trajectory
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from repro.scenarios import cluster                           # noqa: E402
from repro.run import SLO_RELIABILITY, DEFAULT_SLO          # noqa: E402
from repro.workloads import FioJob, fio_generator             # noqa: E402

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
DEFAULT_JSON = REPO_ROOT / "BENCH_slo_overhead.json"

#: sampling interval: the default of ``repro run ... --observe slo``
INTERVAL_NS = 1_000_000
#: simulated horizon; long enough for the full-size workload to drain
HORIZON_NS = 60_000_000

#: (full, quick) I/Os per client.  The quick variant still runs ~1 s
#: per sample — shorter runs drown the <10 % signal in scheduler noise.
SIZES = (3000, 1000)


def run_once(ios: int, instrument: bool, seed: int = 7) -> dict:
    """One seeded 4x2 cluster workload; returns wall time + checksums."""
    sc = cluster(n_clients=4, n_devices=2, seed=seed,
                 telemetry=instrument, reliability=SLO_RELIABILITY)
    if instrument:
        tele = sc.telemetry
        assert tele is not None
        tele.enable_histograms()
        tele.enable_slo(DEFAULT_SLO)
        sampler = tele.enable_sampler(interval_ns=INTERVAL_NS)
    start = time.perf_counter()
    procs = []
    for i, volume in enumerate(sc.volumes):
        job = FioJob(name=f"t{i}", rw="randrw", bs=4096, iodepth=4,
                     total_ios=ios, seed_stream=f"slo{i}")
        procs.append(sc.sim.process(fio_generator(volume, job)))
    sc.sim.run(until=sc.sim.timeout(HORIZON_NS))
    if instrument:
        sampler.stop()
        sc.telemetry.collect()
    wall = time.perf_counter() - start
    if not all(p.triggered for p in procs):
        raise RuntimeError("workload did not drain by the horizon")
    checksum = sum(int(p.value.read_latencies.values().sum()) for p in procs)
    return {"wall_s": wall, "ios": 4 * ios, "sim_ns": sc.sim.now,
            "checksum": checksum}


def run_suite(quick: bool, repeats: int) -> dict:
    ios = SIZES[1] if quick else SIZES[0]
    totals = {"off": 0.0, "on": 0.0}
    out: dict[str, dict] = {}
    # Interleave off/on repeats so thermal / scheduler drift hits both
    # variants equally, and compare *totals* across the repeats — the
    # ratio of two single best-of samples is far noisier than the
    # ratio of two sums.
    for _ in range(repeats):
        for variant, instrument in (("off", False), ("on", True)):
            sample = run_once(ios, instrument)
            totals[variant] += sample.pop("wall_s")
            out[variant] = sample
    if out["off"]["checksum"] != out["on"]["checksum"] or \
            out["off"]["sim_ns"] != out["on"]["sim_ns"]:
        raise RuntimeError(
            "instrumented run perturbed the modeled results "
            f"(checksum {out['off']['checksum']} vs "
            f"{out['on']['checksum']})")
    overhead = totals["on"] / totals["off"] - 1.0
    for variant in ("off", "on"):
        out[variant]["wall_s"] = round(totals[variant] / repeats, 4)
        print(f"telemetry {variant:3s} {out[variant]['wall_s']:8.3f}s  "
              f"{out[variant]['ios']:6d} ios  (mean of {repeats})")
    print(f"overhead: {overhead:+.1%}")
    return {"off": out["off"], "on": out["on"],
            "overhead": round(overhead, 4)}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--quick", action="store_true",
                    help="small I/O counts (CI smoke)")
    ap.add_argument("--repeats", type=int, default=5,
                    help="take the best of N interleaved runs per variant")
    ap.add_argument("--json", type=pathlib.Path, default=None,
                    help="write results into this trajectory file")
    ap.add_argument("--record", choices=("before", "after"), default=None,
                    help="label under which to record in the trajectory")
    ap.add_argument("--check", action="store_true",
                    help="fail when overhead exceeds the gate")
    ap.add_argument("--gate", type=float, default=0.10,
                    help="maximum allowed instrumentation overhead")
    ap.add_argument("--out", type=pathlib.Path, default=None,
                    help="also dump this run's raw results as JSON")
    args = ap.parse_args(argv)

    results = run_suite(args.quick, args.repeats)
    current = {"quick": args.quick, "results": results}

    if args.out is not None:
        args.out.write_text(json.dumps(current, indent=2) + "\n")

    if args.record is not None:
        path = args.json or DEFAULT_JSON
        data = (json.loads(path.read_text()) if path.exists()
                else {"benchmark": "bench_slo_overhead",
                      "units": {"wall_s": "seconds of host wall-clock",
                                "overhead": "on/off wall ratio minus 1"},
                      "runs": {}})
        mode = "quick" if args.quick else "full"
        data["runs"].setdefault(args.record, {})[mode] = results
        path.write_text(json.dumps(data, indent=2) + "\n")
        print(f"recorded {mode!r} results as {args.record!r} in {path}")

    if args.check:
        if results["overhead"] > args.gate:
            print(f"FAIL: SLO telemetry overhead {results['overhead']:+.1%} "
                  f"exceeds the {args.gate:.0%} gate")
            return 1
        print(f"overhead within the {args.gate:.0%} gate")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
