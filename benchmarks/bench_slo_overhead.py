#!/usr/bin/env python
"""Host overhead of the SLO telemetry stack on the multihost run, in
wall-clock at the default cadence and in exact calls at three.

The time-series sampler, the per-tenant latency histograms and the
burn-rate engine all live on the hot path of every completed command
(one ``record_io`` call) plus one sampling event per interval.  This
benchmark measures what that costs in *host* wall-clock on the
cluster/multihost scenario, by timing the identical seeded workload
twice:

* ``off`` — telemetry disabled entirely (the default for every run);
* ``on``  — telemetry hub + histograms + SLO engine + sampler at the
  SLO run's default interval (1 ms of simulated time — the cadence the
  wall ratio is taken at; docs/performance.md has the cost at 200 us
  and 100 us).

Both arms run with the SLO reliability profile (command timeouts,
heartbeats, leases) on, as an SLO-watched cluster does.

The simulated results are bit-identical between the two (the sampler
only reads state — see ``tests/test_slo.py::TestZeroPerturbation``), so
the wall-clock delta is pure instrumentation overhead.
``BENCH_slo_overhead.json`` records the ``before``/``after`` trajectory
per PR, same shape as ``BENCH_sim_speed.json``.

Wall-clock on a shared box swings by more than the effect, so the wall
ratio is printed as an observation and gates nothing.  The gate is
**host calls** (one cProfile pass per arm, exact for a tree and an
interpreter), counted with the stack off and on at 1 ms, 200 us and
100 us — the last is the noisy-neighbour rig's cadence, where a tick's
cost shows.  ``--check`` fails when the stack-on count at 100 us
exceeds the recorded one (``runs.after.calls``) by more than 1 %, which
machine noise cannot trip.

Usage::

    python benchmarks/bench_slo_overhead.py                  # full run
    python benchmarks/bench_slo_overhead.py --quick          # CI smoke
    python benchmarks/bench_slo_overhead.py --quick --check  # gate
    python benchmarks/bench_slo_overhead.py --record after \
        --json BENCH_slo_overhead.json                       # trajectory
"""

from __future__ import annotations

import argparse
import cProfile
import json
import pathlib
import pstats
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
#: cadences the call count is taken at (the default, what the docs once
#: claimed the wall ratio measured, the noisy rig's: the gated row)
CALL_INTERVALS_NS = (1_000_000, 200_000, 100_000)
#: slack of the calls gate over the recorded count
CALLS_SLACK = 0.01
#: simulated horizon; long enough for the full-size workload to drain
HORIZON_NS = 60_000_000

#: (full, quick) I/Os per client.  The quick variant still runs ~1 s
#: per sample — shorter runs drown the wall ratio in scheduler noise.
SIZES = (3000, 1000)


def run_once(ios: int, instrument: bool, seed: int = 7,
             interval_ns: int = INTERVAL_NS) -> dict:
    """One seeded 4x2 cluster workload; returns wall time + checksums."""
    sc = cluster(n_clients=4, n_devices=2, seed=seed,
                 telemetry=instrument, reliability=SLO_RELIABILITY)
    if instrument:
        tele = sc.telemetry
        assert tele is not None
        tele.enable_histograms()
        tele.enable_slo(DEFAULT_SLO)
        sampler = tele.enable_sampler(interval_ns=interval_ns)
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


def count_calls() -> dict:
    """Host calls of the quick workload, stack off and on per cadence
    (exact: the simulation is deterministic, cProfile counts)."""
    def calls(instrument: bool, interval_ns: int = INTERVAL_NS):
        profile = cProfile.Profile()
        profile.enable()
        sample = run_once(SIZES[1], instrument, interval_ns=interval_ns)
        profile.disable()
        return (sum(entry[1] for entry in pstats.Stats(profile).stats.values()),
                sample["checksum"])

    off, checksum = calls(False)
    out: dict = {"ios": 4 * SIZES[1], "off": off, "on": {}, "overhead": {}}
    print(f"host calls, telemetry off   {off:10d}")
    for interval_ns in CALL_INTERVALS_NS:
        on, on_checksum = calls(True, interval_ns)
        if on_checksum != checksum:
            raise RuntimeError("instrumented run perturbed the modeled "
                               f"results at {interval_ns} ns")
        out["on"][str(interval_ns)] = on
        out["overhead"][str(interval_ns)] = round(on / off - 1.0, 4)
        print(f"host calls, on at {interval_ns // 1000:5d} us  {on:10d}  "
              f"{on / off - 1.0:+.1%}")
    return out


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
                    help="fail when the calls at 100 us exceed the record")
    ap.add_argument("--out", type=pathlib.Path, default=None,
                    help="also dump this run's raw results as JSON")
    args = ap.parse_args(argv)

    results = run_suite(args.quick, args.repeats)
    calls = count_calls()
    current = {"quick": args.quick, "results": results, "calls": calls}

    if args.out is not None:
        args.out.write_text(json.dumps(current, indent=2) + "\n")

    path = args.json or DEFAULT_JSON
    if args.record is not None:
        data = (json.loads(path.read_text()) if path.exists()
                else {"benchmark": "bench_slo_overhead",
                      "units": {"wall_s": "seconds of host wall-clock",
                                "overhead": "on/off wall ratio minus 1",
                                "calls": "cProfile calls, per sampler "
                                         "interval in ns"},
                      "runs": {}})
        mode = "quick" if args.quick else "full"
        data["runs"].setdefault(args.record, {})[mode] = results
        data["runs"][args.record]["calls"] = calls
        path.write_text(json.dumps(data, indent=2) + "\n")
        print(f"recorded {mode!r} results as {args.record!r} in {path}")

    if args.check:
        row = str(CALL_INTERVALS_NS[-1])
        record = json.loads(path.read_text())["runs"]["after"]["calls"]
        limit = int(record["on"][row] * (1.0 + CALLS_SLACK))
        if calls["on"][row] > limit:
            print(f"FAIL: {calls['on'][row]} host calls with the stack on "
                  f"at {row} ns exceed the record {record['on'][row]} "
                  f"by more than {CALLS_SLACK:.0%}")
            return 1
        print(f"calls at {row} ns within {CALLS_SLACK:.0%} of the record "
              f"({calls['on'][row]} vs {record['on'][row]}, "
              f"{calls['overhead'][row]:+.1%} over telemetry off)")
        print(f"wall-clock overhead at {INTERVAL_NS} ns "
              f"{results['overhead']:+.1%} (observed, not gated)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
