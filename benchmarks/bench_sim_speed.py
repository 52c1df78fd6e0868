#!/usr/bin/env python
"""Host work and wall-clock of the simulation engine itself.

Unlike every other benchmark in this directory (which regenerate the
paper's *simulated* results), this one measures what the simulator
costs the host machine.  ``BENCH_sim_speed.json`` records a
``before``/``after`` pair per optimisation PR, and CI replays the
``--quick`` variant as a host-work gate.

Scenarios (all fully seeded, so the *simulated* results are
bit-identical from run to run — only host wall-clock varies):

* ``fig10-ours-remote``   — single client, one NTB hop (paper Fig. 10);
* ``multihost-4``         — 4 clients sharing the controller (Sec. VI);
* ``chaos``               — 3 clients under a fixed fault plan with
  recovery enabled (retries, resyncs, lease reclaims);
* ``noisy-neighbor``      — open-loop aggressor beside 3 bystanders on
  one shared QP with every hook on: wfq arbiter, admission throttle,
  histograms, sampler, SLO engine (docs/qos.md).

Each scenario is timed (best wall of ``--repeats``) and then run once
more under cProfile for its **host calls**: the sum of every profiled
function's call count, per code object, so exact for a tree and an
interpreter.  Wall-clock on a shared box swings by more than most
changes, so ``--check`` gates the calls and prints the wall ratio: it
fails when a scenario's ``checksum``, ``sim_ns`` or ``events`` differs
from the record's (modeled numbers no host moves) or when its calls
exceed the record's by more than 1 %, which machine noise cannot trip.

Usage::

    python benchmarks/bench_sim_speed.py                 # full run
    python benchmarks/bench_sim_speed.py --quick         # CI smoke
    python benchmarks/bench_sim_speed.py --quick \
        --check BENCH_sim_speed.json                     # host-work gate
    python benchmarks/bench_sim_speed.py --record after \
        --json BENCH_sim_speed.json                      # update trajectory
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import json
import os
import pathlib
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from repro.faults import FaultEvent, FaultPlan               # noqa: E402
from repro.qos import run_qos                                # noqa: E402
from repro.scenarios import chaos_cluster, multihost, ours_remote  # noqa: E402
from repro.workloads import (FioJob, fio_generator, run_fio,  # noqa: E402
                             run_fio_many)

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
DEFAULT_JSON = REPO_ROOT / "BENCH_sim_speed.json"
#: slack of the calls gate over the recorded count
CALLS_SLACK = 0.01
#: what must equal the record's to the digit: modeled, host-independent
MODELED = ("checksum", "sim_ns", "events")

#: fault plan for the chaos scenario — fixed, so every run replays the
#: same faults and the workload drains identically
CHAOS_PLAN = FaultPlan((
    FaultEvent(200_000, "link_down", "link:host2", duration_ns=500_000),
    FaultEvent(400_000, "tlp_drop", "link:host3", probability=0.1,
               duration_ns=800_000),
    FaultEvent(900_000, "ctrl_stall", "ctrl:nvme0", duration_ns=300_000),
))

#: (full, quick) I/O counts per scenario
SIZES = {
    "fig10-ours-remote": (2000, 400),
    "multihost-4": (1500, 300),       # per client
    "chaos": (400, 150),              # per client
    # open loop: simulated horizon in ns; the quick one is the isolation
    # tests', long enough for the alert to fire and the clamp to bite
    "noisy-neighbor": (8_000_000, 4_000_000),
}


def _events_of(sim) -> int:
    """Events processed.  The counter has been a core invariant since
    PR-4; failing loudly beats recording ``"events": null`` rows that
    silently disable the throughput gate (which is exactly what the
    old ``getattr(..., None)`` fallback did)."""
    return sim.events_processed


def bench_fig10(ios: int) -> dict:
    scenario = ours_remote(seed=7)
    start = time.perf_counter()
    result = run_fio(scenario.device,
                     FioJob(rw="randread", bs=4096, iodepth=8,
                            total_ios=ios))
    wall = time.perf_counter() - start
    return {"wall_s": wall, "ios": ios, "sim_ns": scenario.sim.now,
            "events": _events_of(scenario.sim),
            "checksum": int(result.read_latencies.values().sum())}


def bench_multihost(ios_per_client: int) -> dict:
    scenario = multihost(4, seed=404, queue_depth=16)
    start = time.perf_counter()
    jobs = [(client, FioJob(name=f"mh{i}", rw="randread", bs=4096,
                            iodepth=8, total_ios=ios_per_client,
                            region_lbas=1 << 20))
            for i, client in enumerate(scenario.clients)]
    results = run_fio_many(jobs)
    wall = time.perf_counter() - start
    checksum = sum(int(r.read_latencies.values().sum()) for r in results)
    return {"wall_s": wall, "ios": 4 * ios_per_client,
            "sim_ns": scenario.sim.now,
            "events": _events_of(scenario.sim), "checksum": checksum}


def bench_chaos(ios_per_client: int) -> dict:
    sc = chaos_cluster(n_clients=3, plan=CHAOS_PLAN, seed=321)
    start = time.perf_counter()
    sc.injector.start()
    procs = [sc.sim.process(fio_generator(
        client, FioJob(name=f"j{i}", rw="randrw", iodepth=4,
                       total_ios=ios_per_client, seed_stream=f"fio{i}")))
        for i, client in enumerate(sc.clients)]
    sc.sim.run(until=sc.sim.timeout(400_000_000))
    wall = time.perf_counter() - start
    if not all(p.triggered for p in procs):
        raise RuntimeError("chaos workload did not drain")
    return {"wall_s": wall, "ios": 3 * ios_per_client,
            "sim_ns": sc.sim.now, "events": _events_of(sc.sim),
            "checksum": len(sc.trace_log())}


def bench_noisy(horizon_ns: int) -> dict:
    """The hook-on path; the rig is built inside run_qos, so unlike the
    others this wall includes the (~10 ms) build."""
    start = time.perf_counter()
    run = run_qos("wfq", throttle=True, seed=7, horizon_ns=horizon_ns)
    wall = time.perf_counter() - start
    if run.throttle_report["clamped"] != [run.aggressor]:
        raise RuntimeError("noisy-neighbor run never clamped the aggressor")
    sim = run.telemetry.sim
    return {"wall_s": wall,
            "ios": sum(r.completed for r in run.results),
            "sim_ns": sim.now, "events": _events_of(sim),
            "checksum": sum(int(r.latencies.values().sum())
                            for r in run.results)}


BENCHES = {
    "fig10-ours-remote": bench_fig10,
    "multihost-4": bench_multihost,
    "chaos": bench_chaos,
    "noisy-neighbor": bench_noisy,
}


def host_calls(fn, ios: int) -> tuple[int, dict]:
    """One more run of a scenario under cProfile: its host calls, summed
    per code object (``pstats`` would merge functions that share a
    ``(file, line, name)`` key, such as dataclass ``__init__``s), and
    the sample."""
    gc.collect()        # no finalizer of earlier garbage inside the run
    profile = cProfile.Profile()
    profile.enable()
    sample = fn(ios)
    profile.disable()
    return sum(entry.callcount for entry in profile.getstats()), sample


def run_suite(quick: bool, repeats: int) -> dict:
    out = {}
    for name, fn in BENCHES.items():
        full, small = SIZES[name]
        ios = small if quick else full
        best = None
        for _ in range(repeats):
            sample = fn(ios)
            if best is None or sample["wall_s"] < best["wall_s"]:
                best = sample
        assert best is not None
        calls, profiled = host_calls(fn, ios)
        if any(profiled[field] != best[field] for field in MODELED):
            raise RuntimeError(f"{name}: the profiled run's modeled "
                               "output differs from the timed runs'")
        best["calls"] = calls
        best["events_per_sec"] = round(best["events"] / best["wall_s"])
        best["wall_s"] = round(best["wall_s"], 4)
        out[name] = best
        print(f"{name:24s} {best['wall_s']:8.3f}s  "
              f"{best['ios']:6d} ios  "
              f"{best['events_per_sec']:>9} ev/s  {calls:10d} calls")
    return out


def check_regression(current: dict, baseline_path: pathlib.Path) -> int:
    data = json.loads(baseline_path.read_text())
    baseline = data["runs"].get("after") or data["runs"]["before"]
    mode = "quick" if current["quick"] else "full"
    failures = []
    for name, sample in current["scenarios"].items():
        base = baseline.get(mode, {}).get(name)
        if base is None:
            print(f"{name}: no baseline for mode {mode!r}")
            failures.append(f"{name} (no record)")
            continue
        for field in MODELED:
            if sample[field] != base[field]:
                print(f"{name:24s} {field} {base[field]} -> "
                      f"{sample[field]}  MODELED OUTPUT CHANGED")
                failures.append(f"{name} ({field})")
        limit = int(base["calls"] * (1.0 + CALLS_SLACK))
        verdict = "OK" if sample["calls"] <= limit else "MORE HOST WORK"
        print(f"{name:24s} {base['calls']:10d} -> {sample['calls']:10d} "
              f"calls  {verdict}")
        if sample["calls"] > limit:
            failures.append(f"{name} (calls)")
        print(f"{name:24s} {base['wall_s']:8.3f}s -> "
              f"{sample['wall_s']:8.3f}s  "
              f"({sample['wall_s'] / base['wall_s']:5.2f}x, observed, "
              f"not gated)")
    if failures:
        print(f"FAIL: {', '.join(failures)}")
        return 1
    print(f"all scenarios: modeled output equal, calls within "
          f"{CALLS_SLACK:.0%} of the record")
    return 0


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--quick", action="store_true",
                    help="small I/O counts (CI smoke)")
    ap.add_argument("--repeats", type=int, default=1,
                    help="take the best of N runs per scenario")
    ap.add_argument("--json", type=pathlib.Path, default=None,
                    help="write results into this trajectory file")
    ap.add_argument("--record", choices=("before", "after"), default=None,
                    help="label under which to record in the trajectory")
    ap.add_argument("--check", type=pathlib.Path, default=None,
                    help="fail on modeled output that differs from this "
                         "record's or calls more than 1 %% above it")
    ap.add_argument("--out", type=pathlib.Path, default=None,
                    help="also dump this run's raw results as JSON")
    args = ap.parse_args(argv)

    scenarios = run_suite(args.quick, args.repeats)
    current = {"quick": args.quick, "cores": os.cpu_count(),
               "scenarios": scenarios}

    if args.out is not None:
        args.out.write_text(json.dumps(current, indent=2) + "\n")

    if args.record is not None:
        path = args.json or DEFAULT_JSON
        data = (json.loads(path.read_text()) if path.exists()
                else {"benchmark": "bench_sim_speed",
                      "units": {"wall_s": "seconds of host wall-clock",
                                "events_per_sec": "simulator events/s",
                                "calls": "cProfile calls of one run"},
                      "runs": {}})
        mode = "quick" if args.quick else "full"
        data["runs"].setdefault(args.record, {})[mode] = scenarios
        data.setdefault("machine", {})["cores"] = os.cpu_count()
        path.write_text(json.dumps(data, indent=2) + "\n")
        print(f"recorded {mode!r} results as {args.record!r} in {path}")

    if args.check is not None:
        return check_regression(current, args.check)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
