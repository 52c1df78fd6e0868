#!/usr/bin/env python3
"""A/A self-check: run the whole set twice with the same code and see
whether the benchmark agrees with itself within its own bounds.

    python3 benchmarks/ledger/aa.py --runs 10 --out benchmarks/ledger/AA.md

Sides A and B are interleaved (A, B, A, B ...); run ``i`` of both sides
uses seed ``--seed + i``, so the two sets see the same ten inputs.  Per
workload and end-to-end metric it prints both medians, the shift of B
against A in the metric's worse direction, each side's spread (distance
between the quartiles as a share of the median) and the bound, and FAILs
a metric whose shift or spread (``setup_s``: shift only) exceeds the
bound.  The exact metrics must be bit-equal between the sides for every
seed, and again in one extra run per workload under another
``PYTHONHASHSEED``.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import statistics
import subprocess
import sys

from manifest import commit, machine

LEDGER = pathlib.Path(__file__).resolve().parent
ROOT = LEDGER.parents[1]

#: metrics two runs of the same code and seed must reproduce to the digit
EXACT = ("host_calls_per_io", "sim_p50_us", "sim_p99_us", "sim_kiops")


def run_once(workload: str, seed: int, hashseed: str = "0") -> dict:
    """End-to-end metric values of one fresh-process run."""
    done = subprocess.run(
        [sys.executable, str(LEDGER / "run.py"), "--workload", workload,
         "--seed", str(seed), "--trace", "0"],
        env=dict(os.environ, PYTHONHASHSEED=hashseed),
        capture_output=True, text=True, timeout=600)
    if done.returncode:
        raise SystemExit(f"{workload} seed {seed} failed:\n{done.stderr}")
    result = json.loads(done.stdout.splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{workload} seed {seed}: {result}")
    return {name: entry["value"]
            for name, entry in result["metrics"].items()}


def spread(values: list[float]) -> float:
    """Distance between the quartiles as a share of the median."""
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def compare(spec: dict, a: list[float], b: list[float]) -> dict:
    """One row of the report for one workload x metric."""
    med_a, med_b = statistics.median(a), statistics.median(b)
    worse = med_b - med_a if spec["better"] == "lower" else med_a - med_b
    row = {"metric": spec["name"], "unit": spec["unit"],
           "median_a": med_a, "median_b": med_b,
           "shift": worse / med_a, "spread_a": spread(a),
           "spread_b": spread(b), "bound": spec["bound"],
           "exact": a == b if spec["name"] in EXACT else None}
    spreads_ok = spec["name"] == "setup_s" or \
        max(row["spread_a"], row["spread_b"]) <= spec["bound"]
    row["ok"] = (row["shift"] <= spec["bound"] and spreads_ok
                 and row["exact"] is not False)
    return row


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10,
                        help="runs per side and workload (at least 5)")
    parser.add_argument("--seed", type=int, default=404)
    parser.add_argument("--out", type=pathlib.Path, default=None,
                        help="write the report here as well")
    args = parser.parse_args(argv)
    if args.runs < 5:
        parser.error("--runs must be at least 5")
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())

    lines = [
        "# Ledger A/A self-check", "",
        f"- commit `{commit(ROOT)}`",
        f"- machine: {json.dumps(machine())}",
        f"- {args.runs} runs per side and workload, interleaved A,B,A,B; "
        f"run i of both sides uses seed {args.seed}+i; "
        f"`--seconds {contract['run_seconds']}`",
        "- shift: B's median against A's in the worse direction; spread: "
        "(q3 - q1) / median per side; a metric FAILs when either exceeds "
        "its bound (`setup_s`: shift only) or an exact metric differs",
        ""]
    failed = 0
    for workload in [w["name"] for w in contract["workloads"]]:
        side_a, side_b = [], []
        for i in range(args.runs):
            side_a.append(run_once(workload, args.seed + i))
            side_b.append(run_once(workload, args.seed + i))
            print(f"{workload} pair {i + 1}/{args.runs} done", flush=True)
        rehashed = run_once(workload, args.seed, hashseed="1")
        hash_equal = all(rehashed[name] == side_a[0][name]
                         for name in EXACT)
        floors = [run["host_floor_s"] for run in side_a + side_b]
        centre = statistics.median(floors)
        strays = sum(abs(f - centre) > 0.1 * centre for f in floors)
        lines += [f"## {workload}", "",
                  "| metric | unit | median A | median B | shift | "
                  "spread A | spread B | bound | exact A=B | verdict |",
                  "|---|---|---|---|---|---|---|---|---|---|"]
        for spec in contract["end_to_end"]:
            row = compare(spec, [run[spec["name"]] for run in side_a],
                          [run[spec["name"]] for run in side_b])
            failed += not row["ok"]
            exact = {None: "", True: "yes", False: "NO"}[row["exact"]]
            lines.append(
                f"| {row['metric']} | {row['unit']} | "
                f"{row['median_a']:.6g} | {row['median_b']:.6g} | "
                f"{row['shift']:+.2%} | {row['spread_a']:.2%} | "
                f"{row['spread_b']:.2%} | {row['bound']:.0%} | {exact} | "
                f"{'PASS' if row['ok'] else 'FAIL'} |")
        failed += not hash_equal
        lines += ["",
                  f"- exact metrics under `PYTHONHASHSEED=1` "
                  f"{'equal' if hash_equal else 'DIFFER from'} seed "
                  f"{args.seed}'s: {'PASS' if hash_equal else 'FAIL'}",
                  f"- `host_floor_s` more than a tenth from the median of "
                  f"all {len(floors)} runs: {strays}",
                  "- `host_floor_s` per run, A then B: "
                  + " ".join(f"{f:.3f}" for f in floors),
                  ""]
    lines.append(f"**{'FAIL' if failed else 'PASS'}**"
                 + (f" ({failed} rows)" if failed else ""))
    report = "\n".join(lines) + "\n"
    print(report)
    if args.out is not None:
        args.out.write_text(report)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
