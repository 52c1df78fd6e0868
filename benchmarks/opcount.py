#!/usr/bin/env python3
"""Executed bytecodes per I/O of one ledger rig: calls are a count,
bytecodes are the cost.

    python3 benchmarks/opcount.py --workload qos-noisy-open --seed 404

One un-timed pass of a workload of ``benchmarks/ledger/rigs.py`` (built,
started and collected exactly as ``ledger/run.py`` does), driven under
``sys.settrace`` with ``f_trace_opcodes`` on every Python frame, so each
executed bytecode is one trace event.  Prints the executed bytecodes per
completed I/O, the share of each ``repro`` package, the ``--top``
functions, and the run digest (equal to the ledger's: tracing reads,
never steers).  The number is exact for a tree and an interpreter
(counted on CPython 3.11) and takes about a minute; it says what
``host_calls_per_io`` cannot — whether a PR removed work or renamed
calls into inline statements (docs/performance.md, "Profiling").
"""

from __future__ import annotations

import argparse
import collections
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmarks" / "ledger")]

from floor import drive                                     # noqa: E402
from hostsplit import owner                                 # noqa: E402
from rigs import WORKLOADS                                  # noqa: E402


def count_opcodes(workload, seed: int):
    """One pass; returns (outcome, {code object: executed bytecodes})."""
    counts: collections.Counter = collections.Counter()

    def local(frame, event, _arg):
        if event == "opcode":
            counts[frame.f_code] += 1
        return local

    def on_call(frame, _event, _arg):
        frame.f_trace_opcodes = True
        frame.f_trace_lines = False
        return local

    rig = workload.build(seed)
    legs = workload.start(rig)
    sys.settrace(on_call)
    try:
        drive(legs, workload.slice_ns)
    finally:
        sys.settrace(None)
    return workload.collect(rig), counts


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="qos-noisy-open",
                    choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=404)
    ap.add_argument("--top", type=int, default=15,
                    help="functions to list, by executed bytecodes")
    args = ap.parse_args(argv)

    outcome, counts = count_opcodes(WORKLOADS[args.workload], args.seed)
    if outcome.failed or outcome.ios != outcome.attempted:
        raise SystemExit(f"{outcome.failed} of {outcome.attempted} I/Os "
                         f"failed, {outcome.ios} ok")
    ios = outcome.ios
    total = sum(counts.values())
    packages: collections.Counter = collections.Counter()
    for code, n in counts.items():
        func = (code.co_filename, code.co_firstlineno, code.co_name)
        packages[owner(func) or "outside repro"] += n
    print(f"{args.workload} seed {args.seed}: "
          f"{total / ios:.1f} bytecodes/io ({total} over {ios} I/Os)")
    print(f"digest {list(outcome.digest)}")
    for package, n in packages.most_common():
        print(f"  {package:16s} {n / ios:10.1f}  {n / total:6.1%}")
    for code, n in counts.most_common(args.top):
        where = code.co_filename.rpartition("/repro/")[2]
        print(f"  {n / ios:10.1f}  {where}:{code.co_firstlineno} "
              f"{code.co_name}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
