#!/usr/bin/env python3
"""Share of driven CPU seconds per ``repro`` package, from SIGPROF samples.

    python3 benchmarks/wallshare.py --workload multihost-4-rw64k --passes 5

Each pass builds, starts and collects a workload of
``benchmarks/ledger/rigs.py`` exactly as ``ledger/run.py`` does, and
drives it with ``signal.setitimer(ITIMER_PROF)`` firing every
millisecond of process CPU time.  A sample is charged to the
innermost ``repro`` frame on the interrupted stack: its package (the
ledger's ``hostsplit.owner``) and its function.  A sample taken while a
garbage collection runs (``gc.callbacks``) is charged to ``gc``, one with
no ``repro`` frame to ``outside repro``.  Every sample lands in exactly
one row, so the shares sum to 1 by construction; unlike cProfile, a
sample costs nothing per call, so a small function is not overcharged.
Python runs the handler at the next point that checks for signals (a
call or a loop's jump back), so a sample that lands in C work (a slice
copy, a struct unpack) goes to the Python function entered next: read
neighbouring functions together.
Prints each row's share with its sample count, the ``--top`` functions
and the run digest (equal to the ledger's: sampling reads, never
steers).  A share p from n samples is good to about
``sqrt(p * (1 - p) / n)``: 1.5 points at p = 0.5 and n = 1,000.
"""

from __future__ import annotations

import argparse
import collections
import gc
import pathlib
import signal
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmarks" / "ledger")]

from floor import drive                                     # noqa: E402
from hostsplit import owner                                 # noqa: E402

GC = "gc"
OUTSIDE = "outside repro"
#: CPU seconds between samples
INTERVAL_S = 0.001


def charge(frame, collecting: bool) -> tuple[str, str | None]:
    """``(row, function)`` a sample of ``frame`` is charged to: ``gc``
    while a collection runs, else the package and ``file:line name`` of
    the innermost ``repro`` frame, else ``outside repro``."""
    if collecting:
        return GC, None
    while frame is not None:
        code = frame.f_code
        func = (code.co_filename, code.co_firstlineno, code.co_name)
        package = owner(func)
        if package is not None:
            where = func[0].replace("\\", "/").rpartition("/repro/")[2]
            return package, f"{where}:{func[1]} {func[2]}"
        frame = frame.f_back
    return OUTSIDE, None


class Sampler:
    """SIGPROF samples charged by :func:`charge`, while entered."""

    def __init__(self) -> None:
        self.rows: collections.Counter = collections.Counter()
        self.functions: collections.Counter = collections.Counter()
        self.collecting = False
        self._previous = None

    def on_gc(self, phase: str, _info: dict) -> None:
        self.collecting = phase == "start"

    def on_sample(self, _signum: int, frame) -> None:
        row, func = charge(frame, self.collecting)
        self.rows[row] += 1
        if func is not None:
            self.functions[func] += 1

    def __enter__(self) -> "Sampler":
        gc.callbacks.append(self.on_gc)
        self._previous = signal.signal(signal.SIGPROF, self.on_sample)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *_exc) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, self._previous)
        gc.callbacks.remove(self.on_gc)
        self.collecting = False

    def shares(self) -> list[tuple[str, int, float]]:
        """``(row, samples, share)``, largest first; the shares sum to 1."""
        total = sum(self.rows.values())
        return [(row, n, n / total) for row, n in self.rows.most_common()]


def sample_passes(workload, seed: int, passes: int, sampler: Sampler):
    """``passes`` build-drive-collect cycles, each drive sampled; returns
    the outcomes."""
    outcomes = []
    for _ in range(passes):
        # as ledger/run.py's one_pass: no earlier rig's garbage in the
        # driven region
        gc.collect()
        rig = workload.build(seed)
        gc.collect()
        legs = workload.start(rig)
        with sampler:
            drive(legs, workload.slice_ns)
        outcomes.append(workload.collect(rig))
    return outcomes


def main(argv: list[str] | None = None) -> int:
    from rigs import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="multihost-4-rw64k",
                    choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=404)
    ap.add_argument("--passes", type=int, default=5)
    ap.add_argument("--top", type=int, default=15,
                    help="functions to list, by samples")
    args = ap.parse_args(argv)

    sampler = Sampler()
    outcomes = sample_passes(WORKLOADS[args.workload], args.seed,
                             args.passes, sampler)
    for outcome in outcomes:
        if outcome.failed or outcome.ios != outcome.attempted:
            raise SystemExit(f"{outcome.failed} of {outcome.attempted} "
                             f"I/Os failed, {outcome.ios} ok")
    digests = {tuple(outcome.digest) for outcome in outcomes}
    if len(digests) != 1:
        raise SystemExit(f"passes differ: {sorted(digests)}")
    total = sum(sampler.rows.values())
    print(f"{args.workload} seed {args.seed}: {total} samples, one per "
          f"{INTERVAL_S * 1e3:g} ms of CPU, over {args.passes} driven "
          f"passes (Python {sys.version.split()[0]})")
    print(f"digest {list(outcomes[0].digest)}")
    for row, n, share in sampler.shares():
        print(f"  {row:16s} {n:6d}  {share:6.1%}")
    for func, n in sampler.functions.most_common(args.top):
        print(f"  {n / total:6.1%}  {func}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
