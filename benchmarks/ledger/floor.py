"""Host-time protocol: sliced driving and the piecewise-floor estimate.

The interference on a shared box is invisible to the guest (steal ~0,
CPU time tracks wall time), so it cannot be subtracted; it is estimated
around.  The simulator is deterministic, so slice ``k`` of every repeat
does identical work, and the cheapest observation of each slice is the
best estimate of its undisturbed cost::

    host_floor_s = sum_k min_r t[r][k]

A disturbance has to hit the same slice in *every* repeat to survive.
"""

from __future__ import annotations

import time
import typing as t

#: percentiles a report may quote, lowest first
PERCENTILE_LADDER = (50.0, 90.0, 99.0, 99.9, 99.99)


def drive(legs: t.Sequence[tuple[t.Any, t.Any]], slice_ns: int
          ) -> tuple[list[float], list[int]]:
    """Run each ``(sim, done)`` leg to completion in fixed simulated-time
    slices; returns per-slice host seconds and event counts.

    Slices are integer deadlines (``sim.run(until=now + slice_ns)``), so
    the harness adds no event of its own to the simulation: the event
    count of a sliced run is that of the unsliced run plus whatever
    background processes do in the tail of the last slice.
    """
    clock = time.perf_counter
    times: list[float] = []
    events: list[int] = []
    for sim, done in legs:
        while not done.processed:
            if sim.peek() is None:
                raise RuntimeError("simulation ran out of events before "
                                   "the workload finished")
            before = sim.events_processed
            start = clock()
            sim.run(until=sim.now + slice_ns)
            times.append(clock() - start)
            events.append(sim.events_processed - before)
    return times, events


def piecewise_floor(times: t.Sequence[t.Sequence[float]],
                    events: t.Sequence[t.Sequence[int]]) -> float:
    """``sum_k min_r times[r][k]`` over repeats ``r`` of the same work.

    Raises ``ValueError`` unless every repeat has the same number of
    slices and the same per-slice event counts — the precondition that
    makes a per-slice minimum meaningful.
    """
    if not times or len(times) != len(events):
        raise ValueError("need one time row and one event row per repeat")
    for r, (trow, erow) in enumerate(zip(times, events)):
        if len(trow) != len(erow) or len(trow) != len(times[0]):
            raise ValueError(f"repeat {r} has {len(trow)} slices, "
                             f"repeat 0 has {len(times[0])}")
        if list(erow) != list(events[0]):
            raise ValueError(f"repeat {r} did different work per slice "
                             f"than repeat 0")
    if not times[0]:
        raise ValueError("no slices")
    return sum(min(column) for column in zip(*times))


def highest_percentile(n: int, beyond: int = 10) -> float | None:
    """The highest percentile of :data:`PERCENTILE_LADDER` that still has
    at least ``beyond`` of ``n`` samples above it (None if not even the
    median does)."""
    best = None
    for p in PERCENTILE_LADDER:
        # round() guards the float product (1000 * 0.01 is 10, not 9.99…)
        if round(n * (100.0 - p) / 100.0, 9) >= beyond:
            best = p
    return best
