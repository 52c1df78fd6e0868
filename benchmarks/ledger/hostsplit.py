"""Roll a cProfile table up by top-level package of ``repro``.

A layer here is a top-level package of ``repro``.  Code outside
``repro`` (C builtins, numpy, the stdlib, dataclass-generated
``__init__``) is not a layer of its own: its calls and self time are
charged to the package of whoever called it, read from the profile's
caller table, so the rows sum to the profiled total.  What has no
``repro`` caller (the harness, builtins called by other builtins) lands
in ``other``, together with the parts of ``repro`` that are not on the
I/O path (``scenarios``, ``analysis``, ``config.py`` ...).
"""

from __future__ import annotations

import cProfile
import pstats
import typing as t

#: the rows of the host split, in report order
PACKAGES = ("sim", "pcie", "nvme", "driver", "memory", "sisci", "smartio",
            "workloads", "telemetry", "qos", "sanitizer", "faults",
            "nvmeof", "rdma", "other")

Func = tuple[str, int, str]


def owner(func: Func) -> str | None:
    """Package row a profiled function belongs to, None if it is not
    ``repro`` code (and must be charged to its callers)."""
    _head, found, tail = func[0].replace("\\", "/").rpartition("/repro/")
    if not found:
        return None
    package = tail.partition("/")[0]
    return package if package in PACKAGES else "other"


def rollup(stats: t.Mapping[Func, tuple]) -> dict[str, list]:
    """``{package: [calls, self_seconds]}`` from a ``pstats`` table
    (``{func: (cc, nc, tt, ct, {caller: (nc, cc, tt, ct)})}``).

    Calls sum to the table's total call count exactly; self seconds sum
    to its total self time up to float rounding.
    """
    rows: dict[str, list] = {package: [0, 0.0] for package in PACKAGES}
    for func, (_cc, calls, self_s, _ct, callers) in stats.items():
        package = owner(func)
        if package is not None:
            rows[package][0] += calls
            rows[package][1] += self_s
            continue
        for caller, (caller_calls, _c, caller_self_s, _t) in callers.items():
            row = rows[owner(caller) or "other"]
            row[0] += caller_calls
            row[1] += caller_self_s
            calls -= caller_calls
            self_s -= caller_self_s
        rows["other"][0] += calls
        rows["other"][1] += self_s
    return rows


def profiled(fn: t.Callable[[], t.Any]) -> tuple[t.Any, dict[Func, tuple]]:
    """Run ``fn`` under cProfile; returns its result and the stats table."""
    profile = cProfile.Profile()
    profile.enable()
    try:
        result = fn()
    finally:
        profile.disable()
    return result, pstats.Stats(profile).stats
