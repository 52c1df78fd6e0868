"""AST-based invariant checker for this reproduction.

The simulation's headline numbers are only trustworthy if three kinds of
invariant hold everywhere:

* **determinism** — no wall-clock reads, all randomness derived from the
  per-component :class:`repro.sim.rng.RngRegistry` streams;
* **posted-write discipline** — the hot I/O path crosses the NTB with
  posted writes only (paper Fig. 8); non-posted reads pay a full fabric
  round trip and belong on the control path;
* **unit safety** — simulated time is integer nanoseconds and sizes are
  integer bytes (see :mod:`repro.units`).

``python -m repro.staticcheck <paths>`` (or ``repro staticcheck``) parses
every Python file once and runs each registered rule over the shared AST.
Findings are silenced per line with a ``# staticcheck: ignore`` comment
naming the rule in brackets; see ``docs/static_analysis.md``.
"""

from __future__ import annotations

from .findings import Finding
from .registry import all_rules, get_rule, register
from .rule import FileContext, Rule
from .runner import check_file, main, run

__all__ = [
    "Finding", "FileContext", "Rule", "all_rules", "get_rule", "register",
    "check_file", "run", "main",
]
