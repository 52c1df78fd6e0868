"""ShareSan: cross-host ownership/race sanitizer (docs/sanitizer.md).

Nothing in the model imports this package: ShareSan watches through
the probe seam (:mod:`repro.sim.probe`), and whoever wants one imports
it where the rig is built.
"""

from .fixtures import FIXTURES, selftest
from .report import build_report, render_json, render_text
from .sanitizer import DETECTORS, Finding, ShareSan

__all__ = ["ShareSan", "Finding", "DETECTORS", "build_report",
           "render_json", "render_text", "FIXTURES", "selftest"]
