"""ShareSan: cross-host ownership/race sanitizer (docs/sanitizer.md).

Import-light on purpose: ``memory.physmem`` and ``nvme.queues`` pull
:data:`NULL_SANITIZER` from here at module load, so only the dependency-
free ``hooks`` module is imported eagerly.  The hub and helpers resolve
lazily (PEP 562).
"""

from __future__ import annotations

from .hooks import NULL_SANITIZER, NullSanitizer

__all__ = ["NULL_SANITIZER", "NullSanitizer", "ShareSan", "Finding",
           "DETECTORS", "build_report", "render_json", "render_text",
           "FIXTURES", "selftest"]

_LAZY = {
    "ShareSan": "sanitizer",
    "Finding": "sanitizer",
    "DETECTORS": "sanitizer",
    "build_report": "report",
    "render_json": "report",
    "render_text": "report",
    "FIXTURES": "fixtures",
    "selftest": "fixtures",
}


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute "
                             f"{name!r}")
    import importlib
    return getattr(importlib.import_module(f".{module}", __name__), name)
