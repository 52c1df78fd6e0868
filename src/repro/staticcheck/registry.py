"""Plugin registry.

Rule modules call :func:`register` at import time; the runner asks for
:func:`all_rules`, which imports the bundled ``rules`` package on first
use so that merely importing :mod:`repro.staticcheck` stays cheap.
"""

from __future__ import annotations

import importlib

from .rule import Rule

_RULES: dict[str, type[Rule]] = {}
_BUILTINS_LOADED = False


def register(cls: type[Rule]) -> type[Rule]:
    """Class decorator adding a rule to the registry (name must be unique)."""
    if not cls.name:
        raise ValueError(f"rule class {cls.__name__} has no name")
    if cls.name in _RULES and _RULES[cls.name] is not cls:
        raise ValueError(f"duplicate rule name: {cls.name}")
    _RULES[cls.name] = cls
    return cls


def _load_builtins() -> None:
    global _BUILTINS_LOADED
    if not _BUILTINS_LOADED:
        importlib.import_module(f"{__package__}.rules")
        _BUILTINS_LOADED = True


def all_rules() -> list[Rule]:
    """Fresh instances of every registered rule, sorted by name."""
    _load_builtins()
    return [cls() for _, cls in sorted(_RULES.items())]


def rule_names() -> set[str]:
    """The name of every registered rule."""
    _load_builtins()
    return set(_RULES)


def get_rule(name: str) -> Rule:
    _load_builtins()
    try:
        return _RULES[name]()
    except KeyError:
        known = ", ".join(sorted(_RULES))
        raise KeyError(f"unknown rule {name!r} (known: {known})") from None
