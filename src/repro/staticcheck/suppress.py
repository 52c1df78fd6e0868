"""Suppression comments: ``# staticcheck: ignore`` and rule names.

A marker on the offending line silences the named rule(s) for that
line::

    x = conn.read(0, 16)  # staticcheck: ignore[no-nonposted-hotpath] why

A marker on a *comment-only* line applies to the next line, for
statements too long to carry a trailing comment.  Several rules may be
listed, comma-separated.  A name that is no registered rule is reported
by the runner (``unknown-rule``), so a typo or a retired rule's name
cannot sit in the tree silencing nothing.
"""

from __future__ import annotations

import re

_MARKER = re.compile(r"#\s*staticcheck:\s*ignore\[([^\]]*)\]")
_COMMENT_ONLY = re.compile(r"^\s*#")


class Suppressions:
    """Per-line map of suppressed rule names for one file."""

    def __init__(self, lines: list[str]) -> None:
        self._by_line: dict[int, set[str]] = {}
        #: rule name -> the first line naming it
        self.mentioned: dict[str, int] = {}
        for i, text in enumerate(lines, start=1):
            # Collect *every* pragma on the line — a second
            # ``ignore[...]`` after the first must not be dropped.
            rules: set[str] = set()
            for match in _MARKER.finditer(text):
                rules |= {name.strip()
                          for name in match.group(1).split(",")
                          if name.strip()}
            if not rules:
                continue
            for name in rules:
                self.mentioned.setdefault(name, i)
            self._by_line.setdefault(i, set()).update(rules)
            if _COMMENT_ONLY.match(text):
                # Standalone comment: also covers the following line.
                self._by_line.setdefault(i + 1, set()).update(rules)

    def matches(self, rule: str, line: int) -> bool:
        return rule in self._by_line.get(line, ())
