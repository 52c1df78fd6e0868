"""The :class:`Finding` record produced by every rule."""

from __future__ import annotations

import dataclasses
import hashlib


@dataclasses.dataclass(frozen=True)
class Finding:
    """One rule violation at a specific source location."""

    rule: str
    path: str          #: display path (posix separators)
    line: int          #: 1-based line number
    col: int           #: 0-based column offset
    message: str
    source_line: str = ""   #: stripped text of the offending line

    def format(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: [{self.rule}] " \
               f"{self.message}"

    def to_json(self) -> dict:
        return {
            "rule": self.rule, "path": self.path, "line": self.line,
            "col": self.col, "message": self.message,
            "fingerprint": self.fingerprint(),
        }

    def fingerprint(self) -> str:
        """Location-insensitive identity, the JSON output's
        ``fingerprint``: a hash of the rule, file and *stripped source
        text* rather than the line number, so unrelated edits above a
        finding do not change it."""
        blob = "\x1f".join((self.rule, self.path, self.source_line.strip()))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]
