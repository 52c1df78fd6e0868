"""One renderer for every doc table the code can produce.

A generated block is the text between ``<!-- KIND:NAME -->`` and
``<!-- /KIND:NAME -->``; ``KIND`` names the test module whose
``BLOCKS`` produce it (``fidelity``: tests/test_fidelity.py, ``docs``:
tests/test_docs.py), and that module's test fails while the doc differs
from what the code produces.  One command rewrites every block of every
doc (``PYTHONPATH=src`` in a checkout not installed)::

    python -m tests.docblocks

A producer is handed the block's current text and returns the new one.
Most ignore it; a table whose hand-written columns explain what the
rendered ones show keeps those cells, row by row (:func:`rows`).
"""

from __future__ import annotations

import pathlib
import re
import typing as t

ROOT = pathlib.Path(__file__).resolve().parents[1]

Producer = t.Callable[[str], str]

_BLOCK = re.compile(r"(<!-- ([\w-]+:[\w-]+) -->\n)(.*?)(<!-- /\2 -->)",
                    re.S)


def render(text: str, blocks: t.Mapping[str, Producer]) -> str:
    """``text`` with every marked block regenerated by ``blocks``."""
    return _BLOCK.sub(lambda m: m[1] + blocks[m[2]](m[3]) + "\n" + m[4],
                      text)


def names(text: str) -> set[str]:
    """The ``KIND:NAME`` of every marked block in ``text``."""
    return {m[2] for m in _BLOCK.finditer(text)}


def md_table(headers: t.Sequence[str], body: t.Iterable[t.Sequence]) -> str:
    lines = ["| " + " | ".join(headers) + " |", "|" + "---|" * len(headers)]
    lines += ["| " + " | ".join(str(c) for c in row) + " |" for row in body]
    return "\n".join(lines)


def rows(body: str) -> dict[str, list[str]]:
    """The cells of the markdown table in ``body``, by first cell."""
    cells = [[cell.strip() for cell in re.split(r"(?<!\\)\|", line)[1:-1]]
             for line in body.splitlines() if line.startswith("|")]
    return {row[0]: row for row in cells[2:]}


def docs() -> dict[pathlib.Path, dict[str, Producer]]:
    """Every doc with generated blocks, and their producers."""
    from . import test_docs, test_fidelity
    return {ROOT / "EXPERIMENTS.md": test_fidelity.BLOCKS,
            **{ROOT / doc: blocks for doc, blocks in test_docs.DOCS.items()}}


if __name__ == "__main__":
    for path, blocks in docs().items():
        path.write_text(render(path.read_text(), blocks))
