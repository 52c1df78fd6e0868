"""The docs say what the code does: every table the code can produce is
rendered from it (tests/docblocks.py), and every section a file cites
by title still exists.

A doc block here is checked exactly; ``python -m tests.docblocks``
rewrites it.  A citation is ``docs/<doc>.md, "<title>"`` (or ``<doc>.md's
"<title>"``), wrapped over lines or not, in any file a reader of the
repo opens; an anchor is ``](#slug)`` or ``](<doc>.md#slug)`` in a doc.
Both must name a heading.
"""

from __future__ import annotations

import ast
import dataclasses
import functools
import pathlib
import re

import pytest

import repro
from repro import config
from repro.driver import BlockRequest
from repro.scenarios import build_fig10_scenario
from repro.sim.probe import EVENTS
from repro.telemetry import STAGES

from . import test_slo
from .docblocks import ROOT, Producer, md_table, names, render, rows

STAGE_LEGS = ("local-linux", "ours-local", "ours-remote")


@functools.cache
def _one_read(name: str) -> tuple[dict[str, int], int]:
    """Stage durations and latency of one 4 KiB read at LBA 0 on a fresh
    Fig. 10 rig, seed 404."""
    scenario = build_fig10_scenario(name, seed=404, telemetry=True)
    scenario.sim.run(until=scenario.device.submit(
        BlockRequest("read", lba=0, nblocks=8)))
    span, = scenario.telemetry.spans.clean_spans()
    return span.stage_durations(), span.duration_ns


def stages(body: str) -> str:
    """docs/observability.md's Fig. 10 stage table; "why it moves" is
    kept from ``body``."""
    why = rows(body)
    runs = [_one_read(leg) for leg in STAGE_LEGS]
    return md_table(
        ["stage", *(f"`{leg}` (ns)" for leg in STAGE_LEGS), "why it moves"],
        [[f"`{stage}`", *(ns[stage] for ns, _latency in runs),
          why.get(f"`{stage}`", [""])[-1]] for stage in STAGES]
        + [["**latency**", *(f"**{latency}**" for _ns, latency in runs),
            ""]])


def slo_cost(_body: str) -> str:
    """docs/observability.md's host cost of the SLO stack: the counts
    tests/test_slo.py::TestSloCost pins."""
    budget = test_slo.TestSloCost
    off, on = budget.OFF_CALLS, budget.ON_CALLS
    return md_table(
        ["telemetry stack", "host calls", "vs off"],
        [["off", f"{off:,}", ""],
         [f"on, sampler at {budget.INTERVAL_NS // 1000} µs", f"{on:,}",
          f"{(on / off - 1) * 100:+.1f} %"]])


def _subscribers() -> dict[str, list[str]]:
    """event -> the classes under ``src/repro`` with an ``on_<event>``."""
    found: dict[str, list[str]] = {event: [] for event in EVENTS}
    package = pathlib.Path(repro.__file__).parent
    for path in sorted(package.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if (isinstance(item, ast.FunctionDef)
                            and item.name[3:] in EVENTS
                            and item.name.startswith("on_")):
                        found[item.name[3:]].append(node.name)
    return {event: sorted(classes) for event, classes in found.items()}


def probe(body: str) -> str:
    """docs/observability.md's probe table: event, arguments and
    subscriber classes from the code; the emit site and what the
    subscribers do are kept from ``body``."""
    kept = rows(body)
    subscribers = _subscribers()
    return md_table(
        ["event", "arguments", "subscribers", "emitted by, at which instant",
         "what they do with it"],
        [[f"`{event}`", f"`{args}`",
          ", ".join(f"`{name}`" for name in subscribers[event]),
          *kept.get(f"`{event}`", [""] * 5)[3:]]
         for event, args in EVENTS.items()])


def _defaults() -> dict[str, list[object]]:
    """Every field default of the config dataclasses, by field name (a
    name two classes share has two)."""
    found: dict[str, list[object]] = {}
    for cls in vars(config).values():
        if isinstance(cls, type) and dataclasses.is_dataclass(cls):
            instance = cls()
            for field in dataclasses.fields(cls):
                found.setdefault(field.name, []).append(
                    getattr(instance, field.name))
    return found


def _value(name: str, value: object) -> str:
    if isinstance(value, float):
        if "bandwidth" in name:
            return f"{value:g} GB/s"  # bytes per ns
        return f"{value:.4g} ns" if name.endswith("_ns") else f"{value:g}"
    if name.endswith("_ns"):
        return f"{value:,} ns"
    if name.endswith(("_bytes", "_size")):
        return f"{value:,} B"
    return f"{value:,}"


def calibration(body: str) -> str:
    """One of docs/calibration.md's tables: each row names config fields
    in its first cell, its value cell is their defaults, its source is
    kept from ``body``."""
    defaults = _defaults()
    return md_table(
        ["constant", "value", "source"],
        [[key, " / ".join(_value(name, *defaults[name])
                          for name in re.findall(r"`(\w+)`", key)), source]
         for key, (_key, _value_cell, source) in rows(body).items()])


#: doc -> its generated blocks (tests/docblocks.py)
DOCS: dict[str, dict[str, Producer]] = {
    "docs/observability.md": {"docs:probe": probe, "docs:stages": stages,
                              "docs:slo-cost": slo_cost},
    "docs/calibration.md": {f"docs:{table}": calibration for table in (
        "pcie", "media", "host", "rdma")},
}


@pytest.mark.parametrize("doc", DOCS)
def test_doc_blocks_are_current(doc: str) -> None:
    text = (ROOT / doc).read_text()
    assert names(text) == set(DOCS[doc])
    assert render(text, DOCS[doc]) == text, \
        f"{doc} is stale: run python -m tests.docblocks"


# -- citations and anchors ----------------------------------------------------

#: the files a reader of the repo opens; the paper's abstract and the
#: related-work notes at the root are context, not the repo's own word
CITING = ("README.md", "DESIGN.md", "EXPERIMENTS.md", "ROADMAP.md",
          "CHANGES.md", "docs/*.md", ".claude/skills/*/*.md",
          ".github/**/*.yml", "src/**/*.py", "tests/**/*.py",
          "benchmarks/**/*.py", "benchmarks/**/*.md", "examples/*.py")

_CITATION = re.compile(
    r"(?<![\w/])(docs/)?(\w+)\.md\)?(?:,|'s)\s+\"([^\"]+)\"")
_ANCHOR = re.compile(r"\]\((?:(\w+)\.md)?#([^)\s]+)\)")


def slug(heading: str) -> str:
    """GitHub's anchor for ``heading``."""
    return re.sub(r"[^\w\- ]", "", heading.strip().lower()).replace(" ", "-")


@functools.cache
def headings(doc: str) -> tuple[str, ...]:
    """The headings of ``docs/<doc>.md``, outside code fences."""
    found, fenced = [], False
    for line in (ROOT / "docs" / f"{doc}.md").read_text().splitlines():
        fenced ^= line.startswith("```")
        if not fenced and (match := re.match(r"#+ (.*)", line)):
            found.append(match[1].strip())
    return tuple(found)


def _titles(doc: str) -> set[str]:
    """What a citation may call a heading of ``doc``: its text, or its
    text short of a trailing "(no gain claimed)"."""
    return {title for heading in headings(doc)
            for title in (heading, re.sub(r" \(.*\)$", "", heading))}


def _citations():
    for pattern in CITING:
        for path in sorted(ROOT.glob(pattern)):
            # one line: a wrapped title loses its break and comment mark
            text = re.sub(r"[ \t]*\n[ \t]*(?:#[ \t]*)?", " ",
                          path.read_text())
            for match in _CITATION.finditer(text):
                if match[1] or (ROOT / "docs" / f"{match[2]}.md").exists():
                    yield path.relative_to(ROOT), match[2], match[3]


def test_every_cited_section_exists() -> None:
    cited = list(_citations())
    assert len(cited) > 10
    missing = [(str(path), doc, title) for path, doc, title in cited
               if not (ROOT / "docs" / f"{doc}.md").exists()
               or title not in _titles(doc)]
    assert not missing, missing


def test_every_anchor_names_a_heading() -> None:
    seen, missing = 0, []
    for path in sorted((ROOT / "docs").glob("*.md")):
        for match in _ANCHOR.finditer(path.read_text()):
            doc = match[1] or path.stem
            seen += 1
            if match[2] not in map(slug, headings(doc)):
                missing.append((path.name, match[0]))
    assert seen > 10
    assert not missing, missing
