"""File discovery, single-parse orchestration, output and exit codes."""

from __future__ import annotations

import argparse
import ast
import json
import pathlib
import sys
import typing as t

from .findings import Finding
from .registry import all_rules, get_rule, rule_names
from .rule import FileContext, Rule
from .suppress import Suppressions

#: exit codes
EXIT_CLEAN = 0
EXIT_FINDINGS = 1
EXIT_ERROR = 2


def iter_python_files(paths: t.Iterable[str | pathlib.Path]
                      ) -> t.Iterator[pathlib.Path]:
    """Expand files/directories into a sorted stream of ``*.py`` files."""
    seen: set[pathlib.Path] = set()
    for raw in paths:
        path = pathlib.Path(raw)
        if path.is_dir():
            candidates: t.Iterable[pathlib.Path] = sorted(
                p for p in path.rglob("*.py")
                if "__pycache__" not in p.parts)
        elif path.suffix == ".py":
            candidates = [path]
        elif not path.exists():
            raise FileNotFoundError(str(path))
        else:
            candidates = []
        for cand in candidates:
            resolved = cand.resolve()
            if resolved not in seen:
                seen.add(resolved)
                yield cand


def module_rel(path: pathlib.Path) -> str:
    """Path from the last ``repro`` component down, posix-separated.

    Rules scope themselves with this (e.g. ``repro/driver/...``), which
    works identically for the real tree under ``src/`` and for test
    fixture trees materialised under a tmp directory.
    """
    parts = path.as_posix().split("/")
    for i in range(len(parts) - 1, -1, -1):
        if parts[i] == "repro":
            return "/".join(parts[i:])
    return parts[-1]


def make_context(path: pathlib.Path, source: str) -> FileContext:
    tree = ast.parse(source, filename=str(path))
    return FileContext(path=path.as_posix(), module_rel=module_rel(path),
                       tree=tree, source=source,
                       lines=source.splitlines())


def check_file(path: pathlib.Path, rules: t.Sequence[Rule]
               ) -> list[Finding]:
    """Parse ``path`` once and run every applicable rule over the AST."""
    source = path.read_text(encoding="utf-8")
    try:
        ctx = make_context(path, source)
    except SyntaxError as exc:
        line = exc.lineno or 1
        return [Finding(rule="parse-error", path=path.as_posix(),
                        line=line, col=(exc.offset or 1) - 1,
                        message=f"cannot parse: {exc.msg}")]
    suppressions = Suppressions(ctx.lines)
    findings = [Finding(rule="unknown-rule", path=path.as_posix(),
                        line=line, col=0,
                        message=f"ignore[{name}] names no registered "
                                f"rule: it silences nothing")
                for name, line in suppressions.mentioned.items()
                if name not in rule_names()]
    for rule in rules:
        if not rule.applies(ctx):
            continue
        for finding in rule.check(ctx):
            if not suppressions.matches(finding.rule, finding.line):
                findings.append(finding)
    findings.sort(key=lambda f: (f.line, f.col, f.rule))
    return findings


def run(paths: t.Sequence[str | pathlib.Path],
        select: t.Sequence[str] | None = None,
        ) -> tuple[list[Finding], int]:
    """Check ``paths``; returns ``(findings, files_checked)``.

    ``select`` limits the run to the named rules."""
    rules = ([get_rule(name) for name in select] if select
             else all_rules())
    files = list(iter_python_files(paths))
    return ([finding for path in files
             for finding in check_file(path, rules)], len(files))


def _list_rules() -> str:
    rows = [f"  {rule.name:<28} {rule.summary}" for rule in all_rules()]
    return "\n".join(["available rules:"] + rows)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.staticcheck",
        description="AST-based invariant checker (determinism, "
                    "posted-write discipline, unit safety)")
    parser.add_argument("paths", nargs="*", default=["src"],
                        help="files or directories to check "
                             "(default: src)")
    parser.add_argument("--select", metavar="RULE[,RULE...]",
                        help="run only the named rules")
    parser.add_argument("--format", choices=("text", "json"),
                        default="text", dest="fmt")
    parser.add_argument("--list-rules", action="store_true",
                        help="list registered rules and exit")
    parser.add_argument("--stats", action="store_true",
                        help="print findings-per-rule, file count and "
                             "scan time")
    return parser


def _stats_summary(findings: t.Sequence[Finding], nfiles: int,
                   elapsed_s: float) -> dict[str, t.Any]:
    per_rule: dict[str, int] = {}
    for finding in findings:
        per_rule[finding.rule] = per_rule.get(finding.rule, 0) + 1
    return {"files_scanned": nfiles,
            "scan_time_ms": round(elapsed_s * 1000, 1),
            "findings_per_rule": dict(sorted(per_rule.items()))}


def _format_stats(stats: dict[str, t.Any]) -> str:
    lines = [f"stats: {stats['files_scanned']} file(s) in "
             f"{stats['scan_time_ms']} ms"]
    per_rule = stats["findings_per_rule"]
    if per_rule:
        width = max(len(name) for name in per_rule)
        lines += [f"  {name:<{width}} {count}"
                  for name, count in per_rule.items()]
    else:
        lines.append("  no findings")
    return "\n".join(lines)


def main(argv: t.Sequence[str] | None = None,
         out: t.TextIO | None = None) -> int:
    out = out if out is not None else sys.stdout
    args = build_parser().parse_args(argv)
    if args.list_rules:
        print(_list_rules(), file=out)
        return EXIT_CLEAN
    select = (args.select.split(",") if args.select else None)
    # Dev tooling, not simulation: scan timing cannot perturb a run.
    import time
    start = time.perf_counter()  # staticcheck: ignore[no-wallclock] tool timing, not sim state
    try:
        findings, nfiles = run(args.paths, select=select)
    except (FileNotFoundError, KeyError, ValueError) as exc:
        print(f"error: {exc}", file=out)
        return EXIT_ERROR
    elapsed = time.perf_counter() - start  # staticcheck: ignore[no-wallclock] tool timing, not sim state
    stats = _stats_summary(findings, nfiles, elapsed)
    if args.fmt == "json":
        payload = {"files_checked": nfiles,
                   "findings": [f.to_json() for f in findings]}
        if args.stats:
            payload["stats"] = stats
        print(json.dumps(payload, indent=2), file=out)
    else:
        for finding in findings:
            print(finding.format(), file=out)
        status = ("clean" if not findings
                  else f"{len(findings)} finding(s)")
        print(f"staticcheck: {nfiles} file(s), {status}", file=out)
        if args.stats:
            print(_format_stats(stats), file=out)
    return EXIT_FINDINGS if findings else EXIT_CLEAN
