"""Rule ``hotpath-alloc``: keep allocation out of ``# hot-path`` functions.

The PR that introduced the route cache and the event-loop fast paths
pays for its speedup by keeping the innermost loops allocation-light:
plans, caches and owned timers are built *once* (in ``_build_*``
helpers) and the per-event code only indexes into them.  A function
carrying a ``# hot-path`` marker comment has opted into that contract,
so two allocation patterns are flagged inside it:

* **dataclass construction** — dataclass ``__init__`` goes through
  generated keyword-processing code and is several times the cost of a
  tuple; hot paths should return cached instances (see
  ``Fabric.resolve``) or plain tuples.  Only dataclasses *defined in
  the same module* are recognised — cross-module calls cannot be
  classified as dataclasses without imports resolution, and guessing by
  capitalisation would flag required per-I/O protocol objects.
* **dict/list/set comprehensions** — each execution allocates a fresh
  container; hoist them into a plan-builder and reuse the result.

A construction that genuinely belongs on a one-time miss path inside a
hot function (e.g. building the cache entry itself) carries an explicit
``# staticcheck: ignore[hotpath-alloc]`` with a justification, same as
every other rule's escape hatch.

The marker is attributed to the *innermost* function containing the
comment line, so a marked closure does not drag its enclosing function
into the contract.
"""

from __future__ import annotations

import ast
import re
import typing as t

from ..astutil import dotted_name, local_walk, marked_functions
from ..findings import Finding
from ..registry import register
from ..rule import FileContext, Rule

_MARKER = re.compile(r"#\s*hot-path\b")

_COMP_KIND = {
    ast.ListComp: "list",
    ast.SetComp: "set",
    ast.DictComp: "dict",
}


def _is_dataclass_decorator(node: ast.AST) -> bool:
    if isinstance(node, ast.Call):
        node = node.func
    name = dotted_name(node)
    return name in ("dataclass", "dataclasses.dataclass")


def module_dataclasses(tree: ast.Module) -> set[str]:
    """Names of dataclasses defined anywhere in the module."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and any(
                _is_dataclass_decorator(dec)
                for dec in node.decorator_list):
            out.add(node.name)
    return out


def hot_functions(ctx: FileContext) -> t.Iterator[
        ast.FunctionDef | ast.AsyncFunctionDef]:
    """Functions whose body carries a ``# hot-path`` marker comment."""
    return marked_functions(ctx.tree, ctx.lines, _MARKER)


@register
class HotpathAlloc(Rule):
    name = "hotpath-alloc"
    summary = "no dataclass construction or comprehensions in # hot-path code"

    def applies(self, ctx: FileContext) -> bool:
        # The checker's own sources talk *about* the marker in prose;
        # do not let the docstrings mark the rule machinery as hot.
        return not ctx.module_rel.startswith("repro/staticcheck/")

    def check(self, ctx: FileContext) -> t.Iterator[Finding]:
        dataclasses_here = module_dataclasses(ctx.tree)
        for fn in hot_functions(ctx):
            for node in local_walk(fn):
                kind = _COMP_KIND.get(type(node))
                if kind is not None:
                    yield self.finding(
                        ctx, node,
                        f"{kind} comprehension in # hot-path function "
                        f"{fn.name}: allocates a fresh container on "
                        f"every execution — hoist it into a plan "
                        f"builder and reuse the result")
                    continue
                if isinstance(node, ast.Call):
                    callee = dotted_name(node.func)
                    if callee is not None and \
                            callee.split(".")[-1] in dataclasses_here:
                        yield self.finding(
                            ctx, node,
                            f"dataclass {callee}() constructed in "
                            f"# hot-path function {fn.name}: dataclass "
                            f"__init__ is several times a tuple's cost "
                            f"— cache the instance or use a plain "
                            f"tuple (one-time miss paths may carry "
                            f"staticcheck: ignore[hotpath-alloc])")
