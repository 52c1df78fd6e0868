"""Rule ``no-nonposted-hotpath``: keep reads off the I/O data path.

Paper Fig. 8: a posted write crosses the NTB one-way (~.5 us) while a
non-posted read pays a full fabric round trip (several us) *and* stalls
the issuing CPU.  The distributed driver's whole design is that submit
and poll touch remote memory with posted writes only — SQEs are written
into a device-side segment, completions are polled from client-local
memory.  Any register read (``_reg_read``) or NTB segment read
(``*_conn.read`` / ``fabric.read``) reachable from a submit/poll entry
point reintroduces the latency the paper works to eliminate.

Detection is intra-class: entry points are methods whose name suggests
the data path (submit/issue/execute/poll/irq/drain/...) and every method
of a record class (one whose base is named ``*Record``: a request
record's steps are the data path, whatever they are called),
reachability follows ``self.method()`` edges, and a read is any call of
a known non-posted primitive.  A transport's ``issue`` is an entry
point of its own because the core's ``submit`` that calls it lives in a
base class.  The deliberate ablation path (CQ in device-side memory)
carries an explicit ``# staticcheck: ignore[no-nonposted-hotpath]``.
"""

from __future__ import annotations

import ast
import re
import typing as t

from ..astutil import dotted_name, iter_functions, local_walk
from ..findings import Finding
from ..registry import register
from ..rule import FileContext, Rule

#: method-name fragments that mark an I/O hot-path entry point
ENTRY_PATTERN = re.compile(
    r"submit|issue|execute|poll|irq|interrupt|drain|dispatch|ring"
    r"|complete")

#: attribute names that are always non-posted register reads
REGISTER_READS = frozenset({"_reg_read", "reg_read"})

#: ``.read`` is non-posted when issued on one of these objects
_NTB_OBJECT = re.compile(r"conn|fabric|remote|_bar\b")


def _is_nonposted_read(call: ast.Call) -> str | None:
    """Dotted spelling of a non-posted read call, or None."""
    func = call.func
    if not isinstance(func, ast.Attribute):
        return None
    if func.attr in REGISTER_READS:
        return dotted_name(func) or func.attr
    if func.attr == "read":
        base = dotted_name(func.value)
        if base is not None and _NTB_OBJECT.search(base):
            return f"{base}.read"
    return None


def _is_record(cls: ast.ClassDef | None) -> bool:
    """A record class: some base is named ``*Record``."""
    return cls is not None and any(
        (dotted_name(base) or "").endswith("Record") for base in cls.bases)


@register
class NoNonpostedHotpath(Rule):
    name = "no-nonposted-hotpath"
    summary = "no register/NTB reads reachable from submit/poll paths"

    def applies(self, ctx: FileContext) -> bool:
        return ctx.module_rel.startswith("repro/driver/")

    def check(self, ctx: FileContext) -> t.Iterator[Finding]:
        classes: dict[ast.ClassDef | None,
                      dict[str, ast.FunctionDef
                           | ast.AsyncFunctionDef]] = {}
        for cls, fn in iter_functions(ctx.tree):
            classes.setdefault(cls, {})[fn.name] = fn
        for cls, methods in classes.items():
            yield from self._check_class(ctx, methods, _is_record(cls))

    def _check_class(self, ctx: FileContext,
                     methods: dict[str, ast.FunctionDef
                                        | ast.AsyncFunctionDef],
                     record: bool) -> t.Iterator[Finding]:
        # Breadth-first reachability over self.<method>() edges, keeping
        # the entry point each method was first reached from (for the
        # finding message).
        reached: dict[str, str] = {}
        frontier = [name for name in methods
                    if record or ENTRY_PATTERN.search(name)]
        for name in frontier:
            reached[name] = name
        while frontier:
            current = frontier.pop()
            for node in local_walk(methods[current]):
                if not isinstance(node, ast.Call):
                    continue
                callee = dotted_name(node.func)
                if (callee is not None and callee.startswith("self.")
                        and callee.count(".") == 1):
                    target = callee.split(".", 1)[1]
                    if target in methods and target not in reached:
                        reached[target] = reached[current]
                        frontier.append(target)
        for name, entry in sorted(reached.items()):
            for node in local_walk(methods[name]):
                if not isinstance(node, ast.Call):
                    continue
                spelled = _is_nonposted_read(node)
                if spelled is not None:
                    via = "" if name == entry else f" (via {entry})"
                    yield self.finding(
                        ctx, node,
                        f"non-posted read {spelled}() in hot-path "
                        f"method {name}{via}: reads pay a full NTB "
                        f"round trip (paper Fig. 8); keep them on the "
                        f"control path")
