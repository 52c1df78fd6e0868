"""Rule ``units-discipline``: integer nanoseconds, parsed sizes.

:mod:`repro.units` keeps simulated time as *integer* nanoseconds so the
event queue stays totally ordered with no floating-point drift.  A
``float`` smuggled into a ``*_ns`` parameter or a ``timeout()`` call
defeats that (and ``heapq`` comparisons between mixed int/float times
are exactly the kind of platform-sensitive tie-break that breaks
bit-reproducibility).  A fractional ``timeout()`` delay is not flagged:
``Timeout`` raises ``ValueError`` on it at run time.  Flags:

* keyword arguments named ``*_ns`` whose value is a float literal or a
  true-division expression (``/`` always yields float);
* assignments binding such an expression to a ``*_ns`` name — except
  when explicitly annotated ``: float``, which declares a deliberate
  fractional quantity;
* ``per_*_ns`` names are exempt everywhere: they are ns-per-unit
  *rates* (e.g. ``per_byte_ns``), fractional by design, consumed via
  ``round()``/:func:`repro.units.serialize_ns` at the call site;
* string literals passed to ``bs=``/``*_bytes=`` keywords where
  :func:`repro.units.parse_size` should be used;
* float expressions passed positionally to ``.record(...)``,
  ``.observe(...)`` or the latency-histogram ``.record_io(...)`` — the
  latency recorder, the telemetry metrics registry and the per-tenant
  histograms all take integer nanoseconds.
"""

from __future__ import annotations

import ast
import typing as t

from ..astutil import dotted_name
from ..findings import Finding
from ..registry import register
from ..rule import FileContext, Rule

_FIX_HINT = "use units.us()/round()/ceil to produce integer ns"


def _is_floaty(node: ast.AST) -> bool:
    """Expression that statically must evaluate to a float."""
    if isinstance(node, ast.Constant):
        return isinstance(node.value, float)
    if isinstance(node, ast.UnaryOp):
        return _is_floaty(node.operand)
    if isinstance(node, ast.BinOp):
        if isinstance(node.op, ast.Div):
            return True
        return _is_floaty(node.left) or _is_floaty(node.right)
    return False


@register
class UnitsDiscipline(Rule):
    name = "units-discipline"
    summary = "*_ns values must be integer ns; sizes via parse_size()"

    def check(self, ctx: FileContext) -> t.Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Call):
                yield from self._check_call(ctx, node)
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    yield from self._check_binding(ctx, target,
                                                   node.value)
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                ann = node.annotation
                if isinstance(ann, ast.Name) and ann.id == "float":
                    continue   # declared-float contract, e.g. per_byte_ns
                yield from self._check_binding(ctx, node.target,
                                               node.value)

    def _check_call(self, ctx: FileContext, node: ast.Call
                    ) -> t.Iterator[Finding]:
        for kw in node.keywords:
            if kw.arg is None:
                continue
            if (kw.arg.endswith("_ns") and not kw.arg.startswith("per_")
                    and _is_floaty(kw.value)):
                yield self.finding(
                    ctx, kw.value,
                    f"float expression passed to {kw.arg}=: {_FIX_HINT}")
            elif ((kw.arg == "bs" or kw.arg.endswith("_bytes"))
                    and isinstance(kw.value, ast.Constant)
                    and isinstance(kw.value.value, str)):
                yield self.finding(
                    ctx, kw.value,
                    f"string literal passed to {kw.arg}=: sizes are "
                    f"integer bytes; convert with units.parse_size()")
        name = dotted_name(node.func)
        # Latency recorders, the telemetry metrics registry and the
        # per-tenant histograms take integer ns: rec.record(v),
        # metrics.observe(name, v, ...),
        # hists.record_io(tenant, op, device, v, ...).
        if name is not None:
            method = name.rsplit(".", 1)[-1]
            arg_index = {"record": 0, "observe": 1,
                         "record_io": 3}.get(method)
            if (arg_index is not None and len(node.args) > arg_index
                    and _is_floaty(node.args[arg_index])):
                yield self.finding(
                    ctx, node.args[arg_index],
                    f"float expression passed to {method}(): "
                    f"{_FIX_HINT}")

    def _check_binding(self, ctx: FileContext, target: ast.AST,
                       value: ast.AST) -> t.Iterator[Finding]:
        name = (target.id if isinstance(target, ast.Name)
                else target.attr if isinstance(target, ast.Attribute)
                else None)
        if (name is not None and name.endswith("_ns")
                and not name.startswith("per_") and _is_floaty(value)):
            yield self.finding(
                ctx, value,
                f"float expression bound to {name}: {_FIX_HINT} "
                f"(or annotate ': float' if a fractional rate is "
                f"intended)")
